"""Exact combinatorics of reduced words of the longest element.

Enumeration and canonicalization of commutation classes, chains and index
vectors of word posets, Gelfand-Cetlin type classification, and shifted
standard Young tableau counting, with brute-force verification suites.
"""

from .words import (
    DomainError,
    Word,
    apply_2move,
    apply_3move,
    enumerate_reduced_words,
    inversion_count,
    is_reduced,
    longest_element,
    parse_perm,
    parse_word,
    perm_of_word,
    standard_word,
    word,
)
from .word_poset import (
    WordPoset,
    canonical_form,
    count_commutation_classes,
    count_linear_extensions,
    enumerate_commutation_classes,
    is_isomorphic,
    lexmin_word,
    poset_of_word,
)
from .wiring import chains_from_wires
from .indices import (
    ascending_chain,
    contract_A,
    contract_D,
    contraction_ideal_A,
    contraction_ideal_D,
    delta_index,
    descending_chain,
    extend_A,
    extend_D,
    full_profile,
    ind_A,
    ind_D,
)
from .gc import (
    BudgetExceeded,
    classify_gc,
    gc_direct,
    gc_poset_of_delta,
    gc_recurrence,
    gc_table,
    thrall_g,
)

__version__ = "0.1.0"
