"""Package-wide rules: invariants are real checks, not asserts, the
doctests pass with asserts compiled out, the oracles in `verify` stay off
the production path, and every public name of a production module has a
caller."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import gcwords

PACKAGE = Path(gcwords.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))


def test_no_assert_statements():
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert MODULES and offenders == []


def _imports_verify(node) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.startswith("gcwords.verify") for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        if node.module in ("verify", "gcwords.verify"):
            return True
        if node.module in (None, "gcwords"):
            return any(alias.name == "verify" for alias in node.names)
    return False


def test_only_the_cli_imports_verify():
    importers = {
        path.stem
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if _imports_verify(node)
    }
    assert importers == {"cli"}


def _names(node):
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, (ast.ImportFrom, ast.Import)):
        yield from (alias.name for alias in node.names)
    elif isinstance(node, ast.FunctionDef):
        yield node.name


def test_only_indices_and_verify_reach_the_contraction_rule():
    # the other modules read their indices off the poset's cached stage
    # table; contracted words stay behind indices and its oracle
    users = {
        path.stem
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if {"_contract", "_stage"} & set(_names(node))
    }
    assert users == {"indices", "verify"}


def test_only_verify_reaches_the_pair_test():
    # every index route reads the poset's one stage table; the pair test of
    # a stage's wires is the oracle that checks that table, and a second
    # index route through it must not come back
    users = {
        path.stem
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if "_indices" in set(_names(node))
    }
    assert users == {"verify"}


def test_only_verify_names_the_order_oracle():
    # no production route reads the strict order: the order and the ideal
    # test are oracles, and a second copy of the order on the poset, such
    # as up-set masks, must not come back
    users = {
        path.stem
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if {"_up_masks", "is_ideal", "less"} & set(_names(node))
    }
    assert users == {"verify"}


def _references_by_function(node, where=None):
    """(name of the innermost enclosing function, node) for every node
    under node."""
    for child in ast.iter_child_nodes(node):
        yield where, child
        inner = child.name if isinstance(child, ast.FunctionDef) else where
        yield from _references_by_function(child, inner)


def _records_a_word_poset(node) -> str | None:
    # a raw WordPoset, which skips the public checks, or the cover builder
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__new__"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "object"
        and any(isinstance(arg, ast.Name) and arg.id == "WordPoset" for arg in node.args)
    ):
        return "object.__new__(WordPoset)"
    if isinstance(node, (ast.Name, ast.Attribute)) and "_word_covers" in set(_names(node)):
        return "_word_covers"
    return None


def test_one_constructor_records_every_word_poset():
    # only _recorded_poset builds a poset from a word without WordPoset's
    # checks, valid by construction, and only the first read of its covers
    # (_CoversOnFirstRead.__get__) calls the cover rule: a second raw
    # construction or a second caller of the cover rule, which holds on
    # reduced words only, must not come back
    sites = {
        (path.stem, where, what)
        for path in MODULES
        for where, node in _references_by_function(ast.parse(path.read_text(), filename=str(path)))
        if (what := _records_a_word_poset(node))
    }
    assert sites == {
        ("word_poset", "_recorded_poset", "object.__new__(WordPoset)"),
        ("word_poset", "__get__", "_word_covers"),
    }


def test_importing_the_cli_leaves_verify_unloaded():
    # the verify command imports the oracles when it runs, not before
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    script = "import sys, gcwords.cli; print('gcwords.verify' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert (result.returncode, result.stdout.strip()) == (0, "False"), result.stderr


PRODUCTION = ("words", "lattice", "word_poset", "wiring", "indices", "gc")
CALLERS = [PACKAGE / f"{stem}.py" for stem in PRODUCTION + ("cli", "verify")]
CALLERS.append(PACKAGE.parent.parent / "bench" / "workloads.py")


def test_only_the_extension_walker_and_render_dot_walk_the_covers():
    # every production route reads a word: past the public constructor's
    # checks, the entry check of a poset built from covers and the read in
    # poset_of_word that builds its covers at once, only the extension
    # walker and the Hasse diagram read the covers, and the CLI prints them
    sites = {
        (path.stem, where)
        for path in MODULES
        if path.stem in PRODUCTION + ("cli",)
        for where, node in _references_by_function(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "covers"
    }
    assert sites == {
        ("word_poset", "__post_init__"),
        ("word_poset", "_reading"),
        ("word_poset", "poset_of_word"),
        ("word_poset", "_extension"),
        ("word_poset", "render_dot"),
        ("cli", "_poset_plain"),
        ("cli", "_poset_json"),
    }


def _public_definitions(tree):
    """(qualified name, node) per public top-level function or class and
    per public method of such a class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, ast.FunctionDef) and not method.name.startswith("_"):
                        yield f"{node.name}.{method.name}", method


def test_every_public_name_has_a_caller():
    # A public name of a production module is referenced, as a name or an
    # attribute, outside its own body: by a production module, the CLI,
    # a verify check or oracle, or a benchmark workload.  Docstrings and the
    # package's re-exports do not count; an oracle that only tests call
    # belongs in verify.
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in CALLERS}
    references: dict[str, list[ast.AST]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                references.setdefault(node.attr, []).append(node)
    uncalled = []
    for stem in PRODUCTION:
        for qualname, definition in _public_definitions(trees[PACKAGE / f"{stem}.py"]):
            inside = {id(node) for node in ast.walk(definition)}
            name = qualname.rpartition(".")[2]
            if all(id(node) in inside for node in references.get(name, ())):
                uncalled.append(f"{stem}.{qualname}")
    assert uncalled == []


DOCTEST_SCRIPT = """
import doctest, importlib, sys
if __debug__:
    sys.exit("asserts are on: not running under -O")
failed = attempted = 0
for name in sys.argv[1:]:
    result = doctest.testmod(importlib.import_module(name))
    failed += result.failed
    attempted += result.attempted
print(attempted, failed)
sys.exit(1 if failed or not attempted else 0)
"""


def test_doctests_pass_under_optimize():
    names = [f"gcwords.{path.stem}" for path in MODULES if path.stem != "__init__"]
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    result = subprocess.run(
        [sys.executable, "-O", "-c", DOCTEST_SCRIPT, *names],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    attempted, failed = map(int, result.stdout.split()[-2:])
    assert attempted > 0 and failed == 0
