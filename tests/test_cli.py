import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import gcwords
from gcwords import cli, verify
from gcwords.cli import main
from gcwords.verify import ALL_CHECKS, Report
from gcwords.word_poset import enumerate_commutation_classes, lexmin_word
from gcwords.words import enumerate_reduced_words, longest_element


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_index_golden(capsys):
    code, out, _ = run(capsys, "index", "1,2,1,3,2,1")
    assert code == 0
    assert out == "ind_A=3 ind_D=0\n"


def test_index_with_delta(capsys):
    code, out, _ = run(capsys, "index", "4,3,4,2,3,4,1,2,5,4,3,2,1,4,5", "--delta", "AAAA")
    assert (code, out) == (0, "1,2,3,2\n")


def test_classify_golden(capsys):
    assert run(capsys, "classify", "1,3,2,1,3,2")[:2] == (0, "not GC\n")
    assert run(capsys, "classify", "1,2,1,3,2,1")[:2] == (0, "GC delta=DD\n")


def test_gc_table_golden(capsys):
    code, out, _ = run(capsys, "gc-table", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,gc_recurrence,gc_direct,classes_gc,classes_total"
    assert lines[-1] == "5,916,916,16,908"


def test_gc_table_jsonl(capsys):
    code, out, _ = run(capsys, "gc-table", "3", "--format", "jsonl")
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert rows[3] == {
        "n": 3,
        "gc_recurrence": 6,
        "gc_direct": 6,
        "classes_gc": 4,
        "classes_total": 8,
    }


def test_words_w0(capsys):
    code, out, _ = run(capsys, "words", "w0", "2")
    assert code == 0
    assert out.splitlines() == ["1,2,1", "2,1,2"]


def test_words_explicit_perm(capsys):
    code, out, _ = run(capsys, "words", "[3,2,1]")
    assert out.splitlines() == ["1,2,1", "2,1,2"]


def test_words_w0_5_golden():
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["words", "w0", "5"]) == 0
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == "00583ebb7e9772e943347485c786b2412793b5bd4a9c386f078a941a5ffaa9b4"


def test_words_text_is_the_word_route_for_all_of_s1_to_s5(capsys):
    for m in range(1, 6):
        for p in itertools.permutations(range(1, m + 1)):
            target = "[" + ",".join(map(str, p)) + "]"
            code, out, err = run(capsys, "words", target)
            assert (code, err) == (0, "")
            assert out == "".join(f"{w}\n" for w in enumerate_reduced_words(p)), target
    assert run(capsys, "words", "[1]")[:2] == (0, "\n")


@pytest.mark.parametrize("fmt, digest", [
    ((), "f5417dc4de12f6ec584f29b5123cc83c50bf5401a64a4ffa0c17f91c34c5cbdd"),
    (("--format", "json"), "8bf9e306f7fe38093cd14c03659b867207ecb5d76361629fe9f995e066dfcb31"),
], ids=["plain", "json"])
def test_profile_golden_on_every_class_to_rank_5(fmt, digest):
    # the lexmin word of each of the 981 classes of ranks 1..5, in the order
    # of enumerate_commutation_classes; the digests pin the output of the
    # profile route that counted every pair of every stage
    out = io.StringIO()
    with redirect_stdout(out):
        for n in range(1, 6):
            for P in enumerate_commutation_classes(n):
                assert main(["profile", str(lexmin_word(P)), *fmt]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


@pytest.mark.parametrize("variants, digest", [
    ([("wiring",), ("wiring", "--dot")],
     "6be926459d54133d179c9cf62c513937322d10bdc4042992997fa3ef9d1022ec"),
    ([("poset",), ("poset", "--format", "json"), ("poset", "--dot")],
     "bcd3d6c968c442b7f169776b7e2f521a8436721739b7718a0b965896d0b9d0a1"),
], ids=["wiring", "poset"])
def test_word_pictures_golden_on_every_word_to_rank_4(variants, digest):
    # every one of the 787 reduced words of w0 at ranks 1..4, in the order
    # of enumerate_reduced_words, through each variant in turn; the digests
    # pin the output of the wiring diagram type and of the two word-poset
    # constructors that each recorded the word
    out = io.StringIO()
    with redirect_stdout(out):
        for n in range(1, 5):
            for w in enumerate_reduced_words(longest_element(n + 1)):
                for command, *options in variants:
                    assert main([command, str(w), *options]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


def test_classes(capsys):
    code, out, _ = run(capsys, "classes", "3")
    assert code == 0
    assert len(out.splitlines()) == 8
    code, out, _ = run(capsys, "classes", "3", "--format", "json")
    payload = json.loads(out)
    assert payload["count"] == 8


def test_classes_sorted_as_the_3move_oracle(capsys):
    from gcwords.verify import _classes_by_3moves
    from gcwords.word_poset import lexmin_word

    code, out, _ = run(capsys, "classes", "4")
    lines = out.splitlines()
    assert code == 0 and len(set(lines)) == len(lines) == 62
    assert lines == sorted(lines)
    assert lines == sorted(str(lexmin_word(P)) for P in _classes_by_3moves(4))
    code, out, _ = run(capsys, "classes", "4", "--format", "json")
    assert json.loads(out)["classes"] == lines


@pytest.mark.parametrize("n, fmt, digest", [
    (5, (), "4c633a91e81d016d8fad3566cd49f841d80fe8b13d6d6a3f4aada4d700071341"),
    (5, ("--format", "json"), "0f0f7e3766ff13f7273f98b420855fc97e0b6bdb9a1e58515a6bbd5b90bb5ede"),
    (6, (), "8efca696aa531c99ed5590286231b2d91adc5e9e0a382fb5b0cd08588acda3c4"),
    (6, ("--format", "json"), "9132379abda432afc3f6b3f1fdaef07a2fc8903a922d96f227d99084d7665c09"),
], ids=["5-plain", "5-json", "6-plain", "6-json"])
def test_classes_golden(n, fmt, digest):
    # the digests pin the output of the route that printed the lexmin word
    # of each enumerated class poset
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["classes", str(n), "--force", *fmt]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


@pytest.mark.parametrize("n", ["0", "-1"])
def test_classes_rejects_a_rank_below_one(capsys, n):
    assert run(capsys, "classes", n) == (1, "", f"error: rank must be positive, got {n}\n")


def test_poset_formats(capsys):
    code, out, _ = run(capsys, "poset", "1,3,2,1,3,2")
    assert code == 0
    assert "covers 1<3 2<3 3<4 3<5 4<6 5<6" in out
    code, out, _ = run(capsys, "poset", "1,2,1", "--format", "json")
    assert json.loads(out) == {
        "size": 3,
        "columns": [1, 2, 1],
        "covers": [[1, 2], [2, 3]],
    }
    code, out, _ = run(capsys, "poset", "1,2,1", "--dot")
    assert out.startswith("digraph wordposet {")


def test_poset_out_file(tmp_path, capsys):
    target = tmp_path / "poset.dot"
    code, out, _ = run(capsys, "poset", "1,2,1", "--dot", "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text().startswith("digraph wordposet {")


@pytest.mark.parametrize(
    "argv",
    [["poset", "1,2,1", "--dot"], ["wiring", "1,2,1", "--dot"], ["gc-poset", "AD"]],
)
def test_unwritable_out_is_a_one_line_error(tmp_path, capsys, argv):
    for target in (tmp_path / "missing" / "out.txt", tmp_path):
        code, out, err = run(capsys, *argv, "--out", str(target))
        assert code == 1 and out == ""
        assert err.startswith(f"error: cannot write {target}: ")
        assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_wiring_renders(capsys):
    code, out, _ = run(capsys, "wiring", "1,2,1")
    assert code == 0 and out.count("X") == 3
    code, out, _ = run(capsys, "wiring", "1,2,1", "--dot")
    assert "subgraph row1" in out


def test_profile(capsys):
    code, out, _ = run(capsys, "profile", "1,2,1,3,2,1")
    assert out.splitlines() == ["AA 1,3", "AD 1,0", "DA 0,3", "DD 0,0"]
    code, out, _ = run(capsys, "profile", "1,2,1", "--format", "json")
    assert json.loads(out) == {"A": [1], "D": [0]}


def test_gc_poset(capsys):
    code, out, _ = run(capsys, "gc-poset", "DD")
    assert code == 0
    assert "columns 1,1,1,2,2,3" in out


def test_gc_poset_count(capsys, tmp_path):
    # one integer line, the words of the class; over the deltas of a rank
    # they sum to gc(n)
    assert run(capsys, "gc-poset", "DD", "--count")[:2] == (0, "2\n")
    assert run(capsys, "gc-poset", "ADDD", "--count")[:2] == (0, "110\n")
    assert run(capsys, "gc-poset", "", "--count")[:2] == (0, "1\n")
    total = 0
    for letters in itertools.product("AD", repeat=4):
        code, out, _ = run(capsys, "gc-poset", "".join(letters), "--count")
        assert code == 0 and len(out.splitlines()) == 1
        total += int(out)
    assert total == 916
    target = tmp_path / "count.txt"
    assert run(capsys, "gc-poset", "AD", "--count", "--out", str(target))[:2] == (0, "")
    assert target.read_text() == "1\n"


def test_gc_poset_count_rejects_a_bad_delta(capsys):
    code, out, err = run(capsys, "gc-poset", "ADX", "--count")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    code, out, err = run(capsys, "gc-poset", "AD", "--count", "--dot")
    assert code == 2 and out == "" and "Traceback" not in err


def test_syt(capsys):
    assert run(capsys, "syt", "3,2,1")[:2] == (0, "2\n")
    assert run(capsys, "syt", "4,3")[:2] == (0, "5\n")


def test_verify_subcommand(capsys):
    code, out, _ = run(capsys, "verify", "tits_connectivity", "--scale", "2")
    assert code == 0
    payload = json.loads(out.strip())
    assert payload["pass"] is True


def test_verify_failure_exit_code(capsys, monkeypatch):
    def broken(n=4):
        return Report("tits_connectivity", {"n": n}, False, 0.0, {"unreached": "1"})

    monkeypatch.setitem(verify.ALL_CHECKS, "tits_connectivity", broken)
    code, out, _ = run(capsys, "verify", "tits_connectivity")
    assert code == 3
    assert json.loads(out.strip())["pass"] is False


def test_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "classify", "1,1")
    assert code == 1
    assert "error:" in err
    code, _, err = run(capsys, "words", "junk")
    assert code == 1


@pytest.mark.parametrize("command", ["classify", "profile", "index"])
def test_non_w0_error_names_the_word_typed(capsys, command):
    code, out, err = run(capsys, command, "3,1")
    assert (code, out) == (1, "")
    assert err == "error: 3,1 is not a reduced word of the longest element\n"


def test_budget_refusal_and_force(capsys, monkeypatch):
    code, _, err = run(capsys, "classes", "6")
    assert code == 1 and "budget" in err
    monkeypatch.setenv("GCWORDS_BUDGET", "2")
    code, _, err = run(capsys, "classes", "3")
    assert code == 1 and "budget" in err
    code, out, _ = run(capsys, "words", "w0", "3", "--force")
    assert code == 0 and len(out.splitlines()) == 16


def test_cached_parser_carries_no_option_over(capsys, monkeypatch):
    # main reuses one parser; each call must see only its own options
    monkeypatch.delenv("GCWORDS_BUDGET", raising=False)
    assert cli.build_parser() is cli.build_parser()
    word = "1,2,1,3,2,1"
    code, out, _ = run(capsys, "profile", word, "--format", "json")
    assert code == 0 and json.loads(out) == {"AA": [1, 3], "AD": [1, 0], "DA": [0, 3], "DD": [0, 0]}
    code, out, _ = run(capsys, "profile", word)
    assert (code, out) == (0, "AA 1,3\nAD 1,0\nDA 0,3\nDD 0,0\n")
    # a rank-6 permutation with one reduced word: allowed only under --force
    target = "[2,1,3,4,5,6,7]"
    assert run(capsys, "words", target, "--force") == (0, "1\n", "")
    code, out, err = run(capsys, "words", target)
    assert (code, out) == (1, "") and "pass --force" in err


def test_gc_table_negative_is_a_domain_error(capsys):
    code, out, err = run(capsys, "gc-table", "-1")
    assert (code, out) == (1, "")
    assert err.startswith("error: ")


def test_verify_scale_bounds(capsys, monkeypatch):
    for argv in (
        ("injectivity_theorem", "--scale", "0"),
        ("tits_connectivity", "class_poset_equivalence", "table1", "--scale", "-1"),
        ("table1", "--scale", "-1"),
    ):
        code, out, err = run(capsys, "verify", *argv)
        assert (code, out) == (1, "") and err.startswith("error: ")
    code, out, _ = run(capsys, "verify", "table1", "--scale", "0")
    assert code == 0 and json.loads(out)["pass"] is True
    code, _, err = run(capsys, "verify", "tits_connectivity", "--scale", "6")
    assert code == 1 and "budget" in err
    monkeypatch.setenv("GCWORDS_BUDGET", "2")
    code, _, err = run(capsys, "verify", "contraction_laws", "--scale", "5")
    assert code == 1 and "budget" in err
    # below its default rank 4, as `verify contraction_laws` runs anyway
    code, out, _ = run(capsys, "verify", "contraction_laws", "--scale", "3")
    assert code == 0 and json.loads(out)["pass"] is True
    code, out, _ = run(capsys, "verify", "contraction_laws", "--scale", "2")
    assert code == 0 and json.loads(out)["pass"] is True


def test_verify_scale_is_refused_only_above_budget_and_default(capsys, monkeypatch):
    # recurrence_by_delta runs rank 9 by default, above the budget of 5, so
    # an explicit scale up to 9 runs; mirror_laws runs rank 5 by default
    monkeypatch.delenv("GCWORDS_BUDGET", raising=False)
    for scale in ("6", "9"):
        code, out, _ = run(capsys, "verify", "recurrence_by_delta", "--scale", scale)
        report = json.loads(out)
        assert code == 0 and (report["pass"], report["params"]) == (True, {"n": int(scale)})
    for argv in (("recurrence_by_delta", "--scale", "10"), ("mirror_laws", "--scale", "6")):
        code, out, err = run(capsys, "verify", *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "budget" in err and len(err.splitlines()) == 1


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == 2
    assert main([]) == 2
    assert main(["wiring", "1,2,1", "--ascii", "--dot"]) == 2


def test_output_deterministic(capsys):
    first = run(capsys, "profile", "1,3,2,1,3,2")
    second = run(capsys, "profile", "1,3,2,1,3,2")
    assert first == second


def _run_cli(*argv, env_extra=None):
    src = str(Path(gcwords.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, "-m", "gcwords.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


@pytest.mark.parametrize(
    "argv, env_extra",
    [
        (("words", "w0", "x"), None),
        (("classes", "3"), {"GCWORDS_BUDGET": "abc"}),
        (("poset", "-2"), None),
        (("classify", "0,0"), None),
        # past the --force budget: refused before w0 is built
        (("words", "w0", "99999999999999999999", "--force"), None),
        # a negative budget, which would leave the gc-table class columns empty
        (("classes", "1"), {"GCWORDS_BUDGET": "-3"}),
        (("gc-table", "2"), {"GCWORDS_BUDGET": "-3"}),
    ],
)
def test_bad_integers_exit_1_without_traceback(argv, env_extra):
    result = _run_cli(*argv, env_extra=env_extra)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1


def test_python_dash_m_gcwords_runs_the_cli():
    src = str(Path(gcwords.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-m", "gcwords", "words", "w0", "2"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "1,2,1\n2,1,2\n", "")


def test_words_into_a_closed_pipe_exits_1_without_traceback():
    # Rank 5 prints about 9 MB, far more than a pipe buffers, so the
    # program is still writing when the reader closes its end.
    src = str(Path(gcwords.__file__).resolve().parent.parent)
    proc = subprocess.Popen(
        [sys.executable, "-m", "gcwords.cli", "words", "w0", "5"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.stdout.readline() == "1,2,1,3,2,1,4,3,2,1,5,4,3,2,1\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert err == "error: broken pipe\n"



class _ClosedPipe:
    # A stdout stand-in with no file descriptor whose reader has gone.
    def write(self, text):
        raise BrokenPipeError


class _ClosedStringPipe(io.StringIO):
    # Its fileno() raises io.UnsupportedOperation.
    def write(self, text):
        raise BrokenPipeError


@pytest.mark.parametrize("stand_in", [_ClosedPipe, _ClosedStringPipe])
def test_closed_pipe_in_process_exits_1(stand_in, capsys):
    with redirect_stdout(stand_in()):
        code = main(["words", "w0", "3"])
    assert code == 1
    assert capsys.readouterr().err == "error: broken pipe\n"

# A small grammar of command lines: every subcommand with well-formed and
# malformed arguments, ranks and scales kept at 4 or less so each call is
# quick, and junk tokens appended.  The only output file named lies under a
# directory that does not exist, so no call writes one.
_VALID_WORDS = [
    str(w) for n in range(1, 5) for w in enumerate_reduced_words(longest_element(n + 1))
]
_word = st.one_of(
    st.sampled_from(_VALID_WORDS),
    st.lists(st.integers(-1, 6), max_size=10).map(lambda ls: ",".join(map(str, ls))),
    st.sampled_from(["", ",", "1,,2", "a", "1;2", " 1", "1.5", "w0"]),
)
_delta = st.text(alphabet="ADX", max_size=6)
_small = st.integers(-2, 4).map(str)
_partition = st.one_of(
    st.lists(st.integers(-1, 8), max_size=4)
    .filter(lambda parts: sum(parts) <= 8)
    .map(lambda parts: ",".join(map(str, parts))),
    st.sampled_from(["", "a", "3,,1", "4.0"]),
)
_perm = st.sampled_from(
    ["[1]", "[2,1]", "[3,2,1]", "[4,3,2,1]", "[5,4,3,2,1]", "[2,2]", "[0,1]", "[", "[]"]
)
_format = st.sampled_from(["plain", "json", "csv", "jsonl", "xml"])
_missing_out = st.sampled_from([[], ["--out", str(Path(__file__).parent / "no-such-dir" / "out")]])
_junk = st.sampled_from(
    ["", "-", "--", "--bogus", "x", "w0", "--dot", "--ascii", "--force", "-h", "0", "-1", "AD"]
)


def _opt(*tokens):
    return st.one_of(st.just([]), st.tuples(*tokens).map(list))


_commands = st.one_of(
    st.tuples(
        st.just(["words"]),
        st.one_of(st.tuples(st.just("w0"), _small).map(list), _perm.map(lambda p: [p])),
        _opt(st.just("--force")),
    ),
    st.tuples(
        st.just(["classes"]), _small.map(lambda n: [n]),
        _opt(st.just("--format"), _format), _opt(st.just("--force")),
    ),
    st.tuples(
        st.sampled_from([["poset"], ["gc-poset"]]),
        st.one_of(_word, _delta).map(lambda t: [t]),
        st.one_of(
            st.just([]), st.just(["--dot"]), st.tuples(st.just("--format"), _format).map(list)
        ),
        _missing_out,
    ),
    st.tuples(
        st.just(["gc-poset"]), _delta.map(lambda d: [d]), st.just(["--count"]),
        _opt(st.just("--dot")), _missing_out,
    ),
    st.tuples(
        st.just(["wiring"]), _word.map(lambda w: [w]),
        st.sampled_from([[], ["--ascii"], ["--dot"]]),
        _missing_out,
    ),
    st.tuples(
        st.just(["index"]), _word.map(lambda w: [w]), _opt(st.just("--delta"), _delta),
    ),
    st.tuples(
        st.just(["profile"]), _word.map(lambda w: [w]), _opt(st.just("--format"), _format),
    ),
    st.tuples(st.just(["classify"]), _word.map(lambda w: [w])),
    st.tuples(
        st.just(["gc-table"]), _small.map(lambda n: [n]),
        _opt(st.just("--format"), _format), _opt(st.just("--force")),
    ),
    st.tuples(st.just(["syt"]), _partition.map(lambda p: [p])),
    st.tuples(
        st.just(["verify"]),
        st.lists(st.sampled_from(sorted(ALL_CHECKS) + ["nope"]), max_size=2),
        st.tuples(st.just("--scale"), _small).map(list),
    ),
)
_argv = st.tuples(_commands, st.lists(_junk, max_size=2)).map(
    lambda parts: [token for chunk in parts[0] for token in chunk] + parts[1]
)


@settings(deadline=None, max_examples=200)
@given(_argv)
@example(["verify", "injectivity_theorem", "--scale", "0"])
@example(["gc-table", "-1"])
def test_fuzz_main_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
