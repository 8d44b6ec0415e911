"""Command-line surface: one binary, one subcommand per operation.

All counting output is full decimal; word, permutation, delta, partition and
index-vector formats are the bit-exact serializations used by the golden
tests ("1,2,1", "[4,3,2,1]", "AADD", "3,2,1", "1,2,3,2").

Exit codes: 0 success, 1 domain error, 2 usage error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from functools import cache

from . import gc, wiring, word_poset, words
from .indices import delta_index, format_index_vector, full_profile, ind_A, ind_D
from .words import DomainError


def _budget(args) -> int:
    if getattr(args, "force", False):
        return 10**9
    return gc.default_budget()


def _check_rank_budget(n: int, args, what: str):
    budget = _budget(args)
    if n > budget:
        if getattr(args, "force", False):
            raise gc.BudgetExceeded(f"{what} at rank {n} exceeds the --force budget {budget}")
        raise gc.BudgetExceeded(
            f"{what} at rank {n} exceeds the default budget {budget}; "
            f"pass --force to override"
        )


def _emit(text: str, args):
    out_path = getattr(args, "out", None)
    if out_path:
        try:
            with open(out_path, "w") as handle:
                handle.write(text)
        except OSError as exc:
            raise DomainError(f"cannot write {out_path}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


def _poset_plain(P: word_poset.WordPoset) -> str:
    lines = [
        f"elements {P.size}",
        "columns " + ",".join(str(c) for c in P.columns),
        "covers " + " ".join(f"{x}<{y}" for x, y in P.covers),
    ]
    return "\n".join(lines) + "\n"


def _poset_json(P: word_poset.WordPoset) -> str:
    payload = {
        "size": P.size,
        "columns": list(P.columns),
        "covers": [list(c) for c in P.covers],
    }
    return json.dumps(payload, sort_keys=True) + "\n"


def _cmd_words(args) -> int:
    if args.target[0] == "w0":
        if len(args.target) != 2:
            raise DomainError("usage: words w0 <n>")
        try:
            n = int(args.target[1])
        except ValueError:
            raise DomainError(f"rank must be an integer, not {args.target[1]!r}") from None
        if n < 1:
            raise DomainError("rank must be positive")
        # before building w0, whose size is the rank
        _check_rank_budget(n, args, "enumerating reduced words")
        perm = words.longest_element(n + 1)
    else:
        if len(args.target) != 1:
            raise DomainError("usage: words <[perm]> or words w0 <n>")
        perm = words.parse_perm(args.target[0])
        _check_rank_budget(len(perm) - 1, args, "enumerating reduced words")
    # Each word's str() was made by the enumeration loop.  Two writes per
    # line, as print makes: the text, then the newline.  One joined write per
    # line raised the peak memory of the benchmark's sink, which buffers by
    # write call, by about 8%.
    write = sys.stdout.write
    for w in words.enumerate_reduced_words(perm):
        write(str(w))
        write("\n")
    return 0


def _cmd_classes(args) -> int:
    _check_rank_budget(args.n, args, "enumerating commutation classes")
    if args.n < 1:
        raise DomainError(f"rank must be positive, got {args.n}")
    if args.n > 255:
        # the sort keys below hold one letter a byte; the class tree also
        # nests one generator per rank, past the interpreter's recursion limit
        raise DomainError(f"classes needs a rank of at most 255, got {args.n}")
    # each tree word is its class's lexmin word (the lemma on _class_words);
    # in letter order, so the output does not depend on the enumeration
    # route.  bytes sort as their letters do and take a quarter of a tuple's
    # memory, which the sort holds for every class at once
    tree = sorted(bytes(v) for v, _ in word_poset._class_words(args.n, staged=False))
    if args.format == "json":
        reps = [",".join(map(str, v)) for v in tree]
        print(json.dumps({"n": args.n, "count": len(reps), "classes": reps}, sort_keys=True))
    else:
        # one line at a time: only the sort needs every word at once
        write = sys.stdout.write
        for v in tree:
            write(",".join(map(str, v)) + "\n")
    return 0


def _emit_poset(P: word_poset.WordPoset, args) -> int:
    if args.dot:
        _emit(word_poset.render_dot(P), args)
    elif args.format == "json":
        _emit(_poset_json(P), args)
    else:
        _emit(_poset_plain(P), args)
    return 0


def _cmd_poset(args) -> int:
    return _emit_poset(word_poset.poset_of_word(words.parse_word(args.word)), args)


def _cmd_wiring(args) -> int:
    w = words.parse_word(args.word)
    if args.dot:
        _emit(wiring.render_dot(w), args)
    else:
        _emit(wiring.render_ascii(w), args)
    return 0


def _cmd_index(args) -> int:
    P = word_poset.poset_of_word(words.parse_word(args.word))
    if args.delta is not None:
        print(format_index_vector(delta_index(P, args.delta)))
    else:
        print(f"ind_A={ind_A(P)} ind_D={ind_D(P)}")
    return 0


def _cmd_profile(args) -> int:
    profile = full_profile(word_poset.poset_of_word(words.parse_word(args.word)))
    if args.format == "json":
        print(json.dumps(
            {delta: list(vec) for delta, vec in profile.items()}, sort_keys=True
        ))
    else:
        for delta in sorted(profile):
            print(f"{delta} {format_index_vector(profile[delta])}")
    return 0


def _cmd_classify(args) -> int:
    delta = gc.classify_gc(word_poset.poset_of_word(words.parse_word(args.word)))
    print("not GC" if delta is None else f"GC delta={delta}")
    return 0


def _cmd_gc_poset(args) -> int:
    P = gc.gc_poset_of_delta(args.delta)
    if args.count:
        _emit(f"{word_poset.count_linear_extensions(P)}\n", args)
        return 0
    return _emit_poset(P, args)


def _cmd_gc_table(args) -> int:
    rows = gc.gc_table(args.n_max, class_budget=_budget(args))
    if args.format == "jsonl":
        for row in rows:
            print(json.dumps(row, sort_keys=True))
    else:
        print("n,gc_recurrence,gc_direct,classes_gc,classes_total")
        for row in rows:
            cells = [
                str(row["n"]),
                str(row["gc_recurrence"]),
                str(row["gc_direct"]),
                "" if row["classes_gc"] is None else str(row["classes_gc"]),
                "" if row["classes_total"] is None else str(row["classes_total"]),
            ]
            print(",".join(cells))
    return 0


def _cmd_syt(args) -> int:
    print(gc.thrall_g(gc.parse_partition(args.partition)))
    return 0


def _cmd_verify(args) -> int:
    # imported here: only this command needs the oracle module
    from . import verify

    reports = verify.run_checks(args.checks or None, scale=args.scale)
    for report in reports:
        print(report.json_line())
    return 0 if all(r.passed for r in reports) else 3


# built on the first call, not at import, and kept: building it costs more
# than most commands, and parse_args fills a fresh namespace on every call
@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gcwords",
        description="Exact combinatorics of reduced words of the longest element.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("words", help="list all reduced words of a permutation")
    p.add_argument("target", nargs="+", help='"[4,3,2,1]" or: w0 <n>')
    p.add_argument("--force", action="store_true", help="ignore the rank budget")
    p.set_defaults(func=_cmd_words)

    p = sub.add_parser("classes", help="one representative word per commutation class")
    p.add_argument("n", type=int)
    p.add_argument("--format", choices=["plain", "json"], default="plain")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=_cmd_classes)

    p = sub.add_parser("poset", help="word poset of a reduced word")
    p.add_argument("word")
    p.add_argument("--dot", action="store_true", help="emit DOT")
    p.add_argument("--format", choices=["plain", "json"], default="plain")
    p.add_argument("--out", help="write output to a file instead of stdout")
    p.set_defaults(func=_cmd_poset)

    p = sub.add_parser("wiring", help="wiring diagram of a word")
    p.add_argument("word")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--ascii", action="store_true", help="ASCII picture (default)")
    group.add_argument("--dot", action="store_true", help="emit DOT")
    p.add_argument("--out", help="write output to a file instead of stdout")
    p.set_defaults(func=_cmd_wiring)

    p = sub.add_parser("index", help="indices of a reduced word of the longest element")
    p.add_argument("word")
    p.add_argument("--delta", help='letter sequence such as "ADDA"')
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser("profile", help="all delta-index vectors of a word")
    p.add_argument("word")
    p.add_argument("--format", choices=["plain", "json"], default="plain")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("classify", help="Gelfand-Cetlin classification of a word")
    p.add_argument("word")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("gc-poset", help="canonical GC word poset of a delta sequence")
    p.add_argument("delta")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--dot", action="store_true")
    group.add_argument(
        "--count", action="store_true",
        help="print the number of linear extensions (the words of the class) instead",
    )
    p.add_argument("--format", choices=["plain", "json"], default="plain")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gc_poset)

    p = sub.add_parser("gc-table", help="gc(n) table with class counts")
    p.add_argument("n_max", type=int)
    p.add_argument("--format", choices=["csv", "jsonl"], default="csv")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=_cmd_gc_table)

    p = sub.add_parser("syt", help="shifted standard Young tableau count")
    p.add_argument("partition", help='strict partition such as "4,3,1"')
    p.set_defaults(func=_cmd_syt)

    p = sub.add_parser("verify", help="run brute-force verification checks")
    p.add_argument("checks", nargs="*", help="check names (default: all)")
    p.add_argument("--scale", type=int, help="override the scale parameter")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader closed the pipe for good.  If stdout is a real file
        # descriptor, point it at devnull so that the flush at interpreter
        # exit does not raise a second time; a stand-in without one is left
        # as it is.
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, io.UnsupportedOperation):
            fd = None
        if fd is not None:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        print("error: broken pipe", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
