"""Command-line interface.

Commands: encode, check, canonize, enumerate.  The shorthands `count N M P`,
`classify-hadamard N` and `classify-weighing N K` stand for
`enumerate N M P --count-only`, `enumerate N N 3 --filter hadamard` and
`enumerate N N 3 --filter weighing:K`, and run through the same handler.
Every enumeration goes through `enumeration.run_partitions` (unfiltered
counts through `census`, which adds its oracles) with `--workers`; the
manifest's `workers` is the number of processes used.  Every number in
the arguments, K included, is read by `matrices.numeral`, as in matrix
files.  Exit codes, mapped from exception types in one table: 0 success
(verdicts are data, not failures), 2 parse error, 3 digit out of range, 4
budget exceeded, 5 integrity failure.  A `--manifest` path that cannot be
written exits 2 before the command runs; `json` is loaded only to write a
manifest.  A reader that closes stdout early ends the run quietly, with 0.
All output is byte-deterministic for fixed inputs and budgets, including
multi-worker enumeration.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .canonicity import is_canonical, is_semi_canonical
from .enumeration import DEFAULT_BUDGET, census, check_arguments, run_partitions
# perfbench/tracing.py wraps cli.enumerate_canonical by name, so it stays.
from .enumeration import enumerate_canonical  # noqa: F401
from .equivalence import apply, pruned_canonical_form
from .errors import (BudgetExceededError, DigitRangeError, IntegrityError,
                     ParseError)
from .matrices import encode_cols, encode_rows, format_matrix, numeral, parse_matrix


def _read_matrix(path: str):
    import hashlib  # only files are hashed; enumerate and count never load it

    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from None
    return parse_matrix(text), hashlib.sha256(data).hexdigest()


def _parse_filter(spec: str, n: int) -> tuple[int, str]:
    """The weight k of a --filter spec on order n, and its stream header.

    "hadamard" is weight k = n; K of "weighing:K" is a `numeral`, and
    check_arguments checks its range.
    """
    if spec == "hadamard":
        return n, "# predicate=hadamard"
    if spec.startswith("weighing:"):
        k = numeral(spec.removeprefix("weighing:"))
        return k, f"# predicate=weighing k={k}"
    raise ParseError(f"unknown filter {spec!r} (expected hadamard or weighing:K)")


# Shorthand commands: name, help, positional arguments, and the enumerate
# arguments (m, p, --filter, --count-only) each stands for.
SHORTHANDS = (
    ("count", "class count checked by Burnside and orbit sizes", ("n", "m", "p"),
     lambda a: (a.m, a.p, None, True)),
    ("classify-hadamard", "canonical Hadamard matrices of order n", ("n",),
     lambda a: (a.n, 3, "hadamard", False)),
    ("classify-weighing", "canonical weighing matrices W(n, k)", ("n", "k"),
     lambda a: (a.n, 3, f"weighing:{a.k}", False)),
)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="canonmat",
        description="Canonical forms of digit matrices under row/column permutations.")
    ap.add_argument("--manifest", metavar="PATH", help="write a JSON run manifest")
    ap.add_argument("--budget", type=numeral, default=DEFAULT_BUDGET,
                    metavar="NODES", help="search node budget")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("encode", help="print the row and column codes of a matrix file")
    sp.add_argument("file")

    sp = sub.add_parser("check", help="semi-canonicity and canonicity verdicts")
    sp.add_argument("file")
    sp.add_argument("--report", action="store_true", help="print per-condition report")

    sp = sub.add_parser("canonize", help="print the canonical form of a matrix file")
    sp.add_argument("file")
    sp.add_argument("--witness", action="store_true",
                    help="also print the row/column permutations used")

    sp = sub.add_parser("enumerate", help="stream all canonical matrices of a shape")
    for arg in ("n", "m", "p"):
        sp.add_argument(arg, type=numeral)
    sp.add_argument("--count-only", action="store_true")
    sp.add_argument("--filter", metavar="SPEC", help="hadamard or weighing:K")
    sp.add_argument("--workers", type=numeral, default=1)

    for name, help_text, positionals, expand in SHORTHANDS:
        sp = sub.add_parser(name, help=help_text)
        for arg in positionals:
            sp.add_argument(arg, type=numeral)
        sp.set_defaults(expand=expand)

    return ap


def _run(args, out, meta: dict) -> str:
    """Execute one command, filling in the manifest fields; returns the result."""
    if args.budget < 0:
        raise ParseError(f"--budget must be at least 0, got {args.budget}")
    if hasattr(args, "file"):
        a, digest = _read_matrix(args.file)
        meta.update(shape=[a.n, a.m, a.p], input_digest=digest)
    if args.command == "encode":
        out.write(f"r = {encode_rows(a).render()}\n")
        out.write(f"c = {encode_cols(a).render()}\n")
        return "encoded"

    if args.command == "check":
        semi = is_semi_canonical(a)
        report = is_canonical(a)
        out.write(f"semi-canonical: {'yes' if semi else 'no'}\n")
        out.write(f"canonical: {'yes' if report.verdict else 'no'}\n")
        if args.report:
            out.write(report.to_text())
        return f"canonical={report.verdict}"

    if args.command == "canonize":
        result = pruned_canonical_form(a, budget=args.budget)
        meta["nodes"] = result.nodes
        if apply(a, result.witness) != result.canonical:
            raise IntegrityError("witness does not reproduce the canonical form", 0, 0)
        out.write(format_matrix(result.canonical))
        if args.witness:
            out.write("rows: " + " ".join(str(i + 1) for i in result.witness.row.images) + "\n")
            out.write("cols: " + " ".join(str(j + 1) for j in result.witness.col.images) + "\n")
        return "canonized"

    k, header = _parse_filter(args.filter, args.n) if args.filter else (None, None)
    check_arguments(args.n, args.m, args.p, k, args.workers)
    meta["shape"] = [args.n, args.m, args.p]
    if args.count_only and k is None:
        try:
            result = census(args.n, args.m, args.p, args.budget, args.workers, counters=meta)
        except IntegrityError as exc:
            out.write(f"count={exc.enumerated} burnside={exc.expected} agree=false\n")
            raise
        out.write(f"count={result.count} burnside={result.burnside} agree=true\n")
        return f"count={result.count}"
    if header and not args.count_only:
        out.write(header + "\n")
    separator = ""

    def write(texts):
        nonlocal separator
        for text in texts:
            out.write(separator + text)
            separator = "\n"

    result = run_partitions(args.n, args.m, args.p, k, args.budget, args.workers,
                            emit=None if args.count_only else write, counters=meta)
    out.write(f"count={result.count}\n" if args.count_only else f"# count={result.count}\n")
    return f"count={result.count}"


# Exception type -> (exit code, manifest result prefix).  Success is 0.
EXIT_CODES = {
    ParseError: (2, "parse error"),
    DigitRangeError: (3, "range error"),
    BudgetExceededError: (4, "budget exceeded"),
    IntegrityError: (5, "integrity failure"),
}


def main(argv=None, out=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    out = out or sys.stdout
    args = _build_parser().parse_args(argv)
    if hasattr(args, "expand"):
        args.m, args.p, args.filter, args.count_only = args.expand(args)
        args.command, args.workers = "enumerate", 1
    if args.manifest:
        try:  # a path that cannot be written fails before any output
            open(args.manifest, "a").close()
        except OSError as exc:
            print(f"error: cannot write {args.manifest}: {exc.strerror}", file=sys.stderr)
            return EXIT_CODES[ParseError][0]
    started = time.monotonic()
    code = 0
    meta: dict = {"shape": None, "input_digest": None, "nodes": 0, "workers": 1}
    try:
        summary = _run(args, out, meta)
        out.flush()
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code, label = EXIT_CODES[type(exc)]
        summary = f"{label}: {exc}"
        if isinstance(exc, BudgetExceededError):
            meta["nodes"] = exc.nodes
    except BrokenPipeError:
        # The reader left (`| head`); devnull takes the flush at exit.
        if out is sys.stdout:
            os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
        summary = "output closed"
    if args.manifest:
        import json  # only a manifest loads it

        manifest = dict(meta, command=argv, budget=args.budget, result=summary,
                        elapsed_s=round(time.monotonic() - started, 6))
        with open(args.manifest, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
