"""Command-line interface.

Commands: encode, check, canonize, enumerate, count, classify-hadamard,
classify-weighing.  Exit codes: 0 success (verdicts are data, not
failures), 2 parse error, 3 digit out of range, 4 budget exceeded,
5 integrity failure.  All output is byte-deterministic for fixed inputs
and budgets, including multi-worker enumeration.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from . import hadamard as hm
from .canonicity import is_canonical, is_semi_canonical
from .enumeration import (DEFAULT_BUDGET, burnside_count, census,
                          enumerate_canonical, structured_first_rows)
from .equivalence import apply, pruned_canonical_form
from .errors import (BudgetExceededError, DigitRangeError, IntegrityError,
                     ParseError)
from .matrices import (encode_cols, encode_rows, format_matrix, parse_matrix)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_RANGE = 3
EXIT_BUDGET = 4
EXIT_INTEGRITY = 5


def _read_matrix(path: str):
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from None
    return parse_matrix(text), hashlib.sha256(data).hexdigest()


def _shape(n: int, m: int, p: int) -> list[int]:
    """The manifest shape of a command's n m p arguments, once checked."""
    if n < 1 or m < 1 or p < 2:
        raise ParseError(f"invalid shape/base n={n} m={m} p={p}")
    return [n, m, p]


def _parse_filter(spec: str | None):
    """Resolve a --filter spec into (predicate, row_filter, header)."""
    if spec is None:
        return None, None, None
    if spec == "hadamard":
        return hm.is_hadamard, hm._all_nonzero, "# predicate=hadamard"
    if spec.startswith("weighing:"):
        try:
            k = int(spec.split(":", 1)[1])
        except ValueError:
            raise ParseError(f"bad filter spec {spec!r}") from None
        if k < 1:
            raise ParseError(f"bad filter spec {spec!r}: K must be at least 1")

        def row_filter(row, _k=k):
            return sum(1 for e in row if e != 0) == _k

        return (lambda a, _k=k: hm.is_weighing(a, _k)), row_filter, f"# predicate=weighing k={k}"
    raise ParseError(f"unknown filter {spec!r} (expected hadamard or weighing:K)")


def _partition_worker(job):
    """Enumerate one first-row partition; returns (formatted blocks, nodes)."""
    n, m, p, first, filter_spec, budget = job
    predicate, row_filter, _ = _parse_filter(filter_spec)
    counters: dict = {}
    texts = [format_matrix(a) for a in enumerate_canonical(
        n, m, p, predicate=predicate, row_filter=row_filter,
        budget=budget, counters=counters, first_rows=[first])]
    return texts, counters.get("nodes", 0)


def _enumerate_stream(n, m, p, filter_spec, budget, workers, out):
    """Stream canonical matrices, partitioned by first row.

    Partitions are consumed in first-row order, so the byte stream is
    identical for any worker count, and each is written as soon as it and
    every earlier one are done.  The node budget is charged cumulatively at
    partition boundaries (and each partition is individually capped).
    """
    _, row_filter, header = _parse_filter(filter_spec)
    firsts = [f for f in structured_first_rows(m, p)
              if row_filter is None or row_filter(f)]
    jobs = [(n, m, p, f, filter_spec, budget) for f in firsts]
    if header:
        out.write(header + "\n")
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return _write_partitions(pool.map(_partition_worker, jobs), budget, out)
    return _write_partitions(map(_partition_worker, jobs), budget, out)


def _write_partitions(results, budget, out):
    """Write partition results in order as they arrive; (count, nodes)."""
    count = 0
    nodes = 0
    for texts, part_nodes in results:
        nodes += part_nodes
        if budget is not None and nodes > budget:
            raise BudgetExceededError(f"node budget {budget} exceeded",
                                      nodes=nodes, partial_count=count)
        for text in texts:
            if count:
                out.write("\n")
            out.write(text)
            count += 1
    out.write(f"# count={count}\n")
    return count, nodes


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="canonmat",
        description="Canonical forms of digit matrices under row/column permutations.")
    ap.add_argument("--manifest", metavar="PATH", help="write a JSON run manifest")
    ap.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
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
    sp.add_argument("n", type=int)
    sp.add_argument("m", type=int)
    sp.add_argument("p", type=int)
    sp.add_argument("--count-only", action="store_true")
    sp.add_argument("--filter", metavar="SPEC", help="hadamard or weighing:K")
    sp.add_argument("--workers", type=int, default=1)

    sp = sub.add_parser("count", help="class count with Burnside cross-check")
    sp.add_argument("n", type=int)
    sp.add_argument("m", type=int)
    sp.add_argument("p", type=int)

    sp = sub.add_parser("classify-hadamard", help="canonical Hadamard matrices of order n")
    sp.add_argument("n", type=int)

    sp = sub.add_parser("classify-weighing", help="canonical weighing matrices W(n, k)")
    sp.add_argument("n", type=int)
    sp.add_argument("k", type=int)

    return ap


def _run(args, out) -> tuple[str, dict]:
    """Execute one command; returns (result summary, manifest fields)."""
    meta: dict = {"shape": None, "input_digest": None, "nodes": 0,
                  "workers": getattr(args, "workers", 1)}

    if args.command == "encode":
        a, digest = _read_matrix(args.file)
        meta.update(shape=[a.n, a.m, a.p], input_digest=digest)
        out.write(f"r = {encode_rows(a).render()}\n")
        out.write(f"c = {encode_cols(a).render()}\n")
        return "encoded", meta

    if args.command == "check":
        a, digest = _read_matrix(args.file)
        meta.update(shape=[a.n, a.m, a.p], input_digest=digest)
        semi = is_semi_canonical(a)
        report = is_canonical(a)
        out.write(f"semi-canonical: {'yes' if semi else 'no'}\n")
        out.write(f"canonical: {'yes' if report.verdict else 'no'}\n")
        if args.report:
            out.write(report.to_text())
        return f"canonical={report.verdict}", meta

    if args.command == "canonize":
        a, digest = _read_matrix(args.file)
        meta.update(shape=[a.n, a.m, a.p], input_digest=digest)
        result = pruned_canonical_form(a, budget=args.budget)
        meta["nodes"] = result.nodes
        if apply(a, result.witness) != result.canonical:
            raise IntegrityError("witness does not reproduce the canonical form", 0, 0)
        out.write(format_matrix(result.canonical))
        if args.witness:
            out.write("rows: " + " ".join(str(i + 1) for i in result.witness.row.images) + "\n")
            out.write("cols: " + " ".join(str(j + 1) for j in result.witness.col.images) + "\n")
        return "canonized", meta

    if args.command == "enumerate":
        meta.update(shape=_shape(args.n, args.m, args.p))
        if args.filter and (args.n != args.m or args.p != 3):
            raise ParseError(f"--filter needs an n x n shape over p=3, "
                             f"got {args.n}x{args.m} p={args.p}")
        if args.count_only:
            if args.filter:
                predicate, row_filter, _ = _parse_filter(args.filter)
                counters: dict = {}
                reps = list(enumerate_canonical(args.n, args.m, args.p,
                                                predicate=predicate, row_filter=row_filter,
                                                budget=args.budget, counters=counters))
                meta["nodes"] = counters.get("nodes", 0)
                out.write(f"count={len(reps)}\n")
                return f"count={len(reps)}", meta
            try:
                result = census(args.n, args.m, args.p, budget=args.budget)
            except IntegrityError as exc:
                out.write(f"count={exc.enumerated} burnside={exc.expected} agree=false\n")
                raise
            meta["nodes"] = result.nodes
            out.write(f"count={result.count} burnside={result.burnside} agree=true\n")
            return f"count={result.count}", meta
        count, nodes = _enumerate_stream(args.n, args.m, args.p, args.filter,
                                         args.budget, args.workers, out)
        meta["nodes"] = nodes
        return f"count={count}", meta

    if args.command == "count":
        meta.update(shape=_shape(args.n, args.m, args.p))
        try:
            result = census(args.n, args.m, args.p, budget=args.budget)
        except IntegrityError as exc:
            out.write(f"count={exc.enumerated} burnside={exc.expected} agree=false\n")
            raise
        meta["nodes"] = result.nodes
        out.write(f"count={result.count} burnside={result.burnside} agree=true\n")
        return f"count={result.count}", meta

    if args.command == "classify-hadamard":
        meta.update(shape=_shape(args.n, args.n, 3))
        out.write("# predicate=hadamard\n")
        result = hm.classify_hadamard(args.n, budget=args.budget)
        for k, rep in enumerate(result.representatives):
            if k:
                out.write("\n")
            out.write(format_matrix(rep))
        out.write(f"# count={result.count}\n")
        return f"count={result.count}", meta

    if args.command == "classify-weighing":
        meta.update(shape=_shape(args.n, args.n, 3))
        if not 1 <= args.k <= args.n:
            raise ParseError(f"weight k={args.k} outside [1, {args.n}]")
        out.write(f"# predicate=weighing k={args.k}\n")
        result = hm.classify_weighing(args.n, args.k, budget=args.budget)
        for k, rep in enumerate(result.representatives):
            if k:
                out.write("\n")
            out.write(format_matrix(rep))
        out.write(f"# count={result.count}\n")
        return f"count={result.count}", meta

    raise AssertionError(f"unhandled command {args.command}")


def main(argv=None, out=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    out = out or sys.stdout
    ap = _build_parser()
    args = ap.parse_args(argv)
    started = time.monotonic()
    code = EXIT_OK
    summary = ""
    meta: dict = {"shape": None, "input_digest": None, "nodes": 0, "workers": 1}
    try:
        summary, meta = _run(args, out)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code, summary = EXIT_PARSE, f"parse error: {exc}"
    except DigitRangeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code, summary = EXIT_RANGE, f"range error: {exc}"
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code, summary = EXIT_BUDGET, f"budget exceeded: {exc}"
        meta["nodes"] = exc.nodes
    except IntegrityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code, summary = EXIT_INTEGRITY, f"integrity failure: {exc}"
    if args.manifest:
        manifest = {
            "command": argv,
            "input_digest": meta.get("input_digest"),
            "shape": meta.get("shape"),
            "budget": args.budget,
            "workers": meta.get("workers", 1),
            "nodes": meta.get("nodes", 0),
            "result": summary,
            "elapsed_s": round(time.monotonic() - started, 6),
        }
        with open(args.manifest, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
