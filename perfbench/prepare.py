"""Set-up step of one benchmark run: import canonmat, write the inputs.

    python3 perfbench/prepare.py --workload NAME --seed N --dir WORKDIR

Writes the workload's matrix files and `plan.json` (the operation list with
what each output is checked against) into WORKDIR.  The same seed gives the
same files and plan.  `setup_s` is the wall time of this whole process:
interpreter start, `import canonmat`, and generating and writing the inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Shapes whose class counts the census workload checks; 3x4x3 takes most of
# the round, nearly all of it re-canonizing complete leaves.
CENSUS_SHAPES = ((3, 3, 3), (4, 4, 2), (4, 3, 3), (3, 4, 3))

# (n, m, p, filter, workers) of every streamed `enumerate`.  4x3x3 also runs
# at one worker, for the byte-identity check and `cli.parallel_speedup`.
STREAMS = (
    (4, 3, 3, None, 2),
    (4, 3, 3, None, 1),
    (4, 4, 3, "hadamard", 2),
    (4, 4, 3, "weighing:2", 2),
    (4, 4, 3, "weighing:3", 2),
    (5, 5, 3, "weighing:2", 2),
)

# Seed of the canonize workload's random matrices, the same for every --seed.
LOW_SYMMETRY_SEED = "canonize:low-symmetry"

# A Latin-1 comment line: not UTF-8, so `canonize` must leave with exit 2.
NON_UTF8 = b"# caf\xe9\n2 2 2\n0 1\n1 0\n"


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def sylvester(order):
    """Sylvester Hadamard matrix with +1 -> digit 1 and -1 -> digit 2."""
    h = [[1]]
    while len(h) < order:
        h = [r + r for r in h] + [r + [-x for x in r] for r in h]
    return [[1 if x == 1 else 2 for x in r] for r in h]


def permuted(rows, rng):
    row_order = list(range(len(rows)))
    col_order = list(range(len(rows[0])))
    rng.shuffle(row_order)
    rng.shuffle(col_order)
    return [[rows[i][j] for j in col_order] for i in row_order]


def matrix_text(rows, p):
    lines = [f"{len(rows)} {len(rows[0])} {p}"] + [" ".join(map(str, r)) for r in rows]
    return "\n".join(lines) + "\n"


def census_ops(rng, workdir):
    ops = [{"id": f"census {n}x{m}x{p}", "headline": True,
            "argv": ["enumerate", str(n), str(m), str(p), "--count-only"],
            "check": {"kind": "census", "shape": [n, m, p]}}
           for n, m, p in CENSUS_SHAPES]
    ops.append({"id": "census 2x2x1", "headline": False,
                "argv": ["enumerate", "2", "2", "1", "--count-only"],
                "check": {"kind": "usage_error"}})
    return ops


def canonize_ops(rng, workdir):
    """Structured inputs of high symmetry and random ones of low symmetry,
    each with a row/column-permuted copy.

    The structured matrices are the same on every seed; `rng` draws their
    permuted copies.  The random matrices and their copies come from
    LOW_SYMMETRY_SEED, not from `rng`: the search time of a random matrix
    swings by 10x or more from one draw to the next, and with a draw per
    seed the round time measured the draw.  For the same reason only the
    structured inputs are headline operations (op_p50_s, op_max_s); the
    random ones count in run_s and are checked like the rest.  They are
    kept small (9x9 p=3, 8x8 p=2) because at 10x10 the search for one draw
    can take fifty times as long as for another."""
    fixed = random.Random(LOW_SYMMETRY_SEED)
    bases = [
        ("identity7", identity(7), 2, rng),
        ("zero2x8", [[0] * 8 for _ in range(2)], 2, rng),
        ("sylvester8", sylvester(8), 3, rng),
        ("random9x9p3", [[fixed.randrange(3) for _ in range(9)] for _ in range(9)], 3, fixed),
        ("random8x8p2", [[fixed.randrange(2) for _ in range(8)] for _ in range(8)], 2, fixed),
    ]
    ops = []
    for name, rows, p, perm_rng in bases:
        structured = perm_rng is rng
        for label, mat in ((name, rows), (name + "-perm", permuted(rows, perm_rng))):
            path = os.path.join(workdir, label + ".txt")
            with open(path, "w") as fh:
                fh.write(matrix_text(mat, p))
            check = {"file": label, "pair": name, "rows": mat, "p": p}
            ops.append({"id": f"encode {label}", "headline": False,
                        "argv": ["encode", path], "check": {"kind": "encode", **check}})
            ops.append({"id": f"check {label}", "headline": False,
                        "argv": ["check", path, "--report"], "check": {"kind": "check", **check}})
            ops.append({"id": f"canonize {label}", "headline": structured,
                        "argv": ["canonize", path, "--witness"],
                        "check": {"kind": "canonize", **check}})
    path = os.path.join(workdir, "non-utf8.txt")
    with open(path, "wb") as fh:
        fh.write(NON_UTF8)
    ops.append({"id": "canonize non-utf8", "headline": False,
                "argv": ["canonize", path, "--witness"], "check": {"kind": "usage_error"}})
    return ops


def stream_ops(rng, workdir):
    ops = []
    for n, m, p, spec, workers in STREAMS:
        label = f"stream {n}x{m}x{p}" + (f" {spec}" if spec else "") + f" w{workers}"
        argv = ["enumerate", str(n), str(m), str(p), "--workers", str(workers)]
        if spec:
            argv += ["--filter", spec]
        ops.append({"id": label, "headline": True, "argv": argv,
                    "check": {"kind": "stream", "shape": [n, m, p], "filter": spec,
                              "workers": workers}})
    return ops


WORKLOADS = {"census": census_ops, "canonize": canonize_ops, "stream": stream_ops}

# Workloads whose rounds run every command in one process (launch.py
# --batch).  A canonize round is 31 short commands, most of whose time as
# separate processes went to starting the interpreter.
BATCHED = {"canonize"}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    args = ap.parse_args()

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import canonmat

    if os.path.dirname(os.path.dirname(os.path.abspath(canonmat.__file__))) != src:
        print(f"error: canonmat imported from {canonmat.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    os.makedirs(args.dir, exist_ok=True)
    rng = random.Random(f"{args.workload}:{args.seed}")
    ops = WORKLOADS[args.workload](rng, args.dir)
    rng.shuffle(ops)
    with open(os.path.join(args.dir, "plan.json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "batch": args.workload in BATCHED, "ops": ops}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
