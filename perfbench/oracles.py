"""Checks of canonmat's outputs by means independent of canonmat.

Nothing here imports canonmat.  Matrices are tuples of row tuples of digits.
Each `check_<kind>` takes an operation's check record from plan.json, its
stdout, and the stdout of its sibling, if it has one (the same stream at the
other worker count, or canonize on the permuted copy of the same matrix),
and returns a list of problems, empty when the output is right.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from operator import itemgetter


def read_matrix(lines, shape=None):
    """Parse `n m p` plus n digit rows, as the README defines the format."""
    n, m, p = (int(x) for x in lines[0].split())
    if shape is not None and [n, m, p] != list(shape):
        raise ValueError(f"header {lines[0]!r} is not shape {shape}")
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} rows, got {len(lines) - 1}")
    rows = tuple(tuple(int(x) for x in line.split()) for line in lines[1:])
    if any(len(r) != m or any(not 0 <= e < p for e in r) for r in rows):
        raise ValueError(f"bad row in {lines!r}")
    return rows


def brute_minimum(rows):
    """Least row-sorted matrix over all m! column orders."""
    m = len(rows[0])
    if m == 1:
        return tuple(sorted(rows))
    return min(tuple(sorted(map(itemgetter(*order), rows)))
               for order in itertools.permutations(range(m)))


@functools.lru_cache(maxsize=None)
def _cell_cycle_counts(n, m):
    """Cycles on the n*m cells of every (row, column) permutation pair."""
    counts = []
    for rho in itertools.permutations(range(n)):
        for sigma in itertools.permutations(range(m)):
            seen = [False] * (n * m)
            cycles = 0
            for start in range(n * m):
                if seen[start]:
                    continue
                cycles += 1
                cell = start
                while not seen[cell]:
                    seen[cell] = True
                    i, j = divmod(cell, m)
                    cell = rho[i] * m + sigma[j]
            counts.append(cycles)
    return counts


def orbit_count(n, m, p):
    """Classes of n x m matrices over p digits: the average number of
    matrices a permutation pair fixes, each pair tried directly."""
    counts = _cell_cycle_counts(n, m)
    total = sum(p**c for c in counts)
    if total % len(counts):
        raise ArithmeticError("orbit count is not an integer")
    return total // len(counts)


def orbit_size(rows):
    """n! m! / |pairs fixing the matrix|, each pair tried directly."""
    n, m = len(rows), len(rows[0])
    fixed = 0
    for rho in itertools.permutations(range(n)):
        moved = [rows[i] for i in rho]
        for sigma in itertools.permutations(range(m)):
            if all(tuple(r[j] for j in sigma) == rows[k] for k, r in enumerate(moved)):
                fixed += 1
    return math.factorial(n) * math.factorial(m) // fixed


def signs(rows):
    return [[-1 if e == 2 else e for e in r] for r in rows]


def gram_is(rows, k):
    """W W^T == k I on the sign view (digit 2 stands for -1)."""
    w = signs(rows)
    return all(sum(a * b for a, b in zip(w[i], w[j])) == (k if i == j else 0)
               for i in range(len(w)) for j in range(len(w)))


@functools.lru_cache(maxsize=None)
def count_weighing(n, k):
    """All n x n matrices over {0, 1, -1} with W W^T = k I, built row by row."""
    rows = [r for r in itertools.product((0, 1, -1), repeat=n)
            if sum(1 for e in r if e) == k]
    orthogonal = [{j for j, s in enumerate(rows) if sum(a * b for a, b in zip(r, s)) == 0}
                  for r in rows]

    def extend(candidates, depth):
        if depth == n:
            return 1
        return sum(extend(candidates & orthogonal[i], depth + 1) for i in candidates)

    return extend(set(range(len(rows))), 0)


def base_reading(digits, p):
    return str(int("".join(map(str, digits)), p))


def check_census(check, out, _sibling):
    n, m, p = check["shape"]
    want = orbit_count(n, m, p)
    match = re.fullmatch(r"count=(\d+) burnside=(\d+) agree=true\n", out)
    if not match:
        return [f"unexpected output {out!r}"]
    if int(match[1]) != want or int(match[2]) != want:
        return [f"{out.strip()}, but {want} classes by direct orbit count"]
    return []


def check_encode(check, out, _sibling):
    rows, p = check["rows"], check["p"]
    want = (f"r = {' '.join(base_reading(r, p) for r in rows)}\n"
            f"c = {' '.join(base_reading(c, p) for c in zip(*rows))}\n")
    return [] if out == want else [f"encode printed {out!r}, expected {want!r}"]


def check_check(check, out, _sibling):
    """The semi-canonical verdict is checked; the canonical one is not (the
    six-condition test is known to disagree with lex-minimality), only its
    consistency with the report."""
    rows = [tuple(r) for r in check["rows"]]
    cols = list(zip(*rows))
    semi = rows == sorted(rows) and cols == sorted(cols)
    lines = out.splitlines()
    problems = []
    if len(lines) != 9 or not lines[0].startswith("semi-canonical: "):
        return [f"unexpected report {out!r}"]
    if lines[0] != f"semi-canonical: {'yes' if semi else 'no'}":
        problems.append(f"{lines[0]!r}, but the row and column codes say {semi}")
    if not all(re.fullmatch(rf"cond{k}: (pass|fail|n/a) — .*", lines[1 + k])
               for k in range(1, 7)):
        problems.append(f"malformed condition lines in {out!r}")
    verdict = {"canonical: yes": "verdict: canonical", "canonical: no": "verdict: not-canonical"}
    if verdict.get(lines[1]) != lines[8]:
        problems.append(f"{lines[1]!r} contradicts {lines[8]!r}")
    return problems


def split_canonize(out, n, m):
    lines = out.splitlines()
    if len(lines) != n + 3 or not lines[n + 1].startswith("rows: ") \
            or not lines[n + 2].startswith("cols: "):
        raise ValueError(f"unexpected output {out!r}")
    return ("\n".join(lines[:n + 1]) + "\n",
            [int(x) - 1 for x in lines[n + 1].split()[1:]],
            [int(x) - 1 for x in lines[n + 2].split()[1:]])


def check_canonize(check, out, sibling):
    """`sibling` is the output for the permuted copy of the same matrix."""
    rows, p = [tuple(r) for r in check["rows"]], check["p"]
    n, m = len(rows), len(rows[0])
    try:
        form_text, row_images, col_images = split_canonize(out, n, m)
        form = read_matrix(form_text.splitlines(), [n, m, p])
        if sibling is not None and split_canonize(sibling, n, m)[0] != form_text:
            return ["the matrix and its permuted copy give different forms"]
    except ValueError as exc:
        return [str(exc)]
    if sorted(row_images) != list(range(n)) or sorted(col_images) != list(range(m)):
        return [f"witness is not a permutation pair: {out!r}"]
    moved = [[0] * m for _ in range(n)]
    for i, row in enumerate(rows):
        for j, e in enumerate(row):
            moved[row_images[i]][col_images[j]] = e
    problems = []
    if tuple(map(tuple, moved)) != form:
        problems.append("the printed witness does not carry the input to the printed form")
    if m <= 8 and form != brute_minimum(rows):
        problems.append("the form is not the least matrix over all column orders")
    return problems


def parse_stream(out, shape, spec):
    lines = out.splitlines()
    if spec is not None:
        header = ("# predicate=hadamard" if spec == "hadamard"
                  else f"# predicate=weighing k={spec.split(':')[1]}")
        if not lines or lines[0] != header:
            raise ValueError(f"stream does not start with {header!r}")
        lines = lines[1:]
    if not lines or not re.fullmatch(r"# count=\d+", lines[-1]):
        raise ValueError("stream does not end with a count trailer")
    count = int(lines[-1].split("=")[1])
    body = "\n".join(lines[:-1])
    mats = [read_matrix(block.split("\n"), shape) for block in body.split("\n\n")] if body else []
    if len(mats) != count:
        raise ValueError(f"trailer says {count}, stream holds {len(mats)}")
    return mats


def check_stream(check, out, sibling):
    n, m, p = check["shape"]
    spec = check["filter"]
    try:
        mats = parse_stream(out, check["shape"], spec)
    except ValueError as exc:
        return [str(exc)]
    problems = []
    if sibling is not None and sibling != out:
        problems.append("the stream differs between 1 and 2 workers")
    if any(a >= b for a, b in zip(mats, mats[1:])):
        problems.append("the stream is not strictly ascending")
    if any(a != brute_minimum(a) for a in mats):
        problems.append("a representative is not the least matrix of its class")
    if spec is None:
        want = orbit_count(n, m, p)
        if len(mats) != want:
            problems.append(f"{len(mats)} classes streamed, {want} by direct orbit count")
        return problems
    k = n if spec == "hadamard" else int(spec.split(":")[1])
    if spec == "hadamard" and any(0 in r for a in mats for r in a):
        problems.append("a Hadamard representative has a zero entry")
    if not all(gram_is(a, k) for a in mats):
        problems.append(f"a representative fails W W^T = {k} I")
    total = sum(orbit_size(a) for a in mats)
    want = count_weighing(n, k)
    if total != want:
        problems.append(f"orbits cover {total} matrices, direct count of W({n},{k}) is {want}")
    return problems


CHECKS = {"census": check_census, "encode": check_encode, "check": check_check,
          "canonize": check_canonize, "stream": check_stream}
