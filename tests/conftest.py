import itertools
import json
import math
import pathlib
import re
from dataclasses import dataclass

import pytest
from hypothesis import strategies as st

from canonmat import (BudgetExceededError, CanonResult, Matrix, PermPair,
                      Permutation, format_matrix, parse_matrix)

ARTIFACTS = pathlib.Path(__file__).resolve().parent.parent / "artifacts"

# Every shape at which the six-condition checker is compared with the class
# minimum over all n x m matrices (acceptance criteria 3 and 7).
SWEEP_SHAPES = [(2, 2, 2), (2, 3, 2), (3, 2, 2), (3, 3, 2), (2, 2, 3),
                (3, 3, 3), (2, 4, 2), (4, 2, 2), (4, 4, 2)]

# 3x4 base-4 matrix with known row/column codes.
DEMO_34 = Matrix.from_rows([(1, 0, 3, 2), (0, 2, 1, 0), (0, 1, 1, 3)], 4)

# Three equivalent 4x4 base-3 matrices; TRIO_C is the class minimum,
# TRIO_A and TRIO_B are semi-canonical but not minimal.
TRIO_A = Matrix.from_rows([(0, 0, 1, 2), (0, 0, 2, 2), (0, 2, 0, 0), (1, 0, 0, 0)], 3)
TRIO_B = Matrix.from_rows([(0, 0, 0, 2), (0, 1, 2, 0), (0, 2, 2, 0), (1, 0, 0, 0)], 3)
TRIO_C = Matrix.from_rows([(0, 0, 0, 1), (0, 0, 2, 0), (1, 2, 0, 0), (2, 2, 0, 0)], 3)


def read_json(path):
    """The JSON document at `path`, read through a file that is closed."""
    with open(path) as fh:
        return json.load(fh)


def all_matrices(n, m, p):
    """Every n x m matrix over {0..p-1}."""
    for entries in itertools.product(range(p), repeat=n * m):
        yield Matrix(n, m, p, tuple(entries[i * m:(i + 1) * m] for i in range(n)))


EXHAUSTIVE_COLS_GUARD = 10


def canonical_form(a: Matrix, max_cols: int = EXHAUSTIVE_COLS_GUARD) -> CanonResult:
    """Exhaustive minimum of the row code over the equivalence class.

    The test oracle for pruned_canonical_form.  Loops over all m! column
    orders; for each, ascending row sort is the optimal row order.  Guarded
    by `max_cols`.
    """
    if a.m > max_cols:
        raise BudgetExceededError(
            f"m={a.m} exceeds the factorial guard ({max_cols}); "
            "use pruned_canonical_form")
    best = None
    for sigma in itertools.permutations(range(a.m)):
        permuted = [tuple(row[j] for j in sigma) for row in a.rows]
        order = sorted(range(a.n), key=permuted.__getitem__)
        cand = tuple(permuted[i] for i in order)
        if best is None or cand < best[0]:
            best = (cand, order, sigma)
    rows, order, sigma = best
    # order[k] is the source row put at k, sigma[j] the source column put
    # at j; the witness maps each source to its destination.
    witness = PermPair(Permutation(tuple(order.index(i) for i in range(a.n))),
                       Permutation(tuple(sigma.index(j) for j in range(a.m))))
    return CanonResult(canonical=Matrix(a.n, a.m, a.p, rows), witness=witness)


def brute_orbit_size(a: Matrix) -> int:
    """|class of a| = n! * m! / |stabilizer|, by trying all n! * m! pairs."""
    stab = sum(1 for rho in itertools.permutations(range(a.n))
               for sigma in itertools.permutations(range(a.m))
               if all(a.rows[rho[i]][sigma[j]] == a.rows[i][j]
                      for i in range(a.n) for j in range(a.m)))
    return math.factorial(a.n) * math.factorial(a.m) // stab


def naive_minimum(a: Matrix) -> tuple:
    """Row tuple of the class minimum by trying all n! * m! arrangements."""
    best = None
    for rho in itertools.permutations(range(a.n)):
        for sigma in itertools.permutations(range(a.m)):
            cand = tuple(tuple(a.rows[i][j] for j in sigma) for i in rho)
            if best is None or cand < best:
                best = cand
    return best


_GAP_HEADER = re.compile(r"# false positives: (\d+), false negatives: (\d+)")


def counterexample_path(n, m, p) -> pathlib.Path:
    return ARTIFACTS / f"theorem_counterexamples_{n}x{m}p{p}.txt"


@dataclass(frozen=True)
class PinnedGap:
    """The checked-in disagreement set of the six-condition checker at a shape.

    `declared` is the (false positives, false negatives) header of the file;
    `listed` holds its matrices in file order, false positives first.
    """

    declared: tuple[int, int]
    listed: tuple[Matrix, ...]

    @property
    def false_positives(self) -> tuple[Matrix, ...]:
        return self.listed[:self.declared[0]]

    @property
    def false_negatives(self) -> tuple[Matrix, ...]:
        return self.listed[self.declared[0]:]


def read_counterexamples(n, m, p) -> PinnedGap:
    """Read the pinned gap at (n, m, p); no file means an empty gap.

    Each blank-line separated block must round-trip through format_matrix,
    so stray or missing rows are reported rather than silently dropped.
    """
    path = counterexample_path(n, m, p)
    if not path.exists():
        return PinnedGap((0, 0), ())
    text = path.read_text()
    headers = _GAP_HEADER.findall(text)
    if len(headers) != 1:
        raise ValueError(f"{path}: expected one '# false positives: X, "
                         f"false negatives: Y' line, found {len(headers)}")
    listed = []
    for block in text.split("\n\n"):
        body = "".join(line + "\n" for line in block.splitlines()
                       if line.strip() and not line.startswith("#"))
        if not body:
            continue
        a = parse_matrix(body)
        if format_matrix(a) != body or (a.n, a.m, a.p) != (n, m, p):
            raise ValueError(f"{path}: malformed {n}x{m}p{p} block {body!r}")
        listed.append(a)
    return PinnedGap(tuple(int(k) for k in headers[0]), tuple(listed))


def format_counterexamples(false_positives, false_negatives) -> str:
    """The artifact text that read_counterexamples parses back."""
    out = ["# matrices where the six-condition verdict disagrees "
           "with brute-force lex-minimality\n",
           f"# false positives: {len(false_positives)}, "
           f"false negatives: {len(false_negatives)}\n"]
    out.extend("\n" + format_matrix(a)
               for a in [*false_positives, *false_negatives])
    return "".join(out)


@st.composite
def matrices(draw, max_n=4, max_m=4, max_p=4):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    p = draw(st.integers(2, max_p))
    rows = tuple(tuple(draw(st.integers(0, p - 1)) for _ in range(m))
                 for _ in range(n))
    return Matrix(n, m, p, rows)


@pytest.fixture
def demo34():
    return DEMO_34


@pytest.fixture
def trio():
    return TRIO_A, TRIO_B, TRIO_C
