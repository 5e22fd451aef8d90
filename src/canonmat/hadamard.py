"""Hadamard and weighing-matrix predicates over the base-3 digit encoding.

Digits {0, 1, 2} stand for {0, 1, -1}; the predicates check the integer
Gram identity W W^T = k I on that sign view.  Classification enumerates
canonical base-3 matrices with a row-count pruning filter (every row of a
weight-k matrix has exactly k nonzero entries) and keeps those passing the
predicate.  A Hadamard matrix of order n is a weighing matrix of weight n.
Equivalence here is permutation-only: no row or column negations, so class
counts differ from the negation-equivalence literature.
"""

from __future__ import annotations

from .enumeration import DEFAULT_BUDGET, ClassCensus, enumerate_canonical
from .matrices import Matrix


def sign_view(a: Matrix) -> tuple[tuple[int, ...], ...]:
    """Map digits to signs: 2 -> -1, 0 and 1 unchanged.  Requires p = 3."""
    if a.p != 3:
        raise ValueError(f"sign view requires p = 3, got p = {a.p}")
    return tuple(tuple(-1 if e == 2 else e for e in row) for row in a.rows)


def is_weighing(a: Matrix, k: int) -> bool:
    """Square, with W W^T = k I on the sign view."""
    if a.n != a.m:
        raise ValueError(f"weighing check requires a square matrix, got {a.n}x{a.m}")
    if not (1 <= k <= a.n):
        raise ValueError(f"weight k={k} outside [1, {a.n}]")
    sv = sign_view(a)
    for i in range(a.n):
        for j in range(i, a.n):
            dot = sum(sv[i][c] * sv[j][c] for c in range(a.m))
            if dot != (k if i == j else 0):
                return False
    return True


def is_hadamard(a: Matrix) -> bool:
    """Weight n: the diagonal of W W^T = n I leaves no zero entry."""
    return is_weighing(a, a.n)


def weighing_filters(k: int):
    """(leaf predicate, row filter) that enumerate the weight-k matrices.

    The predicate looks up `is_weighing` at each call, once per leaf.
    """
    def predicate(a: Matrix) -> bool:
        return is_weighing(a, k)

    def row_filter(row: tuple[int, ...]) -> bool:
        return sum(1 for e in row if e != 0) == k

    return predicate, row_filter


def classify_weighing(n: int, k: int,
                      budget: int | None = DEFAULT_BUDGET) -> ClassCensus:
    """Canonical representatives of the weight-k weighing matrices of order n.

    Empty census (no error) at orders where none exist.  `budget` as for
    enumerate_canonical (None is unlimited); `nodes` is the total it caps.
    """
    if not (1 <= k <= n):
        raise ValueError(f"weight k={k} outside [1, {n}]")
    predicate, row_filter = weighing_filters(k)
    counters: dict = {}
    reps = list(enumerate_canonical(n, n, 3, predicate=predicate, row_filter=row_filter,
                                    budget=budget, counters=counters))
    return ClassCensus(shape=(n, n, 3), count=len(reps), representatives=reps,
                       nodes=counters["nodes"])


def classify_hadamard(n: int, budget: int | None = DEFAULT_BUDGET) -> ClassCensus:
    """Canonical representatives of the n x n Hadamard matrices."""
    return classify_weighing(n, n, budget)
