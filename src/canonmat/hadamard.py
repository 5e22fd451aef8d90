"""Hadamard and weighing-matrix predicates over the base-3 digit encoding.

Digits {0, 1, 2} stand for {0, 1, -1}; the predicates check the integer
Gram identity W W^T = k I on that sign view.  A Hadamard matrix of order n
is a weighing matrix of weight n.  Classification is
`run_partitions(n, n, 3, weight=k)`, whose search calls `is_weighing` on each
complete candidate; see `enumeration.classify_weighing`.  Equivalence there
is permutation-only: no row or column negations, so class counts differ
from the negation-equivalence literature.
"""

from __future__ import annotations

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
