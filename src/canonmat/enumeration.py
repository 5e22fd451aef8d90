"""Isomorph-free generation of canonical matrices, the weighing-matrix
classifications built on it, and orbit-count oracles.

Generation is a depth-first search over row codes: the first row must have
the zeros-then-nondecreasing-nonzeros shape every canonical matrix starts
with, each later row is >= its predecessor and carries at least as many
nonzero entries as the first (all provably necessary for minimality), and
completed candidates are kept iff `is_minimal` holds: the engine's
early-exit mode, which rejects a candidate that is not semi-canonical with
no search and otherwise stops at the first arrangement below the candidate.
Its search nodes count in the enumerator's node total and budget.
The six-condition structural check is deliberately NOT the leaf filter: it
admits non-minimal matrices (e.g. at 3x3 over p=3) and rejects some minima
(e.g. at 4x4 over p=2), so counts filtered by it would not partition the
matrix set.  Emission order is strictly ascending in the row code, so
streams are deterministic.

Two oracles check every census.  The Burnside count (orbits of S_n x S_m
on the full matrix set, via the cycle index) is computed by entirely
different means.  The orbit sizes n! * m! / |Aut| of the emitted classes,
free from the leaf tests, must add up to all p^(n*m) matrices: the
orbit-stabilizer double count of Kaski and Östergård, *Classification
Algorithms for Codes and Designs* (2006), ch. 10.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

from . import hadamard
from .equivalence import is_minimal, pruned_canonical_form
from .errors import BudgetExceededError, IntegrityError
from .matrices import Matrix

BURNSIDE_GUARD = 12
DEFAULT_BUDGET = 10_000_000


@dataclass
class ClassCensus:
    """Result of counting/streaming equivalence classes for one shape."""

    shape: tuple[int, int, int]
    count: int
    burnside: int | None = None
    representatives: list[Matrix] | None = None
    nodes: int = 0

    @property
    def agree(self) -> bool:
        return self.burnside is None or self.count == self.burnside


def canonical_first_rows(m: int, p: int,
                         weight: int | None = None) -> Iterator[tuple[int, ...]]:
    """First-row candidates, ascending: the nondecreasing rows (zeros, then a
    nondecreasing nonzero tail), only those with `weight` nonzero entries
    when it is given."""
    for row in itertools.combinations_with_replacement(range(p), m):
        if weight is None or m - row.count(0) == weight:
            yield row


def enumerate_canonical(n: int, m: int, p: int, weight: int | None = None,
                        budget: int | None = DEFAULT_BUDGET,
                        counters: dict | None = None,
                        first_rows=None) -> Iterator[Matrix]:
    """Every canonical n x m matrix over {0..p-1}, ascending by row code.

    `weight=k` keeps only the weight-k weighing matrices (n = m, p = 3): every
    row has k nonzero entries, which prunes, and each complete candidate must
    satisfy W W^T = k I (`hadamard.is_weighing`) before its leaf test.
    `budget` caps the nodes: partial rows placed plus the search nodes of
    every leaf test.  `counters`, when passed, gets running totals: "nodes",
    "emitted" classes, and "orbits", the sum of their class sizes
    n! * m! / |Aut|.  `first_rows` restricts the search to the given
    first-row choices (used to partition the tree among workers); it must be
    a subset of canonical_first_rows(m, p, weight).  A bad shape, base or
    weight raises ValueError at the call, before any iteration.
    """
    if n < 1 or m < 1 or p < 2:
        raise ValueError(f"invalid shape/base n={n} m={m} p={p}")
    if weight is not None:
        if n != m or p != 3:
            raise ValueError(f"weight needs an n x n shape over p=3, got {n}x{m} p={p}")
        if not 1 <= weight <= n:
            raise ValueError(f"weight k={weight} outside [1, {n}]")
    return _enumerate(n, m, p, weight, budget, {} if counters is None else counters,
                      first_rows)


def _enumerate(n, m, p, weight, budget, state, first_rows) -> Iterator[Matrix]:
    """The search behind enumerate_canonical, on checked arguments."""
    all_rows = [r for r in itertools.product(range(p), repeat=m)
                if weight is None or m - r.count(0) == weight]
    group_order = math.factorial(n) * math.factorial(m)
    state.update(nodes=0, emitted=0, orbits=0)

    def charge(amount=1):
        state["nodes"] += amount
        if budget is not None and state["nodes"] > budget:
            raise BudgetExceededError(
                f"node budget {budget} exceeded",
                nodes=state["nodes"], partial_count=state["emitted"])

    def extend(prefix: list[tuple[int, ...]], s: int) -> Iterator[Matrix]:
        if len(prefix) == n:
            cand = Matrix(n=n, m=m, p=p, rows=tuple(prefix))
            if weight is not None and not hadamard.is_weighing(cand, weight):
                return
            left = None if budget is None else budget - state["nodes"]
            try:
                test = is_minimal(cand, budget=left)
            except BudgetExceededError as exc:
                charge(exc.nodes)  # past the budget, so this raises
                raise
            charge(test.nodes)
            if test.minimal:
                state["emitted"] += 1
                state["orbits"] += group_order // test.aut_order
                yield cand
            return
        last = prefix[-1]
        for row in all_rows:
            if row < last:
                continue
            if sum(1 for e in row if e != 0) < s:
                continue
            charge()
            prefix.append(row)
            yield from extend(prefix, s)
            prefix.pop()

    for first in (canonical_first_rows(m, p, weight) if first_rows is None else first_rows):
        charge()
        s = sum(1 for e in first if e != 0)
        yield from extend([first], s)


def _partitions(k: int) -> Iterator[tuple[int, ...]]:
    """Integer partitions of k, parts nonincreasing."""
    if k == 0:
        yield ()
        return
    def gen(remaining: int, largest: int):
        if remaining == 0:
            yield ()
            return
        for part in range(min(remaining, largest), 0, -1):
            for rest in gen(remaining - part, part):
                yield (part,) + rest
    yield from gen(k, k)


def _conjugacy_class_size(partition: tuple[int, ...], k: int) -> int:
    z = 1
    for length in set(partition):
        count = partition.count(length)
        z *= length**count * math.factorial(count)
    return math.factorial(k) // z


def burnside_count(n: int, m: int, p: int) -> int:
    """Orbits of S_n x S_m on the p^(n*m) matrices, via the cycle index.

    A pair of permutations with row cycles of lengths {a} and column cycles
    of lengths {b} fixes p^(sum gcd(a, b)) matrices.
    """
    if n > BURNSIDE_GUARD or m > BURNSIDE_GUARD:
        raise BudgetExceededError(f"burnside guard: n, m must be <= {BURNSIDE_GUARD}")
    total = 0
    col_classes = [(mu, _conjugacy_class_size(mu, m)) for mu in _partitions(m)]
    for lam in _partitions(n):
        size_lam = _conjugacy_class_size(lam, n)
        for mu, size_mu in col_classes:
            exponent = sum(math.gcd(a, b) for a in lam for b in mu)
            total += size_lam * size_mu * p**exponent
    order = math.factorial(n) * math.factorial(m)
    assert total % order == 0
    return total // order


def census(n: int, m: int, p: int,
           budget: int | None = DEFAULT_BUDGET) -> ClassCensus:
    """Every class of a shape, its count checked against both oracles.

    Raises IntegrityError (carrying the enumerated and Burnside counts)
    unless the count equals the Burnside count and the class sizes add up
    to p^(n*m).  The Burnside count comes first, so a shape past its guard
    fails before any enumeration.
    """
    expected = burnside_count(n, m, p)
    counters: dict = {}
    reps = list(enumerate_canonical(n, m, p, budget=budget, counters=counters))
    total = p**(n * m)
    if len(reps) != expected or counters["orbits"] != total:
        raise IntegrityError(
            f"census disagreement at {(n, m, p)}: enumerated {len(reps)} classes, "
            f"burnside {expected}; their sizes sum to {counters['orbits']} "
            f"of {total} matrices", enumerated=len(reps), expected=expected)
    return ClassCensus(shape=(n, m, p), count=len(reps), burnside=expected,
                       representatives=reps, nodes=counters["nodes"])


def orbit_size(a: Matrix) -> int:
    """|class of a| = n! * m! / |Aut(a)|, with |Aut| from the canonical search."""
    return math.factorial(a.n) * math.factorial(a.m) // pruned_canonical_form(a).aut_order


def classify_weighing(n: int, k: int,
                      budget: int | None = DEFAULT_BUDGET) -> ClassCensus:
    """Canonical representatives of the weight-k weighing matrices of order n.

    Empty census (no error) at orders where none exist.  `budget` as for
    enumerate_canonical (None is unlimited); `nodes` is the total it caps.
    """
    counters: dict = {}
    reps = list(enumerate_canonical(n, n, 3, weight=k, budget=budget, counters=counters))
    return ClassCensus(shape=(n, n, 3), count=len(reps), representatives=reps,
                       nodes=counters["nodes"])


def classify_hadamard(n: int, budget: int | None = DEFAULT_BUDGET) -> ClassCensus:
    """Canonical representatives of the n x n Hadamard matrices."""
    return classify_weighing(n, n, budget)
