"""Isomorph-free generation of canonical matrices, the weighing-matrix
classifications built on it, and orbit-count oracles.

Generation is a depth-first search over row codes: the first row must have
the zeros-then-nondecreasing-nonzeros shape every canonical matrix starts
with, and each later row is >= its predecessor and carries at least as many
nonzero entries as the first (all provably necessary for minimality).  Each
first row is a partition, charged before one filter over the p^m rows lists
its later rows, at n > 1 only; a budget of 1 or more lists one before its
second charge.
Completed candidates are kept iff they are their own class minimum.  The
six-condition structural check is deliberately NOT the leaf filter: it
admits non-minimal matrices (e.g. at 3x3 over p=3) and rejects some minima
(e.g. at 4x4 over p=2), so counts filtered by it would not partition the
matrix set.  Emission order is strictly ascending in the row code, so
streams are deterministic.  `run_partitions` runs the search one first row
at a time, here or in a pool, for census, classifications and the CLI.

The leaf test is the first path of the engine's minimality search, then
the engine itself where that path would branch.  `equivalence.first_path`
keys each row once per prefix, as the engine would, and at no node either
refutes a prefix (its last row is not sorted within its own cells, or keys
below an earlier row) or, if no key ties an earlier row, certifies the
candidate with |Aut| = Π(row copies)! · Π(equal columns)!.  A candidate
with a tie goes to `equivalence.resume_minimal` on the same path.  With no
search node it refutes the candidate where a tied row has more copies than
the row it ties, and certifies it where every tied row has fewer; otherwise
it runs the engine's early-exit mode from the candidate as the first leaf,
over the other children of each branching node on the path, and stops at
the first arrangement below the candidate.  Those search nodes count in the
enumerator's node total and budget; a leaf decided with no search spends
none, since its rows were charged when they were placed.

A rejection also names the length k of the leading row block it rests on:
the prefix the first path refutes, the shortest prefix through one copy
more of a tied row than the row it ties has, or one more than the last row
of the candidate that the engine's arrangement below it used.  Each time
the first k rows are not their own class minimum.  Every row prefix of a
class minimum is one (Read, *Every one a winner*, 1978; Kaski and
Östergård, 2006, ch. 4): under any column order the k least rows of a
matrix are elementwise at most its first k rows sorted, so a prefix with a
smaller arrangement gives the whole matrix one too.  So no matrix that
starts with those k rows is tried.

The search is one loop, with three stacks per partition: the rows placed,
their indices in the partition's row list, and the first path's entries.
Every backtrack runs one unwind rule.  Let c be k after a rejected leaf, n
after any other leaf, or the prefix length once a position has tried every
row: position c - 1 takes its next row, and each stack keeps c - 1 entries;
at c <= 1 the partition is done.  Only non-canonical leaves are skipped, so
the classes, their order and the partitions do not change, and no
recursion limit bounds n.

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
from collections import namedtuple
from collections.abc import Iterator

from . import hadamard
from .equivalence import first_path, pruned_canonical_form, resume_minimal
from .errors import BudgetExceededError, IntegrityError, ParseError
from .matrices import Matrix, check_shape, format_matrix

BURNSIDE_GUARD = 12
DEFAULT_BUDGET = 10_000_000


class ClassCensus(namedtuple("ClassCensus",
                             "shape count burnside representatives nodes orbits",
                             defaults=(None, None, 0, 0))):
    """Result of counting/streaming equivalence classes for one shape.

    `burnside` is set by `census` once it agrees; `representatives` is a
    tuple of the classes, None for a stream; `orbits` is the sum of the
    class sizes n! * m! / |Aut|.
    """

    __slots__ = ()


def canonical_first_rows(m: int, p: int,
                         weight: int | None = None) -> Iterator[tuple[int, ...]]:
    """First-row candidates, ascending: the nondecreasing rows (zeros, then a
    nondecreasing nonzero tail), only those with `weight` nonzero entries
    when it is given.  Each is stepped from the one before: its last entry
    below p - 1 goes up by one, and every entry after it takes that value."""
    row = [0] * m
    while True:
        if weight is None or m - row.count(0) == weight:
            yield tuple(row)
        i = m - 1
        while i >= 0 and row[i] == p - 1:
            i -= 1
        if i < 0:
            return
        row[i:] = [row[i] + 1] * (m - i)


def check_arguments(n: int, m: int, p: int, weight: int | None = None,
                    workers: int = 1) -> None:
    """Raise ParseError unless the arguments name a valid search: a valid
    shape and base, a weight only on n x n over p=3 with 1 <= weight <= n,
    and at least one worker; weight and workers are ints, not bools."""
    check_shape(n, m, p)
    if (weight is not None and type(weight) is not int) or type(workers) is not int:
        raise ParseError(f"weight and workers must be ints, got {weight!r} and {workers!r}")
    if weight is not None and (n != m or p != 3):
        raise ParseError(f"weight needs an n x n shape over p=3, got {n}x{m} p={p}")
    if weight is not None and not 1 <= weight <= n:
        raise ParseError(f"weight k={weight} outside [1, {n}]")
    if workers < 1:
        raise ParseError(f"workers must be at least 1, got {workers}")


def enumerate_canonical(n: int, m: int, p: int, weight: int | None = None,
                        budget: int | None = DEFAULT_BUDGET,
                        counters: dict | None = None) -> Iterator[Matrix]:
    """Every canonical n x m matrix over {0..p-1}, ascending by row code.

    `weight=k` keeps only the weight-k weighing matrices (n = m, p = 3): every
    row has k nonzero entries, which prunes, and each complete candidate must
    satisfy W W^T = k I (`hadamard.is_weighing`) before its leaf test.
    `budget` caps the nodes: partial rows placed plus the search nodes of
    every leaf test that runs the engine.  A leaf decided with no search
    (see the module docstring) spends no node, since its rows were charged
    when they were placed.  `counters`, when passed, gets running
    totals: "nodes", "emitted" classes, and "orbits", the sum of their class
    sizes n! * m! / |Aut|.  A bad shape, base or weight raises ParseError at the
    call, before any iteration.
    """
    check_arguments(n, m, p, weight)
    return _enumerate(n, m, p, weight, math.inf if budget is None else budget,
                      {} if counters is None else counters, canonical_first_rows(m, p, weight))


def _enumerate(n, m, p, weight, budget, state, firsts) -> Iterator[Matrix]:
    """The search below the given first rows, on checked arguments and a
    numeric budget (math.inf for none)."""
    group_order = math.factorial(n) * math.factorial(m)
    state.update(nodes=0, emitted=0, orbits=0)

    def charge(amount=1):
        state["nodes"] += amount
        if state["nodes"] > budget:
            raise BudgetExceededError(
                f"node budget {budget} exceeded",
                nodes=state["nodes"], partial_count=state["emitted"])

    for first in firsts:
        charge()
        s = m - first.count(0)
        # Later rows: >= the first, with s nonzeros or more (exactly s under a weight).
        # At n = 1 the first row is a leaf, and no later row is placed.
        rows = [r for r in itertools.product(range(p), repeat=m)
                if r >= first and s <= m - r.count(0) <= (weight or m)] if n > 1 else []
        # prefix[j] is rows[index[j]]; rows[i] is the next row to try after it.
        prefix, index, path, i = [first], [0], [], 0
        while True:
            if len(prefix) < n and i < len(rows):  # place rows[i]; the next position starts at it
                charge()
                prefix.append(rows[i])
                index.append(i)
                continue
            cut = len(prefix)  # a leaf, or no row is left for the next position
            if cut == n:
                cand = None if weight is None else Matrix(n=n, m=m, p=p, rows=tuple(prefix))
                if not cand or hadamard.is_weighing(cand, weight):
                    test = first_path(prefix, p, path)
                    if test is None:
                        try:
                            test = resume_minimal(prefix, p, path,
                                                  budget=budget - state["nodes"])
                        except BudgetExceededError as exc:
                            charge(exc.nodes)  # it ran past the budget it was given, so this raises
                        charge(test.nodes)
                    if test.minimal:
                        state["emitted"] += 1
                        state["orbits"] += group_order // test.aut_order
                        yield cand or Matrix(n=n, m=m, p=p, rows=tuple(prefix))
                    else:
                        cut = test.prefix  # the first `cut` rows are refuted
            # The one unwind rule: position cut - 1 takes its next row.
            if cut <= 1:
                break
            i = index[cut - 1] + 1
            del prefix[cut - 1:], index[cut - 1:], path[cut - 1:]


def _partition(job) -> tuple[list, int, int]:
    """One first-row partition: (classes, nodes, orbits), the classes as text
    if `text` is set."""
    n, m, p, weight, first, budget, text = job
    state: dict = {}
    classes = list(_enumerate(n, m, p, weight, budget, state, (first,)))
    return ([format_matrix(a) for a in classes] if text else classes,
            state["nodes"], state["orbits"])


def run_partitions(n: int, m: int, p: int, weight: int | None = None,
                   budget: int | None = DEFAULT_BUDGET, workers: int = 1,
                   emit=None, counters: dict | None = None) -> ClassCensus:
    """Every class of a shape, one row of canonical_first_rows at a time, in
    that order, here or in a pool of at most one process per partition: the
    one driver of `census`, the classifications and the CLI.

    `emit(texts)`, if given, gets each partition's classes, formatted, once it
    and every earlier one are done.  `counters` gets "workers" (processes
    used) and the running "nodes".  Each partition is capped at the budget
    left when its job is made: after the one before it at one worker, so an
    overrun stops at budget + 1 nodes; all at once in a pool.  Either way the
    run stops in the same partition, and its error counts the nodes and
    classes of the finished partitions plus those of the one that overran.
    Invalid arguments raise ParseError first (see check_arguments).
    """
    check_arguments(n, m, p, weight, workers)
    budget = math.inf if budget is None else budget
    firsts = canonical_first_rows(m, p, weight)
    head = list(itertools.islice(firsts, workers))  # no more first rows than the pool needs
    state = {} if counters is None else counters
    state.update(workers=len(head), nodes=0)
    text = emit is not None
    jobs = ((n, m, p, weight, first, budget - state["nodes"], text)
            for first in itertools.chain(head, firsts))
    reps: list = []
    count = orbits = 0
    pool = None
    if state["workers"] > 1:  # only a pool loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(max_workers=state["workers"])
    try:
        for classes, nodes, part_orbits in (pool.map if pool else map)(_partition, jobs):
            if state["nodes"] + nodes > budget:
                raise BudgetExceededError("", nodes=nodes)  # worded below
            state["nodes"] += nodes
            count += len(classes)
            orbits += part_orbits
            (emit or reps.extend)(classes)
    except BudgetExceededError as exc:
        raise BudgetExceededError(f"node budget {budget} exceeded",
                                  nodes=state["nodes"] + exc.nodes,
                                  partial_count=count + exc.partial_count) from None
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return ClassCensus(shape=(n, m, p), count=count, nodes=state["nodes"], orbits=orbits,
                       representatives=None if text else tuple(reps))


def _partitions(k: int, largest: int | None = None) -> Iterator[tuple[int, ...]]:
    """Integer partitions of k, parts nonincreasing and at most `largest`."""
    if k == 0:
        yield ()
    for part in range(min(k, largest or k), 0, -1):
        for rest in _partitions(k - part, part):
            yield (part,) + rest


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


def census(n: int, m: int, p: int, budget: int | None = DEFAULT_BUDGET,
           workers: int = 1, counters: dict | None = None) -> ClassCensus:
    """Every class of a shape, its count checked against both oracles.

    `workers` and `counters` as for run_partitions.  Raises IntegrityError
    (carrying the enumerated and Burnside counts) unless the count equals
    the Burnside count and the class sizes add up to p^(n*m).  The argument
    check and then the Burnside count come first, so invalid arguments or a
    shape past its guard fail before any enumeration.
    """
    check_arguments(n, m, p, workers=workers)
    expected = burnside_count(n, m, p)
    result = run_partitions(n, m, p, budget=budget, workers=workers, counters=counters)
    total = p**(n * m)
    if result.count != expected or result.orbits != total:
        raise IntegrityError(
            f"census disagreement at {(n, m, p)}: enumerated {result.count} classes, "
            f"burnside {expected}; their sizes sum to {result.orbits} "
            f"of {total} matrices", enumerated=result.count, expected=expected)
    return result._replace(burnside=expected)


def orbit_size(a: Matrix) -> int:
    """|class of a| = n! * m! / |Aut(a)|, with |Aut| from the canonical search."""
    return math.factorial(a.n) * math.factorial(a.m) // pruned_canonical_form(a).aut_order


def classify_weighing(n: int, k: int,
                      budget: int | None = DEFAULT_BUDGET) -> ClassCensus:
    """Canonical representatives of the weight-k weighing matrices of order n.

    Empty census (no error) at orders where none exist.  `budget` as for
    enumerate_canonical (None is unlimited); `nodes` is the total it caps.
    """
    return run_partitions(n, n, 3, weight=k, budget=budget)


def classify_hadamard(n: int, budget: int | None = DEFAULT_BUDGET) -> ClassCensus:
    """Canonical representatives of the n x n Hadamard matrices."""
    return classify_weighing(n, n, budget)
