"""Row/column permutation actions and the canonical-form engine.

Two matrices are equivalent when one arises from the other by permuting
rows and columns.  The canonical representative of a class is the member
whose row code is lexicographically minimal.

One search engine, `_RowSearch`, runs in two modes.  Its minimum mode,
`pruned_canonical_form`, is behind canonize and `equivalent`; its
minimality mode, `is_minimal`, is the enumerator's leaf test.  A class
minimum is semi-canonical (rows and columns both nondecreasing), so
`is_minimal` rejects any other matrix before the search, with no node
spent.  The search builds the minimum row by row.  The placed rows split
the columns into ordered cells; the next canonical row is the least, over
the unplaced rows, of the row's digits sorted within each cell, and placing
it splits every cell by digit value.  The search branches only on rows
whose keys tie, places rows of identical content once, cuts prefixes that
already compare greater than the incumbent, and skips tied rows that an
automorphism found so far maps onto an explored sibling; two equal leaves
give such an automorphism (after McKay and Piperno, *Practical graph
isomorphism II*, J. Symb. Comput. 2014).  The orbit sizes along the first
path give |Aut| as a by-product.  In minimality mode the candidate's own
rows are the incumbent from the root, so the first prefix below them ends
the search with "not minimal", and every leaf reached equals the candidate
(after the "is canonical?" tests of Kaski and Östergård, *Classification
Algorithms for Codes and Designs*, 2006).  A "not minimal" also names the
shortest leading row block of the candidate it rests on, which the
enumerator unwinds to.

The permutations, witness pairs and both search results are named tuples;
`Permutation` checks that its images form a bijection.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from operator import add

from .canonicity import unsorted_prefix
from .errors import BudgetExceededError
from .matrices import Matrix


class Permutation(namedtuple("Permutation", "images")):
    """A bijection on {0, ..., k-1}; images[i] is the image of i.

    A one-field record, so len() and unpacking see `images` whole: its
    size is `size`.
    """

    __slots__ = ()

    def __new__(cls, images: tuple[int, ...]):
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a bijection: {images}")
        return tuple.__new__(cls, (images,))

    # The named tuple's _make, and _replace through it, would skip __new__.
    _make = classmethod(lambda cls, fields: cls(*fields))

    @classmethod
    def identity(cls, k: int) -> "Permutation":
        return cls(tuple(range(k)))

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, img in enumerate(self.images):
            inv[img] = i
        return Permutation(tuple(inv))

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self.compose(other))(i) = self(other(i))."""
        return Permutation(tuple(self.images[other.images[i]] for i in range(len(self.images))))


class PermPair(namedtuple("PermPair", "row col")):
    """A row permutation and a column permutation acting together."""

    __slots__ = ()

    @classmethod
    def identity(cls, n: int, m: int) -> "PermPair":
        return cls(Permutation.identity(n), Permutation.identity(m))

    def inverse(self) -> "PermPair":
        return PermPair(self.row.inverse(), self.col.inverse())

    def compose(self, other: "PermPair") -> "PermPair":
        return PermPair(self.row.compose(other.row), self.col.compose(other.col))


class CanonResult(namedtuple("CanonResult", "canonical witness aut_order nodes",
                             defaults=(None, 0))):
    """The class minimum and a witness pair taking the input to it.

    `aut_order` is |Aut|, the number of pairs that fix the input, and
    `nodes` the search nodes spent; an exhaustive oracle may leave them unset.
    """

    __slots__ = ()


def apply(a: Matrix, pp: PermPair) -> Matrix:
    """Apply a permutation pair: entry (i, j) moves to (row(i), col(j)).

    This is a left group action under `compose`:
    apply(apply(a, q), r) == apply(a, r.compose(q)).
    """
    if pp.row.size != a.n or pp.col.size != a.m:
        raise ValueError(f"permutation sizes {pp.row.size}x{pp.col.size} "
                         f"do not match matrix shape {a.n}x{a.m}")
    grid = [[0] * a.m for _ in range(a.n)]
    for i, row in enumerate(a.rows):
        ti = pp.row.images[i]
        for j, e in enumerate(row):
            grid[ti][pp.col.images[j]] = e
    return Matrix(n=a.n, m=a.m, p=a.p, rows=tuple(tuple(r) for r in grid))


def pruned_canonical_form(a: Matrix, budget: int | None = None) -> CanonResult:
    """Class minimum with witness and |Aut| by row-choice partition search.

    `apply(a, result.witness) == result.canonical`, the least row code in
    the class of `a`, for any width.  Each search node is charged against `budget`; running out
    raises BudgetExceededError carrying the node count.
    """
    search, sources, _ = _search(a, budget)
    canon, ids, colors = search.best
    # order[k] is the source row placed at k, sigma[j] the source column
    # placed at j; their inverses map each source to its destination.
    order = tuple(i for u in ids for i in sources[u])
    sigma = tuple(sorted(range(a.m), key=colors.__getitem__))
    return CanonResult(canonical=Matrix(n=a.n, m=a.m, p=a.p, rows=canon),
                       witness=PermPair(Permutation(order), Permutation(sigma)).inverse(),
                       aut_order=search.aut_order(), nodes=search.nodes)


class MinimalityResult(namedtuple("MinimalityResult", "minimal aut_order nodes prefix",
                                  defaults=(None,))):
    """Whether a matrix is its own class minimum; true exactly when it is.

    `aut_order` is |Aut| when it is (None otherwise), and `nodes` the
    search nodes spent.  On a "no", `prefix` is the length k of the leading
    row block the "no" rests on: the first k rows are not their own class
    minimum either (see is_minimal).  Every row prefix of a class minimum
    is a class minimum, so no matrix that starts with those k rows is one.
    """

    __slots__ = ()

    def __bool__(self) -> bool:
        return self.minimal


def is_minimal(a: Matrix, budget: int | None = None) -> MinimalityResult:
    """Whether `a` equals pruned_canonical_form(a).canonical, by early-exit search.

    A matrix that is not semi-canonical fails at once, with no search node.
    Every class minimum is semi-canonical.  Its rows ascend, since sorting
    them would lower the code otherwise.  Its columns ascend too: suppose
    column j is greater than column j+1, read top to bottom, and let i be
    the first row where they differ.  Swapping the two columns leaves every
    row above i unchanged and lowers row i, and re-sorting the rows lowers
    the code again, so `a` is not minimal.

    Otherwise the search takes `a`'s rows as its incumbent from the root:
    it cuts prefixes above them and stops at the first prefix below them.
    Budget as for pruned_canonical_form.

    A "no" also gives `prefix`, the length k of a leading row block that is
    not its own class minimum, in one of two cases:

    1. `a` is not semi-canonical.  k is the length of its shortest row
       prefix that is not semi-canonical either (`unsorted_prefix`).
    2. A block of the search fell below the target.  The canonical rows
       placed so far equal `a`'s first rows, and the block's first d rows
       compare below the target's next d.  Those rows come from a set S of
       rows of `a`: every copy of each placed row, then the rows that give
       the block, copy by copy, up to the first position where it differs;
       for a tied block, the tied row whose copies come first in `a`.  Let
       k be one more than the largest index in S, and Q the first k rows,
       so S lies in Q.  Under the column order that gives the block, the
       |S| least rows of Q are elementwise at most the sorted rows of S,
       which are at most those placed rows and block rows, which are below
       `a`'s first |S| rows, the first |S| rows of Q.  So Q is not its
       class minimum.
    """
    refuted = unsorted_prefix(a)
    if refuted:
        return MinimalityResult(False, None, 0, refuted)
    search, sources, depth = _search(a, budget, target=a.rows)
    if depth < 0:
        return MinimalityResult(False, None, search.nodes,
                                1 + max(sources[u][c - 1] for u, c in search.below))
    return MinimalityResult(True, search.aut_order(), search.nodes)


def _search(a: Matrix, budget, target=None):
    """Run the row search on `a`: (search, source rows of each distinct
    row, the depth the root returned, -1 if a prefix fell below `target`)."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, row in enumerate(a.rows):
        groups.setdefault(row, []).append(i)
    sources = list(groups.values())
    search = _RowSearch(list(groups), list(map(len, sources)), a.p, budget, target)
    depth = search.node((), [], (0,) * a.m, 1, tuple(range(len(sources))), 0, False)
    return search, sources, depth


class _RowSearch:
    """Depth-first search over the order in which distinct rows are placed.

    A node is the sequence of distinct rows placed so far together with the
    ordered column cells they induce.  Column j lies in the cell of rank
    colors[j] // p, so sorting a row's values colors[j] + row[j] sorts its
    digits within each cell, cells in order: that is the row's key.  The
    children of a node are the unplaced rows whose (key, -multiplicity) is
    least.  All of them append the same canonical rows, so the prefix
    comparisons against the incumbent (`best`) and the first leaf are made
    once per node.  A leaf equal to `best` or to the first leaf yields a row
    automorphism; the search then unwinds to the node where the two paths
    split, whose current child that automorphism maps onto an already
    finished sibling.

    Given `target` rows, the search tests their minimality instead: they are
    the incumbent from the root, and a node whose block falls below them
    unwinds the whole search (the root returns -1) and leaves in `below` the
    rows that fall rests on.  Every leaf then equals the target, so each
    leaf after the first is an automorphism.  The target is sorted there, so
    row ids ascend with the target's row indices.
    """

    __slots__ = ("rows", "mult", "p", "budget", "nodes", "first", "best",
                 "stop_below", "below", "best_version", "generators", "orbit_product")

    def __init__(self, rows, mult, p, budget, target=None):
        self.rows = rows
        self.mult = mult
        self.p = p
        self.budget = math.inf if budget is None else budget
        self.nodes = 0
        self.first = None       # (canonical rows, row ids, colors) of leaf 1
        self.best = None if target is None else (target, None, None)
        self.stop_below = target is not None
        self.below = None       # (row id, copies) a fall below the target rests on
        self.best_version = 0
        self.generators: list[tuple[int, ...]] = []
        self.orbit_product = 1

    def node(self, ids, canon, colors, cells, remaining, rel, eq_first) -> int:
        """Search below one node; returns the depth the search unwinds to.

        `cells` is the number of column cells, the distinct values of
        `colors`.  `rel` compares `canon` with the same rows of `best` (-1,
        0, +1) and `eq_first` says whether it equals the first leaf's
        prefix; each is meaningless while there is no `best`, respectively
        no first leaf.  A chain of nodes with one child each is walked in a
        loop, so the recursion only grows at branching nodes.
        """
        p, rows, mult = self.p, self.rows, self.mult
        start = len(canon)
        while True:
            self.nodes += 1
            if self.nodes > self.budget:
                raise BudgetExceededError(
                    f"canonical-form search exceeded its node budget {self.budget}",
                    nodes=self.nodes)
            if not remaining:
                target = self._leaf(ids, canon, colors, rel, eq_first)
                del canon[start:]
                return target
            discrete = cells == len(colors)
            if discrete:
                # Every cell is one column, so no two keys tie: the unplaced
                # rows follow in ascending order, all in one step.
                col_order = sorted(range(len(colors)), key=colors.__getitem__)
                placed = sorted((tuple(map(rows[u].__getitem__, col_order)), u)
                                for u in remaining)
                block = tuple(key for key, u in placed for _ in range(mult[u]))
            else:
                keys = [(sorted(map(add, colors, rows[u])), -mult[u]) for u in remaining]
                least = min(keys)
                tied = [u for u, key in zip(remaining, keys) if key == least]
                block = (tuple([v % p for v in least[0]]),) * -least[1]
            if self.best is not None:
                k = len(canon)
                if rel == 0:
                    best_block = self.best[0][k:k + len(block)]
                    rel = (block > best_block) - (block < best_block)
                eq_first = eq_first and block == self.first[0][k:k + len(block)]
                if rel > 0 and not eq_first:
                    del canon[start:]
                    return len(ids)
                if rel < 0 and self.stop_below:
                    del canon[start:]
                    self.below = self._rows_below(
                        ids, [u for _, u in placed] if discrete else [min(tied)],
                        block, best_block)
                    return -1
            canon += block
            if discrete:
                ids += tuple(u for _, u in placed)
                remaining = ()
                continue
            # Split every cell by the chosen row's digit, smaller digits first.
            rank = {v: i * p for i, v in enumerate(dict.fromkeys(least[0]))}
            cells = len(rank)
            if len(tied) > 1:
                break
            u = tied[0]
            ids += (u,)
            colors = tuple(map(rank.__getitem__, map(add, colors, rows[u])))
            i = remaining.index(u)
            remaining = remaining[:i] + remaining[i + 1:]
        depth = len(ids)
        on_first_path = self.first is None
        explored: list[int] = []
        roots = None
        seen_gens = -1
        for u in tied:
            if explored and self.generators:
                if seen_gens != len(self.generators):
                    seen_gens = len(self.generators)
                    roots = self._orbit_roots(ids)
                if roots[u] in {roots[e] for e in explored}:
                    continue
            explored.append(u)
            version = self.best_version
            target = self.node(ids + (u,), canon,
                               tuple(map(rank.__getitem__, map(add, colors, rows[u]))),
                               cells, tuple(x for x in remaining if x != u), rel, eq_first)
            if target < depth:
                del canon[start:]
                return target
            if self.best_version != version:
                rel, eq_first = 0, eq_first or on_first_path
        del canon[start:]
        if on_first_path:
            # Automorphisms preserve keys, so the orbit lies within `tied`.
            # A minimal target's own row order takes tied[0] at every node
            # and is never cut, so its first leaf lies below tied[0] too.
            roots = self._orbit_roots(ids)
            self.orbit_product *= roots.count(roots[tied[0]])
        return depth

    def _rows_below(self, ids, order, block, best_block) -> list[tuple[int, int]]:
        """(row id, copies) of every row a block below the target rests on:
        all copies of the rows placed, then the rows of `order` that give the
        block up to the first position where it differs from `best_block`."""
        d = next(i for i, (x, y) in enumerate(zip(block, best_block)) if x != y)
        below = [(u, self.mult[u]) for u in ids]
        for u in order:
            copies = min(self.mult[u], d + 1)
            below.append((u, copies))
            d -= copies
            if d < 0:
                break
        return below

    def aut_order(self) -> int:
        """|Aut| once the search is done and has a leaf."""
        # The columns of a final cell are identical, as are the rows of a group.
        aut = self.orbit_product
        for size in self.mult + list(Counter(self.best[2]).values()):
            aut *= math.factorial(size)
        return aut

    def _leaf(self, ids, canon, colors, rel, eq_first) -> int:
        leaf = (tuple(canon), ids, colors)
        if self.first is None:
            self.first = self.best = leaf
            self.best_version += 1
            return len(ids)
        if rel < 0:
            self.best = leaf
            self.best_version += 1
            return len(ids)
        match = self.best if rel == 0 else self.first
        assert rel == 0 or eq_first
        gen = [0] * len(self.rows)
        for u, v in zip(ids, match[1]):
            gen[u] = v
        self.generators.append(tuple(gen))
        split = 0
        while ids[split] == match[1][split]:
            split += 1
        return split

    def _orbit_roots(self, fixed) -> list[int]:
        """Orbit representative of every row id under the automorphisms
        found so far that fix the rows `fixed` pointwise."""
        parent = list(range(len(self.rows)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for gen in self.generators:
            if all(gen[x] == x for x in fixed):
                for x, y in enumerate(gen):
                    rx, ry = find(x), find(y)
                    if rx != ry:
                        parent[max(rx, ry)] = min(rx, ry)
        return [find(x) for x in range(len(parent))]


def equivalent(a: Matrix, b: Matrix) -> PermPair | None:
    """Witness pair pp with apply(b, pp) == a, or None if inequivalent."""
    if (a.n, a.m, a.p) != (b.n, b.m, b.p):
        raise ValueError(f"shape/base mismatch: {(a.n, a.m, a.p)} vs {(b.n, b.m, b.p)}")
    ra = pruned_canonical_form(a)
    rb = pruned_canonical_form(b)
    if ra.canonical != rb.canonical:
        return None
    pp = ra.witness.inverse().compose(rb.witness)
    assert apply(b, pp) == a
    return pp
