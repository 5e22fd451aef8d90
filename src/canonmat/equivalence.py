"""Row/column permutation actions and the canonical-form engine.

Two matrices are equivalent when one arises from the other by permuting
rows and columns.  The canonical representative of a class is the member
whose row code is lexicographically minimal.

One search engine, `_RowSearch`, runs in two modes.  Its minimum mode,
`pruned_canonical_form`, is behind canonize and `equivalent`; its
minimality mode is `is_minimal` from the root, and `resume_minimal` from a
first leaf.  It builds the minimum row by row, refining ordered column
cells, and prunes with the automorphisms it finds (after McKay and
Piperno, *Practical graph isomorphism II*, J. Symb. Comput. 2014);
|Aut| comes as a by-product.  Each node carries its canonical rows and
compares them with the best and the first leaf afresh.  In minimality mode
the candidate's own rows are the incumbent from the root, as in the "is
canonical?" tests of Kaski and Östergård, *Classification Algorithms for
Codes and Designs*, 2006.  A "not minimal" also names the shortest leading
row block of the candidate it rests on, which the enumerator unwinds to.
`first_path` walks the same search's first path along a sorted candidate,
one row at a time, so that a caller extending the candidate row by row
reuses it; it decides every candidate on which the search would not
branch.  `resume_minimal` decides the rest from that path: copy counts
settle most key ties, and the engine, started from the candidate as its
first leaf, runs only the other children of the branching nodes on the
path.  The two are the enumerator's leaf test.  The search is one loop
over an explicit stack of branching nodes, so no recursion limit bounds
it.

The permutations, witness pairs and both search results are named tuples;
`Permutation` checks that its images are a tuple of ints that form a
bijection.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from itertools import compress, count
from operator import add, ne

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
        if type(images) is not tuple or not all(type(i) is int for i in images):
            raise ValueError(f"images must be a tuple of ints, got {images!r}")
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
    search, _ = _search(a, budget)
    canon, ids, colors = search.best
    # order[k] is the source row placed at k, sigma[j] the source column
    # placed at j; their inverses map each source to its destination.
    order = tuple(i for u in ids for i, row in enumerate(a.rows) if row == search.rows[u])
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
    return _verdict(*_search(a, budget, target=a.rows), a.rows)


def _verdict(search, depth, rows) -> MinimalityResult:
    """The result of a minimality search on `rows` that returned `depth`."""
    if depth < 0:
        # The rows ascend, so row ids do too, and the copies of a row are
        # consecutive: the largest index in S is the last copy of its largest id.
        u, copies = max(search.below)
        return MinimalityResult(False, None, search.nodes, rows.index(search.rows[u]) + copies)
    return MinimalityResult(True, search.aut_order(), search.nodes)


def first_path(rows, p: int, path: list) -> MinimalityResult | None:
    """`is_minimal` on the ascending `rows` where the search takes one path,
    else None; `path` keeps that path row by row for the next call.

    The key of a row under the column cells of the rows above row k is
    `_key`'s, the engine's: its digits sorted within each cell, cells in order.
    `path[j]` is (colors of the rows above row j, row j's key under them,
    the pairs (k, i) of rows up to j where row i's key under the cells
    above row k ties row k's); a copy of the row above shares its entry.
    Entries past the end of `path` are computed here, and the caller
    truncates `path` where its rows change, so a row shared by many
    candidates is keyed once.

    For row j, not a copy of the row above, and every earlier row k, the
    first of its copies:

    - If row j is not sorted within its own cells, its columns descend
      somewhere, so its prefix of j + 1 rows is not semi-canonical.
    - If row j's key under the cells of the rows above row k is below row
      k, permuting columns within those cells leaves rows 0..k-1 as they
      are and turns row j into that key.  Rows 0..k-1 and that key, sorted,
      are below rows 0..k, so the prefix of j + 1 rows has a smaller
      arrangement: it is not its class minimum, and no matrix that starts
      with it is one (see is_minimal).

    Either way the result is "no" with that prefix and 0 nodes.  If no row
    ties an earlier row's key either, the search on `rows` has exactly one
    child at every node, the candidate's next row, which appends the
    candidate's rows; its one leaf is the candidate itself, so the answer
    is "yes", with |Aut| = copy_symmetries, and 0 nodes, since the caller
    paid for each row when it placed it.  Otherwise the answer is None:
    run resume_minimal on the same `path`.
    """
    for j in range(len(path), len(rows)):
        row = rows[j]
        if j and row == rows[j - 1]:
            path.append(path[-1])  # the same cells, and no new key
            continue
        colors = [v * p for v in path[-1][1]] if path else [0] * len(row)
        key = list(map(add, colors, row))
        if sorted(key) != key:
            return MinimalityResult(False, None, 0, j + 1)
        ties = path[-1][2] if path else ()
        above = None
        for k, entry in enumerate(path):
            if entry is not above:
                above = entry
                other = _key(entry[0], row)
                if other < entry[1]:
                    return MinimalityResult(False, None, 0, j + 1)
                if other == entry[1]:
                    ties += ((k, j),)
        path.append((colors, key, ties))
    if path[-1][2]:
        return None
    return MinimalityResult(True, copy_symmetries(list(map(rows.count, set(rows))), path[-1][1]), 0)


def resume_minimal(rows, p: int, path: list, budget: int | None = None) -> MinimalityResult:
    """`is_minimal` on the ascending `rows` that first_path left open, with
    its `path`: the search picks up after its first leaf, `rows` itself.

    The engine's children at a node are the unplaced rows with the least
    key and, among those, the most copies.  On the first path the least key
    at row k's node is row k's, so a pair (k, j) of `path` is a tie there:

    - If row j has more copies than row k, the node's block repeats row k's
      key past row k's copies, where `rows` has a greater row: the answer
      is "no" at 0 nodes.  Its prefix runs through the (copies of k + 1)-th
      copy of row j (case 2 of is_minimal); the shortest such prefix is taken.
    - If row j has fewer copies, it is no child there.
    - Equal copies make row k's node a branching node.

    With no branching node the first path is the whole search, and the
    answer is "yes" with |Aut| = copy_symmetries at 0 nodes.  Otherwise
    the engine starts from `rows` as its first leaf and incumbent, with the
    branching nodes of the first path on its stack, each with its first
    child explored, and unwinds from that leaf: it runs the children after
    the first, deepest node first, as the search from the root does after
    its first leaf.  Nothing on the first path is searched again, so the
    nodes are is_minimal's less those of its first path.  Budget as for
    is_minimal.
    """
    copies = rows.count  # the rows ascend, so the copies of a row are consecutive
    ties = path[-1][2]
    refuted = [j + copies(rows[k]) + 1 for k, j in ties if copies(rows[j]) > copies(rows[k])]
    if refuted:
        return MinimalityResult(False, None, 0, min(refuted))
    children: dict = {}  # branching row k -> the first rows of its children: k, then its ties
    for k, j in ties:
        if copies(rows[j]) == copies(rows[k]):
            children.setdefault(k, [k]).append(j)
    if not children:
        return MinimalityResult(True, copy_symmetries(list(map(copies, set(rows))), path[-1][1]), 0)
    search = _RowSearch(rows, p, budget, tuple(rows))
    ids = tuple(range(len(search.rows)))
    # The first leaf: the target, placed in row-id order, with its final colors.
    search.first = search.best = (search.best[0], ids, path[-1][1])
    stack = []
    for k in sorted(children):
        u = search.rows.index(rows[k])
        tied = [search.rows.index(rows[i]) for i in children[k]]
        node = (ids[:u], path[k][0], ids[u:], search.best[0][:k + copies(rows[k])])
        stack.append(_Branch(node, iter(tied[1:]), tied[:1], True))
    return _verdict(search, search.run(stack, depth=len(ids)), rows)


def _key(colors, row) -> list[int]:
    """A row's key under the column cells `colors` (see _RowSearch)."""
    return sorted(map(add, colors, row))


def copy_symmetries(copies, colors) -> int:
    """Π(copies of each row)! · Π(columns of each color)!: the number of
    pairs that only permute copies of a row and columns of one final cell,
    which are copies of a column.  |Aut| is this times the orbit sizes the
    search multiplies in where it branches."""
    aut = 1
    for size in copies:
        aut *= math.factorial(size)
    for color in set(colors):
        aut *= math.factorial(colors.count(color))
    return aut


def _search(a: Matrix, budget, target=None):
    """Run the row search on `a`: (search, the depth it ended at, -1 if a
    prefix fell below `target`)."""
    search = _RowSearch(a.rows, a.p, budget, target)
    return search, search.run([], ((), (0,) * a.m, tuple(range(len(search.rows))), ()))


class _Branch:
    """A branching node on the stack of _RowSearch.run: the `node`, whose
    canonical rows include its block, the rows its every child places;
    `children`, an iterator over the children not yet tried, those
    `explored`, and whether it is `on_first_path`.  `roots` are the orbit
    roots of the `seen_gens` generators found first."""

    __slots__ = ("node", "children", "explored", "on_first_path", "roots", "seen_gens")

    def __init__(self, node, children, explored, on_first_path):
        self.node, self.children, self.explored = node, children, explored
        self.on_first_path = on_first_path
        self.roots, self.seen_gens = None, -1


class _RowSearch:
    """Depth-first search over the order in which distinct rows are placed.

    The distinct rows are numbered as they first come, their ids; `mult`
    counts the copies of each.  A node is the sequence of row ids placed so
    far, their canonical rows, and the ordered column cells they induce.
    colors[j] is p times column j read down the rows placed so far as a
    base-p numeral.  Columns of one color form a cell, and cells go in color
    order, so sorting a row's values colors[j] + row[j] sorts its digits
    within each cell, cells in order: that is the row's key.  The children
    of a node are the unplaced rows whose (key, -multiplicity) is least.
    All of them append the same canonical rows, the node's block, so each
    node compares its canonical rows, block included, with the incumbent
    (`best`) and, before a cut, with the first leaf.  At a discrete node,
    whose colors are distinct, no two keys tie: the unplaced rows follow in
    ascending order, each repeated by its copies, in one step.  A leaf
    equal to `best` or to the first leaf yields a row automorphism; the
    search then unwinds to the node where the two paths split, whose
    current child that automorphism maps onto an already finished sibling.
    The search is one loop, `run`, over an explicit stack of branching
    nodes, so no recursion limit bounds it.

    Given `target` rows, the search tests their minimality instead: they are
    the incumbent from the root, and a node whose block falls below them
    ends the whole search (`run` returns -1) and leaves in `below` the
    rows that fall rests on.  Every leaf then equals the target, so each
    leaf after the first is an automorphism.  The target is sorted there, so
    row ids ascend with the target's row indices.
    """

    __slots__ = ("rows", "mult", "p", "budget", "nodes", "first", "best",
                 "stop_below", "below", "generators", "orbit_product")

    def __init__(self, rows, p, budget, target=None):
        copies = Counter(rows)  # in order of first appearance
        self.rows = list(copies)
        self.mult = list(copies.values())
        self.p = p
        self.budget = math.inf if budget is None else budget
        self.nodes = 0
        self.first = None       # (canonical rows, row ids, colors) of leaf 1
        self.best = None if target is None else (target, None, None)
        self.stop_below = target is not None
        self.below = None       # (row id, copies) a fall below the target rests on
        self.generators: list[tuple[int, ...]] = []
        self.orbit_product = 1

    def run(self, stack, node=None, depth=0) -> int:
        """Search below `node`, or with none, unwind `stack` to `depth`;
        returns the depth the search unwinds to once the stack is empty, or
        -1 once a block falls below the target.

        A node is (ids, colors, remaining, canon): `canon` is the tuple of
        canonical rows of `ids`.  One pass over the unplaced rows finds the
        least key, the most copies among the rows with that key, and the
        rows with both: the children.  With the block they share appended,
        `canon` is cut where it is above `best` and differs from the first
        leaf.  A node with one child goes on to it.  A branching node goes
        on the stack, with `canon` including its block, and runs its first
        child.

        The one unwind rule: a leaf or a cut gives a depth, and every
        branching node deeper than it is dropped.  The one it stops at runs
        its next child that no automorphism found so far, fixing the node's
        rows, maps onto an explored one.  When none is left, the node is
        dropped and the search unwinds to its depth.  A node is on the first
        path when its first child makes the first leaf; it then multiplies
        the size of that child's orbit into `orbit_product`."""
        p, rows, mult = self.p, self.rows, self.mult
        while True:
            if node is None:
                while stack and len(stack[-1].node[0]) > depth:  # node[0] is its ids
                    stack.pop()
                if not stack:
                    return depth
                top = stack[-1]
                ids, colors, remaining, canon = top.node
                for u in top.children:
                    if top.explored and self.generators:
                        if top.seen_gens != len(self.generators):
                            top.seen_gens = len(self.generators)
                            top.roots = self._orbit_roots(ids)
                        if top.roots[u] in {top.roots[e] for e in top.explored}:
                            continue
                    top.explored.append(u)
                    node = (*self._child(u, ids, colors, remaining), canon)
                    break
                else:
                    stack.pop()
                    depth = len(ids)
                    if top.on_first_path:
                        # Automorphisms preserve keys, so the orbit lies within the children.
                        # A minimal target's own row order takes the first child at every
                        # node and is never cut, so its first leaf lies below that child too.
                        roots = self._orbit_roots(ids)
                        self.orbit_product *= roots.count(roots[top.explored[0]])
                continue
            ids, colors, remaining, canon = node
            node = None
            self.nodes += 1
            if self.nodes > self.budget:
                raise BudgetExceededError(
                    f"canonical-form search exceeded its node budget {self.budget}",
                    nodes=self.nodes)
            if not remaining:
                depth = self._leaf(ids, canon, colors)
                continue
            discrete = len(set(colors)) == len(colors)
            if discrete:
                col_order = sorted(range(len(colors)), key=colors.__getitem__)
                block, order = zip(*sorted([(tuple(map(rows[u].__getitem__, col_order)), u)
                                            for u in remaining]))
                block = tuple([key for key, u in zip(block, order) for _ in range(mult[u])])
            else:
                least, most, tied = [math.inf], 0, None  # [inf] is above every key
                for u in remaining:
                    key = _key(colors, rows[u])
                    if key > least or key == least and mult[u] < most:
                        continue
                    if key == least and mult[u] == most:
                        tied.append(u)
                    else:
                        least, most, tied = key, mult[u], [u]
                block = (tuple([v % p for v in least]),) * most
            canon += block
            if self.best is not None:
                best = self.best[0][:len(canon)]
                if canon > best and (self.first is None or canon != self.first[0][:len(canon)]):
                    depth = len(ids)
                    continue
                if canon < best and self.stop_below:  # the rows above the block are the target's
                    self.below = self._rows_below(ids, order if discrete else [min(tied)],
                                                  block, best[-len(block):])
                    return -1
            if discrete:
                node = (ids + order, colors, (), canon)
            elif len(tied) > 1:
                stack.append(_Branch((ids, colors, remaining, canon), iter(tied), [],
                                     self.first is None))
                depth = len(ids)  # unwinding to the new node runs its first child
            else:
                node = (*self._child(tied[0], ids, colors, remaining), canon)

    def _child(self, u, ids, colors, remaining):
        """(ids, colors, remaining) of the child that places row u."""
        i = remaining.index(u)
        return (ids + (u,), tuple([v * self.p for v in map(add, colors, self.rows[u])]),
                remaining[:i] + remaining[i + 1:])

    def _rows_below(self, ids, order, block, best_block) -> list[tuple[int, int]]:
        """(row id, copies) of every row a block below the target rests on:
        all copies of the rows placed, then the rows of `order` that give the
        block up to the first position where it differs from `best_block`."""
        d = next(compress(count(), map(ne, block, best_block)))
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
        return self.orbit_product * copy_symmetries(self.mult, self.best[2])

    def _leaf(self, ids, canon, colors) -> int:
        leaf = (canon, ids, colors)
        if self.first is None:
            self.first = self.best = leaf
            return len(ids)
        if canon < self.best[0]:
            self.best = leaf
            return len(ids)
        match = self.best if canon == self.best[0] else self.first  # above best: not cut, so first
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
