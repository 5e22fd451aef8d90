import ast
import hashlib
import itertools
import math
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canonmat import (BudgetExceededError, Matrix, MinimalityResult,
                      PermPair, Permutation, apply, equivalence, equivalent,
                      is_minimal, is_semi_canonical, pruned_canonical_form)
from canonmat.equivalence import first_path, resume_minimal
from conftest import (SWEEP_SHAPES, TRIO_C, all_matrices, canonical_form,
                      matrices, naive_minimum)


def identity_matrix(n):
    return Matrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)], 2)


def sylvester(order):
    """Sylvester Hadamard matrix, +1 as digit 1 and -1 as digit 2."""
    h = [[1]]
    while len(h) < order:
        h = [r + r for r in h] + [r + [-x for x in r] for r in h]
    return Matrix.from_rows([[1 if x == 1 else 2 for x in r] for r in h], 3)


# Inputs with a known automorphism group order.  The permutation
# automorphisms of the Sylvester matrix of order 2^k form GL(k, 2).
PINNED_AUT = ([(f"identity{n}", identity_matrix(n), math.factorial(n)) for n in range(1, 13)]
              + [("zero2x12", Matrix.from_rows([[0] * 12] * 2, 2), 2 * math.factorial(12)),
                 ("sylvester8", sylvester(8), 168),
                 ("sylvester16", sylvester(16), 20_160),
                 ("sylvester32", sylvester(32), 9_999_360)])

# pruned_canonical_form over every PINNED_AUT matrix and its shuffled copy,
# in order, as the first 16 hex digits of
# sha256(repr([(canonical rows, witness, aut_order, nodes), ...])).
PINNED_AUT_DIGEST = "b01ebaafc560009f"


def shuffled(name, a):
    """A row/column-permuted copy of `a`, the same for the same name."""
    rng = random.Random(name)
    rho, sigma = list(range(a.n)), list(range(a.m))
    rng.shuffle(rho)
    rng.shuffle(sigma)
    return apply(a, PermPair(Permutation(tuple(rho)), Permutation(tuple(sigma))))


def unsorted_prefix(a):
    """Length of the shortest row prefix of `a` that is not semi-canonical."""
    return next(k for k in range(1, a.n + 1)
                if not is_semi_canonical(Matrix(k, a.m, a.p, a.rows[:k])))


def sorted_row_matrices(n, m, p):
    """Every n x m matrix over {0..p-1} whose rows ascend."""
    rows = itertools.product(range(p), repeat=m)
    for combo in itertools.combinations_with_replacement(rows, n):
        yield Matrix(n, m, p, combo)


def random_pair(data, n, m):
    rho = data.draw(st.permutations(range(n)))
    sigma = data.draw(st.permutations(range(m)))
    return PermPair(Permutation(tuple(rho)), Permutation(tuple(sigma)))


class TestPermutation:
    def test_not_a_bijection(self):
        with pytest.raises(ValueError):
            Permutation((0, 0, 1))

    def test_inverse(self):
        q = Permutation((2, 0, 1))
        assert (q(0), q(1), q(2)) == (2, 0, 1)
        assert q.compose(q.inverse()).images == (0, 1, 2)
        assert q.inverse().compose(q).images == (0, 1, 2)


class TestApply:
    def test_identity(self, demo34):
        assert apply(demo34, PermPair.identity(3, 4)) == demo34

    def test_row_swap(self):
        a = Matrix.from_rows([(0, 1), (1, 0)], 2)
        swap = PermPair(Permutation((1, 0)), Permutation.identity(2))
        assert apply(a, swap).rows == ((1, 0), (0, 1))

    def test_size_mismatch(self, demo34):
        with pytest.raises(ValueError):
            apply(demo34, PermPair.identity(4, 3))

    @given(matrices(), st.data())
    def test_group_action(self, a, data):
        q = random_pair(data, a.n, a.m)
        r = random_pair(data, a.n, a.m)
        assert apply(apply(a, q), r) == apply(a, r.compose(q))


class TestCanonicalForm:
    def test_trio_minimum(self, trio):
        a, b, c = trio
        assert canonical_form(a).canonical == c
        assert canonical_form(b).canonical == c
        assert canonical_form(c).canonical == c

    def test_derived_three_rows(self):
        a = Matrix.from_rows([(0, 1), (1, 0), (1, 0)], 2)
        expected = ((0, 1), (0, 1), (1, 0))  # min over all 2! * 3! arrangements
        assert naive_minimum(a) == expected
        assert canonical_form(a).canonical.rows == expected

    def test_witness_reproduces_output(self, trio):
        a, b, _ = trio
        for mat in (a, b):
            res = canonical_form(mat)
            assert apply(mat, res.witness) == res.canonical

    def test_idempotent(self, trio):
        c = canonical_form(trio[0]).canonical
        assert canonical_form(c).canonical == c

    def test_factorial_guard(self):
        wide = Matrix.from_rows([tuple([0] * 11)], 2)
        with pytest.raises(BudgetExceededError):
            canonical_form(wide)

    @pytest.mark.parametrize("shape", [(1, 1, 2), (2, 2, 2), (2, 2, 3),
                                       (3, 2, 2), (2, 3, 3), (3, 3, 2)])
    def test_matches_naive_oracle_exhaustively(self, shape):
        for a in all_matrices(*shape):
            assert canonical_form(a).canonical.rows == naive_minimum(a)

    @given(matrices(max_n=3, max_m=3, max_p=3))
    @settings(max_examples=150)
    def test_matches_naive_oracle_random(self, a):
        assert canonical_form(a).canonical.rows == naive_minimum(a)

    @given(matrices(), st.data())
    def test_invariant_under_permutations(self, a, data):
        pp = random_pair(data, a.n, a.m)
        assert canonical_form(apply(a, pp)).canonical == canonical_form(a).canonical


class TestPrunedCanonicalForm:
    def test_trio(self, trio):
        a, b, c = trio
        assert pruned_canonical_form(a).canonical == c
        assert pruned_canonical_form(b).canonical == c

    def test_zero_matrix_identity_witness(self):
        z = Matrix.from_rows([(0, 0), (0, 0)], 2)
        res = pruned_canonical_form(z)
        assert res.canonical == z
        assert res.witness == PermPair.identity(2, 2)

    @pytest.mark.parametrize("shape", SWEEP_SHAPES, ids=lambda s: "x".join(map(str, s)))
    def test_agrees_with_exhaustive_on_every_matrix(self, shape):
        # The witness puts each result in its input's class; a result that is
        # its own exhaustive minimum is then that class's minimum.
        results = set()
        for a in all_matrices(*shape):
            res = pruned_canonical_form(a)
            assert apply(a, res.witness) == res.canonical
            results.add(res.canonical)
        for c in results:
            assert canonical_form(c).canonical == c

    @given(matrices(max_n=6, max_m=7))
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_exhaustive(self, a):
        res = pruned_canonical_form(a)
        assert res.canonical == canonical_form(a).canonical
        assert apply(a, res.witness) == res.canonical

    @pytest.mark.parametrize("name,a,order", PINNED_AUT, ids=[c[0] for c in PINNED_AUT])
    def test_pinned_automorphism_group_order(self, name, a, order):
        results = []
        for b in (a, shuffled(name, a)):
            res = pruned_canonical_form(b, budget=1_000)
            assert res.aut_order == order
            assert apply(b, res.witness) == res.canonical
            # The node count repeats exactly, and the budget is charged per node.
            assert pruned_canonical_form(b, budget=res.nodes).nodes == res.nodes
            with pytest.raises(BudgetExceededError) as exc:
                pruned_canonical_form(b, budget=res.nodes - 1)
            assert exc.value.nodes == res.nodes
            results.append(res)
        assert results[0].canonical == results[1].canonical

    def test_pinned_searches(self):
        record = []
        for name, a, _ in PINNED_AUT:
            for b in (a, shuffled(name, a)):
                res = pruned_canonical_form(b)
                record.append((res.canonical.rows, res.witness, res.aut_order, res.nodes))
        assert hashlib.sha256(repr(record).encode()).hexdigest()[:16] == PINNED_AUT_DIGEST


class TestIsMinimal:
    # Search nodes of the minimality test on class minima with many
    # automorphisms: without orbit pruning the identity of order 12 alone
    # would reach 12! leaves.
    PINNED_NODES = {"identity12": 90, "sylvester16": 60, "sylvester32": 158}

    @pytest.mark.parametrize("shape", SWEEP_SHAPES, ids=lambda s: "x".join(map(str, s)))
    def test_agrees_with_engine_on_every_sorted_matrix(self, shape):
        for a in sorted_row_matrices(*shape):
            res = pruned_canonical_form(a)
            test = is_minimal(a)
            assert test.minimal == bool(test) == (res.canonical == a)
            assert test.aut_order == (res.aut_order if test else None)

    def test_unsorted_rows_fail_at_once(self):
        rng = random.Random("unsorted")
        samples = [Matrix(TRIO_C.n, TRIO_C.m, TRIO_C.p, TRIO_C.rows[::-1])]
        while len(samples) < 300:
            n, m, p = rng.randint(2, 6), rng.randint(1, 7), rng.randint(2, 4)
            rows = tuple(tuple(rng.randrange(p) for _ in range(m)) for _ in range(n))
            if list(rows) != sorted(rows):
                samples.append(Matrix(n, m, p, rows))
        for a in samples:
            assert is_minimal(a, budget=0) == MinimalityResult(False, None, 0, unsorted_prefix(a))

    @pytest.mark.parametrize("shape", SWEEP_SHAPES, ids=lambda s: "x".join(map(str, s)))
    def test_unsorted_columns_fail_at_once(self, shape):
        screened = 0
        for a in sorted_row_matrices(*shape):
            cols = a.columns()
            if all(x <= y for x, y in zip(cols, cols[1:])):
                continue
            screened += 1
            assert is_minimal(a, budget=0) == MinimalityResult(False, None, 0, unsorted_prefix(a))
            assert pruned_canonical_form(a).canonical != a
        assert screened

    @given(matrices(max_n=5, max_m=6))
    @settings(max_examples=200, deadline=None)
    def test_minimal_implies_semi_canonical(self, a):
        minimum = canonical_form(a).canonical
        for b in (a, minimum, Matrix(a.n, a.m, a.p, tuple(sorted(a.rows)))):
            if is_minimal(b).minimal or b == minimum:
                assert is_semi_canonical(b)

    @given(matrices(max_n=6, max_m=7))
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_exhaustive(self, a):
        minimum = canonical_form(a).canonical
        ascending = Matrix(a.n, a.m, a.p, tuple(sorted(a.rows)))
        assert is_minimal(a).minimal == (a == minimum)
        assert is_minimal(ascending).minimal == (ascending == minimum)
        test = is_minimal(minimum)
        assert test.minimal
        assert test.aut_order == pruned_canonical_form(a).aut_order

    # One hand-made rejection of each kind and the prefix it refutes.
    # columns: columns 1, 2 descend from row 1 on, columns 0, 1 from row 2.
    # tied: rows 1 and 2 both sort to 0001 against row 0's 0011; row 1
    # comes first.  tied-copies: the block is row 1 twice, 01 01 against
    # 02 10, and its first copy already falls below.  discrete: after rows
    # 1 and 0, row 2 reads 101 under the column order 0, 2, 1 against 110.
    REFUTED_PREFIXES = [
        ("columns", ((0, 0, 0), (1, 1, 0), (2, 1, 2)), 3, 0, 2),
        ("tied", ((0, 0, 1, 1), (0, 1, 0, 0), (1, 0, 0, 0)), 2, 1, 2),
        ("tied-copies", ((0, 2), (1, 0), (1, 0)), 3, 1, 2),
        ("discrete", ((0, 0, 1), (0, 1, 0), (1, 1, 0), (1, 1, 0)), 2, 6, 3),
    ]

    @pytest.mark.parametrize("rows,p,nodes,prefix", [case[1:] for case in REFUTED_PREFIXES],
                             ids=[case[0] for case in REFUTED_PREFIXES])
    def test_rejection_names_the_prefix_it_refutes(self, rows, p, nodes, prefix):
        a = Matrix(len(rows), len(rows[0]), p, rows)
        assert is_minimal(a) == MinimalityResult(False, None, nodes, prefix)
        refuted = Matrix(prefix, a.m, p, rows[:prefix])
        assert naive_minimum(refuted) < refuted.rows
        # One row fewer is a class minimum, so the prefix is the shortest.
        shorter = Matrix(prefix - 1, a.m, p, rows[:prefix - 1])
        assert naive_minimum(shorter) == shorter.rows

    @given(matrices(max_n=5, max_m=5))
    @settings(max_examples=200, deadline=None)
    def test_refuted_prefix_is_not_a_class_minimum(self, a):
        for b in (a, Matrix(a.n, a.m, a.p, tuple(sorted(a.rows)))):
            test = is_minimal(b)
            assert (test.prefix is None) == test.minimal
            if not test.minimal:
                refuted = Matrix(test.prefix, b.m, b.p, b.rows[:test.prefix])
                assert naive_minimum(refuted) < refuted.rows

    @pytest.mark.parametrize("name", sorted(PINNED_NODES))
    def test_symmetric_minimum_stays_cheap(self, name):
        _, a, order = next(case for case in PINNED_AUT if case[0] == name)
        minimum = pruned_canonical_form(a).canonical
        nodes = self.PINNED_NODES[name]
        test = is_minimal(minimum, budget=nodes)
        assert (test.minimal, test.aut_order, test.nodes) == (True, order, nodes)
        with pytest.raises(BudgetExceededError) as exc:
            is_minimal(minimum, budget=nodes - 1)
        assert exc.value.nodes == nodes


def sorted_in_turn(a, rounds=10):
    """`a` with its rows and then its columns sorted, in turn, until both
    ascend; None if they do not within `rounds`."""
    rows = a.rows
    for _ in range(rounds):
        if is_semi_canonical(Matrix(a.n, a.m, a.p, rows)):
            return Matrix(a.n, a.m, a.p, rows)
        rows = tuple(zip(*sorted(zip(*sorted(rows)))))
    return None


class TestFirstPath:
    @given(matrices(max_n=5, max_m=5))
    @settings(max_examples=300, deadline=None)
    def test_decides_only_what_brute_force_confirms(self, a):
        # On a matrix with ascending rows, and on a semi-canonical one.
        for b in filter(None, (Matrix(a.n, a.m, a.p, tuple(sorted(a.rows))),
                               sorted_in_turn(a))):
            test = first_path(b.rows, b.p, [])
            if test is None:
                continue
            assert test.nodes == 0
            if test.minimal:
                assert naive_minimum(b) == b.rows
                assert (test.aut_order, test.prefix) == (is_minimal(b).aut_order, None)
            else:
                refuted = b.rows[:test.prefix]
                assert naive_minimum(Matrix(test.prefix, b.m, b.p, refuted)) < refuted
            # Row by row on one path, as the enumerator calls it: the same verdict.
            path = []
            for k in range(1, b.n + 1):
                step = first_path(b.rows[:k], b.p, path)
                if step is not None and not step.minimal:
                    break
            assert step == test


def leaf_test(rows, p, path):
    """The enumerator's leaf test on the ascending `rows`: first_path one row
    at a time from the end of `path`, then resume_minimal if it is open."""
    for k in range(len(path) + 1, len(rows) + 1):
        test = first_path(rows[:k], p, path)
        if test is not None and not test.minimal:
            return test
    return test if test is not None else resume_minimal(rows, p, path)


class TestResumeMinimal:
    # Ties the copy counts settle with no search node: row 1 ties row 0
    # with more copies, so its block at row 0's node falls below; row 2 ties
    # row 0 with fewer copies, so it is no child there.
    SETTLED = [
        ("more-copies", ((0, 0, 1), (0, 1, 0), (0, 1, 0)), MinimalityResult(False, None, 0, 3)),
        ("fewer-copies", ((0, 0, 1), (0, 0, 1), (0, 1, 0)), MinimalityResult(True, 2, 0)),
    ]

    @pytest.mark.parametrize("rows,result", [case[1:] for case in SETTLED],
                             ids=[case[0] for case in SETTLED])
    def test_copy_counts_settle_a_tie(self, rows, result):
        path = []
        assert first_path(rows, 2, path) is None
        assert resume_minimal(rows, 2, path, budget=0) == result
        engine = is_minimal(Matrix(3, 3, 2, rows))
        assert (engine.minimal, engine.aut_order, engine.prefix) == result[:2] + result[3:]
        assert engine.nodes > 0

    def test_budget(self):
        # The permutation matrix branches at rows 0 and 1; resumed after the
        # first leaf, the engine spends 5 of is_minimal's 9 nodes.
        rows = [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
        path = []
        assert first_path(rows, 2, path) is None
        assert resume_minimal(rows, 2, path, budget=5) == MinimalityResult(True, 6, 5)
        assert is_minimal(Matrix(3, 3, 2, tuple(rows))).nodes == 9
        with pytest.raises(BudgetExceededError) as exc:
            resume_minimal(rows, 2, path, budget=4)
        assert exc.value.nodes == 5

    def test_deeper_than_the_recursion_limit(self):
        # The order-60 permutation matrix with ascending rows, its own class
        # minimum, branches at 59 nodes on its first path.  The search is one
        # loop, so a recursion limit of 100 does not bound it.
        script = """import sys
sys.setrecursionlimit(100)
from canonmat import Matrix, is_minimal, pruned_canonical_form
from canonmat.equivalence import first_path, resume_minimal
rows = tuple(tuple(int(i + j == 59) for j in range(60)) for i in range(60))
a = Matrix(60, 60, 2, rows)
res = pruned_canonical_form(a)
print((res.nodes, res.aut_order, res.canonical == a))
print(tuple(is_minimal(a)))
path = []
assert first_path(rows, 2, path) is None
print(tuple(resume_minimal(rows, 2, path)))
"""
        src = os.path.dirname(os.path.dirname(os.path.abspath(equivalence.__file__)))
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src))
        assert (done.returncode, done.stderr) == (0, "")
        aut = math.factorial(60)
        assert list(map(ast.literal_eval, done.stdout.splitlines())) == [
            (1890, aut, True), (True, aut, 1890, None), (True, aut, 1829, None)]

    @given(matrices(max_n=6, max_m=5, max_p=3), st.data())
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_is_minimal(self, a, data):
        # A row-sorted matrix and then a sibling, built row by row through
        # one shared path that keeps the entries of the rows they share, as
        # the enumerator's does.
        rows = sorted(a.rows)
        path = []
        for _ in range(2):
            b = Matrix(a.n, a.m, a.p, tuple(rows))
            test, engine = leaf_test(rows, a.p, path), is_minimal(b)
            assert (test.minimal, test.aut_order) == (engine.minimal, engine.aut_order)
            assert test.nodes <= engine.nodes
            if not test.minimal:
                refuted = Matrix(test.prefix, a.m, a.p, b.rows[:test.prefix])
                assert canonical_form(refuted).canonical.rows < refuted.rows
            keep = data.draw(st.integers(0, a.n - 1))
            tail = [data.draw(st.tuples(*[st.integers(0, a.p - 1)] * a.m))
                    for _ in range(a.n - keep)]
            sibling = sorted(rows[:keep] + tail)
            shared = next((k for k, (x, y) in enumerate(zip(rows, sibling)) if x != y), a.n)
            del path[min(shared, a.n - 1):]
            rows = sibling


class TestEquivalent:
    def test_trio_witness(self, trio):
        a, b, _ = trio
        pp = equivalent(a, b)
        assert pp is not None
        assert apply(b, pp) == a

    def test_self_equivalence(self, demo34):
        pp = equivalent(demo34, demo34)
        assert pp is not None
        assert apply(demo34, pp) == demo34

    def test_inequivalent(self):
        zero = Matrix.from_rows([(0, 0), (0, 0)], 2)
        ones = Matrix.from_rows([(1, 1), (1, 1)], 2)
        assert equivalent(zero, ones) is None

    def test_shape_mismatch(self, demo34, trio):
        with pytest.raises(ValueError):
            equivalent(demo34, trio[0])


class TestDecreasingChains:
    """Monotone transposition chains: an r-decreasing chain of row swaps
    forces the column code down, and dually for column swaps / the reversed
    signs."""

    SHAPES = [(3, 3, 2), (4, 4, 2), (3, 4, 3), (4, 3, 3)]

    @staticmethod
    def run_chain(rng, n, m, p, rows, down, swap_rows):
        cur = list(rows)
        applied = 0
        for _ in range(20):
            if applied >= 3:
                break
            u, v = rng.sample(range(n if swap_rows else m), 2)
            if swap_rows:
                nxt = list(cur)
                nxt[u], nxt[v] = cur[v], cur[u]
            else:
                order = list(range(m))
                order[u], order[v] = order[v], order[u]
                nxt = [tuple(r[j] for j in order) for r in cur]
            key_cur, key_nxt = ((tuple(cur), tuple(nxt)) if swap_rows
                                else (tuple(zip(*cur)), tuple(zip(*nxt))))
            if (key_nxt < key_cur) if down else (key_nxt > key_cur):
                cur = nxt
                applied += 1
        return cur, applied

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("down", [True, False])
    @pytest.mark.parametrize("swap_rows", [True, False])
    def test_chain_implication(self, shape, down, swap_rows):
        import random
        n, m, p = shape
        rng = random.Random(f"{shape}-{down}-{swap_rows}")
        for _ in range(500):
            rows = [tuple(rng.randrange(p) for _ in range(m)) for _ in range(n)]
            final, applied = self.run_chain(rng, n, m, p, rows, down, swap_rows)
            if applied == 0:
                continue
            if swap_rows:
                before, after = tuple(zip(*rows)), tuple(zip(*final))
            else:
                before, after = tuple(rows), tuple(final)
            assert (after < before) if down else (after > before)
