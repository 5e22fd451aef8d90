import hashlib
import io
import itertools
import sys

import pytest
from hypothesis import given, settings

from canonmat import (BudgetExceededError, IntegrityError, Matrix,
                      MinimalityResult, ParseError, burnside_count, census, cli,
                      enumeration, enumerate_canonical, equivalence, is_minimal,
                      is_weighing, orbit_size, pruned_canonical_form)
from canonmat.enumeration import canonical_first_rows
from conftest import (SWEEP_SHAPES, all_matrices, brute_orbit_size,
                      canonical_form, matrices, naive_minimum, read_json)


class TestBurnside:
    def test_anchor_counts(self):
        assert burnside_count(2, 2, 2) == 7   # (16 + 4 + 4 + 4) / 4
        assert burnside_count(2, 2, 3) == 27  # (81 + 9 + 9 + 9) / 4
        assert burnside_count(1, 2, 2) == 3   # (4 + 2) / 2

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_one_by_one(self, p):
        assert burnside_count(1, 1, p) == p

    def test_guard(self):
        with pytest.raises(BudgetExceededError):
            burnside_count(13, 2, 2)

    def test_symmetry(self):
        assert burnside_count(3, 4, 2) == burnside_count(4, 3, 2)

    def test_cited_oeis_a002724(self):
        # Cited, not computed: OEIS A002724 (https://oeis.org/A002724), the
        # n x n binary matrices up to row and column permutations.
        assert [burnside_count(n, n, 2) for n in range(1, 9)] == [
            2, 7, 36, 317, 5624, 251610, 33642660, 14685630688]


class TestEnumerate:
    def test_one_by_one(self):
        reps = list(enumerate_canonical(1, 1, 5))
        assert [r.rows for r in reps] == [((k,),) for k in range(5)]

    def test_two_by_two_binary(self):
        assert len(list(enumerate_canonical(2, 2, 2))) == 7

    def test_strictly_ascending_row_codes(self):
        reps = list(enumerate_canonical(3, 3, 2))
        codes = [r.rows for r in reps]
        assert codes == sorted(codes)
        assert len(set(codes)) == len(codes)

    @pytest.mark.parametrize("shape", [(2, 2, 2), (3, 3, 2), (2, 2, 3), (2, 3, 3)])
    def test_sound_and_complete(self, shape):
        reps = list(enumerate_canonical(*shape))
        # soundness: each representative is its own class minimum
        for r in reps:
            assert pruned_canonical_form(r).canonical == r
        # completeness: exactly the minima of the exhaustive sweep
        expected = {canonical_form(a).canonical.rows for a in all_matrices(*shape)}
        assert {r.rows for r in reps} == expected

    def test_filter_predicate(self):
        weight_two = list(enumerate_canonical(2, 2, 3, weight=2))
        expected = {canonical_form(a).canonical.rows for a in all_matrices(2, 2, 3)
                    if is_weighing(a, 2)}
        assert [r.rows for r in weight_two] == sorted(expected)
        assert [r.rows for r in weight_two] == [((1, 1), (1, 2)), ((1, 2), (2, 2))]

    @pytest.mark.parametrize("shape,weight", [((2, 3, 3), 1), ((3, 3, 2), 1),
                                              ((3, 3, 5), 1), ((3, 3, 3), 0),
                                              ((3, 3, 3), 4)])
    def test_weight_rejects_bad_shape_or_range(self, shape, weight):
        with pytest.raises(ValueError):
            list(enumerate_canonical(*shape, weight=weight))

    @pytest.mark.parametrize("args,weight", [((2, 3, 3), 1), ((0, 3, 3), None),
                                             ((3, 3, 1), None), ((3, 3, 3), 4)])
    def test_bad_arguments_raise_at_the_call(self, args, weight):
        with pytest.raises(ValueError):
            enumerate_canonical(*args, weight=weight)

    @pytest.mark.parametrize("m,p", [(1, 5), (3, 3), (4, 2), (5, 3)])
    def test_first_rows_are_zeros_then_nondecreasing(self, m, p):
        spelled_out = [(0,) * (m - s) + tail for s in range(m + 1)
                       for tail in itertools.combinations_with_replacement(range(1, p), s)]
        assert list(canonical_first_rows(m, p)) == spelled_out

    def test_budget_exceeded(self):
        with pytest.raises(BudgetExceededError) as exc:
            list(enumerate_canonical(3, 3, 2, budget=10))
        assert exc.value.nodes > 10
        assert exc.value.partial_count >= 0

    def test_budget_charges_leaf_tests_per_node(self, monkeypatch):
        real = enumeration.resume_minimal
        overruns_in_leaf_test = []

        def recording(rows, p, path, budget=None):
            try:
                return real(rows, p, path, budget=budget)
            except BudgetExceededError:
                overruns_in_leaf_test.append(budget)
                raise

        monkeypatch.setattr(enumeration, "resume_minimal", recording)
        counters = {}
        reps = list(enumerate_canonical(3, 3, 2, counters=counters))
        total = counters["nodes"]
        assert len(list(enumerate_canonical(3, 3, 2, budget=total))) == len(reps)
        for budget in range(total):
            got = []
            with pytest.raises(BudgetExceededError) as exc:
                for a in enumerate_canonical(3, 3, 2, budget=budget):
                    got.append(a)
            # The overrun is the first node past the budget, wherever it falls,
            # and reports the classes yielded before it.
            assert exc.value.nodes == budget + 1
            assert exc.value.partial_count == len(got)
            assert got == reps[:len(got)]
        assert overruns_in_leaf_test

    def test_one_row_lists_no_later_rows(self, monkeypatch):
        # At n = 1 every first row is a leaf: no partition builds its rows.
        def never(*args, **kwargs):
            raise AssertionError("listed the later rows of a one-row shape")

        monkeypatch.setattr(enumeration.itertools, "product", never)
        reps = list(enumerate_canonical(1, 24, 2))
        assert len(reps) == 25 and reps[-1].rows == ((1,) * 24,)

    def test_determinism(self):
        a = [r.rows for r in enumerate_canonical(3, 3, 2)]
        b = [r.rows for r in enumerate_canonical(3, 3, 2)]
        assert a == b

    def test_deeper_than_the_recursion_limit(self):
        # The search is one loop, so its depth needs no stack frames:
        # n x 1 over p=2 has one class per number of ones.
        n = sys.getrecursionlimit() + 10
        reps = list(enumerate_canonical(n, 1, 2))
        assert len(reps) == n + 1 and reps[-1].rows == ((1,),) * n


class TestNoBudget:
    """budget=None is no limit: the same classes, nodes and orbits as the
    default budget, which these shapes stay far below."""

    def test_enumerate_canonical(self):
        runs = []
        for kwargs in ({"budget": None}, {}):
            counters = {}
            runs.append((list(enumerate_canonical(4, 3, 3, counters=counters, **kwargs)),
                         counters))
        assert runs[0] == runs[1]
        reps, counters = runs[0]
        assert len(reps) == counters["emitted"] == 5053
        assert counters["nodes"] == 10624 and counters["orbits"] == 3**12

    @pytest.mark.parametrize("workers", [1, 2])
    def test_run_partitions(self, workers):
        unlimited = enumeration.run_partitions(4, 4, 3, weight=2, budget=None, workers=workers)
        assert unlimited == enumeration.run_partitions(4, 4, 3, weight=2, workers=workers)
        assert (unlimited.count, unlimited.nodes) == (3, 7510)

    def test_census(self):
        unlimited = census(4, 3, 3, budget=None)
        assert unlimited == census(4, 3, 3)
        assert (unlimited.count, unlimited.nodes, unlimited.orbits) == (5053, 10624, 3**12)


# Rows placed by the enumerator and search nodes of its leaf tests, per shape
# of the benchmark's census.  The leaf tests used 6,940, 10,574, 63,933 and
# 95,027 nodes as full canonical-form searches, 4,885, 5,142, 41,107 and
# 55,409 as early-exit searches on every leaf, 3,379, 2,154, 25,513 and
# 25,597 with the semi-canonical screen, and 1,030, 1,400, 8,791 and 7,173
# with the first path, where the engine re-walked that path from the root.
# A leaf decided on the first path spends no search node: its rows were
# charged when they were placed.  Nor does the resumed engine search that
# path again.
CENSUS_NODES = {(3, 3, 3): (1302, 336), (4, 4, 2): (870, 507),
                (4, 3, 3): (8141, 2483), (3, 4, 3): (10675, 2313)}

# Leaf tests that reach the search engine, of all leaf tests, per shape: the
# first path and the copy counts of its ties decide the rest with no search
# node.
CENSUS_LEAF_TESTS = {(3, 3, 3): (178, 1137), (4, 4, 2): (163, 625),
                     (4, 3, 3): (1416, 6839), (3, 4, 3): (1185, 9973)}


# Every leaf test of the census in order, as the first 16 hex digits of
# sha256(repr([(rows, tuple(result)), ...])): a change to the first path
# or the engine that keeps the totals above but moves a single verdict,
# |Aut|, node count or refuted prefix changes it.
CENSUS_LEAF_DIGESTS = {(3, 3, 3): "48b56dad9f35b41b", (4, 4, 2): "f0c2d50aa71b90bd",
                       (4, 3, 3): "622a5ebbd3bd7c5f", (3, 4, 3): "5abd00dbfc2a7c00"}


def recorded_leaf_tests(shape, monkeypatch):
    """Run census(*shape), recording (rows, result) of every leaf test: the
    first path's verdict, or resume_minimal's where the first path has none."""
    real_first, real_resume = enumeration.first_path, enumeration.resume_minimal
    tests = []

    def first(rows, p, path):
        result = real_first(rows, p, path)
        if result is not None:
            tests.append((tuple(rows), result))
        return result

    def resume(rows, p, path, budget=None):
        result = real_resume(rows, p, path, budget=budget)
        tests.append((tuple(rows), result))
        return result

    monkeypatch.setattr(enumeration, "first_path", first)
    monkeypatch.setattr(enumeration, "resume_minimal", resume)
    return census(*shape), tests


class TestCensus:
    @pytest.mark.parametrize("shape,count", [((2, 2, 2), 7), ((1, 2, 2), 3),
                                             ((2, 2, 3), 27), ((3, 3, 2), 36)])
    def test_counts(self, shape, count):
        result = census(*shape)
        assert result.count == count
        assert result.burnside == count

    def test_bad_shape_fails_before_burnside(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("counted the orbits of an invalid shape")

        monkeypatch.setattr(enumeration, "burnside_count", never)
        with pytest.raises(ParseError, match=r"invalid shape/base n=-1 m=2 p=2"):
            census(-1, 2, 2)

    @pytest.mark.parametrize("shape", [(2, 2, 2.0), (2, 2.0, 2), (True, 2, 2)],
                             ids=["float-p", "float-m", "bool-n"])
    @pytest.mark.parametrize("runner", [census, enumeration.run_partitions],
                             ids=["census", "run_partitions"])
    def test_shape_that_is_not_ints_raises(self, runner, shape):
        with pytest.raises(ParseError, match="invalid shape/base"):
            runner(*shape)

    @pytest.mark.parametrize("runner,args,option", [
        (census, (2, 2, 2), {"workers": 1.5}),
        (census, (2, 2, 2), {"workers": True}),
        (enumeration.run_partitions, (2, 2, 2), {"workers": 1.5}),
        (enumeration.run_partitions, (2, 2, 2), {"workers": True}),
        (enumeration.run_partitions, (4, 4, 3), {"weight": 2.0}),
        (enumeration.run_partitions, (4, 4, 3), {"weight": True}),
    ], ids=["census-float-workers", "census-bool-workers", "run_partitions-float-workers",
            "run_partitions-bool-workers", "run_partitions-float-weight",
            "run_partitions-bool-weight"])
    def test_weight_or_workers_that_is_not_an_int_raises(self, runner, args, option):
        with pytest.raises(ParseError, match="weight and workers must be ints"):
            runner(*args, **option)

    @pytest.mark.parametrize("workers", [0, -3])
    @pytest.mark.parametrize("runner", [census, enumeration.run_partitions],
                             ids=["census", "run_partitions"])
    def test_workers_below_one_raise(self, runner, workers):
        with pytest.raises(ParseError, match=f"workers must be at least 1, got {workers}"):
            runner(2, 2, 2, workers=workers)

    def test_agreement_without_anchor(self):
        # no precomputed value here: the two independent counts must match
        result = census(3, 3, 2)
        assert result.count == burnside_count(3, 3, 2)

    @pytest.mark.parametrize("shape", [(5, 4, 2), (4, 5, 2)], ids=["5x4x2", "4x5x2"])
    def test_agreement_at_five_rows_or_columns(self, shape):
        result = census(*shape)
        assert result.count == burnside_count(*shape) == 1053

    @pytest.mark.parametrize("shape", sorted(CENSUS_NODES), ids=lambda s: "x".join(map(str, s)))
    def test_pinned_nodes(self, shape, monkeypatch):
        result, tests = recorded_leaf_tests(shape, monkeypatch)
        leaf_nodes = [test.nodes for _, test in tests]
        placed, leaf_tests = CENSUS_NODES[shape]
        assert sum(leaf_nodes) == leaf_tests
        assert result.nodes == placed + leaf_tests
        searched = sum(1 for nodes in leaf_nodes if nodes)
        assert (searched, len(leaf_nodes)) == CENSUS_LEAF_TESTS[shape]

    @pytest.mark.parametrize("shape", sorted(CENSUS_LEAF_DIGESTS),
                             ids=lambda s: "x".join(map(str, s)))
    def test_every_leaf_test_is_pinned(self, shape, monkeypatch):
        _, tests = recorded_leaf_tests(shape, monkeypatch)
        record = repr([(rows, tuple(test)) for rows, test in tests])
        assert len(tests) == CENSUS_LEAF_TESTS[shape][1]
        assert hashlib.sha256(record.encode()).hexdigest()[:16] == CENSUS_LEAF_DIGESTS[shape]

    @pytest.mark.parametrize("shape", [(3, 3, 2), (3, 3, 3), (4, 4, 2), (4, 3, 2)],
                             ids=lambda s: "x".join(map(str, s)))
    def test_every_backjump_refutes_its_prefix(self, shape, monkeypatch):
        real_first, real_resume = enumeration.first_path, enumeration.resume_minimal
        n, m, p = shape
        refuted = set()

        def unwound(rows):
            # Leaves come in ascending order, so the enumerator has unwound
            # past every prefix refuted so far iff none of them starts this one.
            return not any(rows[:k] in refuted for k in range(1, n + 1))

        def first(rows, p, path):
            assert unwound(tuple(rows))
            result = real_first(rows, p, path)
            if result is not None and not result.minimal:
                refuted.add(tuple(rows[:result.prefix]))
            return result

        def resume(rows, p, path, budget=None):
            assert unwound(tuple(rows))
            result = real_resume(rows, p, path, budget=budget)
            if not result.minimal:
                refuted.add(tuple(rows[:result.prefix]))
            return result

        monkeypatch.setattr(enumeration, "first_path", first)
        monkeypatch.setattr(enumeration, "resume_minimal", resume)
        result = census(*shape)  # raises IntegrityError unless both oracles agree
        assert result.count == result.burnside
        assert any(len(rows) < n for rows in refuted)
        for rows in refuted:
            assert naive_minimum(Matrix(len(rows), m, p, rows)) < rows

    @pytest.mark.parametrize("shape", [(4, 3, 3), (3, 4, 3), (5, 5, 2)],
                             ids=lambda s: "x".join(map(str, s)))
    def test_first_path_agrees_with_the_engine(self, shape, monkeypatch):
        # Every leaf: a "yes" of the first path is is_minimal's, with the
        # same |Aut|; a leaf it leaves open goes to resume_minimal next, on
        # the same path, whose verdict and |Aut| are is_minimal's, at no
        # more nodes.  Each prefix either refutes is above its class
        # minimum; the refuted prefixes (5,734 at 5x5x2) are checked against
        # the exhaustive minimum over column orders: naive_minimum's
        # n! * m! is too slow.
        real_first, real_resume = enumeration.first_path, enumeration.resume_minimal
        n, m, p = shape
        certified, refuted, open_leaves, resumed = [], set(), [], []

        def first(rows, p, path):
            assert len(resumed) == len(open_leaves)
            result = real_first(rows, p, path)
            if result is None:
                open_leaves.append((tuple(rows), path))
            elif result.minimal:
                certified.append((tuple(rows), result.aut_order))
            else:
                refuted.add(tuple(rows[:result.prefix]))
            return result

        def resume(rows, p, path, budget=None):
            # The leaf first_path just left open, with the very same path.
            assert tuple(rows) == open_leaves[-1][0] and path is open_leaves[-1][1]
            result = real_resume(rows, p, path, budget=budget)
            resumed.append((tuple(rows), result))
            if not result.minimal:
                refuted.add(tuple(rows[:result.prefix]))
            return result

        monkeypatch.setattr(enumeration, "first_path", first)
        monkeypatch.setattr(enumeration, "resume_minimal", resume)
        result = census(*shape)  # raises IntegrityError unless both oracles agree
        assert result.count == result.burnside
        assert [rows for rows, _ in resumed] == [rows for rows, _ in open_leaves]
        assert certified and refuted and open_leaves
        for rows, aut in certified:
            test = is_minimal(Matrix(n, m, p, rows))
            assert (test.minimal, test.aut_order) == (True, aut)
        verdicts = {True: 0, False: 0}
        for rows, test in resumed:
            engine = is_minimal(Matrix(n, m, p, rows))
            assert (test.minimal, test.aut_order) == (engine.minimal, engine.aut_order)
            assert test.nodes <= engine.nodes
            verdicts[test.minimal] += 1
        assert all(verdicts.values())
        for rows in refuted:
            assert canonical_form(Matrix(len(rows), m, p, rows)).canonical.rows < rows

    def test_pinned_nodes_five_by_five(self):
        assert census(5, 5, 2).nodes == 28767

    def test_orbit_sums_come_from_the_leaf_tests(self):
        counters = {}
        reps = list(enumerate_canonical(3, 3, 2, counters=counters))
        assert counters["emitted"] == len(reps) == 36
        assert counters["orbits"] == sum(orbit_size(r) for r in reps) == 2**9

    def test_wrong_orbit_size_fails_the_census(self, monkeypatch, tmp_path):
        # One class reports |Aut| = 1: the class count still matches
        # Burnside, but the class sizes overshoot 2^9.  The zero matrix
        # (3! * 3!) is decided on the first path, the permutation matrix
        # 001/010/100 (3!) by the resumed engine: corrupt each route in turn.
        real_symmetries, real_resume = equivalence.copy_symmetries, enumeration.resume_minimal
        lied_about = []

        def lying_symmetries(copies, colors):
            if list(copies) == [3] and len(set(colors)) == 1:  # 000 or 111, thrice
                lied_about.append("first path")
                return 1
            return real_symmetries(copies, colors)

        def lying_resume(rows, p, path, budget=None):
            result = real_resume(rows, p, path, budget=budget)
            if tuple(rows) == ((0, 0, 1), (0, 1, 0), (1, 0, 0)):
                assert result == MinimalityResult(True, 6, result.nodes) and result.nodes
                lied_about.append("resume_minimal")
                return MinimalityResult(True, 1, result.nodes)
            return result

        for target, name, lie in ((equivalence, "copy_symmetries", lying_symmetries),
                                  (enumeration, "resume_minimal", lying_resume)):
            with monkeypatch.context() as patch:
                patch.setattr(target, name, lie)
                with pytest.raises(IntegrityError) as exc:
                    census(3, 3, 2)
                assert (exc.value.enumerated, exc.value.expected) == (36, 36)
                nodes = []
                for argv in (["count", "3", "3", "2"],
                             ["enumerate", "3", "3", "2", "--count-only", "--workers", "2"]):
                    out, path = io.StringIO(), str(tmp_path / "m.json")
                    assert cli.main(["--manifest", path, *argv], out=out) == 5
                    assert out.getvalue() == "count=36 burnside=36 agree=false\n"
                    nodes.append(read_json(path)["nodes"])
                assert nodes[0] == nodes[1] > 0
        assert lied_about[0] == "first path" and "resume_minimal" in lied_about

    def test_stream_mode(self):
        result = census(2, 2, 2)
        assert len(result.representatives) == 7

    def test_orbit_sizes_partition_everything(self):
        for n, m, p in SWEEP_SHAPES + [(4, 3, 3)]:
            reps = census(n, m, p).representatives
            assert sum(orbit_size(r) for r in reps) == p**(n * m), (n, m, p)


class TestOrbitSize:
    def test_zero_matrix_is_fixed_by_everything(self):
        assert orbit_size(Matrix.from_rows([(0, 0), (0, 0)], 2)) == 1

    def test_identity_pattern(self):
        assert orbit_size(Matrix.from_rows([(1, 0), (0, 1)], 2)) == 2

    @given(matrices())
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, a):
        assert orbit_size(a) == brute_orbit_size(a)
