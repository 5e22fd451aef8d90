import io
import itertools

import pytest
from hypothesis import given, settings

from canonmat import (BudgetExceededError, IntegrityError, Matrix,
                      MinimalityResult, ParseError, burnside_count, census, cli,
                      enumeration, enumerate_canonical, is_weighing,
                      orbit_size, pruned_canonical_form)
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
        real = enumeration.is_minimal
        overruns_in_leaf_test = []

        def recording(a, budget=None):
            try:
                return real(a, budget=budget)
            except BudgetExceededError:
                overruns_in_leaf_test.append(budget)
                raise

        monkeypatch.setattr(enumeration, "is_minimal", recording)
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

    def test_determinism(self):
        a = [r.rows for r in enumerate_canonical(3, 3, 2)]
        b = [r.rows for r in enumerate_canonical(3, 3, 2)]
        assert a == b


# Rows placed by the enumerator and search nodes of its leaf tests, per shape
# of the benchmark's census.  The leaf tests used 6,940, 10,574, 63,933 and
# 95,027 nodes as full canonical-form searches, and 4,885, 5,142, 41,107 and
# 55,409 as early-exit searches on every leaf.
CENSUS_NODES = {(3, 3, 3): (1302, 3379), (4, 4, 2): (874, 2154),
                (4, 3, 3): (8154, 25513), (3, 4, 3): (10675, 25597)}

# Leaf tests that reach the search engine, of all leaf tests, per shape: the
# rest are not semi-canonical and fail with no search node.
CENSUS_LEAF_TESTS = {(3, 3, 3): (902, 1137), (4, 4, 2): (431, 629),
                     (4, 3, 3): (6154, 6852), (3, 4, 3): (6651, 9973)}


class TestCensus:
    @pytest.mark.parametrize("shape,count", [((2, 2, 2), 7), ((1, 2, 2), 3),
                                             ((2, 2, 3), 27), ((3, 3, 2), 36)])
    def test_counts(self, shape, count):
        result = census(*shape)
        assert result.count == count
        assert result.burnside == count
        assert result.agree

    def test_bad_shape_fails_before_burnside(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("counted the orbits of an invalid shape")

        monkeypatch.setattr(enumeration, "burnside_count", never)
        with pytest.raises(ParseError, match=r"invalid shape/base n=-1 m=2 p=2"):
            census(-1, 2, 2)

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
        real = enumeration.is_minimal
        leaf_nodes = []

        def recording(a, budget=None):
            result = real(a, budget=budget)
            leaf_nodes.append(result.nodes)
            return result

        monkeypatch.setattr(enumeration, "is_minimal", recording)
        result = census(*shape)
        placed, leaf_tests = CENSUS_NODES[shape]
        assert sum(leaf_nodes) == leaf_tests
        assert result.nodes == placed + leaf_tests
        searched = sum(1 for nodes in leaf_nodes if nodes)
        assert (searched, len(leaf_nodes)) == CENSUS_LEAF_TESTS[shape]

    @pytest.mark.parametrize("shape", [(3, 3, 2), (3, 3, 3), (4, 4, 2), (4, 3, 2)],
                             ids=lambda s: "x".join(map(str, s)))
    def test_every_backjump_refutes_its_prefix(self, shape, monkeypatch):
        real = enumeration.is_minimal
        n, m, p = shape
        refuted = set()

        def recording(a, budget=None):
            # Leaves come in ascending order, so the enumerator has unwound
            # past every prefix refuted so far iff none of them starts this one.
            assert not any(a.rows[:k] in refuted for k in range(1, n + 1))
            result = real(a, budget=budget)
            if not result.minimal:
                refuted.add(a.rows[:result.prefix])
            return result

        monkeypatch.setattr(enumeration, "is_minimal", recording)
        assert census(*shape).agree
        assert any(len(rows) < n for rows in refuted)
        for rows in refuted:
            assert naive_minimum(Matrix(len(rows), m, p, rows)) < rows

    def test_pinned_nodes_five_by_five(self):
        assert census(5, 5, 2).nodes == 68091

    def test_orbit_sums_come_from_the_leaf_tests(self):
        counters = {}
        reps = list(enumerate_canonical(3, 3, 2, counters=counters))
        assert counters["emitted"] == len(reps) == 36
        assert counters["orbits"] == sum(orbit_size(r) for r in reps) == 2**9

    def test_wrong_orbit_size_fails_the_census(self, monkeypatch, tmp_path):
        # One class reports |Aut| = 1 instead of 3! * 3!: the class count
        # still matches Burnside, but the class sizes overshoot 2^9.
        real = enumeration.is_minimal
        zero = ((0, 0, 0),) * 3

        def lying(a, budget=None):
            result = real(a, budget=budget)
            return MinimalityResult(True, 1, result.nodes) if a.rows == zero else result

        monkeypatch.setattr(enumeration, "is_minimal", lying)
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
