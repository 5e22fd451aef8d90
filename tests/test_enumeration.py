import pytest
from hypothesis import given, settings

from canonmat import (BudgetExceededError, Matrix, burnside_count,
                      canonical_form, census, enumerate_canonical,
                      orbit_size, pruned_canonical_form)
from conftest import SWEEP_SHAPES, all_matrices, brute_orbit_size, matrices


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
        only_zero_free = list(enumerate_canonical(
            2, 2, 2, predicate=lambda a: all(e for row in a.rows for e in row)))
        assert [r.rows for r in only_zero_free] == [((1, 1), (1, 1))]

    def test_budget_exceeded(self):
        with pytest.raises(BudgetExceededError) as exc:
            list(enumerate_canonical(3, 3, 2, budget=10))
        assert exc.value.nodes > 10
        assert exc.value.partial_count >= 0

    def test_determinism(self):
        a = [r.rows for r in enumerate_canonical(3, 3, 2)]
        b = [r.rows for r in enumerate_canonical(3, 3, 2)]
        assert a == b


class TestCensus:
    @pytest.mark.parametrize("shape,count", [((2, 2, 2), 7), ((1, 2, 2), 3),
                                             ((2, 2, 3), 27), ((3, 3, 2), 36)])
    def test_counts(self, shape, count):
        result = census(*shape)
        assert result.count == count
        assert result.burnside == count
        assert result.agree

    def test_agreement_without_anchor(self):
        # no precomputed value here: the two independent counts must match
        result = census(3, 3, 2)
        assert result.count == burnside_count(3, 3, 2)

    def test_stream_mode(self):
        result = census(2, 2, 2, stream=True)
        assert len(result.representatives) == 7

    def test_orbit_sizes_partition_everything(self):
        for n, m, p in SWEEP_SHAPES + [(4, 3, 3)]:
            reps = census(n, m, p, stream=True).representatives
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
