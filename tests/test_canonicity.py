import pytest
from hypothesis import given, settings

from canonmat import (Matrix, condition5_transform, encode_rows,
                      is_canonical, is_semi_canonical, row_stats)
from conftest import TRIO_C, all_matrices, canonical_form, matrices


class TestRowStats:
    def test_trio_minimum(self):
        stats = row_stats(TRIO_C)
        assert stats.nu == (1, 1, 2, 2)
        assert stats.zeta == (1, 1, 1, 1)
        assert stats.zclass_start == (0, 1, 2, 3)

    def test_all_zero(self):
        stats = row_stats(Matrix.from_rows([(0, 0, 0), (0, 0, 0)], 2))
        assert stats.nu == (0, 0)
        assert stats.zeta == (2, 2)
        assert stats.zclass_start == (0, 0)

    def test_demo(self, demo34):
        assert row_stats(demo34).nu == (3, 2, 3)

    @given(matrices())
    def test_classes_contiguous_when_sorted(self, a):
        b = Matrix(a.n, a.m, a.p, tuple(sorted(a.rows)))
        stats = row_stats(b)
        for i in range(b.n):
            start = stats.zclass_start[i]
            block = b.rows[start:start + stats.zeta[i]]
            assert all(r == b.rows[i] for r in block)
            assert i < start + stats.zeta[i]


class TestSemiCanonical:
    def test_trio(self, trio):
        assert all(is_semi_canonical(mat) for mat in trio)

    def test_unsorted_rows(self):
        assert not is_semi_canonical(Matrix.from_rows([(1, 0), (0, 1)], 2))

    def test_unsorted_cols(self):
        assert not is_semi_canonical(Matrix.from_rows([(1, 0), (1, 0)], 2))


class TestFirstRowColStructure:
    @given(matrices())
    def test_first_lines_of_semi_canonical_matrices(self, a):
        # Zeros, then nondecreasing nonzeros, in the first row and column.
        if not is_semi_canonical(a):
            a = canonical_form(a).canonical
        row, col = a.rows[0], a.columns()[0]
        for line in (row, col):
            zeros, tail = line.count(0), line[line.count(0):]
            assert line[:zeros] == (0,) * zeros
            assert 0 not in tail and list(tail) == sorted(tail)


class TestCondition5Transform:
    def test_improving_rearrangement(self):
        a = Matrix.from_rows([(0, 1), (1, 0), (1, 0)], 2)
        out = condition5_transform(a, 1)
        assert out.rows == ((0, 1), (0, 1), (1, 0))
        assert encode_rows(out).values() < encode_rows(a).values()

    def test_fixed_point(self):
        a = Matrix.from_rows([(0, 1), (1, 0)], 2)
        assert condition5_transform(a, 1) == a

    def test_result_stays_in_class(self, trio):
        _, b, c = trio
        # promoting the lone weight-1 row block of b lands exactly on c
        assert condition5_transform(b, 3) == c

    def test_preconditions(self):
        unsorted = Matrix.from_rows([(1, 0), (0, 1)], 2)
        with pytest.raises(ValueError):
            condition5_transform(unsorted, 1)
        a = Matrix.from_rows([(0, 1), (1, 0), (1, 1)], 2)
        with pytest.raises(ValueError):
            condition5_transform(a, 0)   # inside the first-row block
        with pytest.raises(ValueError):
            condition5_transform(a, 2)   # nonzero count differs from row 1


class TestIsCanonical:
    def test_trio_verdicts(self, trio):
        a, b, c = trio
        assert is_canonical(c).verdict
        assert not is_canonical(a).verdict
        assert not is_canonical(b).verdict

    def test_block_promotion_witness(self):
        report = is_canonical(Matrix.from_rows([(0, 1), (1, 0), (1, 0)], 2))
        assert not report.verdict
        assert report.conditions[4].status == "fail"
        assert report.failing_witness.rows == ((0, 1), (0, 1), (1, 0))

    def test_all_conditions_reported(self):
        report = is_canonical(Matrix.from_rows([(1, 0), (0, 1)], 2))
        assert len(report.conditions) == 6
        assert report.conditions[0].status == "fail"

    def test_report_serialization(self, trio):
        text = is_canonical(trio[2]).to_text()
        lines = text.splitlines()
        assert len(lines) == 7
        for k, line in enumerate(lines[:6]):
            assert line.startswith(f"cond{k + 1}: ")
            assert line.split(" ")[1].rstrip() in ("pass", "fail", "n/a")
        assert lines[6] == "verdict: canonical"
        assert is_canonical(trio[0]).to_text().splitlines()[-1] == "verdict: not-canonical"


class TestTheoremProperties:
    @given(matrices())
    @settings(max_examples=300)
    def test_accepted_implies_semi_canonical(self, a):
        if is_canonical(a).verdict:
            assert is_semi_canonical(a)

    @pytest.mark.parametrize("shape", [(2, 2, 2), (2, 3, 2), (3, 2, 2),
                                       (3, 3, 2), (2, 2, 3), (2, 4, 2), (4, 2, 2)])
    def test_matches_oracle_where_theorem_holds(self, shape):
        # Exhaustive agreement on the shapes without known theorem
        # counterexamples; see test_theorem_gap for the two shapes with them.
        for a in all_matrices(*shape):
            assert is_canonical(a).verdict == (a == canonical_form(a).canonical)

    @pytest.mark.parametrize("shape", [(3, 3, 2), (2, 4, 2), (2, 2, 3)])
    def test_first_row_value_has_exactly_s_nonzero_digits(self, shape):
        n, m, p = shape
        for a in all_matrices(*shape):
            if not is_canonical(a).verdict:
                continue
            s = row_stats(a).nu[0]
            first = a.rows[0]
            assert first[:m - s] == (0,) * (m - s)
            assert all(d != 0 for d in first[m - s:])
