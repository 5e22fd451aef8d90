"""Pinned counterexamples to the six-condition characterization.

The structural conditions implemented by is_canonical are not a complete
characterization of lex-minimality: exhaustive sweeps (cross-validated with
a naive all-arrangements oracle) found divergence starting at 3x3 over
base 3 and 4x4 over base 2.  These tests pin two known counterexamples so
the behavior of the checker is documented, and tie them to artifacts/,
where the acceptance suite's theorem/oracle criterion pins the whole
disagreement set at each affected shape exactly.  A third, at 5x4 over
base 2, shows the gap reaches past the swept shapes; it has no artifact
file, since artifacts/ holds only swept shapes.
"""

from canonmat import Matrix, format_matrix, is_canonical
from canonmat.cli import main
from conftest import (ARTIFACTS, SWEEP_SHAPES, canonical_form,
                      counterexample_path, naive_minimum, read_counterexamples)

# Satisfies all six conditions but is not the class minimum: swapping the
# first two columns and re-sorting the rows yields a smaller row code, a
# rearrangement possible because the condition-6 submatrix ((0,1),(1,0))
# has a nontrivial automorphism.
FALSE_POSITIVE = Matrix.from_rows([(0, 0, 1), (0, 1, 2), (1, 0, 1)], 3)

# Verified lex-minimal, yet its condition-6 submatrix is not canonical on
# its own, so the checker rejects it.
FALSE_NEGATIVE = Matrix.from_rows(
    [(0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 1), (0, 1, 0, 1)], 2)

# Lex-minimal at 5x4 over p=2, a shape the acceptance sweep never visits,
# and rejected by condition 6 all the same: the gap reaches past the sweep.
UNSWEPT_MINIMUM = Matrix.from_rows(
    [(0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 1), (1, 1, 0, 1)], 2)


def test_conditions_admit_a_nonminimal_matrix():
    report = is_canonical(FALSE_POSITIVE)
    assert report.verdict, "checker behavior changed: update the pinned case"
    minimum = canonical_form(FALSE_POSITIVE).canonical
    assert minimum != FALSE_POSITIVE
    assert minimum.rows == ((0, 0, 1), (0, 1, 1), (1, 0, 2))
    assert naive_minimum(FALSE_POSITIVE) == minimum.rows


def test_conditions_reject_a_true_minimum():
    assert naive_minimum(FALSE_NEGATIVE) == FALSE_NEGATIVE.rows
    assert canonical_form(FALSE_NEGATIVE).canonical == FALSE_NEGATIVE
    report = is_canonical(FALSE_NEGATIVE)
    assert not report.verdict, "checker behavior changed: update the pinned case"
    assert report.conditions[5].status == "fail"
    # the submatrix the checker recursed into really is non-minimal
    sub = report.failing_submatrix
    assert canonical_form(sub).canonical != sub


def test_conditions_reject_a_minimum_past_the_sweep(tmp_path, capsys):
    a = UNSWEPT_MINIMUM
    assert (a.n, a.m, a.p) not in SWEEP_SHAPES
    report = is_canonical(a)
    assert not report.verdict, "checker behavior changed: update the pinned case"
    assert report.conditions[5].status == "fail"
    assert naive_minimum(a) == a.rows
    path = tmp_path / "unswept.txt"
    path.write_text(format_matrix(a))
    assert main(["canonize", str(path)]) == 0
    assert capsys.readouterr().out == format_matrix(a)


def test_pinned_cases_are_in_the_artifacts():
    fp_gap = read_counterexamples(FALSE_POSITIVE.n, FALSE_POSITIVE.m, FALSE_POSITIVE.p)
    assert FALSE_POSITIVE.rows in {a.rows for a in fp_gap.false_positives}
    fn_gap = read_counterexamples(FALSE_NEGATIVE.n, FALSE_NEGATIVE.m, FALSE_NEGATIVE.p)
    assert FALSE_NEGATIVE.rows in {a.rows for a in fn_gap.false_negatives}


def test_every_artifact_is_a_swept_shape():
    # a pin at a shape the acceptance sweep never visits would go unchecked
    swept = {counterexample_path(*shape) for shape in SWEEP_SHAPES}
    assert set(ARTIFACTS.glob("theorem_counterexamples_*")) <= swept
