"""The contract every public record keeps: immutable named tuples, equal by
value, hashable, picklable, and checked wherever they are built."""

import pickle

import pytest

from canonmat import (CanonicityReport, CanonResult, ClassCensus,
                      DigitRangeError, Matrix, MinimalityResult, PermPair,
                      Permutation, RowCode, RowStats, census, encode_rows,
                      is_canonical, is_minimal, pruned_canonical_form,
                      row_stats)
from canonmat.canonicity import ConditionResult
from conftest import TRIO_C


def sorted_rows():
    return Matrix(2, 3, 2, ((0, 0, 1), (0, 1, 1)))


# Each public record type and how to build a fresh one.  ColCode is RowCode.
RECORDS = [
    (Matrix, sorted_rows),
    (RowCode, lambda: encode_rows(TRIO_C)),
    (Permutation, lambda: Permutation((2, 0, 1))),
    (PermPair, lambda: PermPair(Permutation((1, 0)), Permutation((2, 0, 1)))),
    (CanonResult, lambda: pruned_canonical_form(TRIO_C)),
    (MinimalityResult, lambda: is_minimal(sorted_rows())),
    (ClassCensus, lambda: census(2, 2, 2)),
    (RowStats, lambda: row_stats(TRIO_C)),
    (ConditionResult, lambda: is_canonical(TRIO_C).conditions[0]),
    (CanonicityReport, lambda: is_canonical(TRIO_C)),
]

# Field values the checking records reject, beyond those the other tests try.
REJECTED = {
    Matrix: [({"n": 0, "rows": ()}, ValueError),
             ({"rows": ((0, 0, 1),)}, ValueError),
             ({"rows": ((0, 0), (0, 1))}, ValueError),
             ({"rows": ((0, 0, 1), (0, 1, 2))}, DigitRangeError)],
    Permutation: [({"images": (0, 2)}, ValueError)],
}


@pytest.mark.parametrize("record_type,make", RECORDS, ids=[t.__name__ for t, _ in RECORDS])
def test_record_contract(record_type, make):
    record, twin = make(), make()
    assert type(record) is record_type
    assert record == twin and record is not twin
    assert len({record, twin}) == 1
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    # A pool sends records between processes.
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is record_type and copy == record
    for changes, error in REJECTED.get(record_type, ()):
        with pytest.raises(error):
            record_type(**{**record._asdict(), **changes})
        with pytest.raises(error):
            record._replace(**changes)
