"""Canonical forms of matrices over {0..p-1} under row/column permutations.

Every record the package returns is an immutable named tuple: Matrix,
RowCode (alias ColCode), Permutation, PermPair, CanonResult,
MinimalityResult, ClassCensus, RowStats, and CanonicityReport with its
ConditionResult entries.  Each is equal by value, hashable and picklable,
unpacks into its fields, and compares equal to the plain tuple of them.
Matrix and Permutation check their fields wherever they are built,
`_replace` included.  None of them needs `dataclasses`, which keeps the
import short.
"""

from .canonicity import (CanonicityReport, RowStats, condition5_transform,
                         first_row_col_structure, is_canonical,
                         is_semi_canonical, row_stats)
from .enumeration import (ClassCensus, burnside_count, census,
                          classify_hadamard, classify_weighing,
                          enumerate_canonical, orbit_size)
from .equivalence import (CanonResult, MinimalityResult, Permutation,
                          PermPair, apply, equivalent, is_minimal,
                          pruned_canonical_form)
from .errors import (BudgetExceededError, DigitRangeError, IntegrityError,
                     ParseError)
from .hadamard import is_hadamard, is_weighing, sign_view
from .matrices import (ColCode, Matrix, RowCode, decode_rows, encode_cols,
                       encode_rows, format_matrix, lex_compare, parse_matrix)

__all__ = [
    "BudgetExceededError", "CanonResult", "CanonicityReport", "ClassCensus",
    "ColCode", "DigitRangeError", "IntegrityError", "Matrix",
    "MinimalityResult", "ParseError",
    "PermPair", "Permutation", "RowCode", "RowStats", "apply",
    "burnside_count", "census", "classify_hadamard",
    "classify_weighing", "condition5_transform", "decode_rows", "encode_cols",
    "encode_rows", "enumerate_canonical", "equivalent", "first_row_col_structure",
    "format_matrix", "is_canonical", "is_hadamard", "is_minimal",
    "is_semi_canonical",
    "is_weighing", "lex_compare", "orbit_size", "parse_matrix",
    "pruned_canonical_form", "row_stats", "sign_view",
]
