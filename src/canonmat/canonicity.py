"""Semi-canonicity and the six-condition canonicity check.

A matrix is semi-canonical when both its row code and its column code are
nondecreasing.  Canonicity means the row code is minimal over the whole
class.  The checker below evaluates six local structural conditions on the
sorted matrix without short-circuiting and reports each outcome, so callers
can see which condition rejected a candidate.  Its verdict is the
conjunction of the six conditions, which is not an exact test of
canonicity: of the shapes swept by the acceptance suite, it agrees with
lex-minimality at all but 3x3 over p=3, where it accepts non-minimal
matrices, and 4x4 over p=2, where it also rejects minimal ones (the
counterexamples are listed under artifacts/).  Past the swept shapes it
errs too: it rejects the 5x4 minimum 0000/0001/0010/0101/1101 over p=2.
Exact canonicity comes from `is_minimal`.

Notation used throughout: s = number of nonzero entries in the first row,
t = number of rows equal to the first row (`row_stats(a).zeta[0]`), as in
`is_canonical` and `condition5_transform`.  One function counts something
else: `first_row_col_structure` returns (s, z), with z = the leading zeros
of the first column.  On 001/011 it returns (1, 2), while t = 1.

`RowStats`, `ConditionResult` and `CanonicityReport` are named tuples.
"""

from __future__ import annotations

from collections import namedtuple
from operator import le

from .matrices import Matrix, encode_rows

PASS = "pass"
FAIL = "fail"
NA = "n/a"


class RowStats(namedtuple("RowStats", "nu zeta zclass_start")):
    """Per-row nonzero counts and equal-row class data: `nu` holds the
    nonzero entries of each row, `zeta` the size of each row's equal-value
    class, and `zclass_start` the first index of each row's class
    (contiguous when sorted)."""

    __slots__ = ()


class ConditionResult(namedtuple("ConditionResult", "status reason")):
    """One condition's outcome: `status` is pass, fail or n/a."""

    __slots__ = ()


class CanonicityReport(namedtuple("CanonicityReport",
                                  "verdict conditions failing_witness failing_submatrix",
                                  defaults=(None, None))):
    """The six conditions' outcomes and their conjunction, with the
    rearranged matrix that failed condition 5 and the submatrix that failed
    condition 6, when they did."""

    __slots__ = ()

    def to_text(self) -> str:
        lines = [f"cond{k + 1}: {c.status} — {c.reason}"
                 for k, c in enumerate(self.conditions)]
        lines.append("verdict: " + ("canonical" if self.verdict else "not-canonical"))
        return "\n".join(lines) + "\n"


def row_stats(a: Matrix) -> RowStats:
    nu = tuple(sum(1 for e in row if e != 0) for row in a.rows)
    zeta = tuple(sum(1 for other in a.rows if other == row) for row in a.rows)
    zclass_start = tuple(a.rows.index(row) for row in a.rows)
    return RowStats(nu=nu, zeta=zeta, zclass_start=zclass_start)


def is_semi_canonical(a: Matrix) -> bool:
    """Both the row code and the column code are nondecreasing."""
    return not unsorted_prefix(a)


def unsorted_prefix(a: Matrix) -> int:
    """0 when `a` is semi-canonical, else the length of its shortest row
    prefix that is not: the least of i + 2 for a row i above a smaller row
    i + 1, and, for each descending column pair, one more than the first
    row where the two differ (that row orders them)."""
    rows = a.rows
    cols = a.columns()
    if all(map(le, rows, rows[1:])) and all(map(le, cols, cols[1:])):
        return 0
    k = next((i + 2 for i in range(a.n - 1) if rows[i] > rows[i + 1]), a.n)
    for left, right in zip(cols, cols[1:]):
        if left > right:
            k = min(k, 1 + next(i for i, (x, y) in enumerate(zip(left, right)) if x != y))
    return k


def first_row_col_structure(a: Matrix) -> tuple[int, int]:
    """(s, z) for a semi-canonical matrix.

    s counts the trailing nonzero entries of the first row, z the leading
    zeros of the first column.  z is not the module's t (rows equal to the
    first row): on 001/011 this returns (1, 2), where t = 1.  Verifies the
    guaranteed shape: zeros, then nondecreasing nonzero digits, in both the
    first row and first column.
    """
    if not is_semi_canonical(a):
        raise ValueError("first_row_col_structure requires a semi-canonical matrix")
    first_row = a.rows[0]
    first_col = tuple(row[0] for row in a.rows)
    s = _checked_zero_prefix_shape(first_row)
    t_nonzero = _checked_zero_prefix_shape(first_col)
    return s, len(first_col) - t_nonzero


def _checked_zero_prefix_shape(seq: tuple[int, ...]) -> int:
    """Nonzero-suffix length of a (zeros..., nondecreasing nonzeros...) vector."""
    k = 0
    while k < len(seq) and seq[k] == 0:
        k += 1
    tail = seq[k:]
    if any(e == 0 for e in tail) or any(tail[i] > tail[i + 1] for i in range(len(tail) - 1)):
        # Guaranteed for semi-canonical inputs; reaching here is a bug.
        raise RuntimeError(f"unexpected first-line shape {seq} on semi-canonical input")
    return len(tail)


def condition5_transform(a: Matrix, i: int) -> Matrix:
    """The three-step rearrangement tested by condition 5 (i is 0-based).

    Moves the block of rows equal to row i to the front, then moves the
    columns that are nonzero in the new first row to the end (in increasing
    original index order), then sorts those trailing s columns ascending.
    Requires sorted rows, t <= i < n with t = size of the first-row block,
    and row i carrying exactly s = nu_1 nonzero entries.
    """
    rows = a.rows
    if any(rows[k] > rows[k + 1] for k in range(a.n - 1)):
        raise ValueError("condition5_transform requires row-sorted input")
    t = sum(1 for row in rows if row == rows[0])
    s = sum(1 for e in rows[0] if e != 0)
    if not (t <= i < a.n):
        raise ValueError(f"row index {i} outside ({t - 1}, {a.n})")
    nu_i = sum(1 for e in rows[i] if e != 0)
    if nu_i != s:
        raise ValueError(f"row {i} has {nu_i} nonzero entries, expected s={s}")

    block = [row for row in rows if row == rows[i]]
    others = [row for row in rows if row != rows[i]]
    a1 = block + others

    if s == a.m:
        a2 = a1
    else:
        moved = [j for j in range(a.m) if a1[0][j] != 0]
        kept = [j for j in range(a.m) if j not in moved]
        order = kept + moved
        a2 = [tuple(row[j] for j in order) for row in a1]

    head_w = a.m - s
    tail_cols = sorted(zip(*(row[head_w:] for row in a2))) if s else []
    if s:
        tail_rows = list(zip(*tail_cols))
        a3 = [row[:head_w] + tuple(tr) for row, tr in zip(a2, tail_rows)]
    else:
        a3 = list(a2)
    return Matrix(n=a.n, m=a.m, p=a.p, rows=tuple(tuple(r) for r in a3))


def is_canonical(a: Matrix) -> CanonicityReport:
    """Evaluate the six structural conditions for canonicity.

    All six are evaluated and reported; the verdict is the conjunction of
    the applicable ones.  It can disagree with lex-minimality (see the
    module docstring); `is_minimal` is the exact test.  Conditions 5
    and 6 presuppose sorted rows and are marked n/a when condition 1 fails
    (the verdict is already negative).
    """
    rows = a.rows
    n, m, p = a.n, a.m, a.p
    stats = row_stats(a)
    s = stats.nu[0]
    t = stats.zeta[0]
    conds: list[ConditionResult] = []
    witness: Matrix | None = None
    submatrix: Matrix | None = None

    sorted_rows = all(rows[k] <= rows[k + 1] for k in range(n - 1))
    conds.append(ConditionResult(PASS, "row code nondecreasing") if sorted_rows
                 else ConditionResult(FAIL, "row code not nondecreasing"))

    x1 = encode_rows(a).values()[0]
    lo = (p**s - 1) // (p - 1)
    hi = p**s - 1
    if lo <= x1 <= hi:
        conds.append(ConditionResult(PASS, f"{lo} <= x1={x1} <= {hi} (s={s})"))
    else:
        conds.append(ConditionResult(FAIL, f"x1={x1} outside [{lo}, {hi}] (s={s})"))

    if s > 1:
        cols = a.columns()
        tail = cols[m - s:]
        ok = all(tail[j] <= tail[j + 1] for j in range(s - 1))
        conds.append(ConditionResult(PASS, f"last {s} column codes nondecreasing") if ok
                     else ConditionResult(FAIL, f"last {s} column codes not nondecreasing"))
    else:
        conds.append(ConditionResult(NA, f"s={s} <= 1"))

    bad = [k for k in range(1, n) if stats.nu[k] < s]
    conds.append(ConditionResult(PASS, f"every row has >= {s} nonzero entries") if not bad
                 else ConditionResult(FAIL, f"row {bad[0] + 1} has fewer than {s} nonzero entries"))

    if not sorted_rows:
        conds.append(ConditionResult(NA, "requires sorted rows"))
    elif t == n:
        conds.append(ConditionResult(NA, "all rows equal (t = n)"))
    else:
        applicable = [k for k in range(t, n)
                      if stats.nu[k] == s and stats.zclass_start[k] == k]
        if not applicable:
            conds.append(ConditionResult(NA, "no later row block with s nonzero entries"))
        else:
            failed_at = None
            for k in applicable:
                rearranged = condition5_transform(a, k)
                if rearranged.rows < rows:
                    failed_at = k
                    witness = rearranged
                    break
            if failed_at is None:
                conds.append(ConditionResult(
                    PASS, f"no row-block promotion beats the row code ({len(applicable)} tried)"))
            else:
                conds.append(ConditionResult(
                    FAIL, f"promoting the block at row {failed_at + 1} yields a smaller row code"))

    if not sorted_rows:
        conds.append(ConditionResult(NA, "requires sorted rows"))
    elif not (1 <= t < n and 0 <= s < m):
        conds.append(ConditionResult(NA, f"t={t}, s={s}: no proper submatrix"))
    else:
        sub = Matrix(n=n - t, m=m - s, p=p,
                     rows=tuple(row[:m - s] for row in rows[t:]))
        sub_report = is_canonical(sub)
        if sub_report.verdict:
            conds.append(ConditionResult(PASS, f"submatrix (rows {t + 1}..{n}, cols 1..{m - s}) canonical"))
        else:
            conds.append(ConditionResult(FAIL, f"submatrix (rows {t + 1}..{n}, cols 1..{m - s}) not canonical"))
            submatrix = sub

    verdict = all(c.status != FAIL for c in conds)
    return CanonicityReport(verdict=verdict, conditions=tuple(conds),
                            failing_witness=witness, failing_submatrix=submatrix)
