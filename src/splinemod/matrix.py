"""Exact integer matrices and their normal forms.

The two workhorses are the column-style Hermite normal form (triangular
lattice bases) and the Smith normal form (invariant factors).  Conventions
are fixed once and for all so outputs are deterministic:

* ``hnf`` uses column operations only and produces a lower-triangular form
  with positive pivots; in each pivot row the entries left of the pivot are
  reduced into ``[0, pivot)``.  With rows indexed by an ordered vertex list
  this makes basis columns directly usable as flow-up vectors.
* ``snf`` always pivots on a minimal-absolute-value nonzero entry, breaking
  ties by (row, col) lexicographic order.

All arithmetic is exact; matrices are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .arith import xgcd


class IntMatrix:
    """Immutable integer matrix, row-major."""

    __slots__ = ("entries",)

    def __init__(self, rows: Iterable[Sequence[int]]):
        data = tuple(tuple(int(x) for x in row) for row in rows)
        if data and any(len(row) != len(data[0]) for row in data):
            raise ValueError("ragged rows")
        object.__setattr__(self, "entries", data)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence[int]]) -> "IntMatrix":
        if not cols:
            return cls([])
        return cls([[col[i] for col in cols] for i in range(len(cols[0]))])

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def columns(self) -> list[tuple[int, ...]]:
        return [self.column(j) for j in range(self.ncols)]

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        cols = other.ncols
        return IntMatrix(
            [
                [
                    sum(a * other.entries[k][j] for k, a in enumerate(row))
                    for j in range(cols)
                ]
                for row in self.entries
            ]
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMatrix) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.entries]})"

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.entries]


@dataclass(frozen=True)
class SnfResult:
    """Smith normal form: U @ A @ V == diag(d) with U, V unimodular.

    The diagonal is nonnegative, consecutive nonzero entries divide each
    other, and zeros trail.
    """

    d: tuple[int, ...]
    U: IntMatrix
    V: IntMatrix


def _apply_col_2x2(M: list[list[int]], j1: int, j2: int, a: int, b: int, c: int, e: int):
    """Columns (j1, j2) <- (a*j1 + b*j2, c*j1 + e*j2)."""
    for row in M:
        x, y = row[j1], row[j2]
        row[j1] = a * x + b * y
        row[j2] = c * x + e * y


def _scale_col(M: list[list[int]], j: int, s: int):
    for row in M:
        row[j] *= s


def _add_col_multiple(M: list[list[int]], dst: int, src: int, q: int):
    for row in M:
        row[dst] += q * row[src]


def hnf(A: IntMatrix) -> IntMatrix:
    """Column-style Hermite normal form H of A: same column lattice.

    H is in column echelon form, lower-triangular with respect to the row
    order: pivots are positive and strictly descend the rows as columns
    advance, and in each pivot row the entries left of the pivot lie in
    [0, pivot).  Non-pivot columns (beyond the rank) are zero.
    """
    if A.nrows == 0 or A.ncols == 0:
        raise ValueError("hnf requires at least one row and one column")
    rows, cols = A.nrows, A.ncols
    H = A.to_lists()
    pivot = 0
    for r in range(rows):
        if pivot >= cols:
            break
        # Fold all entries of row r right of the pivot column into the pivot
        # via unimodular 2x2 column transforms (extended gcd).
        for j in range(pivot + 1, cols):
            if H[r][j] == 0:
                continue
            a, b = H[r][pivot], H[r][j]
            g, x, y = xgcd(a, b)
            _apply_col_2x2(H, pivot, j, x, y, -(b // g), a // g)
        if H[r][pivot] == 0:
            continue  # row has no pivot; move to the next row, same column
        if H[r][pivot] < 0:
            _scale_col(H, pivot, -1)
        p = H[r][pivot]
        for j in range(pivot):
            q = H[r][j] // p  # floor division leaves a remainder in [0, p)
            if q:
                _add_col_multiple(H, j, pivot, -q)
        pivot += 1
    return IntMatrix(H)


def _min_abs_pivot(S: list[list[int]], t: int, rows: int, cols: int):
    best = None
    for i in range(t, rows):
        for j in range(t, cols):
            v = S[i][j]
            if v != 0 and (best is None or abs(v) < abs(best[0])):
                best = (v, i, j)
    return best


def snf(A: IntMatrix) -> SnfResult:
    """Smith normal form with deterministic minimal-pivot selection."""
    if A.nrows == 0 or A.ncols == 0:
        raise ValueError("snf requires a nonempty matrix")
    rows, cols = A.nrows, A.ncols
    S = A.to_lists()
    U = IntMatrix.identity(rows).to_lists()
    V = IntMatrix.identity(cols).to_lists()

    def swap_rows(i1, i2):
        if i1 != i2:
            S[i1], S[i2] = S[i2], S[i1]
            U[i1], U[i2] = U[i2], U[i1]

    def swap_cols(j1, j2):
        if j1 != j2:
            for M in (S, V):
                for row in M:
                    row[j1], row[j2] = row[j2], row[j1]

    def add_row_multiple(dst, src, q):
        S[dst] = [a + q * b for a, b in zip(S[dst], S[src])]
        U[dst] = [a + q * b for a, b in zip(U[dst], U[src])]

    t = 0
    while t < min(rows, cols):
        found = _min_abs_pivot(S, t, rows, cols)
        if found is None:
            break
        while True:
            _, pi, pj = found
            swap_rows(t, pi)
            swap_cols(t, pj)
            p = S[t][t]
            dirty = False
            for i in range(t + 1, rows):
                if S[i][t]:
                    add_row_multiple(i, t, -(S[i][t] // p))
                    dirty = dirty or S[i][t] != 0
            for j in range(t + 1, cols):
                if S[t][j]:
                    q = S[t][j] // p
                    if q:
                        _add_col_multiple(S, j, t, -q)
                        _add_col_multiple(V, j, t, -q)
                    dirty = dirty or S[t][j] != 0
            if not dirty:
                # Pivot is alone in its row and column; enforce divisibility
                # of the remaining submatrix before locking it in.
                offender = None
                for i in range(t + 1, rows):
                    for j in range(t + 1, cols):
                        if S[i][j] % p != 0:
                            offender = i
                            break
                    if offender is not None:
                        break
                if offender is None:
                    break
                add_row_multiple(t, offender, 1)
            found = _min_abs_pivot(S, t, rows, cols)
        if S[t][t] < 0:
            S[t] = [-x for x in S[t]]
            U[t] = [-x for x in U[t]]
        t += 1

    d = tuple(S[i][i] for i in range(min(rows, cols)))
    return SnfResult(d, IntMatrix(U), IntMatrix(V))


def det(A: IntMatrix) -> int:
    """Exact determinant via Bareiss fraction-free elimination."""
    n = A.nrows
    if n != A.ncols:
        raise ValueError("determinant requires a square matrix")
    if n == 0:
        return 1
    M = A.to_lists()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k] != 0:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def column_lattices_equal(A: IntMatrix, B: IntMatrix) -> bool:
    """True iff the columns of A and of B span the same integer lattice."""
    if A.nrows != B.nrows:
        return False
    ha = hnf(A)
    hb = hnf(B)
    nza = [c for c in ha.columns() if any(c)]
    nzb = [c for c in hb.columns() if any(c)]
    return nza == nzb
