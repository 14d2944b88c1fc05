"""Exact integer matrices and the two normal forms the engine reads.

Z/mZ is not a domain, so the engine works over Z and reduces at the end.
Each normal form here computes only what that answer reads, and keeps its
entries bounded while doing so:

* ``hnf(A, c)`` is the column-style Hermite normal form of the lattice
  spanned by the columns of A together with c*Z^n: the n x n lower-triangular
  basis with positive pivots whose entries left of each pivot lie in
  [0, pivot).  With rows indexed by an ordered vertex list its columns are
  flow-up vectors.  Every entry below the row being processed stays in
  [0, c).
* ``snf(A, m)`` returns ``(d, V)``: the Smith diagonal d of A over Z, and a
  right transform V reduced mod m, such that U*A*V = diag(d) for some
  unimodular U, read mod m.  It pivots on a minimal-absolute-value nonzero
  entry, breaking ties by (row, col) lexicographic order.

Matrices are immutable.
"""

from __future__ import annotations

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

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMatrix) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.entries]})"

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.entries]


def hnf(A: IntMatrix, c: int) -> IntMatrix:
    """Hermite basis of the lattice spanned by A's columns and c*Z^n.

    Row r is processed by folding every remaining column into a pivot column
    that starts as c*e_r, then reducing the finished columns in row r into
    [0, pivot).  The column c*e_i is never touched before row i, so adding a
    multiple of it is a unimodular column operation until then: every entry
    below the current row may be replaced by its residue mod c.  The Hermite
    basis is unique, so these reductions do not change it.
    """
    n = A.nrows
    if n == 0 or c < 1:
        raise ValueError("hnf requires at least one row and a positive c")
    # Columns not yet folded into a pivot; at row r each holds its rows r
    # onward, with entries in [0, c).
    active = [[x % c for x in col] for col in A.columns()]
    done: list[list[int]] = []  # finished pivot columns, full height
    for r in range(n):
        p = [0] * (n - r)
        p[0] = c
        rest = []
        for col in active:
            b = col[0]
            if b:
                a = p[0]
                if b % a:
                    g, x, y = xgcd(a, b)
                    s, t = b // g, a // g
                    p, col = (
                        [(x * u + y * v) % c for u, v in zip(p, col)],
                        [(t * v - s * u) % c for u, v in zip(p, col)],
                    )
                else:
                    q = b // a
                    col = [(v - q * u) % c for u, v in zip(p, col)]
            del col[0]  # row r is zero now
            if any(col):
                rest.append(col)
        active = rest
        h = p[0]
        tail = p[1:]
        for col in done:
            q = col[r] // h
            if q:
                col[r] -= q * h
                col[r + 1 :] = [(v - q * u) % c for u, v in zip(tail, col[r + 1 :])]
        done.append([0] * r + p)
    return IntMatrix.from_columns(done)


def _min_abs_pivot(S: list[list[int]], t: int) -> tuple[int, int] | None:
    """(row, col) of the first entry, in row-major order, of least nonzero
    absolute value in the block of rows and columns t onward."""
    best = None
    for i in range(t, len(S)):
        row = list(map(abs, S[i][t:]))
        low = min(filter(None, row), default=0)
        if low and (best is None or low < best[0]):
            best = (low, i, t + row.index(low))
            if low == 1:
                break
    return None if best is None else best[1:]


def snf(A: IntMatrix, m: int) -> tuple[tuple[int, ...], IntMatrix]:
    """Smith diagonal d of A and a right transform V reduced mod m.

    The diagonal is nonnegative, consecutive nonzero entries divide each
    other, and zeros trail.  The row operations of the elimination are not
    recorded; every column operation is applied to V mod m as it is made.
    """
    if A.nrows == 0 or A.ncols == 0 or m < 1:
        raise ValueError("snf requires a nonempty matrix and a positive m")
    rows, cols = A.nrows, A.ncols
    S = A.to_lists()
    V = [[1 % m if i == j else 0 for i in range(cols)] for j in range(cols)]  # by column

    t = 0
    while t < min(rows, cols):
        found = _min_abs_pivot(S, t)
        if found is None:
            break
        while True:
            pi, pj = found
            S[t], S[pi] = S[pi], S[t]
            if pj != t:
                for row in S:
                    row[t], row[pj] = row[pj], row[t]
                V[t], V[pj] = V[pj], V[t]
            p = S[t][t]
            dirty = False
            for i in range(t + 1, rows):
                if S[i][t]:
                    q = S[i][t] // p
                    S[i] = [a - q * b for a, b in zip(S[i], S[t])]
                    dirty = dirty or S[i][t] != 0
            vt = V[t]
            live = [row for row in S if row[t]]  # the rest are zero in column t
            for j in range(t + 1, cols):
                if S[t][j]:
                    q = S[t][j] // p
                    if q:
                        for row in live:
                            row[j] -= q * row[t]
                        V[j] = [(a - q * b) % m for a, b in zip(V[j], vt)]
                    dirty = dirty or S[t][j] != 0
            if not dirty:
                # Pivot is alone in its row and column; enforce divisibility
                # of the remaining submatrix before locking it in.
                offender = next(
                    (i for i in range(t + 1, rows)
                     for j in range(t + 1, cols) if S[i][j] % p),
                    None,
                )
                if offender is None:
                    break
                S[t] = [a + b for a, b in zip(S[t], S[offender])]
            found = _min_abs_pivot(S, t)
        if S[t][t] < 0:
            S[t] = [-x for x in S[t]]
        t += 1

    d = tuple(S[i][i] for i in range(min(rows, cols)))
    return d, IntMatrix.from_columns(V)
