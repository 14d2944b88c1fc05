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
  entry, breaking ties by (row, col) lexicographic order.  It holds its
  working matrix as sparse rows and touches only their nonzero entries,
  with the same pivots as a dense elimination, so a near-diagonal matrix
  such as q*I costs no dense pass over the trailing block.

Matrices are immutable.
"""

from __future__ import annotations

from itertools import compress
from math import gcd, inf
from typing import Iterable, Sequence

from .arith import xgcd


class IntMatrix:
    """Immutable integer matrix, row-major.  The entries must be ints: each
    row is stored as a tuple of the entries it is given, none converted."""

    __slots__ = ("entries",)

    def __init__(self, rows: Iterable[Sequence[int]]):
        data = tuple(map(tuple, rows))
        if len(set(map(len, data))) > 1:
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
        return cls(zip(*cols))

    def columns(self) -> list[tuple[int, ...]]:
        return list(zip(*self.entries))

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMatrix) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.entries]})"


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


def _add_multiple(row: dict[int, int], src: dict[int, int], q: int) -> None:
    """row += q * src on sparse rows, dropping entries that become zero."""
    for j, b in src.items():
        x = row.get(j, 0) + q * b
        if x:
            row[j] = x
        else:
            row.pop(j, None)


def snf(A: IntMatrix, m: int) -> tuple[tuple[int, ...], IntMatrix]:
    """Smith diagonal d of A and a right transform V reduced mod m.

    The diagonal is nonnegative, consecutive nonzero entries divide each
    other, and zeros trail.  The row operations of the elimination are not
    recorded; every column operation is applied to V mod m as it is made.

    The working matrix is held as sparse rows ``{col: value}`` and every
    row or column operation visits only their nonzero entries.  Once pivot
    t is done its row and column hold nothing else, so rows t onward are
    zero left of column t.  Each row's least nonzero |entry| and the gcd of
    its entries are kept as the row changes, so the pivot search (least
    |entry|, first in row-major order) and the divisibility check of the
    trailing block read one number per row.
    """
    if A.nrows == 0 or A.ncols == 0 or m < 1:
        raise ValueError("snf requires a nonempty matrix and a positive m")
    rows, cols = A.nrows, A.ncols
    S = [{j: row[j] for j in compress(range(cols), row)} for row in A.entries]
    least = [min(map(abs, row.values()), default=inf) for row in S]
    gcds = [gcd(*row.values()) for row in S]
    V = [[0] * cols for _ in range(cols)]  # by column
    for j in range(cols):
        V[j][j] = 1 % m

    def changed(i: int) -> None:
        entries = S[i].values()
        least[i] = min(map(abs, entries), default=inf)
        gcds[i] = gcd(*entries)

    t = 0
    while t < min(rows, cols):
        low = min(least[t:])
        if low == inf:
            break  # the trailing block is zero
        while True:
            pi = least.index(low, t)
            pj = min(j for j, x in S[pi].items() if abs(x) == low)
            for L in (S, least, gcds):
                L[t], L[pi] = L[pi], L[t]
            if pj != t:
                for row in S[t:]:
                    a, b = row.pop(t, 0), row.pop(pj, 0)
                    if b:
                        row[t] = b
                    if a:
                        row[pj] = a
                V[t], V[pj] = V[pj], V[t]
            top = S[t]
            p = top[t]
            hit = [i for i in range(t + 1, rows) if t in S[i]]
            for i in hit:
                _add_multiple(S[i], top, -(S[i][t] // p))
            live = [t] + [i for i in hit if t in S[i]]  # the rest are zero in column t
            dirty = len(live) > 1
            vt = V[t]
            for j, b in list(top.items()):
                if j == t:
                    continue
                q = b // p
                if q:
                    for i in live:
                        row = S[i]
                        x = row.get(j, 0) - q * row[t]
                        if x:
                            row[j] = x
                        else:
                            row.pop(j, None)
                    V[j] = [(a - q * c) % m for a, c in zip(V[j], vt)]
                dirty = dirty or j in top
            for i in [t] + hit:
                changed(i)
            if not dirty:
                # Pivot is alone in its row and column; enforce divisibility
                # of the remaining submatrix before locking it in.
                if gcd(*gcds[t + 1 :]) % p == 0:
                    break
                offender = next(i for i in range(t + 1, rows) if gcds[i] % p)
                _add_multiple(top, S[offender], 1)
                changed(t)
            low = min(least[t:])
        if S[t][t] < 0:
            S[t] = {j: -x for j, x in S[t].items()}
        t += 1

    d = tuple(S[i].get(i, 0) for i in range(min(rows, cols)))
    return d, IntMatrix.from_columns(V)
