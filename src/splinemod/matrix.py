"""Exact integer matrices and the Smith normal form the engine reads.

Z/mZ is not a domain, so the engine works over Z and reduces at the end.
``snf(A, m)`` returns ``(d, V)``: the Smith diagonal d of A over Z, and a
right transform V reduced mod m, such that U*A*V = diag(d) for some
unimodular U, read mod m.  It pivots on a minimal-absolute-value nonzero
entry, breaking ties by (row, col) lexicographic order.

An ``IntMatrix`` holds its shape and, for each column, a dict of its
nonzero entries, so an n x 0 matrix keeps its n rows.  ``snf`` reads and
writes only nonzero entries: the matrices the engine builds (the flow-up
basis, its scaled inverse and the Smith transform) are mostly zero, and
the engine reads ``nonzeros`` alone.  Three dense forms remain: the
constructor takes rows, and ``entries`` (the rows) and ``columns()`` are
views built on each call.  They stay because the benchmark's trace sizes
each kernel's arguments by their ``entries``, and the tests write and
compare matrices densely.

Matrices are immutable.
"""

from __future__ import annotations

from itertools import repeat
from math import gcd, inf
from typing import Iterable, Sequence


class IntMatrix:
    """Immutable integer matrix, stored by column.

    ``nonzeros[j]`` is a dict ``{row: value}`` of column j's nonzero
    entries; it belongs to the matrix and is never changed.  The entries
    must be ints, and none is converted.
    """

    __slots__ = ("nrows", "ncols", "nonzeros")

    def __init__(self, rows: Iterable[Sequence[int]]):
        data = tuple(map(tuple, rows))
        if len(set(map(len, data))) > 1:
            raise ValueError("ragged rows")
        columns = [{i: x for i, x in enumerate(col) if x} for col in zip(*data)]
        self._fill(len(data), columns)

    def _fill(self, nrows: int, nonzeros: list[dict[int, int]]) -> None:
        object.__setattr__(self, "nrows", nrows)
        object.__setattr__(self, "ncols", len(nonzeros))
        object.__setattr__(self, "nonzeros", tuple(nonzeros))

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def sparse(cls, nrows: int, nonzeros: list[dict[int, int]]) -> "IntMatrix":
        """The matrix with ``nrows`` rows whose column j has the nonzero
        entries ``nonzeros[j]``; the dicts are kept, not copied, and must
        hold no zero."""
        A = cls.__new__(cls)
        A._fill(nrows, nonzeros)
        return A

    def columns(self) -> list[tuple[int, ...]]:
        rows = range(self.nrows)
        return [tuple(map(col.get, rows, repeat(0))) for col in self.nonzeros]

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        """The rows, as a dense view."""
        return tuple(zip(*self.columns())) if self.ncols else ((),) * self.nrows

    def __eq__(self, other) -> bool:
        same = isinstance(other, IntMatrix) and self.nrows == other.nrows
        return same and self.nonzeros == other.nonzeros

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.entries]})"


def _add_multiple(row: dict[int, int], src: dict[int, int], q: int, m: int = 0) -> None:
    """row += q * src on sparse vectors, reduced mod m unless m is 0,
    dropping entries that become zero."""
    for j, b in src.items():
        x = row.get(j, 0) + q * b
        if m:
            x %= m
        if x:
            row[j] = x
        else:
            row.pop(j, None)


def snf(A: IntMatrix, m: int) -> tuple[tuple[int, ...], IntMatrix]:
    """Smith diagonal d of A and a right transform V reduced mod m.

    The diagonal is nonnegative, consecutive nonzero entries divide each
    other, and zeros trail.  The row operations of the elimination are not
    recorded; every column operation is applied to V mod m as it is made.

    The working matrix is held as sparse rows ``{col: value}``, transposed
    from A's columns, and V as sparse columns; every row or column
    operation visits only their nonzero entries.  Once pivot t is done its
    row and column hold nothing else, so rows t onward are zero left of
    column t.  Each row's least nonzero |entry| and the gcd of its entries
    are kept as the row changes, so the pivot search (least |entry|, first
    in row-major order) and the divisibility check of the trailing block
    read one number per row.
    """
    if A.nrows == 0 or A.ncols == 0 or m < 1:
        raise ValueError("snf requires a nonempty matrix and a positive m")
    rows, cols = A.nrows, A.ncols
    S: list[dict[int, int]] = [{} for _ in range(rows)]
    for j, col in enumerate(A.nonzeros):
        for i, x in col.items():
            S[i][j] = x
    least = [min(map(abs, row.values()), default=inf) for row in S]
    gcds = [gcd(*row.values()) for row in S]
    V = [{j: 1} if m > 1 else {} for j in range(cols)]  # by column, mod m

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
                    _add_multiple(V[j], vt, -q % m, m)  # q grows with S; V is mod m
                dirty = dirty or j in top
            # Row t is {t: p} when the pivot is alone, and is then read only
            # if the divisibility check below adds a row to it.
            for i in [t] + hit if dirty else hit:
                entries = S[i].values()
                least[i] = min(map(abs, entries), default=inf)
                gcds[i] = gcd(*entries)
            if not dirty:
                # Pivot is alone in its row and column; enforce divisibility
                # of the remaining submatrix before locking it in.
                if gcd(*gcds[t + 1 :]) % p == 0:
                    break
                offender = next(i for i in range(t + 1, rows) if gcds[i] % p)
                _add_multiple(top, S[offender], 1)
                least[t], gcds[t] = min(map(abs, top.values())), gcd(*top.values())
            low = min(least[t:])
        if S[t][t] < 0:
            S[t] = {j: -x for j, x in S[t].items()}
        t += 1

    d = tuple(S[i].get(i, 0) for i in range(min(rows, cols)))
    return d, IntMatrix.sparse(cols, V)
