"""Exact integer matrices and the Smith normal form the engine reads.

Z/mZ is not a domain, so the engine works over Z and reduces at the end.
``snf(A, m)`` returns ``(d, V)``: the Smith diagonal d of A over Z, and a
right transform V reduced mod m, such that U*A*V = diag(d) for some
unimodular U, read mod m.  It pivots on a minimal-absolute-value nonzero
entry, breaking ties by (row, col) lexicographic order.  A column swap
moves no entry of the working matrix: its rows keep A's column indices as
keys, and a permutation between positions and keys records the column
order, so a swap costs O(1) however many rows remain.

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


def snf(A: IntMatrix, m: int) -> tuple[tuple[int, ...], IntMatrix]:
    """Smith diagonal d of A and a right transform V reduced mod m.

    The diagonal is nonnegative, consecutive nonzero entries divide each
    other, and zeros trail.  The row operations of the elimination are not
    recorded; every column operation is applied to V mod m as it is made.

    The working matrix is held as sparse rows ``{key: value}``, transposed
    from A's columns, and V as sparse columns; every row or column
    operation visits only their nonzero entries.  A column swap moves no
    entry of the rows: they keep A's column indices as keys, and the swap
    exchanges two entries of the permutation ``key`` (position -> key) and
    its inverse ``pos``, and two columns of V, which is held by position.
    Once pivot t is done its row and column hold nothing else, so rows t
    onward hold only the keys of positions t onward, and the diagonal is
    read as ``S[i][key[i]]``.  Each row's least nonzero |entry| and the gcd
    of its entries are kept as the row changes, so the pivot search (least
    |entry|, first in row-major order of the positions) and the
    divisibility check of the trailing block read one number per row.
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
    V = [{j: 1} if m > 1 else {} for j in range(cols)]  # by position, mod m
    key = list(range(cols))  # the key of the column at each position
    pos = list(range(cols))  # the position of each key

    t = 0
    while t < min(rows, cols):
        low = min(least[t:])
        if low == inf:
            break  # the trailing block is zero
        while True:
            pi = least.index(low, t)
            pj = min(pos[j] for j, x in S[pi].items() if x == low or x == -low)
            for L in (S, least, gcds):
                L[t], L[pi] = L[pi], L[t]
            if pj != t:
                a, b = key[t], key[pj]
                key[t], key[pj], pos[a], pos[b] = b, a, pj, t
                V[t], V[pj] = V[pj], V[t]
            kt = key[t]
            top = S[t]
            p = top[kt]
            # Clear column kt below the pivot, one row operation per row
            # that holds it.  |p| is least in the trailing block, so the
            # multiple q is nonzero, and an entry of top that a row lacks
            # never cancels.
            hit = []
            live = []  # the rows below t still nonzero in column kt
            for i in range(t + 1, rows):
                row = S[i]
                a = row.get(kt)
                if a is not None:
                    hit.append(i)
                    q = a // p
                    for j, b in top.items():
                        x = row.get(j, 0) - q * b
                        if x:
                            row[j] = x
                        else:
                            del row[j]
                    if kt in row:
                        live.append(i)
            # Clear row t right of the pivot, one column operation per
            # entry, each applied to V mod m: q grows with S, V does not.
            vt = V[t]
            rest = {kt: p}
            for j, b in top.items():
                if j == kt:
                    continue
                q, r = divmod(b, p)
                if r:
                    rest[j] = r
                if q:
                    for i in live:
                        row = S[i]
                        x = row.get(j, 0) - q * row[kt]
                        if x:
                            row[j] = x
                        else:
                            del row[j]
                    vj = V[pos[j]]
                    c = -q % m
                    for i, y in vt.items():
                        x = (vj.get(i, 0) + c * y) % m
                        if x:
                            vj[i] = x
                        else:
                            vj.pop(i, None)
            S[t] = top = rest
            dirty = len(top) > 1 or bool(live)
            # Row t is {kt: p} when the pivot is alone, and is then read
            # only if the divisibility check below adds a row to it.
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
                top.update(S[offender])  # top holds kt alone, the offender not kt
                least[t], gcds[t] = min(map(abs, top.values())), gcd(*top.values())
            low = min(least[t:])
        if S[t][key[t]] < 0:
            S[t] = {j: -x for j, x in S[t].items()}
        t += 1

    d = tuple(S[i].get(key[i], 0) for i in range(min(rows, cols)))
    return d, IntMatrix.sparse(cols, V)
