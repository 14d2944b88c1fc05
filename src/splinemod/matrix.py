"""Exact integer matrices and the two normal forms the engine reads.

Z/mZ is not a domain, so the engine works over Z and reduces at the end.
Each normal form here computes only what that answer reads, and keeps its
entries bounded while doing so:

* ``hnf(A, c)`` is the column-style Hermite normal form of the lattice
  spanned by the columns of A together with c*Z^n: the n x n lower-triangular
  basis with positive pivots whose entries left of each pivot lie in
  [0, pivot).  With rows indexed by an ordered vertex list its columns are
  flow-up vectors.  Every entry below the row being processed stays in
  [0, c).  ``triangular_hnf(X, c)`` is the same form for a lower-triangular
  X whose columns already span such a lattice: only the back-reduction.
* ``snf(A, m)`` returns ``(d, V)``: the Smith diagonal d of A over Z, and a
  right transform V reduced mod m, such that U*A*V = diag(d) for some
  unimodular U, read mod m.  It pivots on a minimal-absolute-value nonzero
  entry, breaking ties by (row, col) lexicographic order.

An ``IntMatrix`` holds its shape and, for each column, a dict of its
nonzero entries, so an n x 0 matrix keeps its n rows.  Both normal forms
read and write only nonzero entries: the matrices the engine builds (the
dual system, its Hermite forms, the scaled inverses and the Smith
transform) are mostly zero, and the engine reads ``nonzeros`` alone.
Three dense forms remain: the constructor takes rows, and ``entries``
(the rows) and ``columns()`` are views built on each call.  They stay
because the benchmark's trace sizes each kernel's arguments by their
``entries``, and the tests write and compare matrices densely.

Matrices are immutable.
"""

from __future__ import annotations

from itertools import repeat
from math import gcd, inf
from typing import Iterable, Sequence

from .arith import xgcd


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


def _combine(x: int, u: dict[int, int], y: int, v: dict[int, int], c: int) -> dict[int, int]:
    """x*u + y*v mod c on sparse vectors, zeros dropped."""
    out = {}
    for i in u.keys() | v.keys():
        z = (x * u.get(i, 0) + y * v.get(i, 0)) % c
        if z:
            out[i] = z
    return out


def hnf(A: IntMatrix, c: int) -> IntMatrix:
    """Hermite basis of the lattice spanned by A's columns and c*Z^n.

    Row r is processed by folding every remaining column with a nonzero in
    row r into a pivot column that starts as c*e_r, then reducing the
    finished columns in row r into [0, pivot).  The column c*e_i is never
    touched before row i, so adding a multiple of it is a unimodular column
    operation until then: every entry below the current row may be
    replaced by its residue mod c.  The Hermite basis is unique, so neither
    these reductions nor the order of the folds change it.

    Only nonzero entries are visited.  The remaining columns wait in the
    bucket of their first nonzero row, and each row keeps the finished
    columns that may hold a nonzero there.
    """
    return _hermite(A, c, fold=True)


def triangular_hnf(X: IntMatrix, c: int) -> IntMatrix:
    """``hnf(X, c)`` for a lower-triangular X with a positive diagonal whose
    columns already span a lattice containing c*Z^n.

    The Hermite pivots of such a lattice are X's diagonal, so nothing needs
    folding: column r, its entries below the diagonal reduced mod c, is the
    pivot column of row r, and only the back-reduction of ``hnf`` is left.
    The reduction keeps the span, because the columns stay in the lattice
    and the diagonal, and with it the index, does not change.
    """
    return _hermite(X, c, fold=False)


def _hermite(A: IntMatrix, c: int, fold: bool) -> IntMatrix:
    """``hnf(A, c)``, or with ``fold`` False ``triangular_hnf(A, c)``: the
    two differ only in where each row's pivot column comes from."""
    n = A.nrows
    if n == 0 or c < 1:
        raise ValueError("hnf requires at least one row and a positive c")
    # lead[r]: the columns not yet folded whose first nonzero is in row r,
    # with entries in [0, c); without the fold there are none
    lead: list[list[dict[int, int]]] = [[] for _ in range(n)]
    for col in A.nonzeros if fold else ():
        col = {i: z for i, x in col.items() if (z := x % c)}
        if col:
            lead[min(col)].append(col)
    done: list[dict[int, int]] = []  # finished pivot columns
    # holders[i]: the finished columns that may hold a nonzero in row i
    holders: list[set[int]] = [set() for _ in range(n)]
    for r in range(n):
        if fold:
            p = {r: c}
        else:  # A's column r, reduced mod c below the diagonal
            col = A.nonzeros[r]
            p = {i: z for i, x in col.items() if i > r and (z := x % c)}
            p[r] = col[r]
        for col in lead[r]:
            a, b = p[r], col[r]
            if a == c:
                # p is still c*e_r: x*p + y*col is y*col mod c, and the
                # complement (a/g)*col - (b/g)*p is (c/g)*col mod c
                g, _, y = xgcd(c, b) if c % b else (b, 0, 1)
                s = c // g
                p = col if y == 1 else {i: z for i, v in col.items() if (z := y * v % c)}
                col = {i: z for i, v in col.items() if (z := s * v % c)}
            elif b % a:
                g, x, y = xgcd(a, b)
                p, col = _combine(x, p, y, col, c), _combine(-(b // g), p, a // g, col, c)
            else:
                _add_multiple(col, p, -(b // a), c)
            if col:  # row r is zero now
                lead[min(col)].append(col)
        h = p[r]
        tail = [(i, u) for i, u in p.items() if i > r]
        for k in holders[r]:
            col = done[k]
            q, x = divmod(col.get(r, 0), h)
            if q:  # col -= q*p, its rows below r reduced mod c
                if x:
                    col[r] = x
                else:
                    del col[r]
                for i, u in tail:
                    x = (col.get(i, 0) - q * u) % c
                    if x:
                        col[i] = x
                        holders[i].add(k)
                    else:
                        col.pop(i, None)
        for i, _ in tail:
            holders[i].add(r)
        lead[r] = holders[r] = None  # row r is finished
        done.append(p)
    return IntMatrix.sparse(n, done)


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
