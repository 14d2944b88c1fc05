"""Shared helpers for the test suite: deterministic random instances and
reference normal forms."""

from __future__ import annotations

import random
from math import gcd, lcm

from splinemod.arith import crt_combine, xgcd
from splinemod.engine import _scaled_inverse
from splinemod.graph import EdgeLabeledGraph, normalize
from splinemod.matrix import IntMatrix, snf


def nonunit_labels(m: int) -> list[int]:
    """Nonzero labels whose ideal is proper: gcd(label, m) not in {1, m}."""
    return [l for l in range(1, m) if 1 < gcd(l, m) < m]


def random_connected_graph(
    rng: random.Random,
    n: int,
    m: int,
    extra_edges: int = 2,
    labels: list[int] | None = None,
) -> EdgeLabeledGraph:
    """Random spanning tree plus a few extra edges, random proper labels."""
    if labels is None:
        labels = nonunit_labels(m)
    names = tuple(f"v{i}" for i in range(1, n + 1))
    edges = []
    for v in range(1, n):
        u = rng.randrange(v)
        edges.append((u, v, rng.choice(labels)))
    pairs = {(min(u, v), max(u, v)) for u, v, _ in edges}
    attempts = 0
    added = 0
    while added < extra_edges and attempts < 20 and n > 2:
        attempts += 1
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v or (min(u, v), max(u, v)) in pairs:
            continue
        pairs.add((min(u, v), max(u, v)))
        edges.append((u, v, rng.choice(labels)))
        added += 1
    return EdgeLabeledGraph(m, names, tuple(edges))


def random_cycle(rng: random.Random, n: int, m: int, labels: list[int]) -> EdgeLabeledGraph:
    names = tuple(f"v{i}" for i in range(1, n + 1))
    edges = tuple(
        (i, (i + 1) % n, rng.choice(labels)) for i in range(n)
    )
    return EdgeLabeledGraph(m, names, edges)


# Reference normal forms: the unbounded textbook algorithms, kept here to
# check ``splinemod.matrix.snf`` and the engine's flow-up basis against.


def matmul(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    if A.ncols != B.nrows:
        raise ValueError("dimension mismatch")
    return IntMatrix(
        [
            [sum(a * B.entries[k][j] for k, a in enumerate(row)) for j in range(B.ncols)]
            for row in A.entries
        ]
    )


def det(A: IntMatrix) -> int:
    """Exact determinant via Bareiss fraction-free elimination."""
    n = A.nrows
    if n != A.ncols:
        raise ValueError("determinant requires a square matrix")
    if n == 0:
        return 1
    M = [list(r) for r in A.entries]
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


def _apply_col_2x2(M, j1, j2, a, b, c, e):
    """Columns (j1, j2) <- (a*j1 + b*j2, c*j1 + e*j2)."""
    for row in M:
        x, y = row[j1], row[j2]
        row[j1] = a * x + b * y
        row[j2] = c * x + e * y


def _add_col_multiple(M, dst, src, q):
    for row in M:
        row[dst] += q * row[src]


def reference_hnf(A: IntMatrix) -> IntMatrix:
    """Column-style Hermite normal form of A over Z, entries unbounded.

    Lower-triangular with respect to the row order, positive pivots, entries
    left of a pivot in [0, pivot), zero columns beyond the rank.
    """
    rows, cols = A.nrows, A.ncols
    H = [list(r) for r in A.entries]
    pivot = 0
    for r in range(rows):
        if pivot >= cols:
            break
        for j in range(pivot + 1, cols):
            if H[r][j] == 0:
                continue
            a, b = H[r][pivot], H[r][j]
            g, x, y = xgcd(a, b)
            _apply_col_2x2(H, pivot, j, x, y, -(b // g), a // g)
        if H[r][pivot] == 0:
            continue
        if H[r][pivot] < 0:
            for row in H:
                row[pivot] = -row[pivot]
        p = H[r][pivot]
        for j in range(pivot):
            q = H[r][j] // p
            if q:
                _add_col_multiple(H, j, pivot, -q)
        pivot += 1
    return IntMatrix(H)


def with_scaled_identity(A: IntMatrix, c: int) -> IntMatrix:
    """[A | c*I]: the columns of A followed by c*e_i for every row i."""
    n = A.nrows
    return IntMatrix(
        [list(row) + [c if i == k else 0 for k in range(n)] for i, row in enumerate(A.entries)]
    )


def reference_lattice_hnf(A: IntMatrix, c: int) -> IntMatrix:
    """The reference Hermite form of [A | c*I], cut to its n nonzero columns."""
    H = reference_hnf(with_scaled_identity(A, c))
    assert not any(x for row in H.entries for x in row[A.nrows :])
    return IntMatrix([row[: A.nrows] for row in H.entries])


def reference_flow_up(G: EdgeLabeledGraph) -> IntMatrix:
    """The flow-up (Hermite) basis of a normalized graph's spline lattice L,
    built from the dual lattice, as ``engine.integer_lattice`` once built it.

    With c = m (in integer mode, the lcm of the labels) c*Z^n lies in L, so
    c*L^* is the integer lattice spanned by the columns (c/g_e)(e_u - e_v)
    and c*Z^n.  Its Hermite form H, taken with the vertex rows in reverse,
    is upper triangular in vertex order once reversed back, and
    L = c*H^{-T}: a lower-triangular basis whose Hermite form is the
    answer.
    """
    n = G.n
    last = n - 1
    c = G.modulus or lcm(*(g for _, _, g in G.conditions))
    dual = [{last - u: c // g, last - v: -(c // g)} for u, v, g in G.conditions]
    H = reference_lattice_hnf(IntMatrix.sparse(n, dual), c).entries
    lower = IntMatrix([[H[last - k][last - i] for k in range(n)] for i in range(n)])
    return reference_lattice_hnf(_scaled_inverse(lower, c), c)


def reference_snf(A: IntMatrix) -> tuple[tuple[int, ...], IntMatrix, IntMatrix]:
    """Smith form (d, U, V) over Z with U @ A @ V == diag(d), U and V
    unimodular, pivoting on a minimal-absolute-value entry, ties broken by
    (row, col) order."""
    rows, cols = A.nrows, A.ncols
    S = [list(r) for r in A.entries]
    U = [[int(i == j) for j in range(rows)] for i in range(rows)]
    V = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def swap_rows(i1, i2):
        S[i1], S[i2] = S[i2], S[i1]
        U[i1], U[i2] = U[i2], U[i1]

    def swap_cols(j1, j2):
        for M in (S, V):
            for row in M:
                row[j1], row[j2] = row[j2], row[j1]

    def add_row_multiple(dst, src, q):
        S[dst] = [a + q * b for a, b in zip(S[dst], S[src])]
        U[dst] = [a + q * b for a, b in zip(U[dst], U[src])]

    def min_abs_pivot(t):
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                v = S[i][j]
                if v != 0 and (best is None or abs(v) < abs(best[0])):
                    best = (v, i, j)
        return best

    t = 0
    while t < min(rows, cols):
        found = min_abs_pivot(t)
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
                offender = next(
                    (i for i in range(t + 1, rows)
                     for j in range(t + 1, cols) if S[i][j] % p),
                    None,
                )
                if offender is None:
                    break
                add_row_multiple(t, offender, 1)
            found = min_abs_pivot(t)
        if S[t][t] < 0:
            S[t] = [-x for x in S[t]]
            U[t] = [-x for x in U[t]]
        t += 1
    d = tuple(S[i][i] for i in range(min(rows, cols)))
    return d, IntMatrix(U), IntMatrix(V)


def column_lattices_equal(A: IntMatrix, B: IntMatrix) -> bool:
    """True iff the columns of A and of B span the same integer lattice."""
    if A.nrows != B.nrows:
        return False
    nza = [c for c in reference_hnf(A).columns() if any(c)]
    nzb = [c for c in reference_hnf(B).columns() if any(c)]
    return nza == nzb


def naive_span(generators, m, n):
    """The closure of the generators under addition mod m, breadth first."""
    zero = (0,) * n
    seen = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for x in frontier:
            for g in generators:
                y = tuple((a + b) % m for a, b in zip(x, g))
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


# Reference gluing and edge check: the entry-by-entry forms that
# ``decompose.recombine`` and ``graph.first_failing`` replaced.


def reference_glued_vectors(components, G: EdgeLabeledGraph) -> list[tuple[int, ...]]:
    """The glued generators, largest order first, one crt_combine per entry.

    The j-th generators of the components, sorted by descending order, are
    combined entry by entry; a component without a j-th generator
    contributes the zero labeling.
    """
    stacks = [list(comp.module.mgs)[::-1] for comp in components]
    zero = (0,) * G.n
    glued = []
    for j in range(max(len(s) for s in stacks)):
        glued.append(tuple(
            crt_combine([
                ((stack[j] if j < len(stack) else zero)[i], comp.prime_power)
                for comp, stack in zip(components, stacks)
            ])
            for i in range(G.n)
        ))
    return glued


def reference_spline_check(G: EdgeLabeledGraph, values) -> bool:
    """True iff every edge condition holds, with gcd(label, m) taken per edge
    and the difference reduced mod m first."""
    m = G.modulus
    for u, v, label in G.edges:
        diff = values[u] - values[v]
        if m:
            diff %= m
        g = gcd(label, m)
        if (diff != 0) if g == 0 else (diff % g != 0):
            return False
    return True


# Reference module vectors: the dense construction that
# ``engine.normalized_module`` and ``engine.pulled_back_lattice`` replaced
# with a block written from the nonzeros, on the dual lattice's basis that
# the closed form of ``engine.integer_lattice`` replaced.


def reference_module_vectors(G: EdgeLabeledGraph):
    """``(invariant_factors, mgs, raw_diagonal, flow_up)`` of G's module, or
    in integer mode its pulled-back lattice basis columns, with every vector
    built as a dense tuple and the set transposed into a vertex-major block
    to be pulled back."""
    gnorm, report = normalize(G)
    B = reference_flow_up(gnorm)
    m = G.modulus
    if m == 0:
        return tuple(zip(*report.pull_back(B.entries)))
    d, V = snf(_scaled_inverse(B, m), m)
    factors, vectors = [], []
    for dj, col in zip(d, V.columns()):
        if dj > 1:
            vectors.append(tuple((m // dj) * x % m for x in col))
            factors.append(dj)
    k = len(vectors)
    for col in B.columns():
        reduced = tuple(x % m for x in col)
        if any(reduced):
            vectors.append(reduced)
    # m = 1 leaves no vector: the block is then one empty row per vertex
    rows = report.pull_back(list(zip(*vectors)) or [()] * gnorm.n)
    columns = tuple(zip(*rows))
    return tuple(factors), columns[:k], d, columns[k:]
