"""The core computation: spline modules from integer lattices.

The mod-m spline module is the image of the lattice

    L = { f in Z^n : g_e = gcd(label, m) divides f_u - f_v on every edge uv }

under reduction mod m, and L always contains m*Z^n, so the module is the
finite quotient L / m*Z^n.  Everything follows from normal forms:

* a triangular (flow-up) basis B of L, built from the dual lattice.
  Because m*Z^n lies in L, the dual L^* lies between Z^n and (1/m)*Z^n,
  so m*L^* is the integer lattice spanned by the columns (m/g_e)(e_u - e_v)
  together with m*Z^n.  Its Hermite form H gives B = m*H^{-T} exactly, and
  a second Hermite form makes B canonical;
* the Smith normal form of m*B^{-1} (an integer matrix), whose diagonal is
  the invariant-factor chain of the quotient and whose right transform hands
  back a minimum generating set.

In integer mode (m = 0) L contains M*Z^n for M the lcm of the labels, and
the same construction runs with M in place of m.  Z/mZ is not a domain, so
the normal forms are taken over Z, but each lattice here contains c*Z^n
(c = m or M) and the answer is read mod m.  So the reduction happens inside
the normal forms: ``hnf`` keeps the entries below its current row in
[0, c), and ``snf`` keeps its right transform mod m.  The Smith diagonal
itself stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import combinations, compress
from math import gcd, lcm, prod

from .errors import InternalInconsistency, InvalidModulus, NotAnExtension
from .graph import EdgeLabeledGraph, NormalizationReport, check_splines, normalize
from .matrix import IntMatrix, hnf, snf


@dataclass(frozen=True)
class SplineModule:
    """Computed answer for one graph: invariant factors and generating sets.

    Both solve paths fill in ``invariant_factors``, the ascending
    divisibility chain d1 | ... | dt with every di > 1, and ``mgs``, where
    ``mgs[i]`` has additive order exactly ``invariant_factors[i]``.  The
    other two fields say what each path computed:

    * the lattice path (``normalized_module``) sets ``raw_diagonal`` to the
      full Smith diagonal of m*B^{-1}, trivial 1 entries included, and
      ``flow_up`` to the flow-up basis columns reduced mod m, zero
      reductions dropped;
    * the CRT glue (``decompose.recombine``) takes no Smith form and glues
      no flow-up set: its ``raw_diagonal`` is its factors and its
      ``flow_up`` keeps the default, empty.
    """

    modulus: int
    invariant_factors: tuple[int, ...]
    mgs: tuple[tuple[int, ...], ...]
    raw_diagonal: tuple[int, ...]
    flow_up: tuple[tuple[int, ...], ...] = ()

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)


@dataclass(frozen=True)
class ExtensionAnalysis:
    """How a one-vertex extension relates to its base graph.

    ``incident_lcm`` is the lcm of the gcd-reduced labels on edges at the new
    vertex; splines supported on the new vertex alone are exactly its
    multiples, so the kernel of the restriction map has order
    m / gcd(incident_lcm, m).  ``kernel_order`` is None in integer mode with
    a nonzero kernel (the kernel is then infinite).  ``base`` is the solved
    base graph: its module mod m, or in integer mode its lattice basis
    columns on its own vertices.
    """

    new_vertex: str
    incident_lcm: int
    kernel_order: int | None
    pi_surjective: bool
    base: SplineModule | tuple[tuple[int, ...], ...]


def integer_lattice(G: EdgeLabeledGraph) -> IntMatrix:
    """Flow-up basis of the integer spline lattice of a normalized graph.

    Its columns span L; column j vanishes on the first j vertices of the
    flow-up order and has a positive pivot at vertex j.

    Built from the dual lattice.  With c = m (in integer mode, the lcm of
    the labels) every g_e divides c, so c*Z^n lies in L and c*L^* lies in
    Z^n: it is the integer lattice spanned by the columns (c/g_e)(e_u - e_v)
    together with c*Z^n.  Its Hermite form H, taken with the vertex rows in
    reverse so that H is upper triangular in vertex order, gives
    L = c*H^{-T}: an exact, lower triangular basis (integral because L lies
    in Z^n), which one more Hermite form makes canonical.
    """
    n = G.n
    if not G.edges:
        return IntMatrix.identity(n)
    c = G.modulus or lcm(*(g for _, _, g in G.conditions))
    if c == 0:
        raise InternalInconsistency(
            "spline lattice is not full rank; was the graph normalized?"
        )
    columns = []
    for u, v, g in G.conditions:
        col = [0] * n
        col[u], col[v] = c // g, -(c // g)
        columns.append(col[::-1])
    # With the vertex rows in reverse the echelon form is lower triangular
    # in reverse vertex order; reversing its rows and columns back gives H,
    # upper triangular in vertex order, and its rows are the columns of H^T.
    reverse = hnf(IntMatrix.from_columns(columns), c)
    lower = IntMatrix.from_columns([row[::-1] for row in reversed(reverse.entries)])
    return hnf(_scaled_inverse(lower, c), c)


def pulled_back_lattice(
    G: EdgeLabeledGraph,
) -> tuple[tuple[tuple[int, ...], ...], NormalizationReport]:
    """Integer lattice basis columns of any graph, on its own vertices.

    The graph is normalized, its lattice basis computed, and its rows
    pulled back through the vertex merges and checked against every edge
    condition of G; the normalization report is returned alongside.
    """
    gnorm, report = normalize(G)
    rows = report.pull_back(integer_lattice(gnorm).entries)
    check_splines(G, rows, "lattice basis column")
    return tuple(zip(*rows)), report


def _scaled_inverse(B: IntMatrix, m: int) -> IntMatrix:
    """m * B^{-1} by sparse forward substitution; exact because m*Z^n lies
    in the lattice.

    B is lower triangular, so column j of the answer, x with B*x = m*e_j,
    vanishes above row j.  Each x_k found is pushed down the nonzeros of
    B's column k into the running sums of the rows below, and the rows are
    solved in order, only those that received a sum: every other x_i is 0.
    Each solved row checks that its division is exact.
    """
    n = B.nrows
    E = B.entries
    below = [[] for _ in range(n)]  # below[k]: (i, B[i][k]) for i > k, nonzeros
    for i, row in enumerate(E):
        for k in compress(range(i), row):
            below[k].append((i, row[k]))
    X = [[0] * n for _ in range(n)]
    for j in range(n):
        sums = {j: m}  # row i -> m*[i == j] - sum of B[i][k]*x_k so far
        pending = [j]
        while pending:
            i = heappop(pending)
            q, r = divmod(sums.pop(i), E[i][i])
            if r:
                raise InternalInconsistency("lattice does not contain m*Z^n")
            if q:
                X[i][j] = q
                for k, b in below[i]:
                    if k in sums:
                        sums[k] -= b * q
                    else:
                        sums[k] = -b * q
                        heappush(pending, k)
    return IntMatrix(X)


def invariant_factors(G: EdgeLabeledGraph) -> SplineModule:
    """Invariant factors, minimum generating set and flow-up set for G.

    Normalization is applied internally; all returned vectors live on the
    original vertex set (values are pulled back through vertex merges).
    """
    return normalized_module(G, *normalize(G))


def normalized_module(
    G: EdgeLabeledGraph, gnorm: EdgeLabeledGraph, report: NormalizationReport
) -> SplineModule:
    """``invariant_factors(G)`` for a caller that already holds
    ``(gnorm, report) = normalize(G)``.

    The generators and the flow-up vectors are built on the normalized
    vertices and transposed once into a vertex-major block (one row per
    vertex).  Pulling the block back through the vertex merges indexes its
    rows, so the vertices of one merge class share one row object.  The
    whole block, generators first, is checked against every edge condition
    of G in one ``check_splines`` call, and transposed back once.
    """
    m = G.modulus
    if m == 0:
        raise InvalidModulus(
            "invariant factors are only defined for a finite modulus"
        )
    B = integer_lattice(gnorm)
    d, V = snf(_scaled_inverse(B, m), m)

    det_b = prod(B.entries[i][i] for i in range(B.nrows))
    # |L / m*Z^n| = m^n / det(B); the Smith diagonal must multiply to it.
    if prod(d) * det_b != m**gnorm.n:
        raise InternalInconsistency("Smith diagonal does not match lattice index")

    mod_m = m.__rmod__  # x -> x % m
    factors = []
    vectors = []
    for dj, col in zip(d, V.columns()):
        if dj > 1:
            vectors.append(tuple(map(mod_m, map((m // dj).__mul__, col))))
            factors.append(dj)
    k = len(vectors)
    for col in B.columns():
        reduced = tuple(map(mod_m, col))
        if any(reduced):
            vectors.append(reduced)

    # m = 1 leaves no vector: the block is then one empty row per vertex
    rows = report.pull_back(list(zip(*vectors)) or [()] * gnorm.n)
    check_splines(G, rows, "generated vector")
    columns = tuple(zip(*rows))
    return SplineModule(m, tuple(factors), columns[:k], d, columns[k:])


def rank(G: EdgeLabeledGraph) -> int:
    """Size of a minimum generating set; 0 only for the zero module (m = 1)."""
    return invariant_factors(G).rank


def _skip(i: int, vi: int) -> int:
    """Index of vertex i once vertex vi is removed."""
    return i if i < vi else i - 1


def _restriction_matches(G: EdgeLabeledGraph, G_plus: EdgeLabeledGraph, vi: int) -> bool:
    remaining = G_plus.vertices[:vi] + G_plus.vertices[vi + 1 :]
    if remaining != G.vertices or G.modulus != G_plus.modulus:
        return False
    kept = sorted(
        (_skip(min(u, v), vi), _skip(max(u, v), vi), label)
        for u, v, label in G_plus.edges
        if vi not in (u, v)
    )
    own = sorted(
        (min(u, v), max(u, v), label) for u, v, label in G.edges
    )
    return kept == own


def _has_common_lift(congruences: list[tuple[int, int]]) -> bool:
    """Whether x = r (mod g) for every (r, g) has a common solution, g = 0
    meaning x = r exactly: iff every two agree mod gcd(g_i, g_j), where a
    gcd of 0 asks for equality."""
    return all(gcd(r - s, g, h) == gcd(g, h) for (r, g), (s, h) in combinations(congruences, 2))


def extension_analysis(
    G: EdgeLabeledGraph, G_plus: EdgeLabeledGraph, new_vertex: str
) -> ExtensionAnalysis:
    """Kernel size and surjectivity of the restriction map R_{G+} -> R_G.

    Splines of the extension restrict to splines of the base; the kernel is
    the set of splines supported on the new vertex only.  Surjectivity is
    decided exactly: a generator f of R_G lifts iff the congruences
    x = f(w) mod g its neighbors w impose on the new vertex (g = 0 pins x
    exactly) agree pairwise.  The image of the restriction is a submodule,
    so checking generators suffices.
    """
    vi = G_plus.vertex_index(new_vertex)
    if not _restriction_matches(G, G_plus, vi):
        raise NotAnExtension(
            f"removing {new_vertex!r} from the extension does not give the base graph"
        )
    m = G.modulus
    incident = G_plus.incident(vi)
    big_n = lcm(*(g for _, _, g in incident))
    if m:
        kernel_order = m // big_n  # the lcm of divisors of m divides m
        base = invariant_factors(G)
        generators = base.mgs
    else:
        kernel_order = 1 if big_n == m else None
        base = generators = pulled_back_lattice(G)[0]

    # the base index of each incident edge's other end, with its modulus
    ends = [(_skip(v if u == vi else u, vi), g) for u, v, g in incident]
    surjective = all(
        _has_common_lift([(gen[w], g) for w, g in ends]) for gen in generators
    )
    return ExtensionAnalysis(new_vertex, big_n, kernel_order, surjective, base)
