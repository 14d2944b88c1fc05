"""The core computation: spline modules from integer lattices.

The mod-m spline module is the image of the lattice

    L = { f in Z^n : g_e = gcd(label, m) divides f_u - f_v on every edge uv }

under reduction mod m, and L always contains m*Z^n, so the module is the
finite quotient L / m*Z^n.  Everything follows from normal forms:

* a triangular (flow-up) basis B of L, built from the dual lattice.
  Because m*Z^n lies in L, the dual L^* lies between Z^n and (1/m)*Z^n,
  so m*L^* is the integer lattice spanned by the columns (m/g_e)(e_u - e_v)
  together with m*Z^n.  Its Hermite form H gives B = m*H^{-T} exactly,
  lower triangular with the Hermite pivots already on its diagonal, so a
  back-reduction (``triangular_hnf``) makes B canonical;
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

The matrices pass from the dual system (two nonzeros per column) to the
Smith transform as sparse columns, ``IntMatrix.nonzeros``, with no dense
copy, identity or transpose between kernels.  The printed vectors are
reduced from those columns and written, nonzeros only, into one
vertex-major block (one row per vertex), which is pulled back, checked and
transposed once into dense tuples.

A mod-m graph that normalizes to no edge skips the kernels.  Every label
of it was a unit or zero mod m, as on each Z/p component of a CRT split,
so its module is free: (Z/m)^{n'} on its n' merge classes, with B = I and
Smith form m*I.  Its vectors are the n' unit vectors, written down and
then pulled back and checked as above.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import combinations
from math import gcd, lcm, prod

from .errors import InternalInconsistency, InvalidModulus, NotAnExtension
from .graph import EdgeLabeledGraph, NormalizationReport, check_splines, normalize
from .matrix import IntMatrix, hnf, snf, triangular_hnf


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
      reductions dropped.  On a normalized graph with no edge it fills in
      the same values in closed form: ``raw_diagonal`` is (m,)*n', and
      ``mgs`` and ``flow_up`` are one shared tuple of the n' merge-class
      indicators (empty, with ``raw_diagonal`` (1,)*n', when m = 1);
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
        """Size of a minimum generating set; 0 only for the zero module (m = 1)."""
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
    in Z^n) whose diagonal holds the Hermite pivots, so the back-reduction
    of ``triangular_hnf`` makes it canonical.  An edgeless graph has an
    n x 0 dual system, whose Hermite form is c*I (c = 1, the lcm of no
    labels, in integer mode), so its basis is the identity.
    """
    n = G.n
    last = n - 1
    c = G.modulus or lcm(*(g for _, _, g in G.conditions))
    if c == 0:
        raise InternalInconsistency(
            "spline lattice is not full rank; was the graph normalized?"
        )
    dual = [{last - u: c // g, last - v: -(c // g)} for u, v, g in G.conditions]
    # With the vertex rows in reverse the echelon form is lower triangular
    # in reverse vertex order; reversing its rows and columns back gives H,
    # upper triangular in vertex order, and its rows are the columns of
    # lower = H^T: entry (i, k) of the echelon form is entry (n-1-k, n-1-i)
    # of lower.
    reverse = hnf(IntMatrix.sparse(n, dual), c)
    lower: list[dict[int, int]] = [{} for _ in range(n)]
    for k, col in enumerate(reverse.nonzeros):
        for i, x in col.items():
            lower[last - i][last - k] = x
    return triangular_hnf(_scaled_inverse(IntMatrix.sparse(n, lower), c), c)


def pulled_back_lattice(
    G: EdgeLabeledGraph,
) -> tuple[tuple[tuple[int, ...], ...], NormalizationReport]:
    """Integer lattice basis columns of any graph, on its own vertices.

    The graph is normalized, its lattice basis computed, and its rows
    pulled back through the vertex merges and checked against every edge
    condition of G; the normalization report is returned alongside.
    """
    gnorm, report = normalize(G)
    rows = report.pull_back(_vertex_major(gnorm.n, integer_lattice(gnorm).nonzeros))
    check_splines(G, rows, "lattice basis column")
    return tuple(zip(*rows)), report


def _vertex_major(n: int, vectors: Sequence[dict[int, int]]) -> list[list[int]]:
    """The vertex-major block of sparse vectors on n vertices: row i holds
    every vector's value at vertex i.  Only the nonzeros are written, so
    the Python-level work follows them, not the size of the block."""
    rows = [[0] * len(vectors) for _ in range(n)]
    for j, vector in enumerate(vectors):
        for i, x in vector.items():
            rows[i][j] = x
    return rows


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
    diagonal = [col[k] for k, col in enumerate(B.nonzeros)]
    below = [[(i, b) for i, b in col.items() if i > k] for k, col in enumerate(B.nonzeros)]
    X = []
    for j in range(n):
        x = {}
        sums = {j: m}  # row i -> m*[i == j] - sum of B[i][k]*x_k so far
        pending = [j]
        while pending:
            i = heappop(pending)
            q, r = divmod(sums.pop(i), diagonal[i])
            if r:
                raise InternalInconsistency("lattice does not contain m*Z^n")
            if q:
                x[i] = q
                for k, b in below[i]:
                    if k in sums:
                        sums[k] -= b * q
                    else:
                        sums[k] = -b * q
                        heappush(pending, k)
        X.append(x)
    return IntMatrix.sparse(n, X)


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

    The generators (V's columns scaled by m/d_j) and the flow-up vectors
    (B's columns) are reduced mod m as sparse vectors on the normalized
    vertices, a flow-up vector that vanishes mod m dropped, and their
    nonzeros are written into a vertex-major block (one row per vertex).
    Pulling the block back through the vertex merges indexes its rows, so
    the vertices of one merge class share one row object.  The whole
    block, generators first, is checked against every edge condition of G
    in one ``check_splines`` call, and transposed once into the vectors.

    A normalized graph with no edge returns early, without the kernels:
    B = I and m*I is its own Smith form, so d = (m,)*n' and V = I, and the
    generators and the flow-up vectors are the same n' unit vectors.  They
    are written as one block, pulled back, checked and transposed once,
    and ``mgs`` and ``flow_up`` share the result.
    """
    m = G.modulus
    if m == 0:
        raise InvalidModulus(
            "invariant factors are only defined for a finite modulus"
        )
    if not gnorm.edges:
        # the free module (Z/m)^n'; m = 1 leaves no vector, as below
        n = gnorm.n
        d = (m,) * n
        factors = d if m > 1 else ()
        units = [{i: 1} for i in range(len(factors))]
        rows = report.pull_back(_vertex_major(n, units))
        check_splines(G, rows, "generated vector")
        mgs = tuple(zip(*rows))
        return SplineModule(m, factors, mgs, d, mgs)
    B = integer_lattice(gnorm)
    d, V = snf(_scaled_inverse(B, m), m)

    det_b = prod(col[j] for j, col in enumerate(B.nonzeros))
    # |L / m*Z^n| = m^n / det(B); the Smith diagonal must multiply to it.
    if prod(d) * det_b != m**gnorm.n:
        raise InternalInconsistency("Smith diagonal does not match lattice index")

    factors = []
    vectors = []
    for dj, col in zip(d, V.nonzeros):
        if dj > 1:
            s = m // dj
            vectors.append({i: z for i, x in col.items() if (z := s * x % m)})
            factors.append(dj)
    k = len(vectors)
    for col in B.nonzeros:
        reduced = {i: z for i, x in col.items() if (z := x % m)}
        if reduced:
            vectors.append(reduced)

    # m = 1 leaves no vector: the block is then one empty row per vertex
    rows = report.pull_back(_vertex_major(gnorm.n, vectors))
    # the block holds every value now: free the dicts before the transpose
    del vectors
    check_splines(G, rows, "generated vector")
    columns = tuple(zip(*rows))
    return SplineModule(m, tuple(factors), columns[:k], d, columns[k:])


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
