"""The core computation: spline modules from integer lattices.

The mod-m spline module is the image of the lattice

    L = { f in Z^n : g_e = gcd(label, m) divides f_u - f_v on every edge uv }

under reduction mod m, and L always contains m*Z^n, so the module is the
finite quotient L / m*Z^n.  Everything follows from normal forms:

* a triangular (flow-up) basis B of L, built from the dual lattice.
  Because m*Z^n lies in L, the dual L^* lies between Z^n and (1/m)*Z^n,
  so m*L^* is an integer lattice, spanned by the columns m*e_i and
  (m/g_e)(e_u - e_v) whose entries never exceed m.  Its Hermite form H
  gives B = m*H^{-T} exactly, and a second Hermite form makes B canonical;
* the Smith normal form of m*B^{-1} (an integer matrix), whose diagonal is
  the invariant-factor chain of the quotient and whose right transform hands
  back a minimum generating set.

In integer mode (m = 0) L contains M*Z^n for M the lcm of the labels, and
the same construction runs with M in place of m.  Working over Z and
reducing at the end avoids normal forms over Z/mZ, which is not a domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm, prod

from .arith import solve_congruences
from .errors import InternalInconsistency, InvalidModulus, NotAnExtension
from .graph import EdgeLabeledGraph, NormalizationReport, normalize, spline_check
from .matrix import IntMatrix, hnf, snf


@dataclass(frozen=True)
class SplineModule:
    """Computed answer for one graph: invariant factors and generating sets.

    ``invariant_factors`` is the ascending divisibility chain d1 | ... | dt
    with every di > 1; ``mgs[i]`` has additive order exactly
    ``invariant_factors[i]``.  ``raw_diagonal`` keeps the full Smith diagonal
    including trivial 1 entries, for diagnostics.
    """

    modulus: int
    invariant_factors: tuple[int, ...]
    mgs: tuple[tuple[int, ...], ...]
    flow_up: tuple[tuple[int, ...], ...]
    raw_diagonal: tuple[int, ...]

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
    Z^n: it is the integer lattice spanned by the columns c*e_i and
    (c/g_e)(e_u - e_v).  Its Hermite form H, taken with the vertex rows in
    reverse so that H is upper triangular in vertex order, gives
    L = c*H^{-T}: an exact, lower triangular basis (integral because L lies
    in Z^n), which one more Hermite form makes canonical.
    """
    n = G.n
    if not G.edges:
        return IntMatrix.identity(n)
    labels = [gcd(label, G.modulus) for _, _, label in G.edges]
    c = G.modulus or lcm(*labels)
    if c == 0:
        raise InternalInconsistency(
            "spline lattice is not full rank; was the graph normalized?"
        )
    columns = [[c if i == k else 0 for i in range(n)] for k in range(n)]
    for (u, v, _), g in zip(G.edges, labels):
        col = [0] * n
        col[u], col[v] = c // g, -(c // g)
        columns.append(col)
    # With the vertex rows in reverse the echelon form is lower triangular
    # in reverse vertex order; reversing its rows and columns back gives H,
    # upper triangular in vertex order, and its rows are the columns of H^T.
    reverse = hnf(IntMatrix.from_columns([col[::-1] for col in columns]))
    lower = IntMatrix.from_columns(
        [row[n - 1 :: -1] for row in reversed(reverse.entries)]
    )
    return hnf(_scaled_inverse(lower, c))


def pulled_back_lattice(
    G: EdgeLabeledGraph,
) -> tuple[tuple[tuple[int, ...], ...], NormalizationReport]:
    """Integer lattice basis columns of any graph, on its own vertices.

    The graph is normalized, its lattice basis computed, and each column
    pulled back through the vertex merges; the normalization report is
    returned alongside.
    """
    gnorm, report = normalize(G)
    columns = integer_lattice(gnorm).columns()
    return tuple(report.pull_back(c) for c in columns), report


def _scaled_inverse(B: IntMatrix, m: int) -> IntMatrix:
    """m * B^{-1} by forward substitution; exact because m*Z^n lies in the lattice."""
    n = B.nrows
    E = B.entries
    cols = []
    for j in range(n):
        x = [0] * n
        for i in range(n):
            s = (m if i == j else 0) - sum(E[i][k] * x[k] for k in range(i))
            q, r = divmod(s, E[i][i])
            if r:
                raise InternalInconsistency("lattice does not contain m*Z^n")
            x[i] = q
        cols.append(x)
    return IntMatrix.from_columns(cols)


def invariant_factors(G: EdgeLabeledGraph) -> SplineModule:
    """Invariant factors, minimum generating set and flow-up set for G.

    Normalization is applied internally; all returned vectors live on the
    original vertex set (values are pulled back through vertex merges).
    """
    m = G.modulus
    if m == 0:
        raise InvalidModulus(
            "invariant factors are only defined for a finite modulus"
        )
    gnorm, report = normalize(G)
    if m == 1:
        return SplineModule(1, (), (), (), (1,) * gnorm.n)
    B = integer_lattice(gnorm)
    res = snf(_scaled_inverse(B, m))

    det_b = prod(B.entries[i][i] for i in range(B.nrows))
    # |L / m*Z^n| = m^n / det(B); the Smith diagonal must multiply to it.
    if prod(res.d) * det_b != m**gnorm.n:
        raise InternalInconsistency("Smith diagonal does not match lattice index")

    factors = []
    mgs_norm = []
    for j, dj in enumerate(res.d):
        if dj > 1:
            col = res.V.column(j)
            mgs_norm.append(tuple((m // dj) * x % m for x in col))
            factors.append(dj)
    flow_norm = []
    for col in B.columns():
        reduced = tuple(x % m for x in col)
        if any(reduced):
            flow_norm.append(reduced)

    mgs = tuple(report.pull_back(g) for g in mgs_norm)
    flow_up = tuple(report.pull_back(f) for f in flow_norm)
    for vec in mgs + flow_up:
        if not spline_check(G, vec):
            raise InternalInconsistency(f"generated vector {vec} fails an edge condition")
    return SplineModule(m, tuple(factors), mgs, flow_up, res.d)


def flow_up_generators(G: EdgeLabeledGraph) -> list[tuple[int, ...]]:
    """Flow-up generating set of the mod-m module (zero reductions dropped)."""
    return list(invariant_factors(G).flow_up)


def rank(G: EdgeLabeledGraph) -> int:
    """Size of a minimum generating set; 0 only for the zero module (m = 1)."""
    return invariant_factors(G).rank


def module_isomorphic(A: SplineModule, B: SplineModule) -> bool:
    """Modules of finite abelian type are isomorphic iff their chains agree."""
    return A.invariant_factors == B.invariant_factors


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


def extension_analysis(
    G: EdgeLabeledGraph, G_plus: EdgeLabeledGraph, new_vertex: str
) -> ExtensionAnalysis:
    """Kernel size and surjectivity of the restriction map R_{G+} -> R_G.

    Splines of the extension restrict to splines of the base; the kernel is
    the set of splines supported on the new vertex only.  Surjectivity is
    decided exactly: a generator of R_G lifts iff the congruence system its
    neighbor values impose on the new vertex has a solution, and the image of
    the restriction is a submodule, so checking generators suffices.
    """
    vi = G_plus.vertex_index(new_vertex)
    if not _restriction_matches(G, G_plus, vi):
        raise NotAnExtension(
            f"removing {new_vertex!r} from the extension does not give the base graph"
        )
    m = G.modulus
    incident = G_plus.incident(vi)
    big_n = lcm(*(gcd(label, m) for _, _, label in incident))
    if m:
        kernel_order = m // big_n  # the lcm of divisors of m divides m
        base = invariant_factors(G)
        generators = base.mgs
    else:
        kernel_order = 1 if big_n == 0 else None
        base = generators = pulled_back_lattice(G)[0]

    surjective = True
    for gen in generators:
        system = []
        for u, v, label in incident:
            other = v if u == vi else u
            system.append((gen[_skip(other, vi)], gcd(label, m)))
        if solve_congruences(system) is None:
            surjective = False
            break
    return ExtensionAnalysis(new_vertex, big_n, kernel_order, surjective, base)
