"""The core computation: spline modules from integer lattices.

The mod-m spline module is the image of the lattice

    L = { f in Z^n : g_e = gcd(label, m) divides f_u - f_v on every edge uv }

under reduction mod m, and L always contains m*Z^n, so the module is the
finite quotient L / m*Z^n.  Everything follows from two normal forms:

* the triangular (flow-up) Hermite basis B of L, in closed form
  (``integer_lattice``): split the modulus and the edge moduli into a
  coprime base, and for each base element one Kruskal pass over the edges
  gives every vertex its pivot and its anchor, an earlier vertex whose
  value fixes its own up to that pivot (THEORY.md, lemma 1);
* the Smith normal form of m*B^{-1} (an integer matrix), whose diagonal is
  the invariant-factor chain of the quotient and whose right transform hands
  back a minimum generating set.

In integer mode (m = 0) L contains c*Z^n for c the lcm of the labels, and
B is the whole answer.  Z/mZ is not a domain, so the Smith form is taken
over Z, but the answer is read mod m: ``snf`` keeps its right transform
mod m, while the Smith diagonal itself stays exact.  Its product, times
det B, must be m^{n'}, which compares the anchors with ``snf``.

The matrices pass from the flow-up basis to the Smith transform as sparse
columns, ``IntMatrix.nonzeros``, with no dense copy, identity or transpose
between kernels.  The printed vectors are reduced from those columns and
written, nonzeros only, into one vertex-major block (one row per vertex),
which is pulled back, checked and transposed once into dense tuples.  That
one step, ``_vertex_major``, is also where the nonzeros are checked to be
plain ints, so its result is an ``IntVectors``: a tuple of vectors that
the ``--json`` writer prints without checking each entry's type again.
Every vector set the solvers return (``mgs``, ``flow_up``, the integer
lattice basis and the CRT glue's generators) is one.

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
from itertools import chain, combinations
from math import gcd, lcm, prod

from .arith import coprime_base
from .errors import InternalInconsistency, SplineError
from .graph import EdgeLabeledGraph, NormalizationReport, check_splines, normalize
from .matrix import IntMatrix, snf


class IntVectors(tuple):
    """Vectors as a tuple of equal-length tuples whose every entry is a
    plain ``int``, checked where the vectors were made.

    ``_vertex_major``, the one step where the solvers' sparse vectors
    become dense, makes them: it checks the nonzeros' types and writes
    them into a block of literal zeros.  Otherwise one is made only from
    the rows of another, taken in a new order or in part.  It is a tuple,
    so it compares, hashes, pickles and dumps as one; the ``--json`` writer
    trusts its type and skips the per-entry checks.
    """

    __slots__ = ()


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

    Both paths store ``mgs`` and a nonempty ``flow_up`` as ``IntVectors``,
    so each printed vector was checked to hold plain ints once, where it
    was made.
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

    Its columns are the Hermite basis of L: column j vanishes on the first
    j vertices of the flow-up order, has a positive pivot h_j at vertex j,
    and its entry at every later vertex i lies in [0, h_i).

    Built in closed form (THEORY.md, lemma 1).  Each edge modulus g_e is a
    product of powers of the elements b of a coprime base of the modulus
    and the g_e.  For each b, a Kruskal pass over the edges in decreasing
    v_b(g_e), with least-vertex roots, joins two components at weight w:
    the larger root k gets the factor b^w of its pivot and an anchor, the
    smaller root.  Column j's entry at vertex i > j is the least residue
    mod h_i that agrees with the entry at i's anchor mod each factor (CRT),
    so only the anchor-descendants of j can be nonzero, and they alone are
    visited, in increasing order.
    """
    n = G.n
    moduli = {g for _, _, g in G.conditions}
    if 0 in moduli:  # an integer-mode label 0, which normalize merges
        raise InternalInconsistency(
            "spline lattice is not full rank; was the graph normalized?"
        )
    h = [1] * n  # the pivots
    joins: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # (anchor, b^beta)
    # in integer mode c is the lcm of the g_e, a product of their base's powers
    for b in coprime_base(moduli | {G.modulus or 1}):
        weighted = []
        for u, v, g in G.conditions:
            w = 0
            while g % b == 0:
                g //= b
                w += 1
            if w:
                weighted.append((w, u, v))
        root = list(range(n))

        def find(x: int) -> int:
            while root[x] != x:
                root[x] = x = root[root[x]]  # path halving
            return x

        for w, u, v in sorted(weighted, reverse=True):
            low, high = sorted((find(u), find(v)))
            if low != high:
                q = b**w
                root[high] = low
                h[high] *= q
                joins[high].append((low, q))
    # each vertex's anchors, each with the CRT weight of its part mod h_i
    terms = []
    children: list[list[int]] = [[] for _ in range(n)]
    for i, (hi, js) in enumerate(zip(h, joins)):
        terms.append([(a, hi // q * pow(hi // q, -1, q)) for a, q in js])
        for a in {a for a, _ in js}:
            children[a].append(i)
    columns = []
    for j in range(n):
        col = {j: h[j]}
        pending = children[j][:]  # ascending, so already a heap
        seen = set(pending)
        while pending:
            i = heappop(pending)
            x = sum(e * col.get(a, 0) for a, e in terms[i]) % h[i]
            if x:
                col[i] = x
                for k in children[i]:
                    if k not in seen:
                        seen.add(k)
                        heappush(pending, k)
        columns.append(col)
    return IntMatrix.sparse(n, columns)


def pulled_back_lattice(
    G: EdgeLabeledGraph,
) -> tuple[IntVectors, NormalizationReport]:
    """Integer lattice basis columns of any graph, on its own vertices.

    The graph is normalized, its lattice basis computed, and its rows
    pulled back through the vertex merges and checked against every edge
    condition of G; the normalization report is returned alongside.
    """
    gnorm, report = normalize(G)
    columns = integer_lattice(gnorm).nonzeros
    return _vertex_major(G, gnorm.n, columns, "lattice basis column", report), report


def _vertex_major(
    G: EdgeLabeledGraph,
    n: int,
    vectors: Sequence[dict[int, int]],
    what: str,
    report: NormalizationReport | None = None,
) -> IntVectors:
    """Sparse vectors on n vertices as checked dense vectors on G's vertices.

    One C-level pass over the nonzeros first checks that each is a plain
    ``int``.  Then only the nonzeros are written into a vertex-major block
    of literal zeros (row i holds every vector's value at vertex i), so the
    Python-level work follows them, not the size of the block.  The block
    is pulled back through ``report``'s vertex merges (None: its rows are
    already G's vertices), checked against every edge condition of G in
    one ``check_splines`` call, which names the first failing vector as
    ``what``, and transposed once into the ``IntVectors``.
    """
    others = set(map(type, chain.from_iterable(map(dict.values, vectors)))) - {int}
    if others:
        names = ", ".join(sorted(kind.__name__ for kind in others))
        raise InternalInconsistency(f"{what} has a nonzero entry of type {names}")
    rows = [[0] * len(vectors) for _ in range(n)]
    for j, vector in enumerate(vectors):
        for i, x in vector.items():
            rows[i][j] = x
    if report is not None:
        rows = report.pull_back(rows)
    check_splines(G, rows, what)
    return IntVectors(zip(*rows))


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
    vertices, a flow-up vector that vanishes mod m dropped, and handed to
    ``_vertex_major`` together, generators first.  It writes their
    nonzeros into a vertex-major block (one row per vertex) and pulls it
    back through the vertex merges, which indexes its rows, so the
    vertices of one merge class share one row object.  The whole block is
    checked against every edge condition of G in one ``check_splines``
    call and transposed once into ``IntVectors``, which are split into
    ``mgs`` and ``flow_up``.

    A normalized graph with no edge returns early, without the kernels:
    B = I and m*I is its own Smith form, so d = (m,)*n' and V = I, and the
    generators and the flow-up vectors are the same n' unit vectors.  They
    go through ``_vertex_major`` as one block, and ``mgs`` and ``flow_up``
    share the result.
    """
    m = G.modulus
    if m == 0:
        raise SplineError(
            "invariant factors are only defined for a finite modulus"
        )
    if not gnorm.edges:
        # the free module (Z/m)^n'; m = 1 leaves no vector, as below
        n = gnorm.n
        d = (m,) * n
        factors = d if m > 1 else ()
        units = [{i: 1} for i in range(len(factors))]
        mgs = _vertex_major(G, n, units, "generated vector", report)
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
    columns = _vertex_major(G, gnorm.n, vectors, "generated vector", report)
    return SplineModule(
        m, tuple(factors), IntVectors(columns[:k]), d, IntVectors(columns[k:])
    )


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
        raise SplineError(
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
