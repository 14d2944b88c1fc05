"""Closed-form generating sets for cycles and the order-class merge.

Three families of cycles admit explicit generating sets without any lattice
computation: connected graphs with a single edge label, cycles with labels
whose ideals form a divisibility chain (powers of one zero divisor are the
paper's case), and cycles with two label values whose lcm is the modulus.
The first two are minimum outright; the last is upgraded by ``mgs_merge``,
which pairs generators whose additive orders fall in coprime order classes
and sums each pair.  ``closed_form`` tries the three in that order.

Rotation preconditions are applied automatically and recorded, so vectors
are always reported on the caller's vertex order.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .arith import additive_order, factorize
from .errors import InternalInconsistency, NotApplicable, SplineError
from .graph import EdgeLabeledGraph, check_splines, components

Vec = tuple[int, ...]


@dataclass(frozen=True)
class GeneratingSet:
    splines: tuple[Vec, ...]  # first member is the trivial spline
    minimum: bool
    provenance: str
    rotation: int = 0  # cycle rotation applied to meet the closed form's labeling


@dataclass(frozen=True)
class CycleInstance:
    """A cycle in the conventional indexing: edge i joins positions i, i+1 mod n.

    ``order[p]`` is the original vertex index at cycle position p; ``labels``
    are the edge moduli from ``graph.conditions``, with the zero ideal
    written 0.  Positions follow the graph's vertex order where possible.
    """

    graph: EdgeLabeledGraph
    order: tuple[int, ...]
    labels: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.order)

    @property
    def modulus(self) -> int:
        return self.graph.modulus


def is_connected(G: EdgeLabeledGraph) -> bool:
    return not any(components(G.n, (e[:2] for e in G.edges)))


def cycle_instance(G: EdgeLabeledGraph) -> CycleInstance:
    """Arrange a cycle graph into consecutive-position form by walking it.

    Checked up front: n >= 3 vertices, degree two everywhere (so n edges)
    and one component.  That is one n-cycle with no doubled edge (it would
    close a component of two), so every step of the walk from v1 has one
    onward neighbor, and the walk returns to v1 after n edges.
    """
    n = G.n
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u, v, g in G.conditions:
        adj[u].append((v, g))
        adj[v].append((u, g))
    if n < 3 or any(len(nb) != 2 for nb in adj) or not is_connected(G):
        e = len(G.edges)
        raise SplineError(
            f"graph with {n} vert{'ex' if n == 1 else 'ices'} and {e} edge{'' if e == 1 else 's'}"
            " is not an n-cycle"
        )
    # Walk from v1 toward its lower-indexed neighbor (deterministic).
    order, labels = [0], []
    for p in range(n):
        prev = order[p - 1] if p else None
        nxt, g = min(nb for nb in adj[order[p]] if nb[0] != prev)
        # canonical generator of the ideal: the zero ideal is 0, not m
        labels.append(0 if g == G.modulus else g)
        order.append(nxt)
    return CycleInstance(G, tuple(order[:n]), tuple(labels))


def _rotated(C: CycleInstance, r: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    n = C.n
    order = tuple(C.order[(p + r) % n] for p in range(n))
    labels = tuple(C.labels[(p + r) % n] for p in range(n))
    return order, labels


def _to_graph_indexing(vec_by_position: list[int], order: tuple[int, ...], n: int) -> Vec:
    out = [0] * n
    for pos, value in enumerate(vec_by_position):
        out[order[pos]] = value
    return tuple(out)


def single_label_mgs(G: EdgeLabeledGraph) -> GeneratingSet:
    """Minimum generating set for a connected graph with one edge label.

    The trivial spline plus, for every vertex after the first, the labeling
    carrying the common label on that vertex alone.  Single-vertex support
    works because every edge either misses the vertex (difference 0) or sees
    a difference of exactly the label.
    """
    if not is_connected(G):
        raise NotApplicable("single-label form needs a connected graph")
    m = G.modulus
    reduced = {g for _, _, g in G.conditions}
    if len(reduced) != 1:
        raise NotApplicable(f"needs one label ideal, got {sorted(reduced)}")
    a = reduced.pop()
    if a == 1 or a == m:
        raise NotApplicable("common label must be a nonzero non-unit")
    n = G.n
    splines: list[Vec] = [(1,) * n]
    for k in range(1, n):
        splines.append(tuple(a if i == k else 0 for i in range(n)))
    return GeneratingSet(tuple(splines), minimum=True, provenance="single-label")


def power_label_cycle_gens(C: CycleInstance) -> GeneratingSet:
    """Generating set for a cycle whose label ideals form a divisibility chain.

    Powers of one zero divisor are the paper's case: gcd(a^k, m) divides
    gcd(a^(k+1), m).  After rotating the least label onto the closing edge,
    generator i carries label i's value on every position past edge i.  The
    closing edge never binds, because its label divides every other, and the
    orders m/label form a divisibility chain, so the set is minimum.
    """
    m = C.modulus
    if m < 2:
        raise NotApplicable("needs a modulus >= 2")
    if any(l == 0 or l == 1 for l in C.labels):
        raise NotApplicable("labels must be nonzero non-units")
    chain = sorted(set(C.labels))
    if any(b % a for a, b in zip(chain, chain[1:])):
        raise NotApplicable(f"labels {C.labels} do not form a divisibility chain")
    n = C.n
    rot = next(r for r in range(n) if C.labels[(n - 1 + r) % n] == chain[0])
    order, labels = _rotated(C, rot)
    splines: list[Vec] = [(1,) * n]
    for i in range(1, n):
        by_pos = [labels[i - 1] if pos >= i else 0 for pos in range(n)]
        splines.append(_to_graph_indexing(by_pos, order, n))
    return GeneratingSet(
        tuple(splines), minimum=True, provenance="power-family", rotation=rot
    )


def two_label_cycle_gens(C: CycleInstance) -> GeneratingSet:
    """Generating set for a cycle with two label values whose lcm is m.

    Rotated so the closing edge carries one value and its predecessor the
    other; the top entry of each generator is whatever residue satisfies the
    two closing edges (the label itself or zero).  The lcm condition kills
    the would-be generator supported on the last vertex alone, so only n-1
    vectors appear; minimality is restored downstream by mgs_merge.
    """
    m = C.modulus
    values = sorted(set(C.labels))
    if len(values) != 2:
        raise NotApplicable(f"expected exactly two label values, got {values}")
    if not m or lcm(values[0], values[1]) != m:
        raise NotApplicable(f"lcm{tuple(values)} must be the modulus {m}")
    n = C.n
    rot = next(
        (r for r in range(n) if C.labels[(n - 1 + r) % n] != C.labels[(n - 2 + r) % n]),
        None,
    )
    if rot is None:
        raise NotApplicable("no rotation separates the two label values")
    order, labels = _rotated(C, rot)
    m1 = labels[n - 1]
    splines: list[Vec] = [(1,) * n]
    for i in range(1, n - 1):
        li = labels[i - 1]
        z = li if li == m1 else 0
        by_pos = [0] * n
        for pos in range(i, n - 1):
            by_pos[pos] = li
        by_pos[n - 1] = z
        splines.append(_to_graph_indexing(by_pos, order, n))
    return GeneratingSet(
        tuple(splines), minimum=False, provenance="two-label", rotation=rot
    )


def coprime_order_classes(m: int, m1: int, m2: int) -> tuple[int, int]:
    """Coprime pair (f1, f2) with f1*f2 = m such that constant labelings with
    value m1 have order dividing f2 and value m2 order dividing f1.

    Each prime of m where m1 falls short of full multiplicity must go to f2
    (and symmetrically); lcm(m1, m2) = m guarantees no prime is claimed twice.
    """
    if lcm(m1, m2) != m:
        raise InternalInconsistency(f"lcm({m1}, {m2}) != {m}")
    f2 = 1
    for p, k in factorize(m).pairs:
        if m1 % p**k:
            f2 *= p**k
    return m // f2, f2


def leading_index(vec: Vec) -> int:
    """Index of the first nonzero entry (the leading vertex), len(vec) if none."""
    return next((i for i, x in enumerate(vec) if x), len(vec))


def mgs_merge(B: GeneratingSet, m: int, factors: tuple[int, ...]) -> GeneratingSet:
    """Merge a constant flow-up generating set into a minimum one.

    Non-trivial members are grouped by the factor their additive order
    divides (factors must be pairwise coprime); each group is sorted by
    leading vertex, latest first, and the j-th members of all groups are
    summed mod m, so a member left over is its own sum.
    """
    for i, fi in enumerate(factors):
        for fj in factors[i + 1 :]:
            if gcd(fi, fj) != 1:
                raise InternalInconsistency(f"factors {factors} are not pairwise coprime")
    if not B.splines or B.splines[0] != (1,) * len(B.splines[0]):
        raise InternalInconsistency("generating set must start with the trivial spline")
    groups: dict[int, list[Vec]] = {f: [] for f in factors}
    for vec in B.splines[1:]:
        nonzero = {x for x in vec if x}
        if len(nonzero) != 1:
            raise InternalInconsistency(f"{vec} is not a constant flow-up labeling")
        order = additive_order(vec, m)
        home = [f for f in factors if f % order == 0]
        if not home:
            raise InternalInconsistency(
                f"order {order} of {vec} divides none of the factors {factors}"
            )
        groups[home[0]].append(vec)
    for f in groups:
        groups[f].sort(key=leading_index, reverse=True)
    width = max((len(g) for g in groups.values()), default=0)
    merged: list[Vec] = [B.splines[0]]
    for j in range(width):
        members = [groups[f][j] for f in factors if j < len(groups[f])]
        merged.append(tuple(sum(column) % m for column in zip(*members)))
    return GeneratingSet(
        tuple(merged),
        minimum=True,
        provenance=f"merged({B.provenance})",
        rotation=B.rotation,
    )


def closed_form(C: CycleInstance) -> GeneratingSet | None:
    """Minimum generating set from the first closed form that applies to C.

    Tries the single-label form, then the power family, then the two-label
    form merged into a minimum set; a form that does not apply raises
    NotApplicable, and None means none applies.  The set it returns is
    checked against every edge condition of C's graph.  A vector that
    fails one raises InternalInconsistency, and so does a broken contract
    of the merge: each is a wrong construction, not a form that does not
    apply, so no other form is tried.
    """
    forms = (
        lambda: single_label_mgs(C.graph),
        lambda: power_label_cycle_gens(C),
        lambda: mgs_merge(
            two_label_cycle_gens(C),  # first: it raises unless there are two labels
            C.modulus,
            coprime_order_classes(C.modulus, *sorted(set(C.labels), reverse=True)),
        ),
    )
    for build in forms:
        try:
            gens = build()
        except NotApplicable:
            continue
        rows = tuple(zip(*gens.splines))
        check_splines(C.graph, rows, f"{gens.provenance} closed-form vector")
        return gens
    return None
