"""Prime-power decomposition of a spline module and its recombination.

A mod-m problem splits along the prime powers of m: reduce every edge label
mod q = p**k, solve each reduced graph, then glue the per-component answers
back together with the Chinese Remainder Theorem.  The gluing uses the CRT
idempotents: for each q the unique e_q in [0, m) with e_q = 1 mod q and
e_q = 0 mod m/q.  A vector whose reductions mod each q are g_q is then
sum_q e_q * g_q mod m, summed over the nonzero entries of each g_q alone
and reduced once.  The glued factors must equal what the direct lattice
computation produces; both paths are exercised against each other in the
tests and by the CLI cross-check.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import compress, count
from math import prod

from .arith import crt_combine, factorize
from .engine import IntVectors, SplineModule, _vertex_major, invariant_factors
from .errors import InternalInconsistency, NonCoprimeModuli, SplineError
from .graph import EdgeLabeledGraph


@dataclass(frozen=True)
class ComponentSolution:
    prime_power: int
    graph: EdgeLabeledGraph  # labels reduced mod the prime power, not normalized
    module: SplineModule


@dataclass(frozen=True)
class Decomposition:
    components: tuple[ComponentSolution, ...]
    recombined: SplineModule


def reduce_graph(G: EdgeLabeledGraph, d: int) -> EdgeLabeledGraph:
    """Same graph with labels and modulus reduced mod a divisor d of m."""
    if d < 1 or (G.modulus and G.modulus % d != 0):
        raise SplineError(f"{d} does not divide the modulus {G.modulus}")
    return EdgeLabeledGraph(
        d, G.vertices, tuple((u, v, label % d) for u, v, label in G.edges)
    )


def decompose(G: EdgeLabeledGraph) -> Decomposition:
    """Solve one component per prime power of m and recombine."""
    m = G.modulus
    if m < 2:
        raise SplineError(f"decomposition needs modulus >= 2, got {m}")
    components = []
    for q in factorize(m).prime_powers():
        reduced = reduce_graph(G, q)
        components.append(ComponentSolution(q, reduced, invariant_factors(reduced)))
    return Decomposition(tuple(components), recombine(components, G))


def recombine(components: list[ComponentSolution], G: EdgeLabeledGraph) -> SplineModule:
    """Glue component generating sets into a mod-m minimum generating set.

    Each component's generators are sorted by descending order, and the j-th
    glued generator is sum_q e_q * g_q mod m over the components' j-th
    generators g_q, where e_q is the CRT idempotent of q (1 mod q, 0 mod
    m/q).  Entry by entry this is the unique residue in [0, m) that reduces
    to g_q mod every q.  Each g_q adds e_q times its nonzero entries, and
    only those, into a running total held as a dict of its nonzeros, and
    only those entries are reduced mod m; a Z/p component's generators are
    indicators of disjoint merge classes, so its n' generators hold n
    nonzeros in all.  A component with fewer generators contributes the
    zero labeling to the missing slots, so the j-th glued generator
    accumulates the j-th largest order from every component and the glued
    orders form the invariant-factor chain.  ``engine._vertex_major`` makes
    the glued vectors dense ``IntVectors``, checked to hold plain ints and
    checked as one vertex-major block, every vector against every edge
    condition of G, in a single ``check_splines`` call; the first failing
    vector, largest order first, is named.

    The glued module fills in only what gluing computes: its factors and
    generators.  No Smith form is taken, so its ``raw_diagonal`` is its
    factors, and no flow-up set is glued, so ``flow_up`` stays empty.
    """
    m = G.modulus
    moduli = [comp.prime_power for comp in components]
    if not components or prod(moduli) != m:
        raise InternalInconsistency("components do not cover the modulus")
    try:
        # crt_combine checks that the prime powers are pairwise coprime
        idempotents = [
            crt_combine([(int(q == r), r) for r in moduli]) for q in moduli
        ]
    except NonCoprimeModuli as exc:
        raise InternalInconsistency(f"component moduli {moduli}: {exc}") from None
    # (order, generator) lists, largest order first; mgs is stored ascending.
    stacks = [
        list(zip(comp.module.invariant_factors, comp.module.mgs))[::-1]
        for comp in components
    ]
    orders = []
    vectors = []
    for j in range(max(map(len, stacks))):
        order = 1
        total: defaultdict[int, int] = defaultdict(int)
        for e, stack in zip(idempotents, stacks):
            if j < len(stack):
                factor, gen = stack[j]
                order *= factor
                for i, x in zip(compress(count(), gen), filter(None, gen)):
                    total[i] += e * x
        orders.append(order)
        vectors.append({i: z for i, x in total.items() if (z := x % m)})
    glued = _vertex_major(G, G.n, vectors, "recombined vector")
    factors = tuple(orders[::-1])  # ascending
    for a, b in zip(factors, factors[1:]):
        if b % a != 0:
            raise InternalInconsistency(
                f"recombined orders {factors} do not form a divisibility chain"
            )
    return SplineModule(m, factors, IntVectors(glued[::-1]), raw_diagonal=factors)
