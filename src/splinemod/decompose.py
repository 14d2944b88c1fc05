"""Prime-power decomposition of a spline module and its recombination.

A mod-m problem splits along the prime powers of m: reduce every edge label
mod q = p**k, solve each reduced graph, then glue the per-component answers
back together entrywise with the Chinese Remainder Theorem.  The glued
factors must equal what the direct lattice computation produces; both paths
are exercised against each other in the tests and by the CLI cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .arith import crt_combine, factorize
from .engine import SplineModule, invariant_factors
from .errors import InternalInconsistency, InvalidModulus, NotADivisor
from .graph import EdgeLabeledGraph, spline_check


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
        raise NotADivisor(f"{d} does not divide the modulus {G.modulus}")
    return EdgeLabeledGraph(
        d, G.vertices, tuple((u, v, label % d) for u, v, label in G.edges)
    )


def decompose(G: EdgeLabeledGraph) -> Decomposition:
    """Solve one component per prime power of m and recombine."""
    m = G.modulus
    if m < 2:
        raise InvalidModulus(f"decomposition needs modulus >= 2, got {m}")
    components = []
    for q in factorize(m).prime_powers():
        reduced = reduce_graph(G, q)
        components.append(ComponentSolution(q, reduced, invariant_factors(reduced)))
    return Decomposition(tuple(components), recombine(components, G))


def recombine(components: list[ComponentSolution], G: EdgeLabeledGraph) -> SplineModule:
    """Glue component generating sets into a mod-m minimum generating set.

    Each component's generators are sorted by descending order and the j-th
    ones are CRT-combined entrywise, so the j-th glued generator accumulates
    the j-th largest order from every component; missing slots contribute the
    zero labeling.  The glued orders then form the invariant-factor chain.
    """
    m = G.modulus
    if prod(comp.prime_power for comp in components) != m:
        raise InternalInconsistency("components do not cover the modulus")
    n = G.n
    zero = (0,) * n
    # (order, generator) lists, largest order first; mgs is stored ascending.
    stacks = [
        list(zip(comp.module.invariant_factors, comp.module.mgs))[::-1]
        for comp in components
    ]
    width = max(len(s) for s in stacks)
    glued: list[tuple[int, tuple[int, ...]]] = []
    for j in range(width):
        vec = []
        for i in range(n):
            residues = []
            for comp, stack in zip(components, stacks):
                gen = stack[j][1] if j < len(stack) else zero
                residues.append((gen[i], comp.prime_power))
            vec.append(crt_combine(residues))
        order = prod(stack[j][0] for stack in stacks if j < len(stack))
        vec_t = tuple(vec)
        if not spline_check(G, vec_t):
            raise InternalInconsistency(
                f"recombined vector {vec_t} fails an edge condition"
            )
        glued.append((order, vec_t))
    glued.reverse()  # ascending orders
    factors = tuple(order for order, _ in glued)
    for a, b in zip(factors, factors[1:]):
        if b % a != 0:
            raise InternalInconsistency(
                f"recombined orders {factors} do not form a divisibility chain"
            )
    return SplineModule(
        modulus=m,
        invariant_factors=factors,
        mgs=tuple(vec for _, vec in glued),
        flow_up=(),
        raw_diagonal=factors,
    )
