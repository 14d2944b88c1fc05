"""Build edge-labeled graphs with a prescribed spline-module rank.

Growing a graph one vertex at a time either raises the rank by one (attach
with edges all labeled n1, leaving room for a new generator supported on the
new vertex) or preserves it (one attaching edge labeled n2 coprime to n1, so
nothing new is supported there).  Starting bases: a single n1-edge for rank
2, and two rank-1 seeds, a triangle whose labels pair up three coprime
blocks of m, or the complete graph K4 with two spanning trees labeled by a
coprime split of m.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import Factorization, factorize
from .errors import InfeasibleParameters, InvalidModulus
from .graph import EdgeLabeledGraph


@dataclass(frozen=True)
class BuildStep:
    vertex: str
    edges: tuple[tuple[str, str, int], ...]
    kind: str  # "base", "rank-up", "rank-keep"


@dataclass(frozen=True)
class ConstructionRecipe:
    coprime_split: tuple[int, ...]
    steps: tuple[BuildStep, ...]


def _factor_modulus(m: int) -> Factorization:
    if m < 1:
        raise InvalidModulus(f"modulus {m} is not a positive integer")
    return factorize(m)


def _coprime_split(m: int) -> tuple[int, int]:
    """Deterministic coprime pair (n1, n2), n1*n2 = m, n1 the least prime power."""
    fac = _factor_modulus(m)
    if len(fac.pairs) < 2:
        raise InfeasibleParameters(
            f"modulus {m} is a prime power; a coprime split needs two distinct primes"
        )
    p, k = fac.pairs[0]
    n1 = p**k
    return n1, m // n1


def _vertex_names(n: int) -> list[str]:
    return [f"v{i}" for i in range(1, n + 1)]


def _named(names: list[str], edges) -> tuple[tuple[str, str, int], ...]:
    return tuple((names[u], names[v], label) for u, v, label in edges)


def build_rank_k(n: int, m: int, k: int) -> tuple[EdgeLabeledGraph, ConstructionRecipe]:
    """Graph on n vertices whose spline module has rank k (2 <= k <= n).

    Starts from a single edge labeled n1 and adds vertices attached to the
    two most recent ones: rank-raising steps label both new edges n1,
    rank-preserving steps label the edge to the newest neighbor n2.
    """
    if n < 2:
        raise InfeasibleParameters(f"need at least 2 vertices, got {n}")
    if not 2 <= k <= n:
        raise InfeasibleParameters(f"rank {k} is outside 2..{n}")
    n1, n2 = _coprime_split(m)
    names = _vertex_names(n)
    edges: list[tuple[int, int, int]] = [(0, 1, n1)]
    steps = [BuildStep(names[1], _named(names, edges), "base")]
    raising = k - 2
    for i in range(2, n):
        a, b = i - 1, i - 2
        if raising > 0:
            new = [(a, i, n1), (b, i, n1)]
            kind = "rank-up"
            raising -= 1
        else:
            new = [(a, i, n2), (b, i, n1)]
            kind = "rank-keep"
        edges.extend(new)
        steps.append(BuildStep(names[i], _named(names, new), kind))
    graph = EdgeLabeledGraph(m, tuple(names), tuple(edges))
    return graph, ConstructionRecipe((n1, n2), tuple(steps))


def _k4_base(n1: int, n2: int) -> list[tuple[int, int, int]]:
    # Two edge-disjoint spanning trees of K4: reducing mod either coprime
    # block zeroes one tree and turns the other into units, collapsing all
    # four vertices, so only trivial labelings survive.
    return [
        (3, 2, n1),
        (2, 0, n1),
        (0, 1, n1),
        (0, 3, n2),
        (3, 1, n2),
        (1, 2, n2),
    ]


def build_rank_1(n: int, m: int) -> tuple[EdgeLabeledGraph, ConstructionRecipe]:
    """Graph on n vertices carrying only the trivial splines.

    n = 3 needs three distinct primes in m (triangle base); n >= 4 needs two
    (K4 base).  Each growth vertex attaches with one n1-edge and one n2-edge,
    so nothing is supported on it alone.
    """
    fac = _factor_modulus(m)
    distinct = len(fac.pairs)
    if n == 3:
        if distinct < 3:
            raise InfeasibleParameters(
                f"a 3-vertex rank-1 graph needs three distinct primes in {m}"
            )
    elif n >= 4:
        if distinct < 2:
            raise InfeasibleParameters(
                f"modulus {m} is a prime power; rank 1 needs two distinct primes"
            )
    else:
        raise InfeasibleParameters(f"rank 1 needs at least 3 vertices, got {n}")
    n1, n2 = _coprime_split(m)
    names = _vertex_names(n)
    base_n = 3 if n == 3 else 4
    if base_n == 3:
        q1 = fac.pairs[0][0] ** fac.pairs[0][1]
        q2 = fac.pairs[1][0] ** fac.pairs[1][1]
        a1, a2, a3 = q1, q2, m // (q1 * q2)
        edges = [(0, 1, a1 * a2 % m), (1, 2, a2 * a3 % m), (2, 0, a3 * a1 % m)]
    else:
        edges = _k4_base(n1, n2)
    steps = [BuildStep(names[base_n - 1], _named(names, edges), "base")]
    for i in range(base_n, n):
        new = [(i - 1, i, n1), (i - 2, i, n2)]
        edges.extend(new)
        steps.append(BuildStep(names[i], _named(names, new), "rank-keep"))
    graph = EdgeLabeledGraph(m, tuple(names), tuple(edges))
    return graph, ConstructionRecipe((n1, n2), tuple(steps))
