"""Metamorphic checks of the CRT path: changes to a graph that leave its
spline module alone must leave the computed module alone, and the module's
shape follows from the graph's own structure.  They need no oracle, so they
reach graphs past the brute-force budget."""

import random
from collections import Counter
from math import gcd

import pytest

from splinemod.arith import factorize
from splinemod.decompose import decompose
from splinemod.engine import extension_analysis, invariant_factors
from splinemod.graph import EdgeLabeledGraph
from support import random_connected_graph

# two to six prime powers each
MODULI = (12, 30, 36, 60, 180, 210, 360, 420, 1260, 2310, 2520, 30030)
CASES = 48


def seeded_graphs(seed: int):
    rng = random.Random(seed)
    for i in range(CASES):
        m = MODULI[i % len(MODULI)]
        n = rng.randrange(3, 25)
        G = random_connected_graph(
            rng, n, m, extra_edges=rng.randrange(n), labels=list(range(m))
        )
        yield rng, G


def unit(rng: random.Random, m: int) -> int:
    while True:
        u = rng.randrange(2, 3 * m)
        if gcd(u, m) == 1:
            return u


def crt_factors(G: EdgeLabeledGraph) -> tuple[int, ...]:
    return decompose(G).recombined.invariant_factors


def test_crt_equals_direct():
    for _, G in seeded_graphs(61):
        assert crt_factors(G) == invariant_factors(G).invariant_factors


def test_vertex_order_permutation():
    for rng, G in seeded_graphs(67):
        order = list(G.vertices)
        rng.shuffle(order)
        assert crt_factors(G.with_vertex_order(order)) == crt_factors(G)


@pytest.mark.parametrize("how", ["label-times-unit", "extra-unit-edge"])
def test_module_preserving_edits(how):
    for rng, G in seeded_graphs(71 if how == "label-times-unit" else 73):
        m = G.modulus
        edges = list(G.edges)
        if how == "label-times-unit":
            i = rng.randrange(len(edges))
            u, v, label = edges[i]
            edges[i] = (u, v, label * unit(rng, m))
        else:
            u, v = rng.sample(range(G.n), 2)
            edges.insert(rng.randrange(len(edges) + 1), (u, v, unit(rng, m)))
        H = EdgeLabeledGraph(m, G.vertices, tuple(edges))
        # the same ideals on the same edges: the same module, vector for vector
        assert decompose(H).recombined == decompose(G).recombined


def elementary_divisors(factors) -> list[int]:
    return sorted(q for d in factors for q in factorize(d).prime_powers())


def test_disjoint_union_unions_elementary_divisors():
    for rng, G in seeded_graphs(79):
        m, n = G.modulus, G.n
        H = random_connected_graph(
            rng, rng.randrange(2, 13), m, extra_edges=rng.randrange(4),
            labels=list(range(m)),
        )
        union = EdgeLabeledGraph(
            m,
            G.vertices + tuple(f"w{i}" for i in range(H.n)),
            G.edges + tuple((u + n, v + n, label) for u, v, label in H.edges),
        )
        assert elementary_divisors(crt_factors(union)) == sorted(
            elementary_divisors(crt_factors(G)) + elementary_divisors(crt_factors(H))
        )


def test_extension_order_is_kernel_times_image():
    # The restriction R_{G+} -> R_G has a kernel of order kernel_order, so
    # |R_{G+}| = kernel_order * |image|, and the image is all of R_G exactly
    # when the restriction is onto.  Labels on the new vertex's edges are
    # divisors of m, so both outcomes occur.
    outcomes = Counter()
    for rng, G in seeded_graphs(89):
        m, n = G.modulus, G.n
        divisors = [d for d in range(2, m) if m % d == 0]
        extra = tuple(
            (v, n, rng.choice(divisors))
            for v in rng.sample(range(n), rng.randrange(1, min(n, 4) + 1))
        )
        ext = EdgeLabeledGraph(m, G.vertices + ("new",), G.edges + extra)
        analysis = extension_analysis(G, ext, "new")
        ext_order = invariant_factors(ext).order
        lifted = analysis.kernel_order * invariant_factors(G).order
        if analysis.pi_surjective:
            assert ext_order == lifted
        else:
            assert ext_order < lifted
        outcomes[analysis.pi_surjective] += 1
    assert min(outcomes[True], outcomes[False]) >= 3
