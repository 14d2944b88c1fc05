"""The lemmas of THEORY.md, each checked on seeded random graphs against a
reference that shares no code with the computation it checks."""

import random

from splinemod.arith import coprime_base, is_prime
from splinemod.engine import integer_lattice
from splinemod.graph import EdgeLabeledGraph, normalize
from support import reference_flow_up

# (modulus, label pool).  Every pool holds a zero label or, mod m, a label
# that is a multiple of m, and most hold a unit; a graph draws with
# repetition.  The pools whose moduli are powers of one composite number
# (36 = 6^2, 216 = 6^3, 100 = 10^2) give a coprime base with a composite
# element, which no factoring would produce.
POOLS = [
    (2, range(4)),
    (12, range(12)),
    (36, range(36)),
    (64, range(64)),
    (72, range(72)),
    (900, range(900)),
    (26620, [0, 1, 220, 2662, 26620, 1210, 110]),
    (30030, range(30030)),
    (36, [0, 1, 5, 6, 30]),
    (216, [0, 1, 6, 36, 42, 216]),
    (100, [0, 3, 10, 30, 70]),
    (0, range(5)),
    (0, range(30)),
    (0, range(200)),
    (0, range(5000)),
    (0, [0, 1, 6, 36, 216]),
    (0, [0, 1, 10, 100, 1000]),
]


def random_graph(rng: random.Random, m: int, labels) -> EdgeLabeledGraph:
    """1 to 12 vertices and up to twice as many edges, parallel ones
    included, labels drawn from the pool."""
    n = rng.randint(1, 12)
    edges = []
    for _ in range(rng.randint(0, 2 * n) if n > 1 else 0):
        u, v = rng.sample(range(n), 2)
        edges.append((u, v, rng.choice(labels)))
    return EdgeLabeledGraph(m, tuple(f"v{i}" for i in range(n)), tuple(edges))


class TestAnchorBasis:
    """Lemma 1: one Kruskal pass per coprime part gives the flow-up basis."""

    def test_matches_the_dual_lattice_reference(self):
        rng = random.Random(26)
        composite = integer_mode = 0
        for t in range(3400):
            m, labels = POOLS[t % len(POOLS)]
            G = normalize(random_graph(rng, m, labels))[0]
            assert integer_lattice(G) == reference_flow_up(G), G
            moduli = {g for _, _, g in G.conditions}
            base = coprime_base(moduli | {m or 1})
            composite += any(not is_prime(b) for b in base)
            integer_mode += m == 0 and bool(moduli)
        assert composite > 1000 and integer_mode > 600

    def test_pivots_are_the_widest_bottlenecks(self):
        # mod 36 = 2^2 * 3^2, edges ab 6, bc 18, cd 12 and ad 4.  Vertex c
        # reaches an earlier vertex at 2^2 only through the later d (c-d-a),
        # and at 3^2 only through b, so its pivot is 36 and its two parts
        # have different anchors, a and b; in column b its entry is the x
        # with x = 0 (mod 4), from a, and x = 6 (mod 9), from b: 24.
        G = EdgeLabeledGraph(
            36, ("a", "b", "c", "d"), ((0, 1, 6), (1, 2, 18), (2, 3, 12), (0, 3, 4))
        )
        gnorm = normalize(G)[0]
        B = integer_lattice(gnorm)
        assert B.columns() == [(1, 1, 1, 1), (0, 6, 24, 0), (0, 0, 36, 0), (0, 0, 0, 12)]
        assert B == reference_flow_up(gnorm)
