"""The lemmas of THEORY.md, each checked on seeded random graphs against a
reference that shares no code with the computation it checks."""

import random
from collections import defaultdict
from itertools import product
from math import gcd

from splinemod.arith import coprime_base, factorize, is_prime
from splinemod.engine import forest_rank, integer_lattice, invariant_factors
from splinemod.graph import EdgeLabeledGraph, normalize
from support import random_connected_graph, reference_flow_up

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


# (modulus, label pool) for lemma 2: m = 1, prime powers, squarefree and
# mixed moduli.  Every pool but m = 1's holds a zero label (0 or m) and a
# unit; 26620 = 2^2 * 5 * 11^3 and 2^4 * 3^4 have prime powers whose
# subgraphs differ.
RANK_POOLS = [
    (1, range(3)),
    (2, range(4)),
    (8, range(9)),
    (27, range(28)),
    (64, range(65)),
    (30, range(31)),
    (210, range(211)),
    (2310, [0, 1, 2, 3, 5, 7, 11, 6, 10, 15, 35, 77, 210, 2310]),
    (12, range(13)),
    (72, range(73)),
    (360, range(361)),
    (1296, [0, 1, 2, 16, 81, 48, 54, 432, 1296, 5]),
    (26620, [0, 1, 220, 2662, 26620, 1210, 110, 484, 2420]),
]


def component_count(n: int, pairs) -> int:
    """Components of the graph on 0..n-1 with edges ``pairs``, by
    relabeling: each pair gives one side's label to the other's class."""
    label = list(range(n))
    for u, v in pairs:
        a, b = label[u], label[v]
        if a != b:
            label = [a if x == b else x for x in label]
    return len(set(label))


class TestRankFormula:
    """Lemma 2: the rank is the most components of any H_q."""

    def test_matches_the_smith_rank(self):
        rng = random.Random(28)
        small = [random_graph(rng, *RANK_POOLS[t % len(RANK_POOLS)]) for t in range(3000)]
        # and connected graphs of 3 to 24 vertices over two to six primes
        larger = []
        for t in range(48):
            m = (12, 30, 36, 60, 180, 210, 360, 420, 1260, 2310, 2520, 30030)[t % 12]
            n = rng.randrange(3, 25)
            larger.append(random_connected_graph(rng, n, m, rng.randrange(n), list(range(m))))
        disconnected = parallel = 0
        for G in small + larger:
            m = G.modulus
            expected = max(
                (
                    component_count(G.n, [(u, v) for u, v, l in G.edges if l % q == 0])
                    for q in factorize(m).prime_powers()
                ),
                default=0,
            )
            assert forest_rank(G) == expected == invariant_factors(G).rank, G
            disconnected += component_count(G.n, [(u, v) for u, v, _ in G.edges]) > 1
            parallel += len({(min(u, v), max(u, v)) for u, v, _ in G.edges}) < len(G.edges)
        assert disconnected > 1000 and parallel > 500


def desk_graph(rng: random.Random) -> EdgeLabeledGraph:
    """1 to 8 vertices with m**n at most 5,000 and up to twice as many
    edges, parallel ones included; labels are zero, units or any residue."""
    n = rng.randint(1, 8)
    m = rng.choice([m for m in range(1, 61) if m**n <= 5 * 10**3])
    edges = []
    for _ in range(rng.randint(0, 2 * n) if n > 1 else 0):
        u, v = rng.sample(range(n), 2)
        edges.append((u, v, rng.choice((0, 1, m - 1, rng.randrange(m + 3)))))
    return EdgeLabeledGraph(m, tuple(f"v{i}" for i in range(n)), tuple(edges))


class TestSplitSearch:
    """Lemma 3: prefixes with one key admit the same suffixes."""

    def test_equal_keys_admit_equal_suffixes(self):
        rng = random.Random(29)
        parallel = disconnected = zero = unit = shared = 0
        for _ in range(1200):
            G = desk_graph(rng)
            m, n = G.modulus, G.n
            moduli = [(min(u, v), max(u, v), gcd(label, m)) for u, v, label in G.edges]
            splines = [
                f
                for f in product(range(m), repeat=n)
                if all((f[a] - f[b]) % g == 0 for a, b, g in moduli)
            ]
            for s in range(n + 1):
                tails = defaultdict(set)
                for f in splines:
                    tails[f[:s]].add(f[s:])
                crossing = [(a, g) for a, b, g in moduli if a < s <= b]
                by_key = {}
                for p, suffixes in tails.items():
                    key = tuple(p[a] % g for a, g in crossing)
                    assert by_key.setdefault(key, suffixes) == suffixes, (G, s, p)
                shared += len(by_key) < len(tails)
            parallel += len({(a, b) for a, b, _ in moduli}) < len(moduli)
            disconnected += component_count(n, [(a, b) for a, b, _ in moduli]) > 1
            zero += m > 1 and any(g == m for _, _, g in moduli)
            unit += m > 1 and any(g == 1 for _, _, g in moduli)
        assert min(parallel, disconnected, zero, unit) > 400 and shared > 1000
