"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every expected value is exact; tolerances are equality.  Criterion 10
audits every instance the earlier criteria touched, so the module is meant
to run as a whole (test order within the file is the criterion order).
"""

import random
from contextlib import contextmanager

from splinemod.construct import build_rank_1, build_rank_k
from splinemod.cycles import cycle_instance, power_label_cycle_gens, single_label_mgs
from splinemod.decompose import decompose
from splinemod.engine import extension_analysis, invariant_factors
from splinemod.graph import EdgeLabeledGraph, spline_check
from splinemod.arith import additive_order, crt_combine
from splinemod.oracle import (
    enumerate_splines,
    fingerprint,
    span,
    span_equals,
)
from support import random_connected_graph, random_cycle

# Instances touched by criteria 1-9, audited again by criterion 10.
_SEEN: list[tuple[EdgeLabeledGraph, tuple[int, ...]]] = []


def _record(G: EdgeLabeledGraph, factors: tuple[int, ...]):
    _SEEN.append((G, factors))


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL  {title}")
        raise
    print(f"ACCEPTANCE {number:2d} PASS  {title}")


C21 = EdgeLabeledGraph(
    21,
    tuple(f"v{i}" for i in range(1, 7)),
    ((0, 1, 3), (1, 2, 3), (2, 3, 7), (3, 4, 7), (4, 5, 3), (5, 0, 7)),
)
TRI36 = EdgeLabeledGraph(36, ("v1", "v2", "v3"), ((0, 1, 30), (0, 2, 18), (1, 2, 12)))
Z6_PATH = EdgeLabeledGraph(6, ("v1", "v2", "v3"), ((0, 1, 2), (0, 2, 3)))
C3_MOD30 = EdgeLabeledGraph(30, ("v1", "v2", "v3"), ((0, 1, 6), (1, 2, 15), (2, 0, 10)))
K4_PQ = EdgeLabeledGraph(
    6,
    ("x1", "x2", "x3", "x4"),
    ((3, 2, 2), (2, 0, 2), (0, 1, 2), (0, 3, 3), (3, 1, 3), (1, 2, 3)),
)


def test_criterion_1_six_cycle_mod21():
    with criterion(1, "Z/21 six-cycle: rank 3, factors (21,21,21), known set spans"):
        mod = invariant_factors(C21)
        assert mod.rank == 3
        assert mod.invariant_factors == (21, 21, 21)
        # the known minimum set, given as column vectors with the last vertex
        # topmost; reversed here into vertex order (v1 first)
        known = [
            (1, 1, 1, 1, 1, 1),
            tuple(reversed((7, 10, 10, 3, 3, 0))),
            tuple(reversed((7, 10, 3, 3, 0, 0))),
        ]
        for vec in known:
            assert spline_check(C21, vec)
        # 21**6 exceeds the default enumeration budget, so the span check runs
        # as: closure has exactly 21**3 members, every member is a spline, and
        # 10**4 random vectors are splines iff they lie in the closure.
        closure = span(known, 21, 6)
        assert len(closure) == 21**3 == 9261
        for vec in closure:
            assert spline_check(C21, vec)
        rng = random.Random(2101)
        for _ in range(10**4):
            vec = tuple(rng.randrange(21) for _ in range(6))
            assert spline_check(C21, vec) == (vec in closure)
        _record(C21, mod.invariant_factors)


def test_criterion_2_mod36_triangle():
    with criterion(2, "mod-36 triangle: factors (6,36), CRT components and gluing"):
        mod = invariant_factors(TRI36)
        assert mod.invariant_factors == (6, 36)
        assert additive_order((18, 12, 0), 36) == 6
        assert spline_check(TRI36, (18, 12, 0))

        dec = decompose(TRI36)
        by_q = {c.prime_power: c for c in dec.components}
        assert sorted(l for _, _, l in by_q[4].graph.edges) == [0, 2, 2]
        assert sorted(l for _, _, l in by_q[9].graph.edges) == [0, 3, 3]
        assert len(by_q[4].module.mgs) == 2
        assert len(by_q[9].module.mgs) == 2
        assert dec.recombined.invariant_factors == (6, 36)

        # entrywise gluing of the published component generators
        assert crt_combine([(2, 4), (0, 9)]) == 18
        assert crt_combine([(0, 4), (3, 9)]) == 12
        assert crt_combine([(0, 4), (0, 9)]) == 0
        _record(TRI36, mod.invariant_factors)


def test_criterion_3_z6_path():
    with criterion(3, "Z/6 path: flow-up set, 3*(0,2,3) = (0,0,3), order 36, rank 2"):
        mod = invariant_factors(Z6_PATH)
        splines = enumerate_splines(Z6_PATH)
        assert len(splines) == 36 == mod.order
        assert mod.rank == 2
        assert span_equals(list(mod.flow_up), splines, 6)
        assert span_equals([(1, 1, 1), (0, 2, 3), (0, 0, 3)], splines, 6)
        assert tuple(3 * x % 6 for x in (0, 2, 3)) == (0, 0, 3)
        _record(Z6_PATH, mod.invariant_factors)


def test_criterion_4_c3_mod30():
    with criterion(4, "C3 mod 30 labels (6,15,10): 30 splines, all trivial, rank 1"):
        mod = invariant_factors(C3_MOD30)
        splines = enumerate_splines(C3_MOD30)
        assert len(splines) == 30
        assert set(splines) == {tuple((x,) * 3) for x in range(30)}
        assert mod.rank == 1
        _record(C3_MOD30, mod.invariant_factors)


def test_criterion_5_k4_mod6():
    with criterion(5, "K4 mod 6 with 2/3 labeling: rank 1, only trivial splines"):
        mod = invariant_factors(K4_PQ)
        splines = enumerate_splines(K4_PQ)  # out of 1296 candidate labelings
        assert mod.rank == 1
        assert set(splines) == {tuple((x,) * 4) for x in range(6)}
        _record(K4_PQ, mod.invariant_factors)


def test_criterion_6_rank_sweep():
    with criterion(6, "rank sweep: every k in 2..n at m=6, and rank-1 family"):
        for n in range(2, 7):
            for k in range(2, n + 1):
                G, _ = build_rank_k(n, 6, k)
                mod = invariant_factors(G)
                assert mod.rank == k, (n, k, mod.invariant_factors)
                _record(G, mod.invariant_factors)
        for n, m in ((3, 30), (4, 6), (5, 6), (6, 6)):
            G, _ = build_rank_1(n, m)
            mod = invariant_factors(G)
            assert mod.rank == 1, (n, m, mod.invariant_factors)
            _record(G, mod.invariant_factors)


def test_criterion_7_two_path_agreement_suite():
    with criterion(7, "200 random instances: direct = CRT = oracle factors"):
        rng = random.Random(7001)
        enumerated = 0
        for _ in range(200):
            m = rng.choice([6, 12, 30, 36, 60])
            n = rng.randrange(2, 5)
            G = random_connected_graph(rng, n, m, extra_edges=rng.randrange(3))
            direct = invariant_factors(G)
            dec = decompose(G)
            assert direct.invariant_factors == dec.recombined.invariant_factors, G
            if m**n <= 10**7:
                splines = enumerate_splines(G)
                fp = fingerprint(splines, m)
                assert fp.invariant_factors == direct.invariant_factors, G
                enumerated += 1
            _record(G, direct.invariant_factors)
        assert enumerated > 100  # most draws stay inside the budget


def test_criterion_8_extension_suite():
    with criterion(8, "100 random extensions: |ker| = m / gcd(N, m) by brute force"):
        rng = random.Random(8001)
        for _ in range(100):
            m = rng.randrange(2, 31)
            base_n = rng.randrange(1, 4)
            if base_n == 1:
                base = EdgeLabeledGraph(m, ("v1",), ())
            else:
                base = random_connected_graph(
                    rng, base_n, m, extra_edges=1, labels=list(range(m))
                )
            degree = rng.randrange(1, base_n + 1)
            neighbors = rng.sample(range(base_n), degree)
            extra = tuple(
                (u, base_n, rng.randrange(m)) for u in neighbors
            )
            ext = EdgeLabeledGraph(m, base.vertices + ("w",), base.edges + extra)
            analysis = extension_analysis(base, ext, "w")
            kernel = [
                f
                for f in enumerate_splines(ext)
                if all(x == 0 for x in f[:base_n])
            ]
            assert len(kernel) == analysis.kernel_order, (base, ext)
            mod = invariant_factors(ext)
            _record(ext, mod.invariant_factors)


def test_criterion_9_cycle_closed_forms():
    with criterion(9, "cycle closed forms span; single-label sets have size n"):
        rng = random.Random(9001)
        for m, p in ((8, 2), (9, 3), (27, 3)):
            powers = [p**k % m for k in range(1, 5) if p**k % m not in (0, 1)]
            for n in range(3, 7):
                G = random_cycle(rng, n, m, powers)
                gens = power_label_cycle_gens(cycle_instance(G))
                budget = m**n
                splines = enumerate_splines(G, budget)
                assert span_equals(list(gens.splines), splines, m, budget)
                mod = invariant_factors(G)
                _record(G, mod.invariant_factors)

                single = EdgeLabeledGraph(
                    m, G.vertices, tuple((u, v, p) for u, v, _ in G.edges)
                )
                gs = single_label_mgs(single)
                smod = invariant_factors(single)
                assert len(gs.splines) == n == smod.rank
                _record(single, smod.invariant_factors)


def test_criterion_10_rank_bound_and_largest_factor():
    with criterion(10, "audit: rank <= n and largest factor = m on every instance"):
        assert len(_SEEN) > 300, "run the full acceptance module, not a subset"
        for G, factors in _SEEN:
            assert len(factors) <= G.n
            if G.modulus > 1:
                assert factors[-1] == G.modulus
