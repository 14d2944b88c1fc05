import random
import sys
from collections import Counter
from itertools import product
from math import gcd, lcm

import pytest

from splinemod.arith import additive_order
from splinemod.errors import BudgetExceeded, NotAGroup
from splinemod.graph import EdgeLabeledGraph
from splinemod.oracle import enumerate_splines, fingerprint, span_equals
from support import naive_span, reference_spline_check

Z6_PATH = EdgeLabeledGraph(6, ("v1", "v2", "v3"), ((0, 1, 2), (0, 2, 3)))
C3_MOD30 = EdgeLabeledGraph(30, ("v1", "v2", "v3"), ((0, 1, 6), (1, 2, 15), (2, 0, 10)))


class TestEnumerate:
    def test_edgeless(self):
        G = EdgeLabeledGraph(2, ("a", "b"), ())
        assert enumerate_splines(G) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_z6_path_count(self):
        assert len(enumerate_splines(Z6_PATH)) == 36

    def test_result_held_only_by_the_caller(self):
        # no reference cycle keeps the list alive once the caller drops it:
        # the references are this local and getrefcount's argument
        splines = enumerate_splines(Z6_PATH)
        assert sys.getrefcount(splines) == 2

    def test_c3_mod30_is_trivial_line(self):
        splines = enumerate_splines(C3_MOD30)
        assert splines == sorted((x, x, x) for x in range(30))

    def test_lexicographic_and_matches_check(self):
        G = EdgeLabeledGraph(4, ("a", "b"), ((0, 1, 2),))
        got = enumerate_splines(G)
        expected = [v for v in product(range(4), repeat=2) if reference_spline_check(G, v)]
        assert got == expected  # same membership AND same (lex) order

    def test_budget_exceeded_reports_requirement(self):
        G = EdgeLabeledGraph(10, tuple("abcdefgh"), ())
        with pytest.raises(BudgetExceeded) as exc:
            enumerate_splines(G, budget=10**6)
        assert exc.value.required == 10**8

    def test_budget_env_override(self, monkeypatch):
        G = EdgeLabeledGraph(10, tuple("abcd"), ())
        monkeypatch.setenv("SPLINEMOD_BUDGET", "100")
        with pytest.raises(BudgetExceeded):
            enumerate_splines(G)
        monkeypatch.setenv("SPLINEMOD_BUDGET", "10000")
        assert len(enumerate_splines(G)) == 10**4

    def test_modulus_one(self):
        G = EdgeLabeledGraph(1, ("a", "b"), ((0, 1, 0),))
        assert enumerate_splines(G) == [(0, 0)]
        with pytest.raises(BudgetExceeded):  # the budget is checked first
            enumerate_splines(G, 0)

    def test_depth_is_not_bounded_by_the_stack(self):
        # 1**n passes any budget, so the search runs one level per vertex,
        # past Python's recursion limit
        n = sys.getrecursionlimit() + 100
        G = EdgeLabeledGraph(
            1, tuple(f"v{i}" for i in range(n)), tuple((i, i + 1, 1) for i in range(n - 1))
        )
        assert enumerate_splines(G) == [(0,) * n]

    def test_rejects_integer_mode(self):
        G = EdgeLabeledGraph(0, ("a", "b"), ((0, 1, 2),))
        with pytest.raises(ValueError):
            enumerate_splines(G)


class TestAdditiveOrder:
    def test_golden(self):
        assert additive_order((1, 1, 1), 21) == 21
        assert additive_order((18, 12, 0), 36) == 6
        assert additive_order((0, 0, 0), 9) == 1

    def test_matches_naive(self):
        rng = random.Random(3)
        for _ in range(50):
            m = rng.choice([6, 12, 30])
            v = tuple(rng.randrange(m) for _ in range(3))
            k = 1
            while any(k * x % m for x in v):
                k += 1
            assert additive_order(v, m) == k


class TestFingerprint:
    def test_trivial_line(self):
        line = [tuple((x,) * 3) for x in range(30)]
        fp = fingerprint(line, 30)
        assert fp.total_order == 30
        assert fp.invariant_factors == (30,)

    def test_z21_cycle(self):
        G = EdgeLabeledGraph(
            21,
            tuple(f"v{i}" for i in range(1, 7)),
            ((0, 1, 3), (1, 2, 3), (2, 3, 7), (3, 4, 7), (4, 5, 3), (5, 0, 7)),
        )
        splines = enumerate_splines(G, 21**6)
        assert span_equals([(1,) * 6, (0, 3, 3, 10, 10, 7), (0, 0, 3, 3, 10, 7)], splines, 21)
        fp = fingerprint(splines, 21)
        assert fp.invariant_factors == (21, 21, 21)
        assert fp.total_order == 21**3

    def test_mod36_triangle(self):
        G = EdgeLabeledGraph(
            36, ("v1", "v2", "v3"), ((0, 1, 30), (0, 2, 18), (1, 2, 12))
        )
        fp = fingerprint(enumerate_splines(G), 36)
        assert fp.invariant_factors == (6, 36)

    def test_census_counts(self):
        fp = fingerprint(enumerate_splines(Z6_PATH), 6)
        census = dict(fp.order_census)
        assert census[1] == 1
        assert sum(census.values()) == fp.total_order == 36

    def test_not_a_group(self):
        bad = [(0, 0), (1, 0)]  # not closed under addition mod 4
        with pytest.raises(NotAGroup):
            fingerprint(bad, 4)

    def test_missing_zero(self):
        with pytest.raises(NotAGroup):
            fingerprint([(1, 1)], 4)


class TestSpan:
    def test_z6_path_generators(self):
        splines = enumerate_splines(Z6_PATH)
        assert span_equals([(1, 1, 1), (0, 2, 3)], splines, 6)

    def test_trivial_generates_c3(self):
        assert span_equals([(1, 1, 1)], enumerate_splines(C3_MOD30), 30)

    def test_dropping_a_generator_fails(self):
        splines = enumerate_splines(Z6_PATH)
        assert not span_equals([(1, 1, 1)], splines, 6)
        assert not span_equals([(0, 2, 3)], splines, 6)

    def test_budget(self):
        gens = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        with pytest.raises(BudgetExceeded):
            span_equals(gens, naive_span(gens, 30, 3), 30, budget=100)

    def test_empty_generators(self):
        assert span_equals([], [(0, 0)], 5)
        assert not span_equals([], [(0, 0), (1, 1)], 5)

    def test_no_vertices(self):
        assert span_equals([()], [()], 5)

    def test_set_without_zero(self):
        splines = set(enumerate_splines(Z6_PATH))
        splines.discard((0, 0, 0))
        assert not span_equals([(1, 1, 1), (0, 2, 3)], splines, 6)
        assert not span_equals([], [], 6)

    def test_non_spline_before_a_spanning_set(self):
        splines = enumerate_splines(Z6_PATH)
        assert not span_equals([(0, 1, 0), (1, 1, 1), (0, 2, 3)], splines, 6)

    def test_callers_set_unchanged(self):
        splines = set(enumerate_splines(Z6_PATH))
        before = set(splines)
        assert span_equals([(1, 1, 1), (0, 2, 3)], splines, 6)
        assert splines == before
        assert not span_equals([(1, 1, 1)], splines, 6)
        assert not span_equals([(0, 1, 0)], splines, 6)
        assert splines == before

    def test_answers_false_before_the_span_passes_the_budget(self):
        # the span of (1,) mod 10**12 is far past the default budget, but
        # its first coset already holds a vector outside the set
        assert not span_equals([(1,)], [(0,)], 10**12)


# Naive references, kept here only: a filter over every labeling and the lcm
# of the entries' orders.  The breadth-first closure is ``support.naive_span``.


def naive_splines(G):
    m = G.modulus
    return [
        f
        for f in product(range(m), repeat=G.n)
        if all((f[u] - f[v]) % gcd(label, m) == 0 for u, v, label in G.edges)
    ]


def naive_order(v, m):
    order = 1
    for x in v:
        order = lcm(order, m // gcd(x, m))
    return order


def random_desk_graph(rng, limit):
    """A random graph, not always connected, with m**n at most limit; labels
    include zero and units."""
    n = rng.randint(1, 6)
    m = rng.choice([m for m in range(1, 61) if m**n <= limit])
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = rng.sample(pairs, rng.randint(0, len(pairs)))
    edges = tuple((u, v, rng.randrange(m + 3)) for u, v in chosen)
    return EdgeLabeledGraph(m, tuple(f"v{i}" for i in range(n)), edges)


class TestAgainstNaiveReferences:
    def test_enumerate_matches_filter(self):
        rng = random.Random(11)
        for _ in range(150):
            G = random_desk_graph(rng, 5 * 10**3)
            assert enumerate_splines(G) == naive_splines(G), G

    def test_span_matches_breadth_first_closure(self):
        rng = random.Random(12)
        for _ in range(150):
            G = random_desk_graph(rng, 5 * 10**3)
            m, n = G.modulus, G.n
            splines = enumerate_splines(G)
            pool = [
                rng.choice(splines),  # a spline
                (0,) * n,  # zero
                tuple(rng.randrange(-m, 2 * m) for _ in range(n)),  # any vector
            ]
            gens = [rng.choice(pool) for _ in range(rng.randint(0, 4))]
            gens += gens[: rng.randint(0, len(gens))]  # repeats
            expected = naive_span(gens, m, n)
            assert span_equals(gens, expected, m), (G, gens)
            assert span_equals(gens, splines, m) == (expected == set(splines))
            assert span_equals(gens, set(splines), m) == (expected == set(splines))

    def test_census_matches_naive_orders(self):
        rng = random.Random(15)
        seen_m1 = seen_n1 = False
        for _ in range(150):
            G = random_desk_graph(rng, 5 * 10**3)
            m = G.modulus
            seen_m1 |= m == 1
            seen_n1 |= G.n == 1
            splines = enumerate_splines(G)
            census = dict(fingerprint(splines, m).order_census)
            assert census == Counter(naive_order(v, m) for v in splines), G
        assert seen_m1 and seen_n1
        # no vertices: one spline, the empty vector, of order 1
        fp = fingerprint([()], 5)
        assert fp.order_census == ((1, 1),)
        assert fp.invariant_factors == ()
        assert span_equals([(), ()], {()}, 5)

    def test_span_of_a_small_subgroup_of_a_large_modulus(self):
        # the shift tables cover the residues present, not all of Z/m
        m = 10**12
        subgroup = {(a * m // 2, b * m // 4) for a in range(2) for b in range(4)}
        assert span_equals([(m // 2, 0), (0, m // 4)], subgroup, m)

    def test_budget_on_a_large_modulus(self):
        # the shift tables grow with the cosets built, not with m
        # (the set holds the first 100 multiples, so no coset before the
        # 51st settles the answer)
        with pytest.raises(BudgetExceeded) as exc:
            span_equals([(1,)], [(x,) for x in range(100)], 10**12, budget=50)
        assert exc.value.required == 51

    def test_empty_generator_list(self):
        assert naive_span([], 7, 3) == {(0, 0, 0)}
        assert span_equals([], {(0, 0, 0)}, 7)
        assert not span_equals([], {(0, 0, 0), (1, 1, 1)}, 7)

    def test_budget_boundary(self):
        rng = random.Random(13)
        checked = 0
        while checked < 60:
            m, n = rng.randint(2, 12), rng.randint(1, 4)
            gens = [tuple(rng.randrange(m) for _ in range(n)) for _ in range(rng.randint(1, 3))]
            closure = naive_span(gens, m, n)
            size = len(closure)
            if size < 2:
                continue
            assert span_equals(gens, closure, m, budget=size)
            with pytest.raises(BudgetExceeded) as exc:
                span_equals(gens, closure, m, budget=size - 1)
            assert exc.value.required == size
            checked += 1

    def test_additive_order_matches_lcm_of_entry_orders(self):
        rng = random.Random(14)
        for _ in range(500):
            m = rng.randint(1, 200)
            v = tuple(rng.randint(-3 * m, 3 * m) for _ in range(rng.randint(0, 5)))
            assert additive_order(v, m) == naive_order(v, m), (v, m)
        assert additive_order((), 12) == naive_order((), 12) == 1
        assert additive_order((-4, -6), 12) == naive_order((-4, -6), 12) == 6
