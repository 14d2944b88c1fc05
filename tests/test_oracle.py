import ast
import builtins
import pathlib
import random
import sys
from collections import Counter
from itertools import product
from math import gcd, lcm

import pytest

from splinemod import cli, oracle
from splinemod.arith import additive_order
from splinemod.engine import invariant_factors
from splinemod.errors import BudgetExceeded, InternalInconsistency
from splinemod.graph import EdgeLabeledGraph
from splinemod.oracle import enumerate_splines, fingerprint, span_equals
from support import naive_span, reference_spline_check

GRAPHS = pathlib.Path(__file__).parent / "graphs"

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


class TestSplitSearch:
    """The search splits at vertex n // 2 and searches the second half once
    per key: the residues a prefix shows its crossing edges."""

    @staticmethod
    def graph(m, n, edges):
        return EdgeLabeledGraph(m, tuple(f"v{i}" for i in range(n)), tuple(edges))

    def test_edge_cases_match_filter(self):
        cases = [
            # parallel edges in both orientations, across the split and not
            (12, 4, [(0, 1, 4), (1, 0, 6), (1, 2, 2), (2, 1, 9), (3, 2, 8), (2, 3, 3)]),
            (6, 3, [(0, 2, 2), (2, 0, 3), (2, 0, 0), (1, 2, 1), (2, 1, 5)]),
            # n = 7 and n = 8
            (3, 7, [(i, i + 1, i % 3) for i in range(6)] + [(6, 0, 1), (5, 1, 0)]),
            (2, 8, [(i, (i + 3) % 8, i % 3) for i in range(8)]),
            # an edgeless half, first or second
            (4, 6, [(3, 4, 2), (4, 5, 0), (5, 3, 2)]),
            (4, 6, [(0, 1, 2), (1, 2, 0)]),
            (5, 4, []),
            # crossing edges with the zero ideal: every prefix has its own key
            (6, 4, [(0, 1, 2), (0, 2, 0), (1, 3, 6), (2, 3, 3)]),
            # crossing edges that are all units: one key
            (6, 4, [(0, 1, 2), (0, 2, 1), (1, 3, 5), (1, 2, 7), (2, 3, 3)]),
        ]
        for m, n, edges in cases:
            G = self.graph(m, n, edges)
            assert enumerate_splines(G) == naive_splines(G), G

    def test_random_parallel_edges_match_filter(self):
        rng = random.Random(29)
        for _ in range(200):
            n = rng.randint(1, 8)
            m = rng.choice([m for m in range(1, 61) if m**n <= 5 * 10**3])
            edges = []
            for _ in range(rng.randint(0, 2 * n) if n > 1 else 0):
                u, v = rng.sample(range(n), 2)
                label = rng.choice((0, 1, rng.randrange(m + 3)))
                edges += [(u, v, label)] + [(v, u, rng.randrange(m + 3))] * rng.randint(0, 1)
            G = self.graph(m, n, edges)
            assert enumerate_splines(G) == naive_splines(G), G

    def test_one_suffix_search_per_key(self, monkeypatch):
        suffix_searches = []  # the start vertex of each search past vertex 0
        search = oracle._search

        def counting(constraints, first, m, start, stop, values):
            if start:
                suffix_searches.append(start)
            return search(constraints, first, m, start, stop, values)

        monkeypatch.setattr(oracle, "_search", counting)
        # a 4-vertex mod-12 path whose crossing edge v1 v2 is a unit: one key
        G = self.graph(12, 4, [(0, 1, 4), (1, 2, 5), (2, 3, 6)])
        assert enumerate_splines(G) == naive_splines(G)
        assert suffix_searches == [2]
        # zero ideals from both prefix vertices: every prefix its own key
        suffix_searches.clear()
        G = self.graph(6, 4, [(0, 1, 2), (0, 2, 0), (1, 3, 6)])
        splines = enumerate_splines(G)
        assert splines == naive_splines(G)
        assert len(suffix_searches) == len({f[:2] for f in splines}) == 18

    def test_imports_nothing_from_the_solvers(self):
        # the oracle is the independent path: of splinemod it may use only
        # factorize, the error classes and the graph type
        allowed = {"arith": {"factorize"}, "graph": {"EdgeLabeledGraph"}}
        tree = ast.parse(pathlib.Path(oracle.__file__).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert not any(a.name.split(".")[0] == "splinemod" for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if node.level == 0:
                    if module.split(".")[0] != "splinemod":
                        continue  # the standard library
                    module = module.removeprefix("splinemod").lstrip(".")
                if module == "errors":
                    continue
                names = {a.name for a in node.names}
                assert names <= allowed.get(module, set()), ast.unparse(node)


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
        with pytest.raises(InternalInconsistency):
            fingerprint(bad, 4)
        # closed under doubling, and its census (four elements killed by
        # 2) is a group's: only a sum of two different elements leaves it
        bad = [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)]
        with pytest.raises(InternalInconsistency):
            fingerprint(bad, 2)

    def test_missing_zero(self):
        with pytest.raises(InternalInconsistency):
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
            span_equals(gens, sorted(naive_span(gens, 30, 3)), 30, budget=100)

    def test_empty_generators(self):
        assert span_equals([], [(0, 0)], 5)
        assert not span_equals([], [(0, 0), (1, 1)], 5)

    def test_no_vertices(self):
        assert span_equals([()], [()], 5)

    def test_set_without_zero(self):
        splines = enumerate_splines(Z6_PATH)[1:]
        assert not span_equals([(1, 1, 1), (0, 2, 3)], splines, 6)
        assert not span_equals([], [], 6)

    def test_non_spline_before_a_spanning_set(self):
        splines = enumerate_splines(Z6_PATH)
        assert not span_equals([(0, 1, 0), (1, 1, 1), (0, 2, 3)], splines, 6)

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


def random_wide_graph(rng, m=None):
    """A graph on one or two vertices, with m near 256, where the span check
    changes column kind, or in the thousands; at most 16 m splines, and
    labels up to 3m."""
    if m is None:
        m = rng.choice((255, 256, 257, 3000))
    if rng.random() < 0.3:
        return EdgeLabeledGraph(m, ("v0",), ())
    fan = 16 if m < 1000 else 3  # splines per value of v0
    g = rng.choice([d for d in range(1, m + 1) if m % d == 0 and m // d <= fan])
    return EdgeLabeledGraph(m, ("v0", "v1"), ((0, 1, g + m * rng.randint(0, 2)),))


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
            mgs = list(invariant_factors(G).mgs)  # a set that spans
            for gs in (gens, mgs):
                expected = naive_span(gs, m, n)
                truth = expected == set(splines)
                assert span_equals(gs, sorted(expected), m), (G, gs)
                assert span_equals(gs, splines, m) == truth, (G, gs)
            assert truth, G

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
        assert span_equals([(), ()], [()], 5)

    def test_a_list_out_of_order_or_short_never_accepts(self):
        # a probe reads "present" only where it finds the vector, so a
        # shuffled or incomplete list can make an answer False, or the
        # census raise InternalInconsistency, but never accept a set that
        # is not the span
        rng = random.Random(17)
        refused = 0
        for k in range(130):
            G = random_desk_graph(rng, 5 * 10**3) if k < 100 else random_wide_graph(rng)
            m, n = G.modulus, G.n
            splines = enumerate_splines(G)
            mgs = list(invariant_factors(G).mgs)
            shuffled = rng.sample(splines, len(splines))
            short = list(splines)
            del short[rng.randrange(len(short))]
            for broken in (shuffled, short):
                truth = naive_span(mgs, m, n) == set(broken)
                if span_equals(mgs, broken, m):
                    assert truth, (G, broken)
                else:
                    refused += truth
                try:
                    fingerprint(broken, m)
                except InternalInconsistency:
                    refused += broken is shuffled
                else:
                    assert naive_span(broken, m, n) == set(broken), (G, broken)
        assert refused > 50

    def test_one_hash_set_per_verify(self, capsys, tmp_path, monkeypatch):
        # solve --verify and cycle --verify build one set over the splines;
        # the census and the span check probe the sorted list
        made = []

        def counting(*args):
            built = builtins.set(*args)
            made.append(len(built))
            return built

        for module in (oracle, cli):
            monkeypatch.setattr(module, "set", counting, raising=False)
        cycle = tmp_path / "c4.graph"
        cycle.write_text("mod 12\nvertices a b c d\nedge a b 4\nedge b c 3\nedge c d 4\nedge d a 3\n")
        for argv, count in (
            (["solve", str(GRAPHS / "n7_m9.graph"), "--verify"], 19683),
            (["cycle", str(cycle), "--verify"], 144),
        ):
            made.clear()
            assert cli.main(argv) == 0, capsys.readouterr()
            assert made.count(count) == 1, (argv, made)
            assert max(made) == count, (argv, made)
        capsys.readouterr()

    def test_span_of_a_small_subgroup_of_a_large_modulus(self):
        # the shift tables cover the residues present, not all of Z/m
        m = 10**12
        subgroup = [(a * m // 2, b * m // 4) for a in range(2) for b in range(4)]
        assert span_equals([(m // 2, 0), (0, m // 4)], subgroup, m)

    def test_budget_on_a_large_modulus(self):
        # the shift tables grow with the cosets built, not with m
        # (the set holds the first 100 multiples, so no coset before the
        # 51st settles the answer)
        with pytest.raises(BudgetExceeded) as exc:
            span_equals([(1,)], [(x,) for x in range(100)], 10**12, budget=50)
        assert exc.value.required == 51

    def test_empty_generator_list(self):
        # 256 holds its columns as bytes, 257 as lists
        for m in (7, 256, 257):
            assert naive_span([], m, 3) == {(0, 0, 0)}
            assert span_equals([], [(0, 0, 0)], m)
            assert not span_equals([], [(0, 0, 0), (1, 1, 1)], m)

    def test_budget_boundary(self):
        rng = random.Random(13)
        checked = 0
        while checked < 60:
            m, n = rng.randint(2, 12), rng.randint(1, 4)
            gens = [tuple(rng.randrange(m) for _ in range(n)) for _ in range(rng.randint(1, 3))]
            closure = sorted(naive_span(gens, m, n))
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


class TestColumnKinds:
    """Up to m = 256 the span check holds a coset column as bytes and
    shifts it with bytes.translate; past 256 as a list shifted through a
    _Shift table.  Doubling every residue carries a span mod m into one
    mod 2m with the same cosets, built in the same order."""

    @staticmethod
    def outcome(gens, splines, m, budget):
        try:
            return span_equals(gens, splines, m, budget)
        except BudgetExceeded as exc:
            return ("over", exc.required)

    def test_both_kinds_answer_alike(self):
        rng = random.Random(31)
        for _ in range(40):
            m = rng.choice((255, 256))
            G = random_wide_graph(rng, m)
            n = G.n
            splines = enumerate_splines(G)
            # a few splines, each entry moved by a multiple of m, so some
            # entries are negative and some at least m
            gens = [
                tuple(x + m * rng.randint(-2, 2) for x in rng.choice(splines))
                for _ in range(rng.randint(0, 3))
            ]
            closure = sorted(naive_span(gens, m, n))
            size = len(closure)
            lists = [splines, closure, closure[:1] + closure[2:]]
            for members in lists:
                doubled = [tuple(2 * x for x in v) for v in members]
                for budget in {0, 1, size - 1, size, rng.randint(1, size), 10**7}:
                    byte_kind = self.outcome(gens, members, m, budget)
                    list_kind = self.outcome([tuple(2 * x for x in g) for g in gens], doubled, 2 * m, budget)
                    assert byte_kind == list_kind, (G, gens, members, budget)
            # the closure itself: True at its own size, over one below it
            for scale in (1, 2):
                big = [tuple(scale * x for x in g) for g in gens]
                whole = [tuple(scale * x for x in v) for v in closure]
                assert span_equals(big, whole, scale * m, budget=size)
                if size > 1:
                    assert self.outcome(big, whole, scale * m, size - 1) == ("over", size)

    def test_matches_breadth_first_closure(self):
        rng = random.Random(37)
        for _ in range(40):
            G = random_wide_graph(rng)
            m, n = G.modulus, G.n
            splines = enumerate_splines(G)
            # a vector of prime order q, often not a spline: a random one
            # would span up to m**2 elements
            q = next(p for p in range(2, m + 1) if m % p == 0)
            pool = [
                rng.choice(splines),
                (0,) * n,
                tuple(x + m * rng.randint(-2, 2) for x in rng.choice(splines)),
                tuple(m // q * rng.randrange(-q, 2 * q) for _ in range(n)),
            ]
            gens = [rng.choice(pool) for _ in range(rng.randint(0, 4))]
            mgs = list(invariant_factors(G).mgs)
            for gs in (gens, mgs):
                expected = naive_span(gs, m, n)
                assert span_equals(gs, sorted(expected), m), (G, gs)
                assert span_equals(gs, splines, m) == (expected == set(splines)), (G, gs)

    def test_a_shift_table_only_past_256(self, monkeypatch):
        shift = oracle._Shift

        class Refused(shift):
            def __init__(self, step, m):
                raise AssertionError(f"a _Shift table for m = {m}")

        monkeypatch.setattr(oracle, "_Shift", Refused)
        for m in (2, 255, 256):
            line = [(k, -k % m) for k in range(m)]
            assert span_equals([(1, -1), (m + 1, 2 * m - 1)], line, m)
            assert not span_equals([(1, 0)], line, m)

        made = []

        class Counted(shift):
            def __init__(self, step, m):
                made.append((step, m))
                super().__init__(step, m)

        monkeypatch.setattr(oracle, "_Shift", Counted)
        for m in (257, 3000):
            line = [(k, -k % m) for k in range(m)]
            assert span_equals([(1, -1)], line, m)
        assert made == [(1, 257), (256, 257), (1, 3000), (2999, 3000)]
