from itertools import product

import pytest

from splinemod.construct import build_rank_1, build_rank_k
from splinemod.engine import invariant_factors
from splinemod.errors import InfeasibleParameters
from splinemod.graph import EdgeLabeledGraph, first_failing
from splinemod.oracle import enumerate_splines, span_equals


class TestBuildRankK:
    def test_base_case(self):
        G, recipe = build_rank_k(2, 6, 2)
        assert G.n == 2 and len(G.edges) == 1
        assert invariant_factors(G).rank == 2
        assert recipe.coprime_split == (2, 3)

    def test_all_raising(self):
        G, recipe = build_rank_k(4, 6, 4)
        assert invariant_factors(G).rank == 4
        assert [s.kind for s in recipe.steps] == ["base", "rank-up", "rank-up"]

    def test_all_keeping(self):
        G, recipe = build_rank_k(4, 6, 2)
        assert invariant_factors(G).rank == 2
        assert [s.kind for s in recipe.steps] == ["base", "rank-keep", "rank-keep"]

    def test_every_added_vertex_has_two_edges(self):
        G, recipe = build_rank_k(6, 30, 3)
        for step in recipe.steps[1:]:
            assert len(step.edges) == 2

    @pytest.mark.parametrize("m", [6, 12, 30, 60])
    def test_sweep_small(self, m):
        for n in range(2, 6):
            for k in range(2, n + 1):
                G, _ = build_rank_k(n, m, k)
                assert invariant_factors(G).rank == k

    def test_flow_up_values_stay_in_split(self):
        # the growth invariant: generators are the trivial labeling plus
        # constant vectors valued in {0, n1}
        G, recipe = build_rank_k(5, 6, 4)
        n1 = recipe.coprime_split[0]
        mod = invariant_factors(G)
        splines = enumerate_splines(G)
        expected = [(1,) * 5] + [
            vec
            for vec in splines
            if set(vec) <= {0, n1} and any(vec) and vec[0] == 0
        ]
        assert span_equals(expected, splines, 6)

    def test_prime_power_rejected(self):
        with pytest.raises(InfeasibleParameters):
            build_rank_k(3, 8, 2)

    def test_rank_out_of_range(self):
        with pytest.raises(InfeasibleParameters):
            build_rank_k(3, 6, 4)
        with pytest.raises(InfeasibleParameters):
            build_rank_k(3, 6, 1)


class TestBuildRank1:
    def test_triangle_base(self):
        G, recipe = build_rank_1(3, 30)
        assert sorted(l for _, _, l in G.edges) == [6, 10, 15]
        assert invariant_factors(G).rank == 1
        splines = enumerate_splines(G)
        assert span_equals([(1, 1, 1)], splines, 30)

    def test_k4_base(self):
        G, _ = build_rank_1(4, 6)
        assert G.n == 4 and len(G.edges) == 6
        assert sorted(l for _, _, l in G.edges) == [2, 2, 2, 3, 3, 3]
        assert invariant_factors(G).rank == 1
        splines = enumerate_splines(G)
        assert span_equals([(1, 1, 1, 1)], splines, 6)

    def test_growth_preserves_rank_one(self):
        for n, m in ((5, 6), (6, 6), (5, 30)):
            G, _ = build_rank_1(n, m)
            assert invariant_factors(G).rank == 1
            budget = m**n
            splines = enumerate_splines(G, budget)
            assert span_equals([(1,) * n], splines, m, budget)

    def test_triangle_with_extra_primes(self):
        # more than three primes: the three label blocks must still cover m
        G, _ = build_rank_1(3, 210)
        assert invariant_factors(G).rank == 1

    def test_two_primes_three_vertices_rejected(self):
        with pytest.raises(InfeasibleParameters):
            build_rank_1(3, 6)

    def test_prime_power_rejected(self):
        with pytest.raises(InfeasibleParameters):
            build_rank_1(4, 4)

    def test_too_few_vertices(self):
        with pytest.raises(InfeasibleParameters):
            build_rank_1(2, 30)


class TestSharpness:
    """The paper's sharpness statement: a triangle over a modulus with
    exactly two primes, with nonzero non-unit labels, has rank >= 2.  Each
    hypothesis is needed: a third prime, a fourth vertex or a zero label
    each allow rank 1."""

    TWO_PRIMES = (6, 10, 12, 18, 20, 36, 45, 72, 100)

    def test_every_two_prime_triangle_has_rank_two(self):
        # every ordered triple of proper divisors (the canonical labels of
        # the nonzero non-unit ideals), 1,958 triangles in all
        count = 0
        for m in self.TWO_PRIMES:
            labels = [d for d in range(2, m) if m % d == 0]
            for a, b, c in product(labels, repeat=3):
                G = EdgeLabeledGraph(m, ("a", "b", "c"), ((0, 1, a), (1, 2, b), (2, 0, c)))
                assert invariant_factors(G).rank >= 2, G
                count += 1
        assert count == 1958

    def test_mod12_witness(self):
        # c's incident ideals are (6) and (3), whose lcm 6 falls short of 12,
        # so 6 on c alone is a spline, and not a multiple of the trivial one
        G = EdgeLabeledGraph(12, ("a", "b", "c"), ((0, 1, 4), (1, 2, 6), (2, 0, 3)))
        assert first_failing(G, tuple(zip((0, 0, 6)))) is None

    def test_mod36_witness(self):
        G = EdgeLabeledGraph(36, ("a", "b", "c"), ((0, 1, 12), (1, 2, 18), (2, 0, 6)))
        assert first_failing(G, tuple(zip((12, 0, 0)))) is None
        assert invariant_factors(G).rank >= 2

    def test_witness_implies_rank_two(self):
        G = EdgeLabeledGraph(12, ("a", "b", "c"), ((0, 1, 4), (1, 2, 6), (2, 0, 3)))
        assert invariant_factors(G).rank >= 2

    def test_requires_two_primes(self):
        # with three primes the triangle base of build_rank_1 has rank 1
        G = EdgeLabeledGraph(30, ("a", "b", "c"), ((0, 1, 6), (1, 2, 15), (2, 0, 10)))
        assert invariant_factors(G).rank == 1

    def test_requires_triangle(self):
        # K4 over two primes, labeled by two spanning trees, has rank 1
        G, _ = build_rank_1(4, 6)
        assert G.n == 4 and invariant_factors(G).rank == 1

    def test_degenerate_labels_reported_not_patched(self):
        # a zero label joins a and b, and 4 and 9 then tie c to them mod 36:
        # only the trivial splines remain
        G = EdgeLabeledGraph(36, ("a", "b", "c"), ((0, 1, 0), (1, 2, 4), (2, 0, 9)))
        assert invariant_factors(G).rank == 1
