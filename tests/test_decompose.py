import random
from math import prod

import pytest

from splinemod.decompose import ComponentSolution, decompose, recombine, reduce_graph
from splinemod.engine import SplineModule, invariant_factors
from splinemod.errors import InternalInconsistency, InvalidModulus, NotADivisor
from splinemod.graph import EdgeLabeledGraph
from splinemod.oracle import enumerate_splines, fingerprint, span_equals
from support import random_connected_graph, reference_glued_vectors, reference_spline_check

TRI36 = EdgeLabeledGraph(36, ("v1", "v2", "v3"), ((0, 1, 30), (0, 2, 18), (1, 2, 12)))
C21 = EdgeLabeledGraph(
    21,
    tuple(f"v{i}" for i in range(1, 7)),
    ((0, 1, 3), (1, 2, 3), (2, 3, 7), (3, 4, 7), (4, 5, 3), (5, 0, 7)),
)


class TestReduceGraph:
    def test_mod4_labels(self):
        H = reduce_graph(TRI36, 4)
        assert H.modulus == 4
        assert sorted(l for _, _, l in H.edges) == [0, 2, 2]

    def test_mod9_labels(self):
        H = reduce_graph(TRI36, 9)
        assert H.modulus == 9
        assert sorted(l for _, _, l in H.edges) == [0, 3, 3]

    def test_identity_reduction(self):
        assert reduce_graph(TRI36, 36) == TRI36

    def test_not_a_divisor(self):
        with pytest.raises(NotADivisor):
            reduce_graph(TRI36, 5)
        with pytest.raises(NotADivisor):
            reduce_graph(TRI36, 0)


class TestDecompose:
    def test_mod36_triangle(self):
        dec = decompose(TRI36)
        by_q = {c.prime_power: c.module for c in dec.components}
        assert set(by_q) == {4, 9}
        assert by_q[4].invariant_factors == (2, 4)
        assert by_q[9].invariant_factors == (3, 9)
        assert by_q[4].rank == by_q[9].rank == 2
        assert dec.recombined.invariant_factors == (6, 36)

    def test_component_generators_on_original_vertices(self):
        dec = decompose(TRI36)
        for comp in dec.components:
            for g in comp.module.mgs:
                assert len(g) == 3
                assert reference_spline_check(comp.graph, g)

    def test_z21_cycle_components(self):
        dec = decompose(C21)
        for comp in dec.components:
            assert comp.module.rank == 3
        assert dec.recombined.rank == 3

    def test_prime_modulus_single_component(self):
        G = EdgeLabeledGraph(7, ("a", "b"), ((0, 1, 7),))  # label 7 = 0 mod 7
        dec = decompose(G)
        assert len(dec.components) == 1
        assert dec.recombined.invariant_factors == invariant_factors(G).invariant_factors

    def test_rejects_trivial_modulus(self):
        with pytest.raises(InvalidModulus):
            decompose(EdgeLabeledGraph(1, ("a",), ()))


class TestRecombine:
    def test_hand_computed_component_sets(self):
        # feeding the hand-computed component sets reproduces the expected
        # mod-36 generator entrywise: (2 mod 4, 0 mod 9) -> 18, etc.
        comp4 = ComponentSolution(
            4,
            reduce_graph(TRI36, 4),
            SplineModule(4, (2, 4), ((2, 0, 0), (1, 1, 1)), (2, 4)),
        )
        comp9 = ComponentSolution(
            9,
            reduce_graph(TRI36, 9),
            SplineModule(9, (3, 9), ((0, 3, 0), (1, 1, 1)), (3, 9)),
        )
        glued = recombine([comp4, comp9], TRI36)
        assert glued.invariant_factors == (6, 36)
        assert glued.mgs == ((18, 12, 0), (1, 1, 1))

    def test_trivial_splines_combine_to_trivial(self):
        dec = decompose(TRI36)
        assert dec.recombined.mgs[-1] == (1, 1, 1)

    def test_glued_generators_reduce_to_components(self):
        dec = decompose(TRI36)
        for comp in dec.components:
            q = comp.prime_power
            reduced_gens = {tuple(x % q for x in g) for g in dec.recombined.mgs}
            splines_q = enumerate_splines(comp.graph)
            assert span_equals(sorted(reduced_gens), splines_q, q)

    def test_uneven_ranks_pad_with_zero(self):
        # one rank-2 component and one rank-1 component
        G = EdgeLabeledGraph(12, ("a", "b"), ((0, 1, 4),))
        # mod 4: single edge 0 -> merge, rank 1; mod 3: edge 1 -> unit, rank 2
        dec = decompose(G)
        by_q = {c.prime_power: c.module.rank for c in dec.components}
        assert by_q == {4: 1, 3: 2}
        assert dec.recombined.rank == 2
        assert dec.recombined.invariant_factors == invariant_factors(G).invariant_factors


class TestRecombineByIdempotents:
    # moduli with 2, 3 and 4 prime powers
    MODULI = (12, 36, 200, 30, 60, 180, 1050, 210, 420, 2520, 7560)

    def test_matches_entrywise_crt(self):
        rng = random.Random(53)
        uneven = 0
        for trial in range(60):
            m = self.MODULI[trial % len(self.MODULI)]
            G = random_connected_graph(
                rng, rng.randrange(2, 9), m, extra_edges=rng.randrange(4),
                labels=list(range(m)),
            )
            dec = decompose(G)
            ranks = {len(c.module.mgs) for c in dec.components}
            uneven += len(ranks) > 1
            reference = reference_glued_vectors(dec.components, G)
            assert list(dec.recombined.mgs) == reference[::-1]
        assert uneven >= 10  # missing slots glue as zero

    def test_unreduced_component_entries(self):
        # entries outside [0, q), negative ones too, glue to the same residue
        comp4 = ComponentSolution(
            4, reduce_graph(TRI36, 4),
            SplineModule(4, (2, 4), ((-2, 4, 8), (5, -3, 1)), (2, 4)),
        )
        comp9 = ComponentSolution(
            9, reduce_graph(TRI36, 9),
            SplineModule(9, (9,), ((10, -8, 1),), (9,)),
        )
        glued = recombine([comp4, comp9], TRI36)
        assert list(glued.mgs) == reference_glued_vectors([comp4, comp9], TRI36)[::-1]
        assert glued.mgs == ((18, 0, 0), (1, 1, 1))

    def _component(self, q, G):
        return ComponentSolution(q, G, SplineModule(q, (q,), ((1, 1, 1),), (q,)))

    @pytest.mark.parametrize(
        "moduli, message",
        [
            ((2, 2), "not pairwise coprime"),
            ((4, 9, 1, 1, 3), "not pairwise coprime"),
            ((6, 6), "not pairwise coprime"),
            ((-4, -9), "not positive"),  # the product is m = 36
        ],
        ids=["shared-prime", "repeated-prime", "shared-composite", "negative"],
    )
    def test_non_coprime_components(self, moduli, message):
        G = EdgeLabeledGraph(prod(moduli), TRI36.vertices, ())
        with pytest.raises(InternalInconsistency, match=message):
            recombine([self._component(q, G) for q in moduli], G)

    @pytest.mark.parametrize("moduli", [(4,), (4, 3), (), (4, 9, 5)])
    def test_components_not_covering_modulus(self, moduli):
        with pytest.raises(InternalInconsistency, match="do not cover"):
            recombine([self._component(q, TRI36) for q in moduli], TRI36)


class TestTwoPathsAgree:
    def test_direct_equals_crt_random(self):
        rng = random.Random(41)
        for _ in range(25):
            m = rng.choice([6, 12, 30, 36, 60])
            n = rng.randrange(2, 5)
            G = random_connected_graph(rng, n, m)
            direct = invariant_factors(G)
            dec = decompose(G)
            assert direct.invariant_factors == dec.recombined.invariant_factors
            assert dec.recombined.rank == max(
                c.module.rank for c in dec.components
            )

    def test_crt_matches_oracle(self):
        rng = random.Random(43)
        for _ in range(8):
            m = rng.choice([6, 12, 30])
            G = random_connected_graph(rng, 3, m)
            dec = decompose(G)
            splines = enumerate_splines(G)
            fp = fingerprint(splines, m)
            assert fp.invariant_factors == dec.recombined.invariant_factors
            assert span_equals(list(dec.recombined.mgs), splines, m)

    def test_order_census_of_direct_sum(self):
        # |R_G| equals the product of the component module orders
        rng = random.Random(47)
        for _ in range(10):
            m = rng.choice([6, 12, 30, 60])
            G = random_connected_graph(rng, 3, m)
            dec = decompose(G)
            product = 1
            for comp in dec.components:
                product *= comp.module.order
            assert product == invariant_factors(G).order
