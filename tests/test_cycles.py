import random

import pytest

from splinemod import cycles
from splinemod.arith import additive_order
from splinemod.cycles import (
    closed_form,
    coprime_order_classes,
    cycle_instance,
    mgs_merge,
    power_label_cycle_gens,
    single_label_mgs,
    two_label_cycle_gens,
)
from splinemod.engine import invariant_factors
from splinemod.errors import InternalInconsistency, NotApplicable, SplineError
from splinemod.graph import EdgeLabeledGraph
from splinemod.oracle import enumerate_splines, span_equals
from support import random_cycle, reference_spline_check

C21 = EdgeLabeledGraph(
    21,
    tuple(f"v{i}" for i in range(1, 7)),
    ((0, 1, 3), (1, 2, 3), (2, 3, 7), (3, 4, 7), (4, 5, 3), (5, 0, 7)),
)


def cycle(m, labels, names=None):
    n = len(labels)
    names = names or tuple(f"v{i}" for i in range(1, n + 1))
    return EdgeLabeledGraph(
        m, names, tuple((i, (i + 1) % n, labels[i]) for i in range(n))
    )


class TestCycleInstance:
    def test_consecutive_order(self):
        inst = cycle_instance(C21)
        assert inst.order == (0, 1, 2, 3, 4, 5)
        assert inst.labels == (3, 3, 7, 7, 3, 7)

    def test_scrambled_declaration_is_walked(self):
        # same cycle, vertices declared out of walk order
        G = EdgeLabeledGraph(
            10, ("a", "b", "c", "d"), ((0, 2, 2), (2, 1, 2), (1, 3, 5), (3, 0, 5))
        )
        inst = cycle_instance(G)
        assert inst.order[0] == 0
        assert len(set(inst.order)) == 4
        # walked labels follow the cycle structure
        assert sorted(inst.labels) == [2, 2, 5, 5]

    def test_not_a_cycle(self):
        with pytest.raises(SplineError, match="is not an n-cycle"):
            cycle_instance(EdgeLabeledGraph(6, ("a", "b", "c"), ((0, 1, 2), (1, 2, 2))))
        with pytest.raises(SplineError, match="is not an n-cycle"):
            cycle_instance(
                EdgeLabeledGraph(
                    6,
                    ("a", "b", "c", "d"),
                    ((0, 1, 2), (1, 2, 2), (2, 3, 2), (3, 0, 2), (0, 2, 2), (1, 3, 2)),
                )
            )

    def test_message_counts_in_the_singular(self):
        for G, expected in (
            (EdgeLabeledGraph(6, ("a",), ()), "graph with 1 vertex and 0 edges"),
            (EdgeLabeledGraph(6, ("a", "b"), ((0, 1, 2),)), "graph with 2 vertices and 1 edge"),
            (
                EdgeLabeledGraph(6, ("a", "b"), ((0, 1, 2), (1, 0, 3))),
                "graph with 2 vertices and 2 edges",
            ),
        ):
            with pytest.raises(SplineError) as exc:
                cycle_instance(G)
            assert str(exc.value) == expected + " is not an n-cycle"

    def test_two_doubled_edges_rejected(self):
        # every degree is two and there are four edges, but two components
        G = EdgeLabeledGraph(
            6, tuple("abcd"), ((0, 1, 2), (0, 1, 3), (2, 3, 2), (2, 3, 3))
        )
        with pytest.raises(SplineError, match="is not an n-cycle"):
            cycle_instance(G)

    def test_two_triangles_rejected(self):
        G = EdgeLabeledGraph(
            6,
            tuple("abcdef"),
            (
                (0, 1, 2), (1, 2, 2), (2, 0, 2),
                (3, 4, 2), (4, 5, 2), (5, 3, 2),
            ),
        )
        with pytest.raises(SplineError, match="is not an n-cycle"):
            cycle_instance(G)


class TestSingleLabel:
    def test_triangle_mod9(self):
        G = cycle(9, (3, 3, 3))
        gs = single_label_mgs(G)
        assert gs.splines == ((1, 1, 1), (0, 3, 0), (0, 0, 3))
        assert gs.minimum
        assert span_equals(list(gs.splines), enumerate_splines(G), 9)

    def test_two_vertex_edge(self):
        G = EdgeLabeledGraph(8, ("a", "b"), ((0, 1, 2),))
        gs = single_label_mgs(G)
        assert gs.splines == ((1, 1), (0, 2))

    def test_size_matches_rank(self):
        for m, a, n in ((9, 3, 5), (8, 2, 4), (25, 5, 3)):
            G = cycle(m, (a,) * n)
            gs = single_label_mgs(G)
            assert len(gs.splines) == n == invariant_factors(G).rank

    def test_dense_graph(self):
        # complete graph, single label: still n generators
        G = EdgeLabeledGraph(
            9, ("a", "b", "c", "d"),
            ((0, 1, 3), (0, 2, 3), (0, 3, 3), (1, 2, 3), (1, 3, 3), (2, 3, 3)),
        )
        gs = single_label_mgs(G)
        assert len(gs.splines) == 4
        assert span_equals(list(gs.splines), enumerate_splines(G), 9)

    def test_mixed_labels_rejected(self):
        with pytest.raises(NotApplicable):
            single_label_mgs(cycle(21, (3, 3, 7)))

    def test_unit_label_rejected(self):
        with pytest.raises(NotApplicable):
            single_label_mgs(cycle(7, (3, 3, 3)))  # 3 is a unit mod 7

    def test_disconnected_rejected(self):
        G = EdgeLabeledGraph(9, ("a", "b", "c", "d"), ((0, 1, 3), (2, 3, 3)))
        with pytest.raises(NotApplicable):
            single_label_mgs(G)

    def test_edgeless_rejected(self):
        for names in (("a",), ("a", "b")):  # no label ideal; disconnected
            with pytest.raises(NotApplicable):
                single_label_mgs(EdgeLabeledGraph(9, names, ()))


class TestPowerFamily:
    def test_c4_mod8_with_rotation_precondition_met(self):
        G = cycle(8, (2, 4, 2, 2))
        gs = power_label_cycle_gens(cycle_instance(G))
        assert gs.minimum
        assert gs.rotation == 0  # closing edge already carries the least power
        assert span_equals(list(gs.splines), enumerate_splines(G), 8)

    def test_rotation_applied(self):
        G = cycle(8, (2, 4, 4, 4))
        gs = power_label_cycle_gens(cycle_instance(G))
        assert gs.rotation != 0
        assert span_equals(list(gs.splines), enumerate_splines(G), 8)
        for vec in gs.splines:
            assert reference_spline_check(G, vec)

    def test_all_equal_reduces_to_constant_pattern(self):
        G = cycle(9, (3, 3, 3, 3))
        gs = power_label_cycle_gens(cycle_instance(G))
        values = {x for vec in gs.splines[1:] for x in vec if x}
        assert values == {3}
        assert span_equals(list(gs.splines), enumerate_splines(G), 9)

    def test_minimum_matches_engine_rank(self):
        rng = random.Random(53)
        pools = [
            (m, [p**k % m for k in range(1, 4) if p**k % m not in (0, 1)])
            for m, p in ((8, 2), (9, 3), (27, 3))
        ]
        # divisibility chains whose labels are not powers of one element
        pools += [(12, [2, 6]), (18, [3, 6]), (20, [2, 10])]
        for m, pool in pools:
            for n in (3, 4, 5):
                G = random_cycle(rng, n, m, pool)
                gs = power_label_cycle_gens(cycle_instance(G))
                assert len(gs.splines) == invariant_factors(G).rank
                budget = m**n  # the solution set itself stays small
                assert span_equals(
                    list(gs.splines), enumerate_splines(G, budget), m, budget
                )

    def test_non_power_family_rejected(self):
        with pytest.raises(NotApplicable):
            power_label_cycle_gens(cycle_instance(cycle(21, (3, 3, 7))))

    def test_base_need_not_be_a_label(self):
        # 4 and 8 are both powers of 2 mod 32, though 2 itself never appears
        G = cycle(32, (4, 8, 4))
        gs = power_label_cycle_gens(cycle_instance(G))
        assert span_equals(list(gs.splines), enumerate_splines(G), 32)


class TestTwoLabel:
    def test_z21_generating_set(self):
        gs = two_label_cycle_gens(cycle_instance(C21))
        assert not gs.minimum
        assert gs.rotation == 0
        assert gs.splines == (
            (1, 1, 1, 1, 1, 1),
            (0, 3, 3, 3, 3, 0),
            (0, 0, 3, 3, 3, 0),
            (0, 0, 0, 7, 7, 7),
            (0, 0, 0, 0, 7, 7),
        )
        assert len(gs.splines) == 5  # n - 1

    def test_z_value_rule(self):
        # label m2 contributes top entry 0; label m1 contributes itself
        gs = two_label_cycle_gens(cycle_instance(C21))
        for vec in gs.splines[1:]:
            value = {x for x in vec if x} - {0}
            top = vec[5]
            if value == {3}:  # m2
                assert top == 0
            else:  # m1 = 7
                assert top == 7

    def test_spans_after_merge_only(self):
        # 21**6 passes the default budget, but the search visits far fewer
        splines = enumerate_splines(C21, 21**6)
        assert len(splines) == 21**3
        gs = two_label_cycle_gens(cycle_instance(C21))
        assert span_equals(list(gs.splines), splines, 21)

    def test_rotation_when_needed(self):
        # closing edge pair carries equal labels until rotated
        G = cycle(21, (3, 7, 7, 7))
        gs = two_label_cycle_gens(cycle_instance(G))
        assert gs.rotation != 0
        for vec in gs.splines:
            assert reference_spline_check(G, vec)

    def test_lcm_precondition(self):
        with pytest.raises(NotApplicable):
            two_label_cycle_gens(cycle_instance(cycle(12, (2, 3, 2, 3))))

    def test_needs_exactly_two_values(self):
        with pytest.raises(NotApplicable):
            two_label_cycle_gens(cycle_instance(cycle(9, (3, 3, 3))))


class TestCoprimeOrderClasses:
    def test_coprime_values(self):
        assert coprime_order_classes(21, 7, 3) == (7, 3)

    def test_non_coprime_values(self):
        f1, f2 = coprime_order_classes(12, 6, 4)
        assert f1 * f2 == 12
        from math import gcd

        assert gcd(f1, f2) == 1
        # value-6 labelings (order 2) and value-4 labelings (order 3) each
        # divide one of the factors
        assert any(f % 2 == 0 for f in (f1, f2))
        assert any(f % 3 == 0 for f in (f1, f2))

    def test_bad_pair(self):
        with pytest.raises(InternalInconsistency):
            coprime_order_classes(12, 2, 3)


class TestMgsMerge:
    def test_z21_merge_golden(self):
        gs = two_label_cycle_gens(cycle_instance(C21))
        merged = mgs_merge(gs, 21, coprime_order_classes(21, 7, 3))
        assert merged.minimum
        assert set(merged.splines) == {
            (1, 1, 1, 1, 1, 1),
            (0, 3, 3, 10, 10, 7),
            (0, 0, 3, 3, 10, 7),
        }

    def test_merged_size_is_rank(self):
        gs = two_label_cycle_gens(cycle_instance(C21))
        merged = mgs_merge(gs, 21, coprime_order_classes(21, 7, 3))
        assert len(merged.splines) == invariant_factors(C21).rank == 3

    def test_merged_set_spans(self):
        gs = two_label_cycle_gens(cycle_instance(C21))
        merged = mgs_merge(gs, 21, (7, 3))
        splines = enumerate_splines(C21, 21**6)
        assert len(splines) == 21**3
        assert span_equals(list(merged.splines), splines, 21)

    def test_same_order_passthrough(self):
        # one order class: nothing is summed, the set passes through
        # (members are re-listed latest-leading-vertex first)
        G = cycle(9, (3, 3, 3))
        gs = single_label_mgs(G)
        merged = mgs_merge(gs, 9, (9,))
        assert set(merged.splines) == set(gs.splines)
        assert merged.splines[0] == (1, 1, 1)

    def test_rejects_non_constant(self):
        from splinemod.cycles import GeneratingSet

        bad = GeneratingSet(((1, 1, 1), (0, 2, 3)), False, "test")
        with pytest.raises(InternalInconsistency):
            mgs_merge(bad, 6, (2, 3))

    def test_rejects_orders_outside_factors(self):
        from splinemod.cycles import GeneratingSet

        bad = GeneratingSet(((1, 1, 1), (0, 2, 2)), False, "test")  # order 3
        with pytest.raises(InternalInconsistency):
            mgs_merge(bad, 6, (2,))


class TestClosedForm:
    @pytest.mark.parametrize(
        "G, provenance",
        [
            (cycle(9, [3, 3, 3]), "single-label"),  # also a divisibility chain
            (cycle(8, [2, 4, 4, 2]), "power-family"),
            (C21, "merged(two-label)"),
        ],
    )
    def test_first_form_that_applies(self, G, provenance):
        gens = closed_form(cycle_instance(G))
        assert gens.provenance == provenance
        assert gens.minimum
        orders = sorted(additive_order(v, G.modulus) for v in gens.splines)
        assert tuple(orders) == invariant_factors(G).invariant_factors

    @pytest.mark.parametrize(
        "G", [cycle(30, [2, 3, 5]), cycle(6, [6, 2, 6, 2])], ids=["three-values", "zero-label"]
    )
    def test_free_cycle_has_none(self, G):
        assert closed_form(cycle_instance(G)) is None

    def test_broken_merge_contract_is_not_a_fallback(self, monkeypatch):
        # a broken contract is a defect, not a form that does not apply:
        # closed_form lets it through instead of answering None
        def broken(B, m, factors):
            raise InternalInconsistency("factors are not pairwise coprime")

        monkeypatch.setattr(cycles, "mgs_merge", broken)
        with pytest.raises(InternalInconsistency):
            closed_form(cycle_instance(C21))


class TestRotationInvariance:
    def test_rank_and_factors_stable_under_rotation(self):
        labels = (3, 3, 7, 7, 3, 7)
        base_factors = invariant_factors(C21).invariant_factors
        n = 6
        for r in range(1, n):
            rotated = cycle(21, labels[r:] + labels[:r])
            assert invariant_factors(rotated).invariant_factors == base_factors
