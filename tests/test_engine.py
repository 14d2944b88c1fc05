import json
import pathlib
import pickle
import random
import time
from collections import Counter
from math import gcd, lcm

import pytest
from hypothesis import given, strategies as st

from splinemod import engine
from splinemod.arith import additive_order
from splinemod.decompose import decompose
from splinemod.engine import (
    IntVectors,
    SplineModule,
    extension_analysis,
    integer_lattice,
    invariant_factors,
    normalized_module,
    pulled_back_lattice,
)
from splinemod.errors import InternalInconsistency, SplineError
from splinemod.graph import EdgeLabeledGraph, load_graph, normalize
from splinemod.matrix import IntMatrix
from splinemod.oracle import (
    enumerate_splines,
    fingerprint,
    span_equals,
)
from support import (
    column_lattices_equal,
    matmul,
    nonunit_labels,
    random_connected_graph,
    reference_module_vectors,
    reference_spline_check,
)

Z6_PATH = EdgeLabeledGraph(6, ("v1", "v2", "v3"), ((0, 1, 2), (0, 2, 3)))
TRI36 = EdgeLabeledGraph(36, ("v1", "v2", "v3"), ((0, 1, 30), (0, 2, 18), (1, 2, 12)))
C21 = EdgeLabeledGraph(
    21,
    tuple(f"v{i}" for i in range(1, 7)),
    ((0, 1, 3), (1, 2, 3), (2, 3, 7), (3, 4, 7), (4, 5, 3), (5, 0, 7)),
)
C3_MOD30 = EdgeLabeledGraph(30, ("v1", "v2", "v3"), ((0, 1, 6), (1, 2, 15), (2, 0, 10)))


class TestIntegerLattice:
    def test_single_edge(self):
        G, _ = normalize(EdgeLabeledGraph(6, ("a", "b"), ((0, 1, 2),)))
        basis = integer_lattice(G)
        assert basis.columns() == [(1, 1), (0, 2)]

    def test_z6_path_basis(self):
        G, _ = normalize(Z6_PATH)
        B = integer_lattice(G)
        # spans the same lattice as the expected flow-up generators
        expected = IntMatrix(zip((1, 1, 1), (0, 2, 3), (0, 0, 3)))
        assert column_lattices_equal(B, expected)

    def test_edgeless_identity(self):
        # the dual system is 3 x 0, its Hermite form c*I (c = m, or the lcm
        # of no labels, 1, in integer mode), and the basis the identity
        units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        for m in (0, 1, 5, 7):
            G = EdgeLabeledGraph(m, ("a", "b", "c"), ())
            assert integer_lattice(G) == IntMatrix(units)
            if m == 0:
                assert pulled_back_lattice(G)[0] == units
                continue
            kept = units if m > 1 else ()
            module = SplineModule(m, (m,) * len(kept), kept, (m,) * 3, kept)
            assert invariant_factors(G) == module

    def test_triangular_and_contains_m(self):
        rng = random.Random(5)
        for _ in range(15):
            m = rng.choice([6, 12, 30, 36])
            G, _ = normalize(random_connected_graph(rng, rng.randrange(2, 5), m))
            B = integer_lattice(G)
            n = G.n
            for j in range(n):
                col = B.columns()[j]
                assert all(col[i] == 0 for i in range(j))  # flow-up triangular
                assert col[j] > 0
                assert reference_spline_check(G, tuple(x % m for x in col)) or not any(
                    x % m for x in col
                )
            # m * e_i must be an integer combination of the columns
            m_block = [tuple(m if i == k else 0 for i in range(n)) for k in range(n)]
            joint = IntMatrix(zip(*B.columns(), *m_block))
            assert column_lattices_equal(B, joint)

    def test_deterministic(self):
        G, _ = normalize(TRI36)
        assert integer_lattice(G) == integer_lattice(G)

    def test_integer_mode_n20(self):
        path = pathlib.Path(__file__).parent / "graphs" / "int_n20_e45.graph"
        G, _ = normalize(load_graph(str(path)))
        B = integer_lattice(G)
        assert B.nrows == B.ncols == G.n
        for j, col in enumerate(B.columns()):
            assert all(x == 0 for x in col[:j]) and col[j] > 0
            assert reference_spline_check(G, col)


class TestScaledInverse:
    def test_basis_times_inverse_is_scaled_identity(self, monkeypatch):
        # Every scaled inverse the engine takes, recorded on sparse and
        # complete graphs mod m and on edgeless, sparse and complete graphs
        # in integer mode: the transposed dual basis inside integer_lattice,
        # then, mod m, the lattice basis B itself.  A mod-m graph that
        # normalizes to no edge takes the closed form and takes none.
        calls = []

        def recording(B, c):
            X = real(B, c)
            calls.append((B, c, X))
            return X

        real = engine._scaled_inverse
        monkeypatch.setattr(engine, "_scaled_inverse", recording)
        rng = random.Random(53)
        integer_mode = 0
        for i in range(48):
            m = rng.choice([0, 8, 12, 30, 36, 210])
            labels = nonunit_labels(m) if m else list(range(2, 40))
            n = rng.randrange(1, 9)
            names = tuple(f"v{k}" for k in range(n))
            if i % 3 == 0:
                G = EdgeLabeledGraph(m, names, ())
            elif i % 3 == 1:
                G = random_connected_graph(rng, n, m, 1, labels)
            else:
                G = EdgeLabeledGraph(m, names, tuple(
                    (u, v, rng.choice(labels)) for v in range(n) for u in range(v)
                ))
            if m:
                invariant_factors(G)
                continue
            gnorm = normalize(G)[0]
            before = len(calls)
            integer_lattice(gnorm)
            if gnorm.edges:  # c is the lcm of the edge moduli
                assert calls[before][1] == lcm(*(g for _, _, g in gnorm.conditions))
                integer_mode += 1

        def density(B):
            below = [x for i, row in enumerate(B.entries) for x in row[:i]]
            return sum(map(bool, below)) / len(below) if below else 0

        assert integer_mode > 3
        assert any(
            B == IntMatrix.sparse(B.nrows, [{j: 1} for j in range(B.nrows)]) for B, _, _ in calls
        )
        assert any(B.nrows > 3 and 0 < density(B) <= 0.3 for B, _, _ in calls)
        assert any(B.nrows > 3 and density(B) > 0.5 for B, _, _ in calls)
        for B, c, X in calls:
            n = B.nrows
            assert matmul(B, X) == IntMatrix(
                [[c if i == j else 0 for j in range(n)] for i in range(n)]
            )

    @pytest.mark.parametrize(
        "rows, m",
        [
            ([[3]], 2),
            ([[1, 0], [1, 2]], 1),  # inexact in row 1, through the sum from row 0
            ([[2, 0], [1, 2]], 2),
        ],
    )
    def test_lattice_without_scaled_identity_raises(self, rows, m):
        # the columns of B do not span a lattice containing m*Z^n
        with pytest.raises(InternalInconsistency):
            engine._scaled_inverse(IntMatrix(rows), m)


class TestFlowUp:
    def test_z6_path_module_equality(self):
        gens = invariant_factors(Z6_PATH).flow_up
        splines = enumerate_splines(Z6_PATH)
        assert span_equals(gens, splines, 6)
        # the classic dependent triple generates the same module
        assert span_equals([(1, 1, 1), (0, 2, 3), (0, 0, 3)], splines, 6)

    def test_c3_mod30_only_trivial(self):
        assert invariant_factors(C3_MOD30).flow_up == ((1, 1, 1),)

    def test_single_vertex(self):
        G = EdgeLabeledGraph(7, ("a",), ())
        assert invariant_factors(G).flow_up == ((1,),)

    def test_flow_up_shape(self):
        rng = random.Random(9)
        for _ in range(10):
            m = rng.choice([6, 12, 30])
            G = random_connected_graph(rng, 4, m)
            for vec in invariant_factors(G).flow_up:
                lead = next(i for i, x in enumerate(vec) if x)
                assert all(vec[i] == 0 for i in range(lead))
                assert reference_spline_check(G, vec)

    def test_modulus_one_empty(self):
        G = EdgeLabeledGraph(1, ("a", "b"), ((0, 1, 0),))
        assert invariant_factors(G).flow_up == ()


class TestModuleVectors:
    """The generators, the flow-up set and the integer-mode basis are
    written into their block from the nonzeros; the reference builds every
    vector dense.  The two must agree on graphs with merges, unit drops and
    zero labels."""

    @staticmethod
    def random_graph(rng, m, free=False):
        n = rng.randrange(1, 9)
        if free:  # every label a unit or zero mod m
            units = [u for u in range(-m, 2 * m + 2) if gcd(u, m) == 1]
            labels = [0, m, -m, *rng.sample(units, 4)]
        elif m:
            units = [u for u in range(1, 2 * m + 2) if gcd(u, m) == 1]
            proper = rng.sample(range(1, m), min(m - 1, 6))
            labels = [0, m, -m, rng.choice(units), *proper]
        else:
            labels = [0, 0, 1, -1, *range(2, 13), 30]
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = tuple(
            (u, v, rng.choice(labels))
            for u, v in rng.sample(pairs, rng.randrange(len(pairs) + 1))
        )
        return EdgeLabeledGraph(m, tuple(f"v{i}" for i in range(n)), edges)

    @pytest.mark.parametrize("m, free", [
        *(pytest.param(m, False, id=str(m)) for m in (0, 1, 2, 7, 12, 30, 36, 64, 30030)),
        pytest.param(30, True, id="30-free"),
    ])
    def test_matches_dense_reference(self, m, free):
        # An edgeless normalized graph takes the engine's closed form, and
        # the reference still takes the kernels: so mod a prime, and mod 30
        # with unit and zero labels only, the two paths are compared.
        rng = random.Random(53 + m)
        merged = dropped = 0
        for _ in range(40):
            G = self.random_graph(rng, m, free)
            gnorm, report = normalize(G)
            merged += gnorm.n < G.n
            dropped += bool(report.dropped_unit_edges)
            if m in (2, 7) or free:
                assert gnorm.edges == ()  # units and zeros leave no edge
            reference = reference_module_vectors(G)
            if m:
                mod = invariant_factors(G)
                got = mod.invariant_factors, mod.mgs, mod.raw_diagonal, mod.flow_up
                assert got == reference
                if m == 1:
                    assert got[1] == got[3] == ()
            else:
                assert pulled_back_lattice(G)[0] == reference
        assert merged and (dropped or m == 1)  # mod 1 every edge merges


class TestIntVectors:
    """Every vector set a solver returns is an ``IntVectors``, so none can
    silently fall back to the ``--json`` writer's checked path, and
    ``_vertex_major`` refuses a nonzero that is not a plain int."""

    @pytest.mark.parametrize("m, free", [
        *(pytest.param(m, False, id=str(m)) for m in (0, 1, 7, 12, 36, 30030)),
        pytest.param(30, True, id="30-free"),
    ])
    def test_every_solver_vector_set(self, m, free):
        rng = random.Random(71 + m)
        edgeless = 0
        for _ in range(20):
            G = TestModuleVectors.random_graph(rng, m, free)
            if not m:
                assert type(pulled_back_lattice(G)[0]) is IntVectors
                continue
            gnorm, report = normalize(G)
            edgeless += not gnorm.edges
            module = normalized_module(G, gnorm, report)
            assert type(module.mgs) is IntVectors
            assert type(module.flow_up) is IntVectors
            if m > 1:
                assert type(decompose(G).recombined.mgs) is IntVectors
        assert edgeless or m in (0, 12, 36, 30030)

    def test_behaves_as_a_tuple(self):
        G = EdgeLabeledGraph(0, ("a", "b"), ())
        vectors = engine._vertex_major(G, 2, [{0: 2**64 + 1}, {}, {1: -3}], "vector")
        plain = ((2**64 + 1, 0), (0, 0), (0, -3))
        assert type(vectors) is IntVectors
        assert vectors == plain and hash(vectors) == hash(plain)
        assert json.dumps(vectors) == json.dumps(plain)
        copy = pickle.loads(pickle.dumps(vectors))
        assert type(copy) is IntVectors and copy == plain

    @pytest.mark.parametrize(
        "value, kind",
        [(True, "bool"), (2.0, "float"), (type("Wide", (int,), {})(3), "Wide")],
        ids=["bool", "float", "int-subclass"],
    )
    def test_vertex_major_rejects_a_non_int_nonzero(self, value, kind):
        G = EdgeLabeledGraph(0, ("a", "b"), ())
        with pytest.raises(InternalInconsistency, match=f"vector has a nonzero entry of type {kind}"):
            engine._vertex_major(G, 2, [{0: 1}, {1: value}], "vector")


class TestInvariantFactors:
    def test_mod36_triangle(self):
        mod = invariant_factors(TRI36)
        assert mod.invariant_factors == (6, 36)
        assert additive_order((18, 12, 0), 36) == 6
        assert span_equals(list(mod.mgs), enumerate_splines(TRI36), 36)
        assert span_equals([(1, 1, 1), (18, 12, 0)], enumerate_splines(TRI36), 36)

    def test_z21_cycle(self):
        mod = invariant_factors(C21)
        assert mod.invariant_factors == (21, 21, 21)
        assert mod.rank == 3
        assert mod.order == 21**3

    def test_k4_pq(self):
        k4 = EdgeLabeledGraph(
            6,
            ("x1", "x2", "x3", "x4"),
            ((3, 2, 2), (2, 0, 2), (0, 1, 2), (0, 3, 3), (3, 1, 3), (1, 2, 3)),
        )
        mod = invariant_factors(k4)
        assert mod.invariant_factors == (6,)
        assert mod.rank == 1

    def test_reach_on_a_long_path(self):
        # A tree's module is Z/m plus Z/(m/gcd(label, m)) per edge
        # (Gilbert-Polster-Tymoczko): 500 edges labeled 2 give Z/6 and 499
        # labeled 6 give Z/2, so |R| = 12 * 6^500 * 2^499.
        n = 1000
        G = EdgeLabeledGraph(
            12,
            tuple(f"v{i}" for i in range(n)),
            tuple((i, i + 1, 6 if i % 2 else 2) for i in range(n - 1)),
        )
        start = time.perf_counter()
        mod = invariant_factors(G)
        assert time.perf_counter() - start < 5.0
        assert mod.invariant_factors == (2,) * 499 + (6,) * 500 + (12,)
        assert mod.order == 12 * 6**500 * 2**499

    def test_mgs_orders_match_factors(self):
        rng = random.Random(13)
        for _ in range(12):
            m = rng.choice([6, 12, 30, 36])
            G = random_connected_graph(rng, rng.randrange(2, 5), m)
            mod = invariant_factors(G)
            for d, g in zip(mod.invariant_factors, mod.mgs):
                assert additive_order(g, m) == d

    def test_matches_oracle(self):
        rng = random.Random(17)
        for _ in range(15):
            m = rng.choice([6, 12, 30])
            G = random_connected_graph(rng, rng.randrange(2, 5), m)
            mod = invariant_factors(G)
            splines = enumerate_splines(G)
            assert fingerprint(splines, m).invariant_factors == mod.invariant_factors
            assert len(splines) == mod.order
            assert span_equals(list(mod.mgs), splines, m)
            assert span_equals(list(mod.flow_up), splines, m)

    def test_mgs_is_minimum(self):
        # dropping any generator loses the span
        for G in (Z6_PATH, TRI36):
            mod = invariant_factors(G)
            splines = enumerate_splines(G)
            for skip in range(len(mod.mgs)):
                rest = [g for i, g in enumerate(mod.mgs) if i != skip]
                assert not span_equals(rest, splines, G.modulus)

    def test_largest_factor_is_m(self):
        rng = random.Random(19)
        for _ in range(10):
            m = rng.choice([6, 12, 30, 36])
            G = random_connected_graph(rng, rng.randrange(2, 5), m)
            assert invariant_factors(G).invariant_factors[-1] == m

    def test_disconnected_graph(self):
        # two disjoint edges: nothing requires connectivity
        G = EdgeLabeledGraph(
            12, ("a", "b", "c", "d"), ((0, 1, 4), (2, 3, 6))
        )
        mod = invariant_factors(G)
        splines = enumerate_splines(G)
        assert fingerprint(splines, 12).invariant_factors == mod.invariant_factors
        assert span_equals(list(mod.mgs), splines, 12)

    def test_unnormalized_input_pulled_back(self):
        # 0-edge merges a vertex away; generators still live on all 3 vertices
        G = EdgeLabeledGraph(4, ("a", "b", "c"), ((0, 1, 0), (1, 2, 2), (0, 2, 2)))
        mod = invariant_factors(G)
        assert all(len(g) == 3 for g in mod.mgs)
        assert mod.invariant_factors == (2, 4)
        assert span_equals(list(mod.mgs), enumerate_splines(G), 4)

    def test_modulus_one_zero_module(self):
        G = EdgeLabeledGraph(1, ("a", "b"), ((0, 1, 0),))
        mod = invariant_factors(G)
        assert mod.invariant_factors == () and mod.rank == 0 and mod.mgs == ()

    def test_modulus_one_from_the_general_path(self):
        # one trivial Smith entry per normalized vertex, nothing else
        rng = random.Random(41)
        for _ in range(40):
            n = rng.randrange(2, 7)
            edges = tuple(
                (*rng.sample(range(n), 2), rng.randrange(-5, 5))
                for _ in range(rng.randrange(n))
            )
            G = EdgeLabeledGraph(1, tuple(f"v{k}" for k in range(n)), edges)
            H, _ = normalize(G)
            assert invariant_factors(G) == SplineModule(1, (), (), (1,) * H.n)

    def test_integer_mode_rejected(self):
        G = EdgeLabeledGraph(0, ("a", "b"), ((0, 1, 2),))
        with pytest.raises(SplineError, match="only defined for a finite modulus"):
            invariant_factors(G)

    def test_constant_flow_up_family(self):
        # single-label connected graphs: factors are m, then m/gcd(a, m) repeated
        for m, a, n in ((9, 3, 4), (8, 2, 3), (12, 4, 5)):
            names = tuple(f"v{i}" for i in range(n))
            edges = tuple((i, i + 1, a) for i in range(n - 1))
            G = EdgeLabeledGraph(m, names, edges)
            expected = sorted([m] + [m // gcd(a, m)] * (n - 1))
            assert list(invariant_factors(G).invariant_factors) == expected


class TestRank:
    def test_single_label_connected_is_n(self):
        for n in (2, 3, 4):
            names = tuple(f"v{i}" for i in range(n))
            edges = tuple((i, i + 1, 3) for i in range(n - 1))
            assert invariant_factors(EdgeLabeledGraph(9, names, edges)).rank == n

    def test_c3_mod30_rank_one(self):
        assert invariant_factors(C3_MOD30).rank == 1

    def test_edgeless_is_n(self):
        assert invariant_factors(EdgeLabeledGraph(6, ("a", "b", "c", "d"), ())).rank == 4

    def test_prime_modulus_unit_labels_allow_everything(self):
        # nonzero labels are units mod a prime, so every labeling qualifies
        G = EdgeLabeledGraph(5, ("a", "b", "c"), ((0, 1, 2), (1, 2, 3)))
        assert len(enumerate_splines(G)) == 5**3
        assert invariant_factors(G).rank == 3

    def test_bounded_by_n(self):
        rng = random.Random(29)
        for _ in range(15):
            m = rng.choice([6, 12, 30, 36])
            n = rng.randrange(2, 5)
            G = random_connected_graph(rng, n, m)
            assert 1 <= invariant_factors(G).rank <= n


class TestModuleIsomorphic:
    def test_equal_chains(self):
        # finite abelian modules are isomorphic iff their chains agree
        a = invariant_factors(TRI36)
        b = invariant_factors(TRI36)
        assert a.invariant_factors == b.invariant_factors

    def test_different_chains(self):
        assert (
            invariant_factors(TRI36).invariant_factors
            != invariant_factors(C21).invariant_factors
        )

    def test_direct_sum_of_reductions(self):
        # mod-36 triangle against the direct sum of its mod-4 and mod-9 parts:
        # the combined census must reproduce the same chain
        from splinemod.decompose import decompose

        dec = decompose(TRI36)
        assert invariant_factors(TRI36).invariant_factors == dec.recombined.invariant_factors


class TestCommonLift:
    """``_has_common_lift``: does x = r (mod g) hold for every (r, g) at once?"""

    def test_compatible_non_coprime(self):
        assert engine._has_common_lift([(2, 6), (5, 9)])  # x = 14

    def test_incompatible(self):
        assert not engine._has_common_lift([(1, 4), (0, 2)])

    def test_exact_pin(self):
        # modulus 0 pins x to r itself
        assert engine._has_common_lift([(7, 0), (1, 3)])
        assert not engine._has_common_lift([(7, 0), (0, 2)])
        assert engine._has_common_lift([(7, 0), (7, 0)])
        assert not engine._has_common_lift([(7, 0), (8, 0)])

    @given(
        st.lists(
            st.tuples(st.integers(-50, 100), st.integers(0, 30)),
            min_size=1,
            max_size=4,
        )
    )
    def test_matches_brute_force(self, pairs):
        def holds(x):
            return all(x == r if g == 0 else (x - r) % g == 0 for r, g in pairs)

        pinned = [r for r, g in pairs if g == 0]
        candidates = pinned[:1] or range(lcm(*(g for _, g in pairs)))
        assert engine._has_common_lift(pairs) == any(map(holds, candidates))


class TestExtension:
    def test_integer_mode_not_surjective(self):
        base = EdgeLabeledGraph(0, ("a", "b"), ((0, 1, 2),))
        ext = EdgeLabeledGraph(0, ("a", "b", "c"), ((0, 1, 2), (1, 2, 6), (0, 2, 3)))
        analysis = extension_analysis(base, ext, "c")
        assert analysis.incident_lcm == 6
        assert analysis.kernel_order is None
        assert not analysis.pi_surjective

    @pytest.mark.parametrize(
        "base_label, extra, surjective",
        [
            (0, ((0, 2, 0), (1, 2, 0)), True),  # a = b in every base spline
            (2, ((0, 2, 0), (1, 2, 0)), False),  # c cannot equal both a and b
            (6, ((0, 2, 0), (1, 2, 3)), True),  # c = a meets b mod 3
            (2, ((0, 2, 0), (1, 2, 3)), False),
        ],
    )
    def test_integer_mode_zero_labels(self, base_label, extra, surjective):
        base = EdgeLabeledGraph(0, ("a", "b"), ((0, 1, base_label),))
        ext = EdgeLabeledGraph(0, ("a", "b", "c"), base.edges + extra)
        assert extension_analysis(base, ext, "c").pi_surjective is surjective

    def test_full_lcm_trivial_kernel(self):
        base = EdgeLabeledGraph(6, ("a", "b"), ((0, 1, 2),))
        ext = EdgeLabeledGraph(6, ("a", "b", "c"), ((0, 1, 2), (0, 2, 2), (1, 2, 3)))
        analysis = extension_analysis(base, ext, "c")
        assert analysis.incident_lcm == 6
        assert analysis.kernel_order == 1

    def test_single_incident_edge(self):
        base = EdgeLabeledGraph(12, ("a", "b"), ((0, 1, 2),))
        ext = EdgeLabeledGraph(12, ("a", "b", "c"), ((0, 1, 2), (1, 2, 8)))
        analysis = extension_analysis(base, ext, "c")
        assert analysis.incident_lcm == gcd(8, 12) == 4
        assert analysis.kernel_order == 12 // 4

    def test_kernel_order_matches_brute_force(self):
        rng = random.Random(31)
        for _ in range(10):
            m = rng.choice([6, 12, 18])
            base = random_connected_graph(rng, 3, m)
            extra = tuple(
                (rng.randrange(3), 3, rng.randrange(m))
                for _ in range(rng.randrange(1, 3))
            )
            ext = EdgeLabeledGraph(
                m, base.vertices + ("w",), base.edges + extra
            )
            analysis = extension_analysis(base, ext, "w")
            kernel = [
                f
                for f in enumerate_splines(ext)
                if all(x == 0 for x in f[:3])
            ]
            assert len(kernel) == analysis.kernel_order

    def test_surjectivity_matches_brute_force(self):
        # Labels are proper divisors of m, so incident edges often carry
        # coprime moduli that a base spline's values cannot meet at once:
        # both outcomes occur.  Either end of an incident edge may name w.
        rng = random.Random(37)
        outcomes = Counter()
        for _ in range(16):
            m = rng.choice([6, 12])
            labels = [d for d in range(2, m) if m % d == 0]
            base = random_connected_graph(rng, 3, m, labels=labels)
            extra = []
            for v in rng.sample(range(3), rng.randrange(1, 4)):
                u, x = (v, 3) if rng.random() < 0.5 else (3, v)
                extra.append((u, x, rng.choice(labels)))
            ext = EdgeLabeledGraph(m, base.vertices + ("w",), base.edges + tuple(extra))
            analysis = extension_analysis(base, ext, "w")
            base_set = set(enumerate_splines(base))
            image = {f[:3] for f in enumerate_splines(ext)}
            assert analysis.pi_surjective == (image == base_set)
            outcomes[analysis.pi_surjective] += 1
        assert min(outcomes[True], outcomes[False]) >= 3

    @pytest.mark.parametrize(
        "extra, surjective",
        [
            (((2, 0, 3), (2, 1, 3)), False),  # the new vertex named first
            (((2, 0, 3), (1, 2, 3)), False),  # mixed
            (((2, 0, 3), (2, 1, 2)), True),
        ],
    )
    def test_surjectivity_either_edge_orientation(self, extra, surjective):
        # a - b differs by 2 in some spline, which no value at c matches
        # mod 3 on both edges; coprime moduli always have a common lift
        base = EdgeLabeledGraph(6, ("a", "b"), ((0, 1, 2),))
        ext = EdgeLabeledGraph(6, ("a", "b", "c"), base.edges + extra)
        analysis = extension_analysis(base, ext, "c")
        assert analysis.pi_surjective is surjective
        image = {f[:2] for f in enumerate_splines(ext)}
        assert (image == set(enumerate_splines(base))) is surjective

    def test_not_an_extension(self):
        base = EdgeLabeledGraph(6, ("a", "b"), ((0, 1, 3),))
        ext = EdgeLabeledGraph(6, ("a", "b", "c"), ((0, 1, 2), (1, 2, 3)))
        with pytest.raises(SplineError, match="does not give the base graph"):
            extension_analysis(base, ext, "c")

    def test_new_vertex_in_middle(self):
        base = EdgeLabeledGraph(6, ("a", "b"), ((0, 1, 2),))
        ext = EdgeLabeledGraph(6, ("a", "w", "b"), ((0, 2, 2), (0, 1, 3), (1, 2, 2)))
        analysis = extension_analysis(base, ext, "w")
        assert analysis.incident_lcm == 6
