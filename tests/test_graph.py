import dataclasses
import random
from itertools import product
from math import gcd, lcm

import pytest
from hypothesis import example, given, strategies as st

from splinemod.errors import InternalInconsistency, ParseError, SplineError
from splinemod.graph import (
    EdgeLabeledGraph,
    NormalizationReport,
    check_splines,
    components,
    first_failing,
    load_graph,
    normalize,
    parse_graph,
    parse_graph_json,
)
from splinemod.oracle import enumerate_splines
from support import random_connected_graph, reference_normalize, reference_spline_check

SIX_CYCLE = """\
# six-cycle, labels alternate between the two prime blocks
mod 21
vertices v1 v2 v3 v4 v5 v6

edge v1 v2 3
edge v2 v3 3
edge v3 v4 7
edge v4 v5 7
edge v5 v6 3
edge v6 v1 7
"""


class TestParsing:
    def test_six_cycle(self):
        G = parse_graph(SIX_CYCLE)
        assert G.modulus == 21
        assert G.vertices == ("v1", "v2", "v3", "v4", "v5", "v6")
        assert len(G.edges) == 6
        assert [l for _, _, l in G.edges] == [3, 3, 7, 7, 3, 7]

    def test_single_vertex(self):
        G = parse_graph("mod 5\nvertices a\n")
        assert G.n == 1 and G.edges == ()

    def test_label_reduced_mod_m(self):
        G = parse_graph("mod 21\nvertices a b\nedge a b 25\n")
        assert G.edges == ((0, 1, 4),)

    def test_negative_label_canonicalized(self):
        G = parse_graph("mod 10\nvertices a b\nedge a b -3\n")
        assert G.edges == ((0, 1, 7),)

    def test_integer_mode(self):
        G = parse_graph("mod 0\nvertices a b\nedge a b -6\n")
        assert G.modulus == 0
        assert G.edges == ((0, 1, 6),)

    def test_parse_error_reports_line(self):
        with pytest.raises(ParseError) as exc:
            parse_graph("mod 6\nvertices a b\nedge a b\n")
        assert exc.value.line == 3

    def test_bad_modulus(self):
        with pytest.raises(SplineError, match="modulus -2 is negative"):
            parse_graph("mod -2\nvertices a\n")

    def test_unknown_vertex(self):
        with pytest.raises(SplineError, match="undeclared vertex 'c'"):
            parse_graph("mod 6\nvertices a b\nedge a c 2\n")

    def test_self_loop(self):
        with pytest.raises(SplineError, match="self-loop at vertex a"):
            parse_graph("mod 6\nvertices a b\nedge a a 2\n")

    def test_missing_sections(self):
        with pytest.raises(ParseError):
            parse_graph("vertices a b\n")
        with pytest.raises(ParseError):
            parse_graph("mod 6\n")

    def test_duplicate_vertices(self):
        with pytest.raises(ParseError):
            parse_graph("mod 6\nvertices a a\n")

    def test_unknown_directive(self):
        with pytest.raises(ParseError) as exc:
            parse_graph("mod 6\nvertices a b\nvertex a b 2\n")
        assert exc.value.line == 3


class TestJsonMirror:
    def test_roundtrip(self):
        G = parse_graph(SIX_CYCLE)
        import json

        again = parse_graph_json(json.dumps(G.to_json_obj()))
        assert again == G

    def test_load_by_extension(self, tmp_path):
        G = parse_graph(SIX_CYCLE)
        text_path = tmp_path / "g.graph"
        text_path.write_text(G.to_text())
        json_path = tmp_path / "g.json"
        import json

        json_path.write_text(json.dumps(G.to_json_obj()))
        assert load_graph(str(text_path)) == G
        assert load_graph(str(json_path)) == G

    def test_bad_json(self):
        with pytest.raises(ParseError):
            parse_graph_json("{nope")
        with pytest.raises(ParseError):
            parse_graph_json('{"mod": 6}')


class TestEdgeConditions:
    def test_moduli_stored_per_edge(self):
        G = EdgeLabeledGraph(12, ("a", "b", "c"), ((0, 1, 14), (1, 2, 0), (0, 2, -9)))
        assert G.edges == ((0, 1, 2), (1, 2, 0), (0, 2, 3))
        assert G.conditions == ((0, 1, 2), (1, 2, 12), (0, 2, 3))
        Z = EdgeLabeledGraph(0, ("a", "b"), ((0, 1, -6), (0, 1, 0)))
        assert Z.conditions == ((0, 1, 6), (0, 1, 0))

    def test_equality_hash_and_repr_unchanged(self):
        A = EdgeLabeledGraph(12, ("a", "b"), ((0, 1, 14),))
        B = EdgeLabeledGraph(12, ("a", "b"), ((0, 1, 2),))
        C = EdgeLabeledGraph(12, ("a", "b"), ((0, 1, 10),))  # same gcd, other label
        assert A == B and hash(A) == hash(B)
        assert A != C and A.conditions == C.conditions
        assert repr(A) == (
            "EdgeLabeledGraph(modulus=12, vertices=('a', 'b'), edges=((0, 1, 2),))"
        )
        assert [f.name for f in dataclasses.fields(A)] == ["modulus", "vertices", "edges"]
        assert dataclasses.replace(A, modulus=4).conditions == ((0, 1, 2),)

    def test_incident_returns_conditions(self):
        G = EdgeLabeledGraph(12, ("a", "b", "c"), ((0, 1, 14), (1, 2, 0), (0, 2, -9)))
        assert G.incident(0) == [(0, 1, 2), (0, 2, 3)]
        assert G.incident(1) == [(0, 1, 2), (1, 2, 12)]


class TestVertexOrder:
    def test_reorder(self):
        G = parse_graph("mod 6\nvertices a b c\nedge a b 2\nedge b c 3\n")
        H = G.with_vertex_order(["c", "a", "b"])
        assert H.vertices == ("c", "a", "b")
        assert set((min(u, v), max(u, v), l) for u, v, l in H.edges) == {
            (1, 2, 2),
            (0, 2, 3),
        }

    def test_reorder_rejects_non_permutation(self):
        G = parse_graph("mod 6\nvertices a b\nedge a b 2\n")
        with pytest.raises(SplineError, match="is not a permutation"):
            G.with_vertex_order(["a", "x"])


class TestSplineCheck:
    """One vector as a one-column block: ``first_failing`` answers None
    exactly when it is a spline."""

    def test_trivial_always_passes(self):
        G = parse_graph(SIX_CYCLE)
        assert first_failing(G, tuple(zip((1,) * 6))) is None
        assert first_failing(G, tuple(zip((5,) * 6))) is None

    def test_known_spline(self):
        G = parse_graph(SIX_CYCLE)
        assert first_failing(G, tuple(zip((7, 10, 10, 3, 3, 0)))) is None

    def test_rejects_unit_step(self):
        G = EdgeLabeledGraph(4, ("a", "b"), ((0, 1, 2),))
        assert first_failing(G, tuple(zip((0, 1)))) == 0

    def test_zero_label_means_equality(self):
        G = EdgeLabeledGraph(6, ("a", "b"), ((0, 1, 0),))
        assert first_failing(G, tuple(zip((4, 4)))) is None
        assert first_failing(G, tuple(zip((4, 1)))) == 0

    def test_length_mismatch(self):
        G = parse_graph(SIX_CYCLE)
        for values in ((1, 2, 3), (0,) * 7):
            with pytest.raises(SplineError, match="expected 6 values"):
                first_failing(G, tuple(zip(values)))

    def test_integer_mode_zero_label_is_exact_equality(self):
        G = EdgeLabeledGraph(0, ("a", "b", "c"), ((0, 1, 0), (1, 2, 3)))
        assert first_failing(G, tuple(zip((5, 5, 2)))) is None
        assert first_failing(G, tuple(zip((-7, -7, -1)))) is None
        assert first_failing(G, tuple(zip((5, -5, 2)))) == 0
        assert first_failing(G, tuple(zip((5, 6, 3)))) == 0
        assert first_failing(G, tuple(zip((5, 5, 3)))) == 0

    def test_modulus_one_accepts_everything(self):
        G = EdgeLabeledGraph(1, ("a", "b"), ((0, 1, 0), (0, 1, 5)))
        assert first_failing(G, tuple(zip((0, 0)))) is None
        assert first_failing(G, tuple(zip((-3, 10**30)))) is None

    def test_negative_and_out_of_range_values(self):
        G = EdgeLabeledGraph(12, ("a", "b", "c"), ((0, 1, 4), (1, 2, 0)))
        assert first_failing(G, tuple(zip((-4, 0, 12)))) is None  # 0 = 12 mod 12
        assert first_failing(G, tuple(zip((13, 1, -11)))) is None  # 13 - 1 = 12, 1 = -11 mod 12
        assert first_failing(G, tuple(zip((-1, 11, -1)))) is None
        assert first_failing(G, tuple(zip((13, 2, 2)))) == 0
        assert first_failing(G, tuple(zip((0, 0, 6)))) == 0

    def test_matches_reference_on_unreduced_values(self):
        rng = random.Random(19)
        for m in (0, 1, 2, 6, 12, 36, 30):
            labels = list(range(-2 * m - 3, 2 * m + 4))
            for _ in range(20):
                G = random_connected_graph(rng, rng.randrange(2, 6), m, labels=labels)
                for _ in range(30):
                    # mostly near-splines, so that both answers occur
                    base = rng.randrange(-50, 50)
                    values = [
                        base + rng.choice((0, m, -m, rng.randrange(-3 * m - 5, 3 * m + 6)))
                        for _ in range(G.n)
                    ]
                    passes = first_failing(G, tuple(zip(values))) is None
                    assert passes == reference_spline_check(G, values)

    def test_matches_brute_force(self):
        rng = random.Random(7)
        for _ in range(5):
            G = random_connected_graph(rng, 3, 12)
            accepted = enumerate_splines(G)
            assert accepted  # at least the trivial splines
            rejected = [
                v
                for v in product(range(12), repeat=3)
                if first_failing(G, tuple(zip(v))) is not None
            ]
            assert not set(accepted) & set(rejected)
            assert len(accepted) + len(rejected) == 12**3


@st.composite
def graphs_and_blocks(draw):
    """A random multigraph and a vertex-major block whose rows are shared
    through a random merge map, as a pulled-back block's are."""
    m = draw(st.sampled_from((0, 1, 2, 6, 12, 30)))
    n = draw(st.integers(1, 6))
    # zero and unit labels often, so that zero ideals and unit edges occur
    label = st.sampled_from((0, 1, m)) | st.integers(-2 * m - 3, 2 * m + 3)
    edges = []
    for _ in range(draw(st.integers(0, 8)) if n > 1 else 0):
        u = draw(st.integers(0, n - 1))
        v = (u + draw(st.integers(1, n - 1))) % n
        edges.append((u, v, draw(label)))
    G = EdgeLabeledGraph(m, tuple(f"v{i}" for i in range(n)), tuple(edges))
    width = draw(st.integers(0, 5))
    classes = draw(st.integers(1, n))
    merge = draw(st.lists(st.integers(0, classes - 1), min_size=n, max_size=n))
    # multiples of the modulus and small values, so that both answers occur
    step = m or 6
    value = st.integers(-3, 3).map(step.__mul__) | st.integers(-7, 7)
    class_rows = [
        tuple(draw(st.lists(value, min_size=width, max_size=width)))
        for _ in range(classes)
    ]
    return G, [class_rows[k] for k in merge]


class TestFirstFailing:
    @given(graphs_and_blocks())
    # column 1 fails only the first edge, column 2 only the second
    @example((
        EdgeLabeledGraph(6, ("a", "b", "c"), ((0, 1, 2), (1, 2, 3))),
        [(0, 1, 0), (0, 0, 0), (0, 0, 1)],
    ))
    # integer mode: column 2 differs by 2 across the zero label, which
    # demands equality, and by 2 across the label-2 edge, which allows it
    @example((
        EdgeLabeledGraph(0, ("a", "b", "c"), ((0, 1, 0), (1, 2, 2))),
        [(4, 7, 1), (4, 7, -1), (4, 9, 1)],
    ))
    def test_first_column_the_reference_rejects(self, case):
        G, rows = case
        columns = [tuple(row[j] for row in rows) for j in range(len(rows[0]))]
        expected = next(
            (j for j, col in enumerate(columns) if not reference_spline_check(G, col)),
            None,
        )
        assert first_failing(G, rows) == expected

    @given(graphs_and_blocks(), st.sampled_from((-1, 1)))
    def test_wrong_row_count(self, case, extra):
        G, rows = case
        rows = rows + rows[:1] if extra > 0 else rows[:-1]
        with pytest.raises(SplineError, match=r"expected \d+ values"):
            first_failing(G, rows)


class TestCheckSplines:
    @given(graphs_and_blocks())
    def test_names_the_first_failing_vector(self, case):
        G, rows = case
        j = first_failing(G, rows)
        if j is None:
            check_splines(G, rows, "test vector")
        else:
            vector = tuple(row[j] for row in rows)
            with pytest.raises(InternalInconsistency) as exc:
                check_splines(G, rows, "test vector")
            assert str(exc.value) == f"test vector {vector} fails an edge condition"


class TestComponents:
    @staticmethod
    def reference(n, pairs):
        # breadth-first search from each vertex not yet reached, in order,
        # so every vertex is labeled by the least vertex of its class
        adj = [[] for _ in range(n)]
        for u, v in pairs:
            adj[u].append(v)
            adj[v].append(u)
        root = [None] * n
        for s in range(n):
            if root[s] is None:
                root[s] = s
                queue = [s]
                for x in queue:  # the loop visits what it appends
                    for w in adj[x]:
                        if root[w] is None:
                            root[w] = s
                            queue.append(w)
        return root

    def test_matches_breadth_first_search(self):
        rng = random.Random(15)
        for _ in range(500):
            n = rng.randint(1, 12)
            pairs = [
                (rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))
            ]
            pairs += rng.sample(pairs, len(pairs) // 3)  # repeated pairs
            root = components(n, pairs)
            assert root == self.reference(n, pairs)
            for v, r in enumerate(root):
                assert r == min(w for w in range(n) if root[w] == r)


class TestNormalize:
    def test_zero_edge_merges(self):
        # triangle with labels 0, 2, 2 over Z/4: merging leaves a single edge
        G = EdgeLabeledGraph(4, ("a", "b", "c"), ((0, 1, 0), (1, 2, 2), (0, 2, 2)))
        H, report = normalize(G)
        assert H.n == 2
        assert H.edges == ((0, 1, 2),)
        assert report.vertex_merge_map == (0, 0, 1)

    def test_unit_edges_dropped(self):
        G = EdgeLabeledGraph(6, ("a", "b", "c"), ((0, 1, 5), (1, 2, 1)))
        H, report = normalize(G)
        assert H.n == 3 and H.edges == ()
        assert len(report.dropped_unit_edges) == 2

    def test_labels_gcd_reduced(self):
        G = EdgeLabeledGraph(12, ("a", "b"), ((0, 1, 8),))
        H, _ = normalize(G)
        assert H.edges == ((0, 1, 4),)

    def test_parallel_edges_intersect_ideals(self):
        # conjunction of "divisible by 4" and "divisible by 6" mod 12 forces
        # equality, so the two endpoints merge; brute force agrees
        G = EdgeLabeledGraph(12, ("a", "b"), ((0, 1, 4), (0, 1, 6)))
        H, report = normalize(G)
        assert H.n == 1
        splines = enumerate_splines(G)
        assert splines == [(x, x) for x in range(12)]
        assert len(splines) == 12 ** H.n

    def test_parallel_edges_partial_overlap(self):
        # gcd-reduced 4 and 6 intersect in lcm = 12, a proper ideal of Z/24
        G = EdgeLabeledGraph(24, ("a", "b"), ((0, 1, 4), (0, 1, 6)))
        H, _ = normalize(G)
        assert H.edges == ((0, 1, 12),)
        assert set(enumerate_splines(G)) == set(enumerate_splines(H))

    def test_idempotent(self):
        rng = random.Random(11)
        for _ in range(20):
            G = random_connected_graph(
                rng, 4, 12, labels=list(range(12))
            )
            H, _ = normalize(G)
            H2, report2 = normalize(H)
            assert report2 == NormalizationReport(tuple(range(H.n)), (), ())
            assert H2 == H

    def test_spline_sets_in_bijection(self):
        rng = random.Random(23)
        for m in (6, 12, 30):
            for _ in range(6):
                n = rng.randrange(2, 5)
                G = random_connected_graph(rng, n, m, labels=list(range(m)))
                H, report = normalize(G)
                original = set(enumerate_splines(G))
                pulled = {report.pull_back(f) for f in enumerate_splines(H)}
                assert pulled == original

    def test_collapse_reported_after_a_later_merge(self):
        # 2 and 3 mod 6 intersect in the zero ideal, so a and b merge, and
        # the regrouping round that follows still sees both c-d edges
        G = EdgeLabeledGraph(
            6, ("a", "b", "c", "d"), ((0, 1, 2), (0, 1, 3), (2, 3, 2), (2, 3, 4))
        )
        H, report = normalize(G)
        assert report.vertex_merge_map == (0, 0, 1, 2)
        assert H.edges == ((1, 2, 2),)
        assert report.collapsed_parallel_edges == (((2, 3), 2),)

    def test_collapse_across_merge_rounds(self):
        # the zero edges make the classes {v1, v4, v6, v7} and {v2, v5};
        # edges labeled 2 and 3 between them merge those in the first round,
        # and the edges v4-v3 and v6-v3 (label 4, modulus 2) stay one
        # collapsed edge through the second
        G = parse_graph(
            "mod 6\nvertices v1 v2 v3 v4 v5 v6 v7\n"
            "edge v1 v6 0\nedge v1 v5 5\nedge v6 v4 0\nedge v4 v3 4\n"
            "edge v3 v7 5\nedge v5 v2 0\nedge v3 v2 1\nedge v7 v2 2\n"
            "edge v4 v7 0\nedge v4 v2 3\nedge v6 v3 4\nedge v5 v6 4\n"
        )
        H, report = normalize(G)
        assert report.vertex_merge_map == (0, 0, 1, 0, 0, 0, 0)
        assert H.edges == ((0, 1, 2),)
        assert report.collapsed_parallel_edges == (((0, 2), 2),)
        assert set(enumerate_splines(G)) == {report.pull_back(f) for f in enumerate_splines(H)}

    def test_report_recounted_from_merge_map(self):
        # Recount what the report says from the final merge map alone: a
        # unit edge is dropped, and every class pair joined by two or more
        # of the other input edges is one collapsed edge, labeled by the lcm
        # of their moduli, under the classes' least original indices.
        rng = random.Random(37)
        for i in range(400):
            m = (0, 2, 4, 6, 12, 30, 36, 60)[i % 8]
            n = rng.randrange(2, 7)
            edges = tuple(
                (*rng.sample(range(n), 2), rng.randrange(-40, 40))
                for _ in range(rng.randrange(3 * n))
            )
            G = EdgeLabeledGraph(m, tuple(f"v{k}" for k in range(n)), edges)
            H, report = normalize(G)
            merge = report.vertex_merge_map
            first = {}
            for k, cls in enumerate(merge):
                first.setdefault(cls, k)
            units, groups = [], {}
            for u, v, label in G.edges:
                g = gcd(label, m)
                if g == 1:
                    units.append((u, v, label))
                elif merge[u] != merge[v]:
                    key = tuple(sorted((merge[u], merge[v])))
                    groups.setdefault(key, []).append(g)
            assert report.dropped_unit_edges == tuple(units)
            assert H.edges == tuple(
                (a, b, lcm(*gs)) for (a, b), gs in sorted(groups.items())
            )
            assert report.collapsed_parallel_edges == tuple(
                ((first[a], first[b]), lcm(*gs))
                for (a, b), gs in sorted(groups.items())
                if len(gs) > 1
            )

    def test_matches_naive_fixpoint(self):
        # Few vertices and many edges give parallel pairs; labels that are
        # multiples of divisors of m give zero edges and groups whose lcm
        # is m.  A merge that neither a zero edge nor the edges between one
        # original pair makes needed an earlier merge to group its edges.
        rng = random.Random(41)
        moduli = (0, 1, 2, 4, 6, 12, 30, 36, 60, 360)
        zero_edges = late_merges = 0
        for i in range(1000):
            m = moduli[i % len(moduli)]
            n = rng.randrange(1, 8)
            if m:
                divisors = [d for d in range(1, m + 1) if m % d == 0]
                labels = [d * k for d in divisors for k in (1, -1, 7)]
            else:
                labels = [0, 1, -1, 2, 3, 4, 6, 12, -6]
            pairs = [tuple(rng.sample(range(n), 2)) for _ in range(2 * n)] if n > 1 else []
            edges = tuple(
                (*rng.choice(pairs), rng.choice(labels))
                for _ in range(rng.randrange(4 * n) if pairs else 0)
            )
            G = EdgeLabeledGraph(m, tuple(f"v{k}" for k in range(n)), edges)
            H, report = normalize(G)
            assert (H, report) == reference_normalize(G)
            merge = report.vertex_merge_map
            zero = [(u, v) for u, v, g in G.conditions if g == m]
            by_pair = {}
            for u, v, g in G.conditions:
                by_pair.setdefault((min(u, v), max(u, v)), []).append(g)
            one_round = components(n, zero + [p for p, gs in by_pair.items() if lcm(*gs) == m])
            zero_edges += bool(zero)
            late_merges += len(set(merge)) < len(set(one_round))
        assert zero_edges > 300 and late_merges > 20

    def test_m1_collapses_everything(self):
        G = EdgeLabeledGraph(1, ("a", "b"), ((0, 1, 0),))
        H, _ = normalize(G)
        assert H.modulus == 1 and H.edges == ()

    def test_integer_mode(self):
        G = EdgeLabeledGraph(0, ("a", "b", "c"), ((0, 1, 0), (1, 2, 6), (0, 2, 1)))
        H, report = normalize(G)
        assert H.n == 2
        assert H.edges == ((0, 1, 6),)
        assert report.vertex_merge_map == (0, 0, 1)
