"""The benchmark's checks: they accept the program's real answers, reject
corrupted ones, and their closed forms agree with brute force.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import random
from itertools import product
from math import gcd

import pytest

import checks
from checks import Graph
from spans import METRICS, TARGETS, Tracer
from workloads import WORKLOADS, cycle_graph, random_graph


def cli_report(argv: list[str]) -> dict:
    from splinemod import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return json.loads(out.getvalue())


def solve(G: Graph, tmp_path, *flags: str) -> dict:
    path = tmp_path / "g.txt"
    path.write_text(G.to_text())
    return cli_report(["solve", "--json", *flags, str(path)])


def all_splines(G: Graph) -> list[tuple[int, ...]]:
    m = G.modulus
    return [f for f in product(range(m), repeat=G.n) if checks.is_spline(G, f)]


def census_matches(G: Graph, factors: tuple[int, ...]) -> bool:
    """The number of splines killed by d is prod gcd(d, d_i) for every d | m,
    which pins the invariant factors down completely."""
    splines = all_splines(G)
    m = G.modulus
    for d in range(1, m + 1):
        if m % d:
            continue
        killed = sum(1 for f in splines if all(d * x % m == 0 for x in f))
        want = 1
        for di in factors:
            want *= gcd(d, di)
        if killed != want:
            return False
    return True


TINY = [(n, m) for n in (2, 3, 4) for m in (4, 6, 8, 9, 12)]


@pytest.mark.parametrize("n,m", TINY)
def test_tree_closed_form_matches_brute_force(n, m):
    rng = random.Random(f"tree/{n}/{m}")
    for _ in range(3):
        G = random_graph(rng, n, n - 1, m)
        assert checks.expected_factors(G) == checks.tree_factors(G)
        assert census_matches(G, checks.tree_factors(G))
        assert checks.tree_factors(G) == checks.module_factors(G)


@pytest.mark.parametrize("n,m", TINY)
def test_single_label_closed_form_matches_brute_force(n, m):
    rng = random.Random(f"single/{n}/{m}")
    for _ in range(3):
        label = rng.randrange(m)
        G = random_graph(rng, n, min(n * (n - 1) // 2, n + 1), m, lambda: label)
        assert checks.expected_factors(G) == checks.single_label_factors(G)
        assert census_matches(G, checks.single_label_factors(G))


@pytest.mark.parametrize("n,m", TINY + [(5, 4), (5, 6)])
def test_local_smith_matches_brute_force(n, m):
    rng = random.Random(f"local/{n}/{m}")
    for _ in range(4):
        e = rng.randint(n - 1, n * (n - 1) // 2)
        G = random_graph(rng, n, e, m)
        factors = checks.module_factors(G)
        assert census_matches(G, factors)
        order = 1
        for d in factors:
            order *= d
        assert checks.brute_force_count(G) == order == len(all_splines(G))


def test_span_order_counts_the_closure():
    m = 12
    gens = [(0, 4, 8), (6, 6, 0)]
    closure = {(0, 0, 0)}
    frontier = list(closure)
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = tuple((a + b) % m for a, b in zip(x, g))
            if y not in closure:
                closure.add(y)
                frontier.append(y)
    assert checks.span_order(gens, m) == len(closure)


# ------------------------------------------------------ rejecting bad answers

TRI36 = Graph(36, 3, ((0, 1, 30), (0, 2, 18), (1, 2, 12)))
C21 = cycle_graph(6, 21, [3, 3, 7, 7, 3, 7])


@pytest.fixture
def tri36(tmp_path):
    return solve(TRI36, tmp_path)


def test_real_answers_pass(tri36, tmp_path):
    assert checks.check_solve(TRI36, tri36) == []
    assert checks.check_solve(TRI36, solve(TRI36, tmp_path, "--crt")) == []
    rng = random.Random(5)
    G = random_graph(rng, 12, 20, 360)
    assert checks.check_solve(G, solve(G, tmp_path)) == []


def test_wrong_factor_is_rejected(tri36):
    bad = copy.deepcopy(tri36)
    bad["invariant_factors"] = [2, 36]
    bad["order"] = 72
    assert checks.check_solve(TRI36, bad)


def test_non_spline_generator_is_rejected(tri36):
    bad = copy.deepcopy(tri36)
    vec = bad["minimum_generating_set"][0]
    vec[0] = (vec[0] + 1) % 36
    assert any("not a spline" in p for p in checks.check_solve(TRI36, bad))


def test_generators_that_do_not_span_are_rejected(tri36):
    bad = copy.deepcopy(tri36)
    # same orders, still splines, but the order-6 generator now lies in
    # the span of the order-36 one
    bad["minimum_generating_set"][0] = [6, 6, 6]
    assert any("span" in p for p in checks.check_solve(TRI36, bad))


def test_non_triangular_flow_up_is_rejected(tri36):
    bad = copy.deepcopy(tri36)
    bad["flow_up_generators"].reverse()
    assert any("triangular" in p for p in checks.check_solve(TRI36, bad))


def test_short_flow_up_set_is_rejected(tri36):
    bad = copy.deepcopy(tri36)
    bad["flow_up_generators"].pop()
    assert checks.check_solve(TRI36, bad)


def test_wrong_crt_component_is_rejected(tri36):
    bad = copy.deepcopy(tri36)
    bad["crt"]["components"][0]["invariant_factors"][0] += 1
    assert any("crt component" in p for p in checks.check_solve(TRI36, bad))


def test_construct_rank_is_checked():
    report = cli_report(["construct", "--json", "6", "30", "3"])
    assert checks.check_construct(report, 6, 30, 3) == []
    assert checks.check_construct(report, 6, 30, 4)
    bad = copy.deepcopy(report)
    for edge in bad["instance"]["edges"]:
        edge[2] = 0  # every vertex equal: rank 1
    assert checks.check_construct(bad, 6, 30, 3)


def test_cycle_generating_set_is_checked(tmp_path):
    path = tmp_path / "c21.txt"
    path.write_text(C21.to_text())
    report = cli_report(["cycle", "--json", str(path)])
    assert checks.check_cycle(C21, report) == []
    bad = copy.deepcopy(report)
    bad["generating_set"]["splines"][1][0] += 1
    assert checks.check_cycle(C21, bad)


def test_integer_mode_basis_is_checked(tmp_path):
    G = Graph(0, 4, ((0, 1, 4), (1, 2, 6), (2, 3, 10), (3, 0, 15)))
    report = solve(G, tmp_path)
    assert checks.check_integer(G, report) == []
    bad = copy.deepcopy(report)
    bad["lattice_basis_columns"][1] = [2 * x for x in bad["lattice_basis_columns"][1]]  # index 2
    assert any("index" in p for p in checks.check_integer(G, bad))
    bad = copy.deepcopy(report)
    bad["lattice_basis_columns"][2][0] = 1
    assert any("triangular" in p for p in checks.check_integer(G, bad))


def test_oracle_block_is_checked(tmp_path):
    report = solve(TRI36, tmp_path, "--verify")
    assert checks.check_oracle(TRI36, report, 10**5) == []
    bad = copy.deepcopy(report)
    bad["order"] = 108
    assert checks.check_oracle(TRI36, bad, 10**5)


# ----------------------------------------------------------- instance sets


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_gives_a_fresh_set_of_the_same_make_up(name, tmp_path):
    build = WORKLOADS[name].build
    texts = {}
    for seed, sub in ((1, "a"), (1, "b"), (2, "c")):
        work = tmp_path / sub
        work.mkdir()
        cases = build(seed, work)
        texts[sub] = [p.read_text() for p in sorted(work.iterdir())]
        texts[sub + "-count"] = len(cases)
    assert texts["a"] == texts["b"]
    assert texts["a"] != texts["c"]
    assert texts["a-count"] == texts["c-count"]


# ----------------------------------------------------------------- tracing


def test_trace_counts_layers_and_restores_the_program(tmp_path):
    from splinemod import engine, matrix

    path = tmp_path / "g.txt"
    path.write_text(TRI36.to_text())
    original = engine.hnf
    tracer = Tracer()
    tracer.install()
    try:
        assert engine.hnf is not original and matrix.hnf is not original
        cli_report(["solve", "--json", str(path)])
        totals = tracer.take()
    finally:
        tracer.uninstall()
    assert engine.hnf is original
    # the direct path once, then once per prime power of 36 = 4 * 9
    assert totals["engine.invariant_factors"]["calls"] == 3
    assert totals["decompose.decompose"]["components"] == 2
    assert totals["matrix.kernel_basis"]["out_bits"] > 0
    assert all(t["self_ms"] >= 0 for t in totals.values())
    assert {span for span, _ in METRICS.values()} <= {t[0] for t in TARGETS}


def test_trace_skips_names_the_program_no_longer_has(monkeypatch):
    import spans

    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (("x.gone", "splinemod.matrix", "no_such_function", {}),))
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert spans.metric({}, "matrix.hnf.calls") == 0
