import json
import pathlib
import subprocess
import sys
import time

import pytest

from splinemod import cli, engine

C21_TEXT = """\
mod 21
vertices v1 v2 v3 v4 v5 v6
edge v1 v2 3
edge v2 v3 3
edge v3 v4 7
edge v4 v5 7
edge v5 v6 3
edge v6 v1 7
"""

TRI36_TEXT = """\
mod 36
vertices v1 v2 v3
edge v1 v2 30
edge v1 v3 18
edge v2 v3 12
"""


GRAPHS = pathlib.Path(__file__).parent / "graphs"
GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.fixture
def c21(tmp_path):
    path = tmp_path / "c21.graph"
    path.write_text(C21_TEXT)
    return str(path)


@pytest.fixture
def tri36(tmp_path):
    path = tmp_path / "tri36.graph"
    path.write_text(TRI36_TEXT)
    return str(path)


def run_json(capsys, argv):
    code = cli.main(argv + ["--json"])
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


class TestSolve:
    def test_c21(self, capsys, c21):
        report = run_json(capsys, ["solve", c21])
        assert report["invariant_factors"] == [21, 21, 21]
        assert report["rank"] == 3
        assert report["order"] == 21**3
        assert report["crt"] is not None
        assert [c["prime_power"] for c in report["crt"]["components"]] == [3, 7]

    def test_tri36(self, capsys, tri36):
        report = run_json(capsys, ["solve", tri36])
        assert report["invariant_factors"] == [6, 36]
        assert len(report["minimum_generating_set"]) == 2

    def test_json_roundtrip_exact(self, capsys, tri36):
        report = run_json(capsys, ["solve", tri36])
        again = json.loads(json.dumps(report))
        assert again == report

    def test_direct_and_crt_agree(self, capsys, tri36):
        direct = run_json(capsys, ["solve", tri36, "--direct"])
        crt = run_json(capsys, ["solve", tri36, "--crt"])
        assert direct["invariant_factors"] == crt["invariant_factors"]

    def test_verify_small(self, capsys, tri36):
        report = run_json(capsys, ["solve", tri36, "--verify"])
        oracle = report["oracle"]
        assert oracle["factors_match"] and oracle["mgs_spans"]
        assert oracle["spline_count"] == 216

    def test_verify_budget_exit(self, capsys, c21):
        assert cli.main(["solve", c21, "--verify"]) == 3

    def test_verify_with_budget_flag(self, capsys, c21):
        report = run_json(capsys, ["solve", c21, "--verify", "--budget", "90000000"])
        assert report["oracle"]["spline_count"] == 9261

    def test_order_flag(self, capsys, tri36):
        report = run_json(capsys, ["solve", tri36, "--order", "v3,v1,v2"])
        assert report["instance"]["vertices"] == ["v3", "v1", "v2"]
        assert report["invariant_factors"] == [6, 36]

    def test_order_flag_changes_flow_up_lead(self, capsys, tri36):
        a = run_json(capsys, ["solve", tri36])
        b = run_json(capsys, ["solve", tri36, "--order", "v2,v3,v1"])
        assert a["invariant_factors"] == b["invariant_factors"]

    def test_modulus_one(self, capsys, tmp_path):
        path = tmp_path / "one.graph"
        path.write_text("mod 1\nvertices a b\nedge a b 0\n")
        report = run_json(capsys, ["solve", str(path)])
        assert report["invariant_factors"] == []
        assert report["rank"] == 0

    def test_integer_mode(self, capsys, tmp_path):
        path = tmp_path / "int.graph"
        path.write_text("mod 0\nvertices a b\nedge a b 2\n")
        report = run_json(capsys, ["solve", str(path)])
        assert report["mode"] == "integer-lattice"
        assert report["lattice_basis_columns"] == [[1, 1], [0, 2]]

    def test_json_graph_input(self, capsys, tmp_path):
        obj = {
            "mod": 36,
            "vertices": ["v1", "v2", "v3"],
            "edges": [["v1", "v2", 30], ["v1", "v3", 18], ["v2", "v3", 12]],
        }
        path = tmp_path / "tri.json"
        path.write_text(json.dumps(obj))
        report = run_json(capsys, ["solve", str(path)])
        assert report["invariant_factors"] == [6, 36]

    def test_missing_file_is_input_error(self, capsys):
        assert cli.main(["solve", "/nonexistent.graph"]) == 2

    def test_parse_error_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("mod 6\nvertices a b\nedge a b\n")
        assert cli.main(["solve", str(path)]) == 2

    def test_crt_mismatch_is_exit_4(self, capsys, tri36, monkeypatch):
        from splinemod.engine import SplineModule

        def broken_decompose(G):
            from splinemod.decompose import Decomposition

            wrong = SplineModule(36, (36,), ((1, 1, 1),), (), (36,))
            return Decomposition((), wrong)

        monkeypatch.setattr(cli, "decompose", broken_decompose)
        assert cli.main(["solve", tri36]) == 4

    def test_prime_power_solved_once(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "m64.graph"
        path.write_text(
            "mod 64\nvertices a b c d e\n"
            "edge a b 2\nedge b c 4\nedge c d 8\nedge d e 16\nedge e a 32\nedge a c 12\n"
        )
        crt = run_json(capsys, ["solve", str(path), "--crt"])
        assert len(crt["crt"]["components"]) == 1

        def no_decompose(G):
            raise AssertionError("a prime-power modulus was decomposed")

        monkeypatch.setattr(cli, "decompose", no_decompose)
        report = run_json(capsys, ["solve", str(path)])
        assert report["crt"] is None
        assert report["invariant_factors"] == crt["invariant_factors"]

    def test_wide_squarefree_graph_default_mode(self, capsys):
        path = str(GRAPHS / "n30_e80_m30030.graph")
        start = time.perf_counter()
        report = run_json(capsys, ["solve", path])
        assert time.perf_counter() - start < 1.0
        crt = run_json(capsys, ["solve", path, "--crt"])
        assert report["invariant_factors"] == crt["invariant_factors"]
        assert report["crt"]["invariant_factors"] == crt["invariant_factors"]

    def test_large_semiprime_modulus(self, capsys, tmp_path):
        # m = (10**9 + 7) * (10**9 + 9): both primes lie past trial division
        p, q = 10**9 + 7, 10**9 + 9
        path = tmp_path / "big.graph"
        path.write_text(
            f"mod {p * q}\nvertices a b c\nedge a b {p}\nedge b c {q}\nedge a c 6\n"
        )
        start = time.perf_counter()
        report = run_json(capsys, ["solve", str(path)])
        assert time.perf_counter() - start < 1.0
        assert report["invariant_factors"] == [p * q, p * q]
        assert [c["prime_power"] for c in report["crt"]["components"]] == [p, q]

    def test_verify_past_a_million_labelings(self, capsys, monkeypatch):
        # m**n = 9**7 lies between 10**6 and the default budget of 10**7
        monkeypatch.delenv("SPLINEMOD_BUDGET", raising=False)
        path = str(GRAPHS / "n7_m9.graph")
        start = time.perf_counter()
        report = run_json(capsys, ["solve", path, "--verify"])
        assert time.perf_counter() - start < 1.0
        assert report["oracle"]["spline_count"] == report["order"] == 3**9
        assert report["oracle"]["factors_match"] and report["oracle"]["mgs_spans"]

    @pytest.mark.slow
    def test_verify_at_the_default_budget(self, capsys, monkeypatch):
        # m**n = 10**7, the default budget; about 3 s and 200 MB
        monkeypatch.delenv("SPLINEMOD_BUDGET", raising=False)
        report = run_json(capsys, ["solve", str(GRAPHS / "n7_m10.graph"), "--verify"])
        assert report["oracle"]["spline_count"] == report["order"] == 625_000

    def test_human_output_mentions_factors(self, capsys, tri36):
        assert cli.main(["solve", tri36]) == 0
        out = capsys.readouterr().out
        assert "invariant factors: (6, 36)" in out
        assert "rank: 2" in out

    def test_report_schema_frozen(self, capsys, tri36):
        # byte-stable against the checked-in golden file, modulo whitespace
        # (both sides re-serialized with sorted keys)
        report = run_json(capsys, ["solve", tri36])
        golden_path = pathlib.Path(__file__).parent / "golden" / "tri36_solve.json"
        golden = json.loads(golden_path.read_text())
        assert json.dumps(report, indent=2, sort_keys=True) == json.dumps(
            golden, indent=2, sort_keys=True
        )


class TestCycle:
    def test_two_label_route(self, capsys, c21):
        report = run_json(capsys, ["cycle", c21])
        gens = report["generating_set"]
        assert gens["provenance"] == "merged(two-label)"
        assert gens["minimum"] is True
        assert sorted(map(tuple, gens["splines"])) == sorted(
            [
                (1, 1, 1, 1, 1, 1),
                (0, 3, 3, 10, 10, 7),
                (0, 0, 3, 3, 10, 7),
            ]
        )
        assert report["invariant_factors"] == [21, 21, 21]

    def test_single_label_route(self, capsys, tmp_path):
        path = tmp_path / "c3.graph"
        path.write_text(
            "mod 9\nvertices a b c\nedge a b 3\nedge b c 3\nedge c a 3\n"
        )
        report = run_json(capsys, ["cycle", str(path)])
        assert report["generating_set"]["provenance"] == "single-label"

    def test_power_route(self, capsys, tmp_path):
        path = tmp_path / "c5.graph"
        path.write_text(
            "mod 8\nvertices a b c d e\n"
            "edge a b 2\nedge b c 4\nedge c d 2\nedge d e 4\nedge e a 2\n"
        )
        report = run_json(capsys, ["cycle", str(path), "--verify"])
        assert report["generating_set"]["provenance"] == "power-family"
        assert report["oracle"]["set_spans"] is True

    def test_divisibility_chain_route(self, capsys, tmp_path):
        # 6 is no power of 2 mod 12, but (2) contains (6): a chain all the same
        path = tmp_path / "c4.graph"
        path.write_text(
            "mod 12\nvertices a b c d\n"
            "edge a b 2\nedge b c 6\nedge c d 2\nedge d a 6\n"
        )
        report = run_json(capsys, ["cycle", str(path), "--verify"])
        assert report["generating_set"]["provenance"] == "power-family"
        assert report["note"] is None
        assert report["oracle"]["set_spans"] is True

    def test_two_label_40_cycle(self, capsys):
        # m = 2^2 * 5 * 11^3; deciding that no closed form but two-label
        # applies must not cost work that grows with m
        start = time.perf_counter()
        report = run_json(capsys, ["cycle", str(GRAPHS / "c40_m26620.graph")])
        assert time.perf_counter() - start < 1.0
        golden = json.loads((GOLDEN / "c40_m26620_cycle.json").read_text())
        assert report["generating_set"]["provenance"] == "merged(two-label)"
        assert json.dumps(report, sort_keys=True) == json.dumps(golden, sort_keys=True)

    def test_two_label_large_modulus(self, capsys):
        # m = 2 * 1000003, with labels 2 and 1000003
        start = time.perf_counter()
        report = run_json(capsys, ["cycle", str(GRAPHS / "c6_m2000006.graph")])
        assert time.perf_counter() - start < 1.0
        assert report["generating_set"]["provenance"] == "merged(two-label)"
        assert report["invariant_factors"] == [2000006] * 3

    def test_fallback_route(self, capsys, tmp_path):
        # labels 2 and 3 mod 12: lcm is 6 != 12, no closed form applies
        path = tmp_path / "c4.graph"
        path.write_text(
            "mod 12\nvertices a b c d\n"
            "edge a b 2\nedge b c 3\nedge c d 2\nedge d a 3\n"
        )
        report = run_json(capsys, ["cycle", str(path), "--verify"])
        assert report["note"] is not None
        assert report["generating_set"]["provenance"] == "lattice-smith"
        assert report["oracle"]["set_spans"] is True

    def test_zero_label_falls_back(self, capsys, tmp_path):
        # a zero-ideal edge violates every closed form's label precondition
        path = tmp_path / "c4z.graph"
        path.write_text(
            "mod 6\nvertices a b c d\n"
            "edge a b 6\nedge b c 2\nedge c d 6\nedge d a 2\n"
        )
        report = run_json(capsys, ["cycle", str(path), "--verify"])
        assert report["note"] is not None
        assert report["oracle"]["set_spans"] is True
        assert report["invariant_factors"] == [3, 6]

    def test_not_a_cycle(self, capsys, tmp_path):
        path = tmp_path / "path.graph"
        path.write_text("mod 6\nvertices a b c\nedge a b 2\nedge b c 3\n")
        assert cli.main(["cycle", str(path)]) == 2


class TestConstruct:
    def test_rank_1_k4(self, capsys):
        report = run_json(capsys, ["construct", "4", "6", "1"])
        assert report["verified_rank"] == 1
        from splinemod.graph import parse_graph
        from splinemod.engine import rank

        G = parse_graph(report["graph_file"])
        assert rank(G) == 1

    def test_rank_5(self, capsys):
        report = run_json(capsys, ["construct", "5", "6", "5"])
        assert report["verified_rank"] == 5

    def test_infeasible_exit(self, capsys):
        assert cli.main(["construct", "3", "4", "1"]) == 2

    def test_emits_parseable_graph_file(self, capsys):
        assert cli.main(["construct", "3", "30", "1"]) == 0
        out = capsys.readouterr().out
        from splinemod.graph import parse_graph

        G = parse_graph("\n".join(l for l in out.splitlines() if not l.startswith("#")))
        assert G.modulus == 30


class TestExtend:
    def test_integer_mode_example(self, capsys, tmp_path):
        base = tmp_path / "base.graph"
        base.write_text("mod 0\nvertices a b\nedge a b 2\n")
        ext = tmp_path / "ext.graph"
        ext.write_text("mod 0\nvertices a b c\nedge a b 2\nedge b c 6\nedge a c 3\n")
        report = run_json(capsys, ["extend", str(base), str(ext), "c"])
        assert report["incident_lcm"] == 6
        assert report["pi_surjective"] is False
        assert report["kernel_order"] is None

    def test_mod_m_kernel(self, capsys, tmp_path):
        base = tmp_path / "base.graph"
        base.write_text("mod 12\nvertices a b\nedge a b 2\n")
        ext = tmp_path / "ext.graph"
        ext.write_text("mod 12\nvertices a b c\nedge a b 2\nedge b c 8\n")
        report = run_json(capsys, ["extend", str(base), str(ext), "c"])
        assert report["incident_lcm"] == 4
        assert report["kernel_order"] == 3
        assert "base_module" in report and "extended_module" in report

    @pytest.mark.parametrize(
        "mod, solver", [(12, "invariant_factors"), (0, "pulled_back_lattice")]
    )
    def test_base_solved_once(self, capsys, tmp_path, monkeypatch, mod, solver):
        base = tmp_path / "base.graph"
        base.write_text(f"mod {mod}\nvertices a b\nedge a b 2\n")
        ext = tmp_path / "ext.graph"
        ext.write_text(f"mod {mod}\nvertices a b c\nedge a b 2\nedge b c 8\n")
        solved = []
        original = getattr(engine, solver)

        def counting(G):
            solved.append(G.vertices)
            return original(G)

        monkeypatch.setattr(engine, solver, counting)
        monkeypatch.setattr(cli, solver, counting)
        run_json(capsys, ["extend", str(base), str(ext), "c"])
        assert solved == [("a", "b"), ("a", "b", "c")]

    def test_not_extension_exit(self, capsys, tmp_path):
        base = tmp_path / "base.graph"
        base.write_text("mod 12\nvertices a b\nedge a b 3\n")
        ext = tmp_path / "ext.graph"
        ext.write_text("mod 12\nvertices a b c\nedge a b 2\nedge b c 8\n")
        assert cli.main(["extend", str(base), str(ext), "c"]) == 2


class TestEnvBudget:
    def test_env_budget_respected(self, capsys, c21, monkeypatch):
        monkeypatch.setenv("SPLINEMOD_BUDGET", "90000000")
        report = run_json(capsys, ["solve", c21, "--verify"])
        assert report["oracle"]["spline_count"] == 9261

    def test_bad_env_budget_is_input_error(self, capsys, tri36, monkeypatch):
        monkeypatch.setenv("SPLINEMOD_BUDGET", "xyz")
        assert cli.main(["solve", tri36, "--verify"]) == 2
        assert "SPLINEMOD_BUDGET" in capsys.readouterr().err


class TestInputErrors:
    """Malformed input ends in exit 2 with a message, never a traceback."""

    @pytest.mark.parametrize(
        "obj",
        [
            {"mod": "abc", "vertices": ["a", "b"], "edges": [["a", "b", 2]]},
            {"mod": 6.0, "vertices": ["a", "b"], "edges": [["a", "b", 2]]},
            {"mod": 6, "vertices": ["a", "b"], "edges": [5]},
            {"mod": 6, "vertices": ["a", "b"], "edges": 5},
            {"mod": 6, "vertices": ["a", "b"], "edges": [["a", "b", 2.7]]},
            {"mod": 6, "vertices": ["a", "b"], "edges": [["a", "b", True]]},
            {"mod": 6, "vertices": ["a", "b"], "edges": [["a", "b", "2"]]},
            {"mod": 6, "vertices": ["a", "b"], "edges": [["a", "c", 2]]},
        ],
    )
    def test_malformed_json_graph(self, capsys, tmp_path, obj):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        assert cli.main(["solve", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("m", ["0", "-6"])
    def test_construct_nonpositive_modulus(self, capsys, m):
        assert cli.main(["construct", "3", m, "1"]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestConsoleScript:
    def test_module_invocation(self, tri36):
        proc = subprocess.run(
            [sys.executable, "-m", "splinemod.cli", "solve", tri36, "--json"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["invariant_factors"] == [6, 36]
