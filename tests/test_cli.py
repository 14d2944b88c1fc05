import ast
import dataclasses
import gc
import importlib
import json
import os
import pathlib
import subprocess
import sys
import threading
import time
from collections import Counter

import pytest
from hypothesis import example, given, strategies as st

from splinemod import cli, cycles, engine, graph
from splinemod import construct as construct_mod
from splinemod.arith import Factorization
from splinemod.graph import parse_graph
from splinemod.matrix import IntMatrix
from support import reference_spline_check

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

SINGLE_LABEL_TEXT = "mod 9\nvertices a b c\nedge a b 3\nedge b c 3\nedge c a 3\n"

TRI36_TEXT = """\
mod 36
vertices v1 v2 v3
edge v1 v2 30
edge v1 v3 18
edge v2 v3 12
"""


DESK30_TEXT = """\
mod 30
vertices a b c d
edge a b 6
edge b c 10
edge c d 15
edge d a 4
edge a c 9
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


def mismatch(capsys, argv, check):
    """Assert exit 4 with nothing printed and the message naming the check;
    return the message."""
    assert cli.main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert check in captured.err
    return captured.err


def named_vector(err, what):
    """The vector an edge-check message names after ``what``."""
    return ast.literal_eval(err.split(f"{what} ")[1].split(" fails")[0])


def corrupt_lattice(monkeypatch):
    """Make every integer lattice add 1 to its last column's pivot."""
    original = engine.integer_lattice

    def corrupted(G):
        rows = [list(row) for row in original(G).entries]
        rows[-1][-1] += 1
        return IntMatrix(rows)

    monkeypatch.setattr(engine, "integer_lattice", corrupted)


def bump_trivial(gens):
    """The set with its trivial spline moved by 1 at the second vertex: the
    orders stay the same, but no edge there with a non-unit label holds."""
    first = gens.splines[0]
    bumped = (first[0], first[1] + 1) + first[2:]
    return dataclasses.replace(gens, splines=(bumped,) + gens.splines[1:])


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

    @pytest.mark.parametrize("flag", ["--crt", "--direct"])
    @pytest.mark.parametrize("text", [TRI36_TEXT, DESK30_TEXT], ids=["tri36", "desk30"])
    def test_verify_each_path(self, capsys, tmp_path, flag, text):
        # with --crt the oracle checks the CRT-glued generating set
        path = tmp_path / "g.graph"
        path.write_text(text)
        report = run_json(capsys, ["solve", str(path), flag, "--verify"])
        oracle = report["oracle"]
        assert oracle["spline_count"] == report["order"]
        assert oracle["factors_match"] and oracle["mgs_spans"]

    def test_verify_rejects_a_glued_set_that_does_not_span(self, capsys, tri36, monkeypatch):
        # p * g for a prime p dividing g's order has a smaller order, so the
        # set no longer spans, while the stated factors stay right
        original = cli.decompose

        def shrunk(G):
            dec = original(G)
            module = dec.recombined
            g, order = module.mgs[-1], module.invariant_factors[-1]
            p = min(q for q in range(2, order + 1) if order % q == 0)
            mgs = module.mgs[:-1] + (tuple(p * x % G.modulus for x in g),)
            return dataclasses.replace(dec, recombined=dataclasses.replace(module, mgs=mgs))

        monkeypatch.setattr(cli, "decompose", shrunk)
        err = mismatch(capsys, ["solve", tri36, "--crt", "--verify"], "oracle disagrees")
        assert "'factors_match': True, 'mgs_spans': False" in err

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
        for text, line in [
            ("mod 6\nvertices a b\nedge a b\n", 3),
            # int() reads the next two as 12 and 4, and "٤" (Arabic-Indic
            # four) as 4: only a sign and the ASCII digits 0-9 are accepted
            ("mod 1_2\nvertices a b\nedge a b 2\n", 1),
            ("mod 6\nvertices a b\nedge a b 0_4\n", 3),
            ("mod ٤\nvertices a b\nedge a b 2\n", 1),
            ("mod 6\nvertices a b\nedge a b ٤\n", 3),
            ("mod 6\nvertices a b\nedge a b +-4\n", 3),
        ]:
            path.write_text(text, encoding="utf-8")
            assert cli.main(["solve", str(path)]) == 2, text
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: line {line}: "), captured.err

    def test_crt_on_modulus_one_is_input_error(self, capsys, tmp_path):
        # Z/1 has no prime power to decompose along; the other paths answer
        path = tmp_path / "one.graph"
        path.write_text("mod 1\nvertices a b\nedge a b 0\n")
        assert run_json(capsys, ["solve", str(path), "--direct"])["rank"] == 0
        assert cli.main(["solve", str(path), "--crt"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "decomposition needs modulus >= 2, got 1" in captured.err

    def test_crt_on_modulus_zero_is_input_error(self, capsys, tmp_path):
        # Z has no prime power to decompose along; the other paths answer
        path = tmp_path / "int.graph"
        path.write_text("mod 0\nvertices a b\nedge a b 2\n")
        for flags in ([], ["--direct"]):
            report = run_json(capsys, ["solve", str(path), *flags])
            assert report["mode"] == "integer-lattice"
        assert cli.main(["solve", str(path), "--crt"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --crt cannot decompose an infinite module\n"

    def test_crt_mismatch_is_exit_4(self, capsys, tri36, monkeypatch):
        from splinemod.engine import SplineModule

        def broken_decompose(G):
            from splinemod.decompose import Decomposition

            wrong = SplineModule(36, (36,), ((1, 1, 1),), (36,))
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

    def test_free_components_skip_the_kernels(self, capsys, monkeypatch):
        # m = 30030 is squarefree, so each of the six prime components
        # normalizes to an edgeless graph and takes the closed form: only the
        # direct path reaches the lattice kernels, and it takes one lattice
        # (B, inverted once for snf)
        calls = Counter()

        def counting(name, real):
            def counted(*args):
                calls[name] += 1
                return real(*args)
            return counted

        for name in ("integer_lattice", "_scaled_inverse", "snf"):
            monkeypatch.setattr(engine, name, counting(name, getattr(engine, name)))
        path = str(GRAPHS / "n30_e80_m30030.graph")
        run_json(capsys, ["solve", path, "--crt"])
        assert calls == {}
        run_json(capsys, ["solve", path])
        assert calls == {"integer_lattice": 1, "_scaled_inverse": 1, "snf": 1}

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
    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kB on Linux")
    def test_verify_at_the_default_budget(self, monkeypatch):
        # m**n = 10**7, the default budget.  Its own process, which reports
        # its peak RSS: about 111 MB with one set over the 625,000 splines
        # and the span check's cosets in byte columns (136 MB with a second
        # set) on a shared 2-vCPU Xeon; about 0.5 s.
        monkeypatch.delenv("SPLINEMOD_BUDGET", raising=False)
        script = (
            "import contextlib, io, json, resource, sys\n"
            "from splinemod import cli\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            "    code = cli.main(sys.argv[1:])\n"
            "peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "print(json.dumps({'code': code, 'report': json.loads(out.getvalue()), 'peak_kb': peak}))\n"
        )
        argv = ["solve", str(GRAPHS / "n7_m10.graph"), "--verify", "--json"]
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv], capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)
        report = result["report"]
        assert result["code"] == 0
        assert report["oracle"]["spline_count"] == report["order"] == 625_000
        assert report["oracle"]["factors_match"] and report["oracle"]["mgs_spans"]
        assert result["peak_kb"] < 128 * 1024

    @pytest.mark.slow
    def test_direct_path_at_n350(self, capsys):
        # 7-11 s and 31 MB on a shared 2-core Xeon
        path = str(GRAPHS / "n350_e1400_m30030.graph")
        start = time.perf_counter()
        direct = run_json(capsys, ["solve", path, "--direct"])
        assert time.perf_counter() - start < 60.0
        crt = run_json(capsys, ["solve", path, "--crt"])
        assert direct["invariant_factors"] == crt["invariant_factors"]
        assert direct["rank"] == 246

    @pytest.mark.parametrize(
        "text", [TRI36_TEXT, "mod 64\nvertices a b c\nedge a b 4\nedge b c 8\n"]
    )
    def test_input_normalized_once(self, capsys, tmp_path, monkeypatch, text):
        # the CLI's report and the engine share one normalization; the
        # cross-check normalizes each prime-power component on its own
        path = tmp_path / "g.graph"
        path.write_text(text)
        moduli = []
        original = engine.normalize

        def counting(G):
            moduli.append(G.modulus)
            return original(G)

        monkeypatch.setattr(engine, "normalize", counting)
        monkeypatch.setattr(cli, "normalize", counting)
        report = run_json(capsys, ["solve", str(path)])
        m = report["instance"]["mod"]
        components = report["crt"]["components"] if report["crt"] else []
        assert moduli.count(m) == 1
        assert sorted(moduli) == sorted([m] + [c["prime_power"] for c in components])

    def test_human_output_mentions_factors(self, capsys, tri36):
        assert cli.main(["solve", tri36]) == 0
        out = capsys.readouterr().out
        assert "invariant factors: (6, 36)" in out
        assert "rank: 2" in out

    def test_non_coprime_components_exit_4(self, capsys, tri36, monkeypatch):
        # a decomposition whose prime powers share a factor is a defect
        monkeypatch.setattr(
            importlib.import_module("splinemod.decompose"),
            "factorize",
            lambda m: Factorization(((2, 2), (3, 1), (3, 1))),
        )
        assert cli.main(["solve", tri36, "--crt"]) == 4
        assert "not pairwise coprime" in capsys.readouterr().err

    def test_bad_smith_column_exit_4(self, capsys, tri36, monkeypatch):
        # a right transform whose generator column is off by one at v1:
        # the block check must name that generator
        original = engine.snf
        generators = []

        def corrupted(A, m):
            d, V = original(A, m)
            j = d.index(max(d))
            rows = [list(row) for row in V.entries]
            rows[0][j] += 1
            generators.append(tuple(row[j] * (m // d[j]) % m for row in rows))
            return d, IntMatrix(rows)

        monkeypatch.setattr(engine, "snf", corrupted)
        err = mismatch(capsys, ["solve", tri36, "--direct"], "generated vector")
        assert named_vector(err, "generated vector") == generators[0]
        assert not reference_spline_check(parse_graph(TRI36_TEXT), generators[0])

    def test_bad_free_vector_exit_4(self, capsys, tmp_path, monkeypatch):
        # mod 7 the zero edge merges a and b and the unit edge is dropped, so
        # the normalized graph has no edge and its module is written down in
        # closed form, without snf; a unit vector moved by 1 at b after the
        # pull-back fails the zero edge a-b, and the block check names it
        path = tmp_path / "free7.graph"
        path.write_text("mod 7\nvertices a b c\nedge a b 0\nedge b c 3\n")
        original = graph.NormalizationReport.pull_back

        def corrupted(self, values):
            rows = list(original(self, values))
            rows[1] = [rows[1][0] + 1, *rows[1][1:]]
            return tuple(rows)

        monkeypatch.setattr(graph.NormalizationReport, "pull_back", corrupted)
        err = mismatch(capsys, ["solve", str(path), "--direct"], "generated vector")
        assert named_vector(err, "generated vector") == (1, 2, 0)

    @pytest.mark.parametrize("value", [True, 2.0], ids=["bool", "float"])
    @pytest.mark.parametrize(
        "owner, text, flags, what",
        [
            ("engine", TRI36_TEXT, ["--direct"], "generated vector"),
            ("engine", "mod 7\nvertices a b c\nedge a b 0\nedge b c 3\n", ["--direct"], "generated vector"),
            ("engine", "mod 0\nvertices a b\nedge a b 2\n", [], "lattice basis column"),
            ("decompose", C21_TEXT, ["--crt"], "recombined vector"),
        ],
        ids=["smith", "free", "integer", "recombined"],
    )
    def test_non_int_nonzero_exit_4(
        self, capsys, tmp_path, monkeypatch, value, owner, text, flags, what
    ):
        # a solver nonzero that is not a plain int, slipped into the sparse
        # vectors on their way to the dense block, is refused where they
        # become dense, so no vector the writer trusts can hold it
        module = importlib.import_module(f"splinemod.{owner}")
        original = module._vertex_major

        def corrupted(G, n, vectors, what, report=None):
            vectors = [dict(vector) for vector in vectors]
            first = next(vector for vector in vectors if vector)
            first[next(iter(first))] = value
            return original(G, n, vectors, what, report)

        monkeypatch.setattr(module, "_vertex_major", corrupted)
        path = tmp_path / "g.graph"
        path.write_text(text)
        for extra in ([], ["--json"]):
            mismatch(
                capsys,
                ["solve", str(path), *flags, *extra],
                f"{what} has a nonzero entry of type {type(value).__name__}",
            )

    def test_bad_component_generator_exit_4(self, capsys, c21, monkeypatch):
        # the mod-3 component's generators moved by 1 at v1 glue into
        # vectors that fail the mod-3 edge v1-v2
        decompose_mod = importlib.import_module("splinemod.decompose")
        original = decompose_mod.invariant_factors

        def corrupted(G):
            module = original(G)
            if G.modulus != 3:
                return module
            mgs = tuple((v[0] + 1,) + v[1:] for v in module.mgs)
            return dataclasses.replace(module, mgs=mgs)

        monkeypatch.setattr(decompose_mod, "invariant_factors", corrupted)
        err = mismatch(capsys, ["solve", c21, "--crt"], "recombined vector")
        named = named_vector(err, "recombined vector")
        assert not reference_spline_check(parse_graph(C21_TEXT), named)

    def test_bad_integer_lattice_column_exit_4(self, capsys, tmp_path, monkeypatch):
        # column (0, 2) moved to (0, 3) fails the label-2 edge
        text = "mod 0\nvertices a b\nedge a b 2\n"
        path = tmp_path / "int.graph"
        path.write_text(text)
        corrupt_lattice(monkeypatch)
        err = mismatch(capsys, ["solve", str(path)], "lattice basis column")
        assert named_vector(err, "lattice basis column") == (0, 3)
        assert not reference_spline_check(parse_graph(text), (0, 3))

    def test_oracle_factors_disagree_exit_4(self, capsys, tri36, monkeypatch):
        original = cli.fingerprint

        def wrong(*args, **kwargs):
            fp = original(*args, **kwargs)
            return dataclasses.replace(fp, invariant_factors=fp.invariant_factors[1:])

        monkeypatch.setattr(cli, "fingerprint", wrong)
        err = mismatch(capsys, ["solve", tri36, "--verify"], "oracle disagrees")
        assert "'factors_match': False, 'mgs_spans': True" in err

    def test_oracle_span_disagrees_exit_4(self, capsys, tri36, monkeypatch):
        monkeypatch.setattr(cli, "span_equals", lambda *args: False)
        err = mismatch(capsys, ["solve", tri36, "--verify"], "oracle disagrees")
        assert "'factors_match': True, 'mgs_spans': False" in err

    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    def test_spline_list_short_of_a_group_exit_4(self, capsys, monkeypatch, flags):
        # the census of a list the program made is not a group's: a defect,
        # not bad input
        original = cli.enumerate_splines
        monkeypatch.setattr(cli, "enumerate_splines", lambda *args: original(*args)[:-1])
        argv = ["solve", "--verify", str(GRAPHS / "n7_m9.graph"), *flags]
        err = mismatch(capsys, argv, "is not a power of 3")
        assert err == "cross-check mismatch: element count 19682 is not a power of 3\n"

    @pytest.mark.parametrize("command", ["solve", "cycle"])
    def test_negative_budget_flag_is_input_error(self, capsys, c21, command):
        assert cli.main([command, c21, "--verify", "--budget", "-5"]) == 2
        assert "budget -5 is negative" in capsys.readouterr().err

    def test_zero_budget_admits_nothing(self, capsys, tri36):
        assert cli.main(["solve", tri36, "--verify", "--budget", "0"]) == 3


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

    @pytest.mark.parametrize(
        "text, form",
        [
            (C21_TEXT, "two-label"),
            ("mod 16\nvertices a b c d\nedge a b 2\nedge b c 4\nedge c d 8\nedge d a 4\n",
             "power-family"),
            (SINGLE_LABEL_TEXT, "single-label"),
        ],
    )
    def test_closed_form_self_check_failure_exit_4(
        self, capsys, tmp_path, monkeypatch, text, form
    ):
        # a closed form whose own vector fails an edge is a wrong
        # construction, not a form that does not apply; the one spline
        # check, made to reject every block, is the first to run
        monkeypatch.setattr(graph, "first_failing", lambda G, rows: 0)
        path = tmp_path / "cycle.graph"
        path.write_text(text)
        err = mismatch(capsys, ["cycle", str(path)], "closed-form vector")
        assert form in err

    @pytest.mark.parametrize(
        "text, producer, provenance",
        [
            (SINGLE_LABEL_TEXT, "single_label_mgs", "single-label"),
            (C21_TEXT, "mgs_merge", "merged(two-label)"),
        ],
    )
    def test_corrupted_closed_form_vector_exit_4(
        self, capsys, tmp_path, monkeypatch, text, producer, provenance
    ):
        # the corrupted set keeps its orders, so only the spline check sees it
        original = getattr(cycles, producer)
        monkeypatch.setattr(cycles, producer, lambda *args: bump_trivial(original(*args)))
        path = tmp_path / "cycle.graph"
        path.write_text(text)
        what = f"{provenance} closed-form vector"
        err = mismatch(capsys, ["cycle", str(path)], what)
        named = named_vector(err, what)
        assert named[:2] == (1, 2)
        assert not reference_spline_check(parse_graph(text), named)

    @pytest.mark.parametrize(
        "change",
        [
            lambda splines: splines[:-1],  # one vector short of the rank
            lambda splines: splines + splines[-1:],  # one vector too many
            lambda splines: splines[:-1] + (tuple(3 * x % 21 for x in splines[-1]),),
        ],
        ids=["short", "long", "wrong-order"],
    )
    def test_closed_form_orders_differ_exit_4(self, capsys, c21, monkeypatch, change):
        original = cli.closed_form

        def wrong(C):
            gens = original(C)
            return dataclasses.replace(gens, splines=change(gens.splines))

        monkeypatch.setattr(cli, "closed_form", wrong)
        mismatch(capsys, ["cycle", c21], "closed-form orders")

    def test_closed_form_span_disagrees_exit_4(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "c3.graph"
        path.write_text(SINGLE_LABEL_TEXT)
        monkeypatch.setattr(cli, "span_equals", lambda *args: False)
        mismatch(capsys, ["cycle", str(path), "--verify"], "does not span the module")

    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    def test_broken_merge_contract_exit_4(self, capsys, tmp_path, monkeypatch, flags):
        # the merge's own contract check, reached by handing it factors that
        # are not coprime: a defect, not bad input
        original = cycles.mgs_merge
        monkeypatch.setattr(cycles, "mgs_merge", lambda B, m, factors: original(B, m, (m, m)))
        path = tmp_path / "c4.graph"
        path.write_text("mod 12\nvertices a b c d\nedge a b 4\nedge b c 3\nedge c d 4\nedge d a 3\n")
        err = mismatch(capsys, ["cycle", str(path), *flags], "not pairwise coprime")
        assert err == "cross-check mismatch: factors (12, 12) are not pairwise coprime\n"

    def test_not_a_cycle(self, capsys, tmp_path):
        path = tmp_path / "path.graph"
        path.write_text("mod 6\nvertices a b c\nedge a b 2\nedge b c 3\n")
        assert cli.main(["cycle", str(path)]) == 2


class TestConstruct:
    def test_rank_1_k4(self, capsys):
        report = run_json(capsys, ["construct", "4", "6", "1"])
        assert report["verified_rank"] == 1
        from splinemod.engine import invariant_factors

        G = parse_graph(report["graph_file"])
        assert invariant_factors(G).rank == 1

    def test_rank_5(self, capsys):
        report = run_json(capsys, ["construct", "5", "6", "5"])
        assert report["verified_rank"] == 5

    def test_infeasible_exit(self, capsys):
        assert cli.main(["construct", "3", "4", "1"]) == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            # rank 1 is accepted too, so the range is 1..n, not build_rank_k's 2..n
            (["3", "12", "0"], "rank 0 is outside 1..3"),
            (["3", "12", "4"], "rank 4 is outside 1..3"),
            (["1", "6", "1"], "rank 1 needs at least 3 vertices, got 1"),
            (["0", "6", "1"], "rank 1 needs at least 3 vertices, got 0"),
            (["3", "0", "2"], "modulus 0 is not a positive integer"),
            # 1 has no prime factor, so it is not called a prime power
            (["4", "1", "2"], "modulus 1 has no prime factor; a coprime split needs two distinct primes"),
            (["4", "1", "1"], "modulus 1 has no prime factor; rank 1 needs two distinct primes"),
            (["3", "8", "2"], "modulus 8 is a prime power; a coprime split needs two distinct primes"),
            # with no vertex the range 1..N is empty
            (["-3", "30", "2"], "need at least 1 vertex, got -3"),
            (["0", "30", "0"], "need at least 1 vertex, got 0"),
            (["1", "30", "2"], "rank 2 is outside 1..1"),
        ],
    )
    def test_input_error_message(self, capsys, argv, message):
        assert cli.main(["construct", *argv]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_emits_parseable_graph_file(self, capsys):
        assert cli.main(["construct", "3", "30", "1"]) == 0
        out = capsys.readouterr().out
        from splinemod.graph import parse_graph

        G = parse_graph("\n".join(l for l in out.splitlines() if not l.startswith("#")))
        assert G.modulus == 30

    def test_rank_needs_no_smith_form(self, capsys, monkeypatch):
        # the rank comes from the rank formula (THEORY.md, lemma 2)
        def refuse(G, *rest):
            raise AssertionError("construct solved its graph")

        for name in ("invariant_factors", "normalized_module"):
            monkeypatch.setattr(engine, name, refuse)
            monkeypatch.setattr(cli, name, refuse)
        for n, m, k in ((3, 30, 1), (4, 6, 1), (9, 6, 1), (2, 6, 2), (5, 30, 3), (8, 210, 8)):
            report = run_json(capsys, ["construct", str(n), str(m), str(k)])
            assert report["verified_rank"] == k

    @pytest.mark.slow
    def test_twenty_thousand_vertices(self, capsys):
        report = run_json(capsys, ["construct", "20000", "30", "3"])
        assert report["verified_rank"] == 3
        assert len(report["instance"]["vertices"]) == 20000

    def test_rank_differs_from_target_exit_4(self, capsys, monkeypatch):
        original = construct_mod.build_rank_k
        monkeypatch.setattr(
            construct_mod, "build_rank_k", lambda n, m, k: original(n, m, k - 1)
        )
        mismatch(capsys, ["construct", "5", "30", "3"], "has rank 2, wanted 3")


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

    def test_bad_integer_lattice_column_exit_4(self, capsys, tmp_path, monkeypatch):
        # the base's column (0, 2) moved to (0, 3) fails its label-2 edge
        base = tmp_path / "base.graph"
        base.write_text("mod 0\nvertices a b\nedge a b 2\n")
        ext = tmp_path / "ext.graph"
        ext.write_text("mod 0\nvertices a b c\nedge a b 2\nedge b c 6\nedge a c 3\n")
        corrupt_lattice(monkeypatch)
        err = mismatch(capsys, ["extend", str(base), str(ext), "c"], "lattice basis column")
        assert named_vector(err, "lattice basis column") == (0, 3)


class TestEnvBudget:
    def test_env_budget_respected(self, capsys, c21, monkeypatch):
        monkeypatch.setenv("SPLINEMOD_BUDGET", "90000000")
        report = run_json(capsys, ["solve", c21, "--verify"])
        assert report["oracle"]["spline_count"] == 9261

    def test_bad_env_budget_is_input_error(self, capsys, tri36, monkeypatch):
        monkeypatch.setenv("SPLINEMOD_BUDGET", "xyz")
        assert cli.main(["solve", tri36, "--verify"]) == 2
        assert "SPLINEMOD_BUDGET" in capsys.readouterr().err

    def test_negative_env_budget_is_input_error(self, capsys, tri36, monkeypatch):
        monkeypatch.setenv("SPLINEMOD_BUDGET", "-5")
        assert cli.main(["solve", tri36, "--verify"]) == 2
        assert "SPLINEMOD_BUDGET='-5' is negative" in capsys.readouterr().err

    def test_zero_env_budget_admits_nothing(self, capsys, tri36, monkeypatch):
        monkeypatch.setenv("SPLINEMOD_BUDGET", "0")
        assert cli.main(["solve", tri36, "--verify"]) == 3


_JSON_TEXT = st.text(
    st.sampled_from('a\u00e9\u20ac\U0001f600"\\/\n\t\x00\x1f\x7f '), max_size=6
) | st.text(max_size=6)
_JSON_INT = st.integers(min_value=-(2**70), max_value=2**70)
_JSON_LEAF = _JSON_INT | st.booleans() | st.none() | _JSON_TEXT
_ROW_INT = st.integers(-2, 2) | _JSON_INT


@st.composite
def _row_set(draw):
    """Rows of one width, as tuples or lists, drawn from a small pool so
    they repeat.  A column holds ints, names, or ints with now and then a
    bool; one more row, of any width, may follow."""
    width = draw(st.integers(0, 3))
    columns = [
        draw(st.sampled_from((_ROW_INT, _JSON_TEXT, _ROW_INT | st.booleans())))
        for _ in range(width)
    ]
    pool = draw(st.lists(st.tuples(*columns), min_size=1, max_size=3))
    rows = [
        row if draw(st.booleans()) else list(row)
        for row in draw(st.lists(st.sampled_from(pool), max_size=6))
    ]
    return rows + draw(st.lists(st.lists(_ROW_INT, max_size=3), max_size=1))


_JSON_VALUE = st.recursive(
    _JSON_LEAF | st.lists(_JSON_INT) | _row_set(),
    lambda inner: st.lists(inner) | st.dictionaries(_JSON_TEXT, inner),
    max_leaves=25,
)


@st.composite
def _shared_row_set(draw):
    """A value that holds one drawn row set, the same object, at several
    places and depths, as reports hold their generating sets."""
    rows = draw(_row_set())
    return draw(
        st.recursive(
            st.just(rows) | _JSON_LEAF,
            lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_JSON_TEXT, inner, max_size=3),
            max_leaves=8,
        )
    )


def _int_vectors(n: int, vectors: list[dict[int, int]]) -> engine.IntVectors:
    """Sparse int vectors on n vertices made dense by the engine's one maker
    of ``IntVectors``; the graph has no edge, so every vector passes."""
    G = graph.EdgeLabeledGraph(0, tuple(f"v{i}" for i in range(n)), ())
    return engine._vertex_major(G, n, vectors, "vector")


_SPARSE_INT = st.sampled_from((2**64 + 1, -(2**64 + 1), -1, 1, 2)) | _JSON_INT


@st.composite
def _shared_int_vectors(draw):
    """An ``IntVectors`` from random sparse int vectors and a second one
    over the same rows in reverse, as the display set is, each placed, the
    same object, at several places and depths beside plain row sets."""
    n = draw(st.integers(1, 4))
    sparse = st.dictionaries(st.integers(0, n - 1), _SPARSE_INT, max_size=n)
    vectors = _int_vectors(n, draw(st.lists(sparse, max_size=5)))
    reordered = engine.IntVectors(vectors[::-1])
    return draw(
        st.recursive(
            st.sampled_from((vectors, reordered)) | _row_set() | _JSON_LEAF,
            lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_JSON_TEXT, inner, max_size=3),
            max_leaves=8,
        )
    )


# One object each, placed more than once by the examples below: the writer
# remembers a row-set container by identity.
_SHARED_LISTS = [[0, 1], [2, -3], [0, 1]]
_SHARED_TUPLES = ((0, 1), (2, -3))
_SHARED_BOOL_ROWS = [(1, True), (2, 3)]
_SHARED_EDGES = [["a", "b\u00e9", 2], ["b", "c", 30]]
_INT_VECTORS_12 = _int_vectors(2, [{0: 1, 1: 2}])  # ((1, 2),)
_SHARED_WIDE_ROWS = [(-1, 2**70), (-(2**70) + 1, 0), (2**70 - 1, -7)]


class TestJsonOutput:
    """``--json`` prints exactly ``json.dumps(report, indent=2)`` and a newline."""

    @given(_JSON_VALUE | _shared_row_set() | _shared_int_vectors())
    @example([1, True, None, [2, -3], [], {}, 2**64 + 1])
    @example({"a": [[0, 1], [2]], "b\"\u00e9": {"": []}, "c": (4, 5)})
    @example([[1], [True], [1]])
    @example({"x": [1, 2], "y": {"z": [1, 2]}})
    @example([[0, 1], (0, 1), [0, 1]])
    @example([(1, 2), (3, 4), (1, 2)])
    @example([(1, True), (2, 3)])
    @example([(True, 2), (1, 2)])
    @example({"a": [(1, 2)], "b": [(True, 2)], "c": [[1, 2]]})
    @example([(1, 2), (3,)])
    @example([(), ()])
    @example([["a", "b\u00e9", 2], ("c", "d", 30)])
    @example([["a", "b", 2], ["a", "b", True]])
    @example({"x": [(1, 2), (1, 2)], "y": {"z": [(1, 2)]}, "w": (1, 2)})
    @example({"deep": [{"x": _SHARED_LISTS}], "top": _SHARED_LISTS})
    @example({"top": _SHARED_LISTS, "deep": [{"x": _SHARED_LISTS}], "again": _SHARED_LISTS})
    @example([_SHARED_TUPLES, _SHARED_TUPLES, {"x": _SHARED_TUPLES}])
    @example({"a": _SHARED_LISTS, "b": _SHARED_LISTS})
    @example({"a": _SHARED_BOOL_ROWS, "b": [_SHARED_BOOL_ROWS], "c": _SHARED_BOOL_ROWS})
    @example({"edges": [{"e": _SHARED_EDGES}], "top": _SHARED_EDGES, "again": _SHARED_EDGES})
    # a plain row set is written with one template fill; anything else in
    # a column, ragged or nested rows fall back to the recursive writer
    @example([("a", 1, "b"), ["c", -2, "d\u00e9"], ("e", 2**70, "f")])
    @example([["a%s", "b%%", 1], ["%d", "c", 2]])
    @example([(1, 2), (3, True), (5, 6)])
    @example([(1, 2.0), (3, 4)])
    @example([["a", "b", 2.0], ["c", "d", 3]])
    @example([("a", 1), (True, 2)])
    @example([(1, None), (2, 3)])
    @example([[1, 2], [3], [4, 5, 6]])
    @example([[[1, 2]], [[3, 4]]])
    @example([("a", 1), ["b", 2], ("c", 3)])
    @example([-(2**70), 2**70 - 1, -1, 0])
    @example([(7, -8, 9)])
    @example([["a", "b", 3]])
    @example({"top": _SHARED_WIDE_ROWS, "deep": {"x": [_SHARED_WIDE_ROWS]}})
    @example({"deep": {"x": [_SHARED_WIDE_ROWS]}, "top": _SHARED_WIDE_ROWS})
    # an IntVectors skips the type check, but a plain set with equal rows
    # beside it, one holding True included, is still checked and printed
    @example([_INT_VECTORS_12, [(True, 2)]])
    @example([[(True, 2)], _INT_VECTORS_12])
    @example({"a": _INT_VECTORS_12, "b": ((1, 2),)})
    @example({"a": ((1, 2),), "b": _INT_VECTORS_12, "c": [_INT_VECTORS_12]})
    def test_writer_matches_json_dumps(self, value):
        assert cli._json_text(value) == json.dumps(value, indent=2)

    def test_display_set_is_int_vectors_over_the_same_rows(self):
        module = engine.invariant_factors(parse_graph(C21_TEXT))
        display = cli._display_generators(module)
        assert type(display) is engine.IntVectors
        assert sorted(map(id, display)) == sorted(map(id, module.mgs))

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "{tri36}"],
            ["solve", "{tri36}", "--crt"],
            ["solve", "{zp}", "--crt"],
            ["solve", "{tri36}", "--verify"],
            ["solve", "{int}"],
            ["cycle", "{c21}"],
            ["construct", "4", "6", "1"],
            ["extend", "{base}", "{ext}", "c"],
        ],
        ids=["solve", "solve-crt", "solve-crt-zp", "solve-verify", "solve-integer", "cycle", "construct", "extend"],
    )
    def test_stdout_is_indented_dump(self, capsys, tmp_path, tri36, c21, argv):
        files = {"tri36": tri36, "c21": c21}
        for name, text in (
            # mod 30: every component is over Z/p, where the generating
            # set equals the flow-up set
            ("zp", "mod 30\nvertices a b c d\nedge a b 6\nedge b c 10\nedge c d 15\nedge d a 2\n"),
            ("int", "mod 0\nvertices a b c\nedge a b 2\nedge b c 0\n"),
            ("base", "mod 12\nvertices a b\nedge a b 2\n"),
            ("ext", "mod 12\nvertices a b c\nedge a b 2\nedge b c 8\n"),
        ):
            path = tmp_path / f"{name}.graph"
            path.write_text(text)
            files[name] = str(path)
        assert cli.main([a.format(**files) for a in argv] + ["--json"]) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


def _cyclic_garbage(calls) -> list:
    """The objects that running ``calls`` leaves in reference cycles.  The
    calls run once before, to fill caches; any of them may end in
    ``SystemExit``."""

    def run_all():
        for call in calls:
            try:
                call()
            except SystemExit:
                pass

    run_all()
    gc.collect()
    flags, before = gc.get_debug(), len(gc.garbage)
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run_all()
        gc.collect()
        return gc.garbage[before:]
    finally:
        gc.set_debug(flags)
        del gc.garbage[before:]


class Interrupt(BaseException):
    """Stands for an interrupt or the benchmark's case timeout."""


class TestInProcessCalls:
    """``main`` called many times in one process, as the tests and the
    benchmark call it."""

    def test_no_cyclic_garbage(self, capsys, tmp_path, monkeypatch, tri36, c21):
        # main pauses the cyclic collector for the command, so a cycle made
        # there would live until the command ends: none may be made at all
        files = {"tri36": tri36, "c21": c21}
        for name, text in (
            ("int", "mod 0\nvertices a b c\nedge a b 2\nedge b c 0\n"),
            ("base", "mod 12\nvertices a b\nedge a b 2\n"),
            ("ext", "mod 12\nvertices a b c\nedge a b 2\nedge b c 8\n"),
            ("int_base", "mod 0\nvertices a b\nedge a b 2\n"),
            ("int_ext", "mod 0\nvertices a b c\nedge a b 2\nedge b c 6\nedge a c 3\n"),
            ("c3", SINGLE_LABEL_TEXT),
            # labels 2 and 3 mod 12: no closed form applies
            ("fallback", "mod 12\nvertices a b c d\nedge a b 2\nedge b c 3\nedge c d 2\nedge d a 3\n"),
        ):
            path = tmp_path / f"{name}.graph"
            path.write_text(text)
            files[name] = str(path)
        accepted = [
            ["solve", "{tri36}"],
            ["solve", "{tri36}", "--crt"],
            ["solve", "{tri36}", "--direct"],
            ["solve", "{tri36}", "--verify"],
            ["solve", "{int}"],
            ["cycle", "{c21}"],
            ["cycle", "{fallback}"],
            ["cycle", "{c3}", "--verify"],
            ["construct", "4", "6", "1"],
            ["construct", "5", "30", "3"],
            ["extend", "{base}", "{ext}", "c"],
            ["extend", "{int_base}", "{int_ext}", "c"],
        ]
        rejected = [
            (["solve", str(tmp_path / "missing.graph")], 2),
            (["solve", "{c21}", "--verify", "--budget", "1"], 3),
            (["solve", "{tri36}", "--verify"], 4),
        ]
        runs = [(argv, 0) for argv in accepted] + rejected
        original = cli.enumerate_splines
        codes = []

        def call(argv, code):
            def run():
                with monkeypatch.context() as patch:
                    if code == 4:  # a spline list short of a group
                        patch.setattr(cli, "enumerate_splines", lambda *a: original(*a)[:-1])
                    codes.append(cli.main([a.format(**files) for a in argv]))

            return run

        left = _cyclic_garbage(
            [call(argv + extra, code) for argv, code in runs for extra in ([], ["--json"])]
        )
        capsys.readouterr()
        assert left == []
        assert codes == [code for _, code in runs for _ in range(2)] * 2

    def test_rejected_argv_leaves_only_argparse_cycles(self, capsys, tri36):
        # argparse's usage message leaves a formatter in a cycle; the
        # collector, resumed when main returns, reclaims it
        left = _cyclic_garbage([lambda: cli.main(["solve", tri36, "--crt", "--direct"])])
        capsys.readouterr()
        objects = {id(obj): obj for obj in left}
        owned = {key for key, obj in objects.items() if type(obj).__module__ == "argparse"}
        frontier = set(owned)
        while frontier:  # add what the argparse objects refer to
            reached = {id(ref) for key in frontier for ref in gc.get_referents(objects[key])}
            frontier = (reached & objects.keys()) - owned
            owned |= frontier
        assert owned
        assert owned == objects.keys(), [obj for key, obj in objects.items() if key not in owned]

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_collector_setting_restored(self, capsys, monkeypatch, tri36, c21, enabled):
        """Paused while the command runs, then as the caller left it, on
        every way out."""
        during = []
        original = cli.enumerate_splines

        def short(*args):
            during.append(gc.isenabled())
            return original(*args)[:-1]

        def interrupt(*args):
            during.append(gc.isenabled())
            raise Interrupt

        runs = [
            (["solve", tri36], None, 0),
            (["solve", tri36 + ".missing"], None, 2),
            (["solve", c21, "--verify", "--budget", "1"], None, 3),
            (["solve", tri36, "--verify"], short, 4),
            (["solve", tri36, "--crt", "--direct"], None, "SystemExit(2)"),
            (["solve", tri36, "--verify"], interrupt, "Interrupt"),
        ]
        outcomes = []
        caller = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            for argv, patched, _ in runs:
                with monkeypatch.context() as patch:
                    if patched:
                        patch.setattr(cli, "enumerate_splines", patched)
                    try:
                        outcome = cli.main(argv)
                    except SystemExit as exc:
                        outcome = f"SystemExit({exc.code})"
                    except Interrupt:
                        outcome = "Interrupt"
                outcomes.append((outcome, gc.isenabled()))
        finally:
            (gc.enable if caller else gc.disable)()
        capsys.readouterr()
        assert outcomes == [(expected, enabled) for _, _, expected in runs]
        assert during == [False, False]

    def test_rejected_argv_then_valid_call(self, capsys, tri36):
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", tri36, "--crt", "--direct"])
        assert exc.value.code == 2
        assert cli.main(["solve", tri36]) == 0

    def test_order_does_not_carry_over(self, capsys, tri36):
        before = run_json(capsys, ["solve", tri36])
        ordered = run_json(capsys, ["solve", tri36, "--order", "v3,v1,v2"])
        after = run_json(capsys, ["solve", tri36])
        assert ordered["instance"]["vertices"] == ["v3", "v1", "v2"]
        assert before == after
        assert after["instance"]["vertices"] == ["v1", "v2", "v3"]


class TestHumanOutput:
    """Every subcommand path, as text and as ``--json``, pinned byte for byte
    by ``tests/golden/<name>.txt`` and ``tests/golden/<name>.json``."""

    INPUTS = {
        "int": "mod 0\nvertices a b c d\nedge a b 4\nedge b c 6\nedge c d 0\nedge a c 10\n",
        "base12": "mod 12\nvertices a b\nedge a b 2\n",
        "ext12": "mod 12\nvertices a b c\nedge a b 2\nedge b c 8\n",
        "base0": "mod 0\nvertices a b\nedge a b 2\n",
        "ext0": "mod 0\nvertices a b c\nedge a b 2\nedge b c 6\nedge a c 3\n",
        # mod 30 with labels 0, 6, 10, 15 and units: each prime merges some
        # classes and drops some edges, so every Z/p component is edgeless
        "n8m30": (
            "mod 30\nvertices a b c d e f g h\nedge a b 6\nedge b c 10\n"
            "edge c d 15\nedge d e 0\nedge e f 7\nedge f g 6\nedge g h 11\n"
            "edge h a 10\nedge a e 15\nedge b f 1\nedge c g 13\nedge f h 2\n"
            "edge b d 3\n"
        ),
        # mod 360 = 8 * 9 * 5: the parts mod 8 and mod 9 keep lattices,
        # dropped units and a collapsed parallel edge, the part mod 5 is
        # free on two classes, so the component ranks are 5, 5 and 2
        "n10m360": (
            "mod 360\nvertices a b c d e f g h i j\nedge a b 12\nedge b c 18\n"
            "edge c d 0\nedge d e 7\nedge e f 40\nedge f g 45\nedge g h 20\n"
            "edge h i 30\nedge i j 72\nedge j a 90\nedge a e 6\nedge a e 15\n"
            "edge b g 120\nedge c h 4\nedge d i 11\nedge f j 24\n"
        ),
    }

    PATHS = [
        ("solve_tri36", ["solve", "{tri36}"]),
        ("solve_tri36_crt", ["solve", "{tri36}", "--crt"]),
        ("solve_tri36_verify", ["solve", "{tri36}", "--verify"]),
        ("solve_integer", ["solve", "{int}"]),
        ("cycle_c21", ["cycle", "{c21}"]),
        ("construct_5_30_3", ["construct", "5", "30", "3"]),
        ("extend_mod12", ["extend", "{base12}", "{ext12}", "c"]),
        ("extend_integer", ["extend", "{base0}", "{ext0}", "c"]),
    ]
    # appended after the --json half of PATHS, each with its --json case
    # next to it, so the existing case ids stay put
    LATER_PATHS = [
        ("solve_n8_m30_crt", ["solve", "{n8m30}", "--crt"]),
        ("solve_n10_m360_crt", ["solve", "{n10m360}", "--crt"]),
        ("solve_n10_m360", ["solve", "{n10m360}"]),
    ]

    @pytest.mark.parametrize(
        "golden, argv",
        [
            case
            for paths in (PATHS, *([later] for later in LATER_PATHS))
            for case in paths + [(golden, argv + ["--json"]) for golden, argv in paths]
        ],
    )
    def test_matches_golden(self, capsys, tmp_path, tri36, c21, golden, argv):
        files = {"tri36": tri36, "c21": c21}
        for name, text in self.INPUTS.items():
            path = tmp_path / f"{name}.graph"
            path.write_text(text)
            files[name] = str(path)
        assert cli.main([a.format(**files) for a in argv]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        suffix = ".json" if "--json" in argv else ".txt"
        assert captured.out == (GOLDEN / f"{golden}{suffix}").read_text()


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
            # vertex names and endpoints are JSON strings, never coerced
            {"mod": 6, "vertices": "ab", "edges": [["a", "b", 2]]},
            {"mod": 6, "vertices": {"a": 0, "b": 1}, "edges": [["a", "b", 2]]},
            {"mod": 6, "vertices": [1, True], "edges": [[1, True, 2]]},
            {"mod": 6, "vertices": ["1", "2"], "edges": [[1, 2, 2]]},
            {"mod": 6, "vertices": ["a", "b"], "edges": "ab"},
            [1, 2],
            {"mod": 6, "edges": []},
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

    @pytest.mark.parametrize(
        "name, data",
        [
            ("bad.graph", b"mod 6\nvertices a b\nedge a b \xff\n"),
            ("bad.json", b'{"mod": 6, "vertices": ["a", "b"], "edges": [["a", "\xff", 2]]}'),
        ],
    )
    def test_not_utf8(self, capsys, tmp_path, name, data):
        path = tmp_path / name
        path.write_bytes(data)
        assert cli.main(["solve", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "UTF-8" in captured.err
        assert captured.out == ""

    def test_not_utf8_names_the_byte_in_the_file(self, capsys, tmp_path):
        # a byte-order mark counts toward the offset, as in the file itself
        head = b"mod 6\nvertices a b\nedge a b "
        for mark in (b"", b"\xef\xbb\xbf"):
            path = tmp_path / "bad.graph"
            path.write_bytes(mark + head + b"\xff\n")
            assert cli.main(["solve", str(path)]) == 2
            at = len(mark + head)
            assert capsys.readouterr() == (
                "", f"error: {path} is not UTF-8: invalid start byte at byte {at}\n"
            )

    @pytest.mark.parametrize(
        "name, text",
        [
            ("tri.graph", "mod 36\nvertices a b c\nedge a b 6\nedge b c 4\nedge a c 9\n"),
            ("tri.json", '{"mod": 36, "vertices": ["a", "b", "c"], '
             '"edges": [["a", "b", 6], ["b", "c", 4], ["a", "c", 9]]}'),
        ],
    )
    def test_byte_order_mark_accepted(self, capsys, tmp_path, name, text):
        plain = tmp_path / name
        plain.write_text(text, encoding="utf-8")
        marked = tmp_path / ("bom-" + name)
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes()[:3] == b"\xef\xbb\xbf"
        for argv in (["solve"], ["solve", "--json"]):
            assert cli.main(argv + [str(plain)]) == 0
            expected = capsys.readouterr()
            assert cli.main(argv + [str(marked)]) == 0
            assert capsys.readouterr() == expected

    @pytest.mark.parametrize(
        "name, text",
        [
            ("long.graph", "mod 6\nvertices a b\nedge a b " + "7" * 5000 + "\n"),
            ("long.json", '{"mod": 6, "vertices": ["a", "b"], "edges": [["a", "b", '
             + "7" * 5000 + "]]}"),
        ],
    )
    def test_label_past_the_digit_limit(self, capsys, tmp_path, name, text):
        # int() refuses more than 4,300 digits; input stays bounded by that
        path = tmp_path / name
        path.write_text(text)
        assert cli.main(["solve", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "too long" in captured.err
        assert captured.out == ""
        if name.endswith(".graph"):
            assert "line 3" in captured.err


class TestLongAnswers:
    """Answers longer than the 4,300 digits str() writes by default."""

    @pytest.fixture
    def big(self, tmp_path):
        # (Z/10^120)^40, of order 10^4800
        path = tmp_path / "big.graph"
        names = " ".join(f"v{i}" for i in range(40))
        path.write_text(f"mod 1{'0' * 120}\nvertices {names}\n")
        return str(path)

    def test_text(self, capsys, big):
        limit = sys.get_int_max_str_digits()
        assert cli.main(["solve", big]) == 0
        assert sys.get_int_max_str_digits() == limit
        assert f"module order: 1{'0' * 4800}\n" in capsys.readouterr().out

    def test_json(self, capsys, big):
        limit = sys.get_int_max_str_digits()
        assert cli.main(["solve", "--json", big]) == 0
        assert sys.get_int_max_str_digits() == limit
        out = capsys.readouterr().out
        sys.set_int_max_str_digits(0)
        try:
            assert json.loads(out)["order"] == 10**4800
        finally:
            sys.set_int_max_str_digits(limit)

    def test_verify_requirement_too_long_to_print(self, capsys, big):
        # m**n = 10**4800 is written as the power of two below it
        assert cli.main(["solve", "--verify", big]) == 3
        captured = capsys.readouterr()
        assert captured.err == (
            "error: enumeration needs budget 2**15945 or more, "
            "configured budget is 10000000\n"
        )
        assert captured.out == ""


class TestDeepInputs:
    """m = 1 passes any enumeration budget (1**n = 1), so --verify searches
    one level per vertex, past Python's recursion limit."""

    @staticmethod
    def graph(tmp_path, n, closed):
        names = [f"v{i}" for i in range(n)]
        edges = [f"edge {a} {b} 1" for a, b in zip(names, names[1:] + names[:closed])]
        path = tmp_path / "deep.graph"
        path.write_text("\n".join(["mod 1", "vertices " + " ".join(names), *edges, ""]))
        return str(path)

    def test_solve_verify_on_a_3000_vertex_path(self, capsys, tmp_path):
        report = run_json(capsys, ["solve", "--verify", self.graph(tmp_path, 3000, 0)])
        oracle = report["oracle"]
        assert oracle["spline_count"] == report["order"] == 1
        assert oracle["factors_match"] and oracle["mgs_spans"]

    def test_cycle_verify_on_a_1200_vertex_cycle(self, capsys, tmp_path):
        report = run_json(capsys, ["cycle", "--verify", self.graph(tmp_path, 1200, 1)])
        oracle = report["oracle"]
        assert oracle["spline_count"] == report["order"] == 1
        assert oracle["set_spans"]


class TestConsoleScript:
    # stdout buffered, as it is unless PYTHONUNBUFFERED is set
    BUFFERED = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}

    @staticmethod
    def assert_one_error_line(stderr: str):
        # no traceback, and no "Exception ignored" from the flush at exit
        assert stderr.startswith("error: cannot write the report: ")
        assert stderr.count("\n") == 1 and stderr.endswith("\n")

    def test_closed_pipe_exits_2(self):
        # the 11 MB report outgrows the pipe, whose reader stops at 100 bytes
        path = str(GRAPHS / "n350_e1400_m30030.graph")
        # about 0.3 s; a run still going after 60 s is killed, which ends
        # every read and wait below
        with subprocess.Popen(
            [sys.executable, "-m", "splinemod.cli", "solve", "--crt", "--json", path],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=self.BUFFERED,
        ) as proc:
            watchdog = threading.Timer(60, proc.kill)
            watchdog.start()
            try:
                head = proc.stdout.read(100)
                proc.stdout.close()
                stderr = proc.stderr.read().decode()
                code = proc.wait(timeout=60)
            finally:
                watchdog.cancel()
        assert code == 2
        assert head.startswith(b"{")
        self.assert_one_error_line(stderr)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("form", [[], ["--json"]])
    def test_full_device_exits_2(self, form):
        # the text report (581 bytes) sits in the buffer until a flush; the
        # JSON one (8,857 bytes) outgrows it and fails in the write
        path = str(GRAPHS / "n7_m10.graph")
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "splinemod.cli", "solve", *form, path],
                stdout=full,
                stderr=subprocess.PIPE,
                text=True,
                env=self.BUFFERED,
                timeout=60,  # about 0.1 s
            )
        assert proc.returncode == 2
        self.assert_one_error_line(proc.stderr)
        assert "No space left" in proc.stderr

    def test_module_invocation(self, tri36):
        proc = subprocess.run(
            [sys.executable, "-m", "splinemod.cli", "solve", tri36, "--json"],
            capture_output=True,
            text=True,
            timeout=60,  # about 0.1 s
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["invariant_factors"] == [6, 36]
