"""Benchmark of the splinemod command line, end to end and by layer.

Usage (from the repository root):

    python3 bench/run.py --workload solve-default --seed 1 --seconds 22 --trace 0
    python3 bench/run.py --workload all --seed 7        # every workload in turn

The seed makes the workload's instances, which are written as graph files
under ``.bench_work/``.  Each case runs in this process through
``splinemod.cli.main(argv)`` with its output captured: one thread, closed
loop, the next case starting when the previous one returns.  Whole rounds
of the workload's cases repeat until ``--seconds`` have passed.  Every
answer is checked by ``checks.py``; a case that fails a check, exits
nonzero or reaches the workload's per-case limit counts as failed.

With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` the program is wrapped by ``spans.py`` and the result holds
the per-layer metrics of one round instead.  The last line printed for a
workload is its result, one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_LAUNCHES = 5  # before the first round; one more follows each round

sys.path.insert(0, str(HERE))

from checks import module_factors  # noqa: E402
from spans import METRICS, Tracer, metric  # noqa: E402
from workloads import WORKLOADS, Case, random_graph  # noqa: E402

# Median time of the calibration kernel on the reference machine (2 vCPU,
# Python 3.11.7); case times are scaled to that machine speed.
CALIBRATION_REF_S = 0.0012


class CaseTimeout(BaseException):
    """Raised into a case that reached the per-case limit."""


class Executor:
    """Runs one case through the CLI under a wall-clock limit."""

    def __init__(self, cli, limit_s: float):
        self.cli = cli
        self.limit_s = limit_s
        self.armed = False
        signal.signal(signal.SIGALRM, self._alarm)

    def _alarm(self, signum, frame):
        if self.armed:
            raise CaseTimeout

    def run(self, argv: list[str]) -> tuple[int | None, float, str]:
        """(exit code or None on timeout, seconds, captured stdout)."""
        out = io.StringIO()
        code = None
        signal.setitimer(signal.ITIMER_REAL, self.limit_s)
        start = time.perf_counter()
        try:
            self.armed = True
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = self.cli.main(argv)
            self.armed = False
        except CaseTimeout:
            pass
        except SystemExit as exc:  # argparse rejected the arguments
            self.armed = False
            code = exc.code if isinstance(exc.code, int) else 2
        finally:
            self.armed = False
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
        return code, elapsed, out.getvalue()


class SetupTimer:
    """Wall time of a fresh interpreter importing splinemod.cli.

    Launches are spread over the run (a few before the first round, one
    after each round), so the median samples the machine as the cases did.
    """

    def __init__(self):
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.argv = [sys.executable, "-c", "import splinemod.cli"]
        self.times: list[float] = []
        subprocess.run(self.argv, env=self.env, check=True)  # writes bytecode caches

    def launch(self, count: int = 1):
        for _ in range(count):
            start = time.perf_counter()
            subprocess.run(self.argv, env=self.env, check=True)
            self.times.append(time.perf_counter() - start)


class Calibrator:
    """Local machine speed, from a fixed piece of the benchmark's own
    pure-Python work (no splinemod code) timed before every case.

    The machine's speed drifts: a fixed loop's two-second median moved by
    a fifth within a minute, with CPU time moving alike.  A case's scaled
    time is its wall time times CALIBRATION_REF_S over the median of the
    five calibrations nearest to it, which cancels that drift.
    """

    def __init__(self):
        self.graph = random_graph(random.Random("calibration"), 24, 56, 302400)
        self.samples = array("d")

    def sample(self):
        start = time.perf_counter()
        module_factors(self.graph)
        self.samples.append(time.perf_counter() - start)

    def scale(self, j: int, seconds: float) -> float:
        """Scaled time of the execution that followed sample j."""
        return seconds * CALIBRATION_REF_S / statistics.median(self.samples[max(0, j - 2) : j + 3])


def check_output(case: Case, code, text: str) -> list[str]:
    if code is None:
        return ["reached the case limit"]
    if code != 0:
        return [f"exit code {code}"]
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    return case.check(report)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    work = WORK / f"{name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cases = workload.build(seed, work)
    setup = None if trace else SetupTimer()
    if setup:
        setup.launch(SETUP_LAUNCHES)

    from splinemod import cli

    executor = Executor(cli, workload.limit_s)
    calibrator = None if trace else Calibrator()
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()

    verified: dict[int, str] = {}  # case index -> digest of an output that passed
    # One entry per execution.  Arrays, not lists of tuples: small objects
    # that live for the whole run would pin the memory the cases free, and
    # peak RSS would then grow with the run's length.
    case_index, seconds_taken, passed = array("i"), array("d"), array("b")
    rounds: list[dict] = []
    wrong = 0
    problems: dict[str, list[str]] = {}
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        gc.collect()
        if tracer:
            tracer.take()
        for i, case in enumerate(cases):
            if tracer:
                tracer.clear_stack()
            if calibrator:
                calibrator.sample()
            code, elapsed, text = executor.run(case.argv)
            digest = hashlib.sha256(text.encode()).hexdigest()
            found = [] if code == 0 and verified.get(i) == digest else check_output(case, code, text)
            if found:
                wrong += code == 0
                problems.setdefault(case.name, found)
            elif i not in verified:
                verified[i] = digest
            case_index.append(i)
            seconds_taken.append(elapsed)
            passed.append(not found)
        rounds.append(tracer.take() if tracer else {})
        if setup:
            setup.launch()
    if tracer:
        tracer.uninstall()

    outcomes = list(zip(case_index, seconds_taken, passed))
    failed = len(outcomes) - sum(passed)
    for case_name, found in problems.items():
        print(f"{name}: {case_name} failed: {found[0]}", file=sys.stderr)
    summary = {
        "workload": name,
        "seed": seed,
        "cases": len(cases),
        "rounds": len(rounds),
        "wall_s": time.perf_counter() - start,
        "round_s": sum(t for _, t, _ in outcomes) / len(rounds),  # wall time of the cases
        "failed_cases": sorted(problems),
    }
    if tracer:
        metrics = {}
        for key, (span, field) in METRICS.items():
            if field == "self_ms":
                value = statistics.median(metric(r, key) for r in rounds)
                metrics[key] = {"value": round(value, 4), "unit": "ms"}
            else:
                value = metric(rounds[0], key)
                if any(metric(r, key) != value for r in rounds):
                    print(f"{name}: {key} differs between rounds", file=sys.stderr)
                unit = "bits" if field.endswith("bits") else "count"
                metrics[key] = {"value": value, "unit": unit}
        dump = {**summary, "rounds_totals": rounds}
    else:
        # A failed execution counts as the case limit in the quantiles.
        spent = [calibrator.scale(j, t) for j, (_, t, _) in enumerate(outcomes)]
        times = [t if ok else max(t, workload.limit_s) for t, (_, _, ok) in zip(spent, outcomes)]
        q = statistics.quantiles(times, n=10, method="inclusive")
        metrics = {
            "setup_s": {"value": round(statistics.median(setup.times), 6), "unit": "s"},
            "cases_per_s": {"value": round((len(outcomes) - failed) / sum(spent), 4), "unit": "1/s"},
            "case_p50_ms": {"value": round(statistics.median(times) * 1000, 4), "unit": "ms"},
            "case_p90_ms": {"value": round(q[-1] * 1000, 4), "unit": "ms"},
            "peak_rss_mb": {
                "value": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 3),
                "unit": "MB",
            },
        }
        dump = {
            **summary,
            "executions": len(outcomes),
            "spent_s": sum(spent),
            "setup_launches": setup.times,
            "calibration_ms": statistics.median(calibrator.samples) * 1000,
            "case_ms": {
                case.name: round(1000 * statistics.median(t for (i, _, _), t in zip(outcomes, spent) if i == k), 3)
                for k, case in enumerate(cases)
            },
        }
    result = {"correct": wrong == 0, "attempted": len(outcomes), "failed": failed, "metrics": metrics}
    (WORK / f"result-{name}-{seed}-trace{int(trace)}.json").write_text(
        json.dumps({**dump, "result": result}, indent=1)
    )
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="workload name, comma list, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else args.workload.split(",")
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {list(WORKLOADS)}")
    if not (SRC / "splinemod" / "cli.py").is_file():
        print(f"error: the program's source is missing ({SRC / 'splinemod'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        shown = ", ".join(f"{k} {v['value']} {v['unit']}" for k, v in result["metrics"].items())
        print(f"# {name} seed {args.seed}: {result['attempted']} attempted, {result['failed']} failed; {shown}")
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
