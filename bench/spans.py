"""Per-layer trace of splinemod, installed from outside the program.

Each traced function is replaced, in every splinemod module that holds a
reference to it, by a wrapper that records a span: its duration, the part
of it that nested traced spans cover, and a few sizes of its arguments or
result.  A layer's self time is the span's duration minus that covered
part.  The time the wrapper spends measuring sizes is charged to no span.

A name that no longer exists in the program is skipped and reads as never
called, so the trace keeps working while the program is refactored.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Iterable


def _entries(value: Any) -> Iterable[int]:
    """Every integer inside a matrix, SNF result or nested sequence."""
    if isinstance(value, int):
        yield value
    elif hasattr(value, "entries"):  # IntMatrix
        for row in value.entries:
            yield from row
    elif hasattr(value, "d") and hasattr(value, "V"):  # SnfResult
        for part in (value.d, value.U, value.V):
            yield from _entries(part)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _entries(item)


def max_bits(value: Any) -> int:
    return max((abs(x).bit_length() for x in _entries(value)), default=0)


def _matrix_dim(args, kwargs, result) -> int:
    A = args[0]
    return max(A.nrows, A.ncols)


def _system_cols(args, kwargs, result) -> int:
    G = args[0]
    return G.n + len(G.edges) if G.edges else G.n


def _merged(args, kwargs, result) -> int:
    return args[0].n - result[0].n


# (span name, module, attribute, {size name: (how to combine, probe)}).
# A probe sees (args, kwargs, result); "max" keeps the largest value of a
# round, "sum" adds them up.
TARGETS = (
    ("cli.main", "splinemod.cli", "main", {}),
    ("graph.load_graph", "splinemod.graph", "load_graph", {}),
    ("graph.normalize", "splinemod.graph", "normalize", {"merged_vertices": ("sum", _merged)}),
    ("graph.pull_back", "splinemod.graph", "NormalizationReport.pull_back", {}),
    ("graph.spline_check", "splinemod.graph", "spline_check", {}),
    ("matrix.kernel_basis", "splinemod.matrix", "kernel_basis", {"out_bits": ("max", lambda a, k, r: max_bits(r))}),
    ("matrix.hnf", "splinemod.matrix", "hnf", {"in_bits": ("max", lambda a, k, r: max_bits(a[0]))}),
    ("matrix.snf", "splinemod.matrix", "snf", {"out_bits": ("max", lambda a, k, r: max_bits(r)), "max_dim": ("max", _matrix_dim)}),
    ("engine.integer_lattice", "splinemod.engine", "integer_lattice", {"max_cols": ("max", _system_cols)}),
    ("engine.scaled_inverse", "splinemod.engine", "_scaled_inverse", {"out_bits": ("max", lambda a, k, r: max_bits(r))}),
    ("engine.invariant_factors", "splinemod.engine", "invariant_factors", {}),
    ("engine.extension_analysis", "splinemod.engine", "extension_analysis", {}),
    ("decompose.decompose", "splinemod.decompose", "decompose", {"components": ("sum", lambda a, k, r: len(r.components))}),
    ("decompose.recombine", "splinemod.decompose", "recombine", {}),
    ("arith.factorize", "splinemod.arith", "factorize", {}),
    ("arith.crt_combine", "splinemod.arith", "crt_combine", {}),
    ("cycles.power_label_cycle_gens", "splinemod.cycles", "power_label_cycle_gens", {}),
    ("cycles.two_label_cycle_gens", "splinemod.cycles", "two_label_cycle_gens", {}),
    ("cycles.mgs_merge", "splinemod.cycles", "mgs_merge", {}),
    ("construct.build", "splinemod.construct", "build_rank_1", {}),
    ("construct.build", "splinemod.construct", "build_rank_k", {}),
    ("oracle.enumerate_splines", "splinemod.oracle", "enumerate_splines", {"splines": ("sum", lambda a, k, r: len(r))}),
    ("oracle.fingerprint", "splinemod.oracle", "fingerprint", {}),
    ("oracle.span_equals", "splinemod.oracle", "span_equals", {}),
)

# Published metric -> (span name, field).  Fields: self_ms, calls, or a size.
METRICS = {
    "graph.load_graph.self_ms": ("graph.load_graph", "self_ms"),
    "graph.normalize.self_ms": ("graph.normalize", "self_ms"),
    "graph.normalize.calls": ("graph.normalize", "calls"),
    "graph.normalize.merged_vertices": ("graph.normalize", "merged_vertices"),
    "graph.pull_back.self_ms": ("graph.pull_back", "self_ms"),
    "graph.spline_check.self_ms": ("graph.spline_check", "self_ms"),
    "graph.spline_check.calls": ("graph.spline_check", "calls"),
    "matrix.kernel_basis.self_ms": ("matrix.kernel_basis", "self_ms"),
    "matrix.kernel_basis.out_bits": ("matrix.kernel_basis", "out_bits"),
    "matrix.hnf.self_ms": ("matrix.hnf", "self_ms"),
    "matrix.hnf.calls": ("matrix.hnf", "calls"),
    "matrix.hnf.in_bits": ("matrix.hnf", "in_bits"),
    "matrix.snf.self_ms": ("matrix.snf", "self_ms"),
    "matrix.snf.out_bits": ("matrix.snf", "out_bits"),
    "matrix.snf.max_dim": ("matrix.snf", "max_dim"),
    "engine.integer_lattice.self_ms": ("engine.integer_lattice", "self_ms"),
    "engine.integer_lattice.calls": ("engine.integer_lattice", "calls"),
    "engine.integer_lattice.max_cols": ("engine.integer_lattice", "max_cols"),
    "engine.scaled_inverse.self_ms": ("engine.scaled_inverse", "self_ms"),
    "engine.scaled_inverse.out_bits": ("engine.scaled_inverse", "out_bits"),
    "engine.invariant_factors.self_ms": ("engine.invariant_factors", "self_ms"),
    "engine.invariant_factors.calls": ("engine.invariant_factors", "calls"),
    "engine.extension_analysis.self_ms": ("engine.extension_analysis", "self_ms"),
    "decompose.decompose.self_ms": ("decompose.decompose", "self_ms"),
    "decompose.components": ("decompose.decompose", "components"),
    "decompose.recombine.self_ms": ("decompose.recombine", "self_ms"),
    "arith.factorize.self_ms": ("arith.factorize", "self_ms"),
    "arith.crt_combine.calls": ("arith.crt_combine", "calls"),
    "cycles.power_label_cycle_gens.self_ms": ("cycles.power_label_cycle_gens", "self_ms"),
    "cycles.two_label_cycle_gens.self_ms": ("cycles.two_label_cycle_gens", "self_ms"),
    "cycles.mgs_merge.self_ms": ("cycles.mgs_merge", "self_ms"),
    "construct.build.self_ms": ("construct.build", "self_ms"),
    "oracle.enumerate_splines.self_ms": ("oracle.enumerate_splines", "self_ms"),
    "oracle.enumerate_splines.splines": ("oracle.enumerate_splines", "splines"),
    "oracle.fingerprint.self_ms": ("oracle.fingerprint", "self_ms"),
    "oracle.span_equals.self_ms": ("oracle.span_equals", "self_ms"),
    "cli.main.self_ms": ("cli.main", "self_ms"),
}


class Tracer:
    """Installs the wrappers; ``take()`` returns and resets the totals."""

    def __init__(self):
        self._stack: list[float] = []  # time covered by children, per open span
        self._restore: list[tuple[Any, str, Any]] = []
        self._reset()

    def _reset(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.sizes: dict[str, dict[str, int]] = defaultdict(dict)

    def _wrap(self, name: str, fn: Callable, probes: dict) -> Callable:
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = tracer._stack
            stack.append(0.0)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                covered = stack.pop()
                tracer.self_s[name] += end - start - covered
                tracer.calls[name] += 1
                if result is not None:
                    sizes = tracer.sizes[name]
                    for key, (how, probe) in probes.items():
                        value = probe(args, kwargs, result)
                        old = sizes.get(key, 0)
                        sizes[key] = max(old, value) if how == "max" else old + value
                if stack:
                    stack[-1] += clock() - start

        return traced

    def install(self):
        modules = [mod for key, mod in sorted(sys.modules.items()) if key.startswith("splinemod")]
        for name, module_name, attr, probes in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                continue  # gone from the program: reads as never called
            wrapper = self._wrap(name, original, probes)
            if isinstance(owner, type):
                self._restore.append((owner, leaf, original))
                setattr(owner, leaf, wrapper)
                continue
            # Callers look functions up in their own module's namespace
            # (``from .matrix import hnf``), so replace every reference.
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def clear_stack(self):
        """Forget spans left open by a case that was stopped at its limit."""
        self._stack.clear()

    def take(self) -> dict[str, dict[str, float]]:
        """Totals since the last call, keyed by span name."""
        out = {}
        for name in set(self.calls) | set(self.self_s):
            out[name] = {"self_ms": self.self_s[name] * 1000, "calls": self.calls[name], **self.sizes[name]}
        self._reset()
        return out


def metric(totals: dict, key: str) -> float:
    span, field = METRICS[key]
    return totals.get(span, {}).get(field, 0)
