"""Command-line interface.

Subcommands: ``solve`` (full module computation), ``cycle`` (closed-form
cycle paths with cross-check), ``construct`` (rank-prescribed graphs),
``extend`` (one-vertex extension analysis).  Exit codes are part of the
contract: 0 success, 2 input error, 3 enumeration budget exceeded,
4 internal cross-check mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import construct as construct_mod
from .arith import additive_order, factorize
from .cycles import (
    GeneratingSet,
    coprime_order_classes,
    cycle_instance,
    leading_index,
    mgs_merge,
    power_label_cycle_gens,
    single_label_mgs,
    two_label_cycle_gens,
)
from .decompose import decompose
from .engine import (
    SplineModule,
    extension_analysis,
    invariant_factors,
    pulled_back_lattice,
)
from .errors import (
    BudgetExceeded,
    InternalInconsistency,
    NotPowerFamily,
    NotSingleLabel,
    PreconditionViolated,
    SplineError,
)
from .graph import EdgeLabeledGraph, load_graph, normalize
from .oracle import enumerate_splines, fingerprint, span_equals

EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_MISMATCH = 4


def _apply_order(G: EdgeLabeledGraph, order: str | None) -> EdgeLabeledGraph:
    if order is None:
        return G
    return G.with_vertex_order([name.strip() for name in order.split(",")])


def _display_generators(module: SplineModule) -> list[list[int]]:
    """Largest order first, then latest leading vertex first; the stored
    module keeps ascending factor pairing."""
    paired = sorted(
        zip(module.invariant_factors, module.mgs),
        key=lambda fv: (-fv[0], -leading_index(fv[1])),
    )
    return [list(vec) for _, vec in paired]


def _module_json(module: SplineModule) -> dict:
    return {
        "invariant_factors": list(module.invariant_factors),
        "rank": module.rank,
        "order": module.order,
        "minimum_generating_set": [list(v) for v in module.mgs],
        "flow_up_generators": [list(v) for v in module.flow_up],
        "raw_diagonal": list(module.raw_diagonal),
    }


def _normalization_json(report) -> dict:
    return {
        "vertex_merge_map": list(report.vertex_merge_map),
        "dropped_unit_edges": [list(e) for e in report.dropped_unit_edges],
        "collapsed_parallel_edges": [
            [list(pair), label] for pair, label in report.collapsed_parallel_edges
        ],
    }


def _oracle_block(G: EdgeLabeledGraph, module: SplineModule, budget: int | None) -> dict:
    splines = enumerate_splines(G, budget)
    members = set(splines)
    print_fp = fingerprint(splines, G.modulus, members=members)
    span_ok = span_equals(list(module.mgs), members, G.modulus, budget)
    block = {
        "spline_count": len(splines),
        "census_factors": list(print_fp.invariant_factors),
        "factors_match": print_fp.invariant_factors == module.invariant_factors,
        "mgs_spans": span_ok,
    }
    if not (block["factors_match"] and span_ok):
        raise InternalInconsistency(
            f"oracle disagrees with computed module: {block}"
        )
    return block


def _integer_mode_report(G: EdgeLabeledGraph) -> dict:
    columns, nreport = pulled_back_lattice(G)
    return {
        "instance": G.to_json_obj(),
        "normalization": _normalization_json(nreport),
        "mode": "integer-lattice",
        "lattice_basis_columns": [list(c) for c in columns],
        "provenance": "hermite-lattice",
    }


def _solve_report(G: EdgeLabeledGraph, path: str, verify: bool, budget: int | None) -> dict:
    if G.modulus == 0:
        if verify:
            raise SplineError("--verify cannot enumerate an infinite module")
        return _integer_mode_report(G)
    _, nreport = normalize(G)
    m = G.modulus

    direct = None
    crt_block = None
    if path in ("direct", "both"):
        direct = invariant_factors(G)
    # For a prime power the decomposition's one component is the input
    # itself, so a cross-check would only solve the same graph twice.
    run_crt = (path == "crt" and m >= 2) or (
        path == "both" and len(factorize(m).pairs) >= 2
    )
    if run_crt:
        dec = decompose(G)
        crt_block = {
            "components": [
                {
                    "prime_power": comp.prime_power,
                    "reduced_labels": [list(e) for e in comp.graph.edges],
                    **_module_json(comp.module),
                }
                for comp in dec.components
            ],
            **_module_json(dec.recombined),
        }
        if direct is not None and (
            direct.invariant_factors != dec.recombined.invariant_factors
        ):
            raise InternalInconsistency(
                f"direct path factors {direct.invariant_factors} != "
                f"recombined factors {dec.recombined.invariant_factors}"
            )
        if direct is None:
            direct = dec.recombined
    if direct is None:
        direct = invariant_factors(G)

    report = {
        "instance": G.to_json_obj(),
        "normalization": _normalization_json(nreport),
        "mode": "module",
        "provenance": path,
        **_module_json(direct),
        "display_generating_set": _display_generators(direct),
        "crt": crt_block,
        "oracle": None,
    }
    if verify:
        report["oracle"] = _oracle_block(G, direct, budget)
    return report


def _generating_set_json(gs: GeneratingSet, m: int) -> dict:
    return {
        "splines": [list(v) for v in gs.splines],
        "orders": [additive_order(v, m) for v in gs.splines],
        "minimum": gs.minimum,
        "provenance": gs.provenance,
        "rotation": gs.rotation,
    }


def _cycle_report(G: EdgeLabeledGraph, verify: bool, budget: int | None) -> dict:
    instance = cycle_instance(G)
    m = G.modulus
    gens = None
    note = None
    try:
        gens = single_label_mgs(G)
    except NotSingleLabel:
        pass
    if gens is None:
        try:
            gens = power_label_cycle_gens(instance)
        except NotPowerFamily:
            pass
    if gens is None:
        try:
            raw = two_label_cycle_gens(instance)
            values = sorted(set(instance.labels))
            pair = coprime_order_classes(m, values[1], values[0])
            gens = mgs_merge(raw, m, pair)
        except PreconditionViolated:
            pass
    module = invariant_factors(G)
    if gens is None:
        note = "no closed form applies; falling back to the lattice path"
        gens = GeneratingSet(
            tuple(reversed(module.mgs)), minimum=True, provenance="lattice-smith"
        )
    if gens.minimum and len(gens.splines) != module.rank:
        raise InternalInconsistency(
            f"closed-form set size {len(gens.splines)} != rank {module.rank}"
        )
    if gens.minimum:
        orders = sorted(additive_order(v, m) for v in gens.splines)
        if tuple(orders) != module.invariant_factors:
            raise InternalInconsistency(
                f"closed-form orders {orders} != invariant factors "
                f"{module.invariant_factors}"
            )
    report = {
        "instance": G.to_json_obj(),
        "cycle_order": [G.vertices[i] for i in instance.order],
        "cycle_labels": list(instance.labels),
        "generating_set": _generating_set_json(gens, m),
        "note": note,
        **_module_json(module),
        "oracle": None,
    }
    if verify:
        splines = enumerate_splines(G, budget)
        ok = span_equals(list(gens.splines), splines, m, budget)
        report["oracle"] = {"spline_count": len(splines), "set_spans": ok}
        if not ok:
            raise InternalInconsistency("closed-form set does not span the module")
    return report


def _construct_report(n: int, m: int, k: int) -> dict:
    if k == 1:
        graph, recipe = construct_mod.build_rank_1(n, m)
    else:
        graph, recipe = construct_mod.build_rank_k(n, m, k)
    achieved = invariant_factors(graph).rank
    if achieved != k:
        raise InternalInconsistency(
            f"constructed graph has rank {achieved}, wanted {k}"
        )
    return {
        "graph_file": graph.to_text(),
        "instance": graph.to_json_obj(),
        "target_rank": k,
        "verified_rank": achieved,
        "coprime_split": list(recipe.coprime_split),
        "steps": [
            {"vertex": s.vertex, "kind": s.kind, "edges": [list(e) for e in s.edges]}
            for s in recipe.steps
        ],
    }


def _extend_report(base: EdgeLabeledGraph, ext: EdgeLabeledGraph, vertex: str) -> dict:
    analysis = extension_analysis(base, ext, vertex)
    report = {
        "new_vertex": analysis.new_vertex,
        "incident_lcm": analysis.incident_lcm,
        "kernel_order": analysis.kernel_order,
        "pi_surjective": analysis.pi_surjective,
    }
    if base.modulus:
        report["base_module"] = _module_json(analysis.base)
        report["extended_module"] = _module_json(invariant_factors(ext))
    else:
        report["base_lattice_basis"] = [list(c) for c in analysis.base]
        report["extended_lattice_basis"] = [
            list(c) for c in pulled_back_lattice(ext)[0]
        ]
    return report


def _print_human(report: dict, out) -> None:
    def vec(v):
        return "(" + ", ".join(str(x) for x in v) + ")"

    if "graph_file" in report:
        out.write(report["graph_file"])
        out.write(f"# target rank {report['target_rank']}, "
                  f"verified rank {report['verified_rank']}\n")
        return
    inst = report.get("instance")
    if inst:
        out.write(f"modulus: {inst['mod']}\n")
        out.write("vertices: " + " ".join(inst["vertices"]) + "\n")
    if report.get("mode") == "integer-lattice":
        out.write("integer lattice basis columns:\n")
        for col in report["lattice_basis_columns"]:
            out.write("  " + vec(col) + "\n")
        return
    if "pi_surjective" in report:
        out.write(f"new vertex: {report['new_vertex']}\n")
        out.write(f"incident label lcm: {report['incident_lcm']}\n")
        out.write(f"kernel order: {report['kernel_order']}\n")
        out.write(f"restriction surjective: {report['pi_surjective']}\n")
        for key in ("base_module", "extended_module"):
            if key in report:
                mod = report[key]
                out.write(
                    f"{key.replace('_', ' ')}: factors "
                    f"{tuple(mod['invariant_factors'])}, rank {mod['rank']}\n"
                )
        for key in ("base_lattice_basis", "extended_lattice_basis"):
            if key in report:
                cols = ", ".join(vec(c) for c in report[key])
                out.write(f"{key.replace('_', ' ')}: {cols}\n")
        return
    if report.get("note"):
        out.write(f"note: {report['note']}\n")
    out.write(f"invariant factors: {tuple(report['invariant_factors'])}\n")
    out.write(f"rank: {report['rank']}\n")
    out.write(f"module order: {report['order']}\n")
    gens = report.get("generating_set")
    if gens:
        out.write(
            f"generating set ({gens['provenance']}, "
            f"{'minimum' if gens['minimum'] else 'not minimum'}"
        )
        if gens.get("rotation"):
            out.write(f", rotated by {gens['rotation']}")
        out.write("):\n")
        for v, o in zip(gens["splines"], gens["orders"]):
            out.write(f"  {vec(v)}  order {o}\n")
    else:
        out.write("minimum generating set (largest order first):\n")
        for v in report["display_generating_set"]:
            out.write("  " + vec(v) + "\n")
        if report.get("flow_up_generators"):
            out.write("flow-up generators:\n")
            for v in report["flow_up_generators"]:
                out.write("  " + vec(v) + "\n")
    crt = report.get("crt")
    if crt:
        parts = ", ".join(
            f"mod {c['prime_power']}: {tuple(c['invariant_factors'])}"
            for c in crt["components"]
        )
        out.write(f"crt components: {parts}\n")
    oracle = report.get("oracle")
    if oracle:
        out.write(f"oracle: {oracle}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splinemod",
        description="Exact spline modules over Z/mZ on edge-labeled graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p_solve = sub.add_parser("solve", help="compute the spline module of a graph")
    common(p_solve)
    p_solve.add_argument("graph", help="graph file (text format, or .json mirror)")
    p_solve.add_argument("--verify", action="store_true", help="cross-check with the brute-force oracle")
    group = p_solve.add_mutually_exclusive_group()
    group.add_argument("--crt", action="store_true", help="prime-power decomposition path only")
    group.add_argument("--direct", action="store_true", help="single lattice path only")
    p_solve.add_argument("--budget", type=int, default=None, help="enumeration budget")
    p_solve.add_argument("--order", default=None, help="comma-separated vertex order")

    p_cycle = sub.add_parser("cycle", help="closed-form generating sets for cycles")
    common(p_cycle)
    p_cycle.add_argument("graph")
    p_cycle.add_argument("--verify", action="store_true")
    p_cycle.add_argument("--budget", type=int, default=None)
    p_cycle.add_argument("--order", default=None)

    p_con = sub.add_parser("construct", help="build a graph with prescribed rank")
    common(p_con)
    p_con.add_argument("n", type=int)
    p_con.add_argument("m", type=int)
    p_con.add_argument("k", type=int)

    p_ext = sub.add_parser("extend", help="analyze a one-vertex extension")
    common(p_ext)
    p_ext.add_argument("base")
    p_ext.add_argument("extension")
    p_ext.add_argument("vertex")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "solve":
            G = _apply_order(load_graph(args.graph), args.order)
            path = "crt" if args.crt else "direct" if args.direct else "both"
            report = _solve_report(G, path, args.verify, args.budget)
        elif args.command == "cycle":
            G = _apply_order(load_graph(args.graph), args.order)
            report = _cycle_report(G, args.verify, args.budget)
        elif args.command == "construct":
            report = _construct_report(args.n, args.m, args.k)
        else:
            base = load_graph(args.base)
            ext = load_graph(args.extension)
            report = _extend_report(base, ext, args.vertex)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InternalInconsistency as exc:
        print(f"cross-check mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except (SplineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    if args.json:
        json.dump(report, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        _print_human(report, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
