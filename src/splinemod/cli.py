"""Command-line interface.

``build_parser`` declares each subcommand once, with its arguments, its
report builder and its printer.  Exit codes are part of the contract:
0 success, 2 input error or a report that cannot be written, 3
enumeration budget exceeded, 4 internal cross-check mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from itertools import chain
from json.encoder import encode_basestring_ascii as _encode

from . import construct as construct_mod
from .arith import additive_order, factorize
from .cycles import GeneratingSet, closed_form, cycle_instance, leading_index
from .decompose import decompose
from .engine import (
    IntVectors,
    SplineModule,
    extension_analysis,
    invariant_factors,
    normalized_module,
    pulled_back_lattice,
)
from .errors import BudgetExceeded, InternalInconsistency, SplineError
from .graph import EdgeLabeledGraph, load_graph, normalize
from .oracle import enumerate_splines, fingerprint, span_equals

EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_MISMATCH = 4


def _load_graph(path: str, order: str | None = None) -> EdgeLabeledGraph:
    G = load_graph(path)
    if order is None:
        return G
    return G.with_vertex_order([name.strip() for name in order.split(",")])


def _display_generators(module: SplineModule) -> tuple[tuple[int, ...], ...]:
    """Largest order first, then latest leading vertex first; the stored
    module keeps ascending factor pairing.  The same row objects, in a
    container of the stored set's type, so an ``IntVectors`` stays one."""
    paired = sorted(
        zip(module.invariant_factors, module.mgs),
        key=lambda fv: (-fv[0], -leading_index(fv[1])),
    )
    return type(module.mgs)(vec for _, vec in paired)


# The report builders below hand the writer the tuples the solvers store:
# ``_json_text`` writes a tuple exactly as ``json.dumps`` writes a list.


def _module_json(module: SplineModule) -> dict:
    return {
        "invariant_factors": module.invariant_factors,
        "rank": module.rank,
        "order": module.order,
        "minimum_generating_set": module.mgs,
        "flow_up_generators": module.flow_up,
        "raw_diagonal": module.raw_diagonal,
    }


def _normalization_json(report) -> dict:
    return {
        "vertex_merge_map": report.vertex_merge_map,
        "dropped_unit_edges": report.dropped_unit_edges,
        "collapsed_parallel_edges": report.collapsed_parallel_edges,
    }


def _oracle_block(G: EdgeLabeledGraph, module: SplineModule, budget: int | None) -> dict:
    splines = enumerate_splines(G, budget)
    print_fp = fingerprint(splines, G.modulus)
    span_ok = span_equals(module.mgs, splines, G.modulus, budget)
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


def _solve_report(args: argparse.Namespace) -> dict:
    G = _load_graph(args.graph, args.order)
    path = "crt" if args.crt else "direct" if args.direct else "both"
    if G.modulus == 0:
        if args.verify:
            raise SplineError("--verify cannot enumerate an infinite module")
        if args.crt:
            raise SplineError("--crt cannot decompose an infinite module")
        columns, nreport = pulled_back_lattice(G)
        return {
            "instance": G.to_json_obj(),
            "normalization": _normalization_json(nreport),
            "mode": "integer-lattice",
            "lattice_basis_columns": columns,
            "provenance": "hermite-lattice",
        }
    gnorm, nreport = normalize(G)
    # For a prime power the decomposition's one component is the input
    # itself, so a cross-check would only solve the same graph twice.
    run_crt = path == "crt" or (path == "both" and len(factorize(G.modulus).pairs) >= 2)
    # with --crt the recombined module stands in for the direct one
    direct = None if path == "crt" else normalized_module(G, gnorm, nreport)
    crt_block = None
    if run_crt:
        dec = decompose(G)
        crt_block = {
            "components": [
                {
                    "prime_power": comp.prime_power,
                    "reduced_labels": comp.graph.edges,
                    **_module_json(comp.module),
                }
                for comp in dec.components
            ],
            **_module_json(dec.recombined),
        }
        if direct is None:
            direct = dec.recombined
        elif direct.invariant_factors != dec.recombined.invariant_factors:
            raise InternalInconsistency(
                f"direct path factors {direct.invariant_factors} != "
                f"recombined factors {dec.recombined.invariant_factors}"
            )

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
    if args.verify:
        report["oracle"] = _oracle_block(G, direct, args.budget)
    return report


def _cycle_report(args: argparse.Namespace) -> dict:
    G = _load_graph(args.graph, args.order)
    instance = cycle_instance(G)
    m = G.modulus
    gens = closed_form(instance)
    module = invariant_factors(G)
    note = None
    if gens is None:
        note = "no closed form applies; falling back to the lattice path"
        gens = GeneratingSet(
            tuple(reversed(module.mgs)), minimum=True, provenance="lattice-smith"
        )
    # every set here is minimum: its sorted orders are the factors, which
    # also pins its size to the rank
    orders = [additive_order(v, m) for v in gens.splines]
    if tuple(sorted(orders)) != module.invariant_factors:
        raise InternalInconsistency(
            f"closed-form orders {sorted(orders)} != invariant factors "
            f"{module.invariant_factors}"
        )
    report = {
        "instance": G.to_json_obj(),
        "cycle_order": [G.vertices[i] for i in instance.order],
        "cycle_labels": instance.labels,
        "generating_set": {
            "splines": gens.splines,
            "orders": orders,
            "minimum": gens.minimum,
            "provenance": gens.provenance,
            "rotation": gens.rotation,
        },
        "note": note,
        **_module_json(module),
        "oracle": None,
    }
    if args.verify:
        splines = enumerate_splines(G, args.budget)
        ok = span_equals(gens.splines, splines, m, args.budget)
        report["oracle"] = {"spline_count": len(splines), "set_spans": ok}
        if not ok:
            raise InternalInconsistency("closed-form set does not span the module")
    return report


def _construct_report(args: argparse.Namespace) -> dict:
    k = args.k
    if k == 1:
        graph, recipe = construct_mod.build_rank_1(args.n, args.m)
    else:
        graph, recipe = construct_mod.build_rank_k(args.n, args.m, k)
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
        "coprime_split": recipe.coprime_split,
        "steps": [
            {"vertex": s.vertex, "kind": s.kind, "edges": s.edges}
            for s in recipe.steps
        ],
    }


def _extend_report(args: argparse.Namespace) -> dict:
    base = _load_graph(args.base)
    ext = _load_graph(args.extension)
    analysis = extension_analysis(base, ext, args.vertex)
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
        report["base_lattice_basis"] = analysis.base
        report["extended_lattice_basis"] = pulled_back_lattice(ext)[0]
    return report


def _json_text(value) -> str:
    """Exactly ``json.dumps(value, indent=2)`` for a report (string keys).

    A tuple is written as ``json.dumps`` writes a list.  ``_write`` appends
    the pieces of the text to one buffer, which is joined once at the end,
    so no text is copied again by the levels that hold it.  Plain ints and
    strs, None, True and False are written directly; any other scalar goes
    through ``json.dumps``.  The bulk of a report is written in whole-list
    passes, with no Python call per element: names by the string encoder
    ``json.dumps`` uses, vectors and edges by ``_rows``.  A vector set the
    solvers made is an ``engine.IntVectors``, whose entries were checked
    to be plain ints where it was made, so its rows skip the copy, the
    length check and the per-entry type check and go straight to
    ``_int_rows``.  Reports repeat their vectors, so two memos, fresh for
    each call, save formatting them again:

    * a row-set memo maps ``id`` of each row-set container (an
      ``IntVectors``, or a list or tuple whose rows ``_rows`` accepts) to
      the container, the indent it was written at and its text.  The
      container is kept so that its id cannot be reused.  Met again at the
      same indent, the text is reused as it is; met deeper, as
      ``text.replace("\\n", "\\n" + pad)``, which is exact because a line
      break in that text only ever starts an indentation (ints and encoded
      strings hold no raw newline); met shallower, it is written again.
    * a row memo maps the indent that closes an int row to ``{row: text}``,
      so a new container over the same rows (the display set is a new
      container over the generating set's rows) formats each distinct row
      once per depth.  It only ever holds rows of plain ints, whichever
      path added them: a plain row set enters it only after the type check
      passes, since ``(True,) == (1,)`` prints differently, so a plain row
      set that holds ``True`` still takes the checked path.
    """
    out: list[str] = []
    _write(value, "\n", out, {}, {})
    return "".join(out)


def _write(
    value,
    indent: str,
    out: list[str],
    sets: dict[int, tuple[list | tuple, str, str]],
    memo: dict[str, dict[tuple[int, ...], str]],
) -> None:
    """Append the text of ``value`` to ``out``, closed by ``indent`` (the
    newline and indentation before its closing bracket).  ``sets`` is the
    row-set memo of ``_json_text`` and ``memo`` its row memo."""
    kind = type(value)
    if kind is int:
        out.append(int.__repr__(value))
        return
    if kind is str:
        out.append(_encode(value))
        return
    if value is None or kind is bool:
        out.append("null" if value is None else "true" if value else "false")
        return
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        sep = "{" + inner
        for k, v in value.items():
            out.append(sep + _encode(k) + ": ")
            sep = "," + inner
            _write(v, inner, out, sets, memo)
        out.append(indent + "}")
        return
    if not isinstance(value, (list, tuple)):
        out.append(json.dumps(value))
        return
    if not value:
        out.append("[]")
        return
    trusted = kind is IntVectors
    if not trusted:
        kinds = set(map(type, value))
        if kinds == {int}:
            out.append(next(_rows((value,), indent, memo)))
            return
        if kinds == {str}:
            out.append("[" + inner + ("," + inner).join(map(_encode, value)) + indent + "]")
            return
    if trusted or kinds <= {list, tuple}:
        seen = sets.get(id(value))
        if seen is not None and len(seen[1]) <= len(indent):
            _, at, text = seen
            pad = indent[len(at):]
            out.append(text.replace("\n", "\n" + pad) if pad else text)
            return
        rows = _int_rows(value, inner, memo) if trusted else _rows(value, inner, memo)
        if rows is not None:
            text = "[" + inner + ("," + inner).join(rows) + indent + "]"
            sets[id(value)] = (value, indent, text)
            out.append(text)
            return
    sep = "[" + inner
    for v in value:
        out.append(sep)
        sep = "," + inner
        _write(v, inner, out, sets, memo)
    out.append(indent + "]")


def _template(width: int, indent: str) -> str:
    """The ``%s`` template of a row of ``width`` values closed by ``indent``."""
    inner = indent + "  "
    return "[" + inner + ("," + inner).join(["%s"] * width) + indent + "]"


def _int_rows(rows, indent: str, memo: dict[str, dict[tuple[int, ...], str]]):
    """The texts of equal-length, nonempty tuples of plain ints closed by
    ``indent``, each distinct row formatted once per indent through the
    row memo.  The caller has checked the rows, or holds an ``IntVectors``."""
    texts = memo.setdefault(indent, {})
    new = set(rows).difference(texts)
    texts.update(zip(new, map(_template(len(rows[0]), indent).__mod__, new)))
    return map(texts.__getitem__, rows)


def _rows(rows, indent: str, memo: dict[str, dict[tuple[int, ...], str]]):
    """The texts of equal-length, nonempty rows closed by ``indent``, one
    ``%s`` template filled per row; None unless each column holds only plain
    ints or only plain strs.  All-int rows go to ``_int_rows`` only after
    the whole set passes that check, since ``(True,) == (1,)`` prints
    differently."""
    rows = tuple(map(tuple, rows))
    if len(set(map(len, rows))) > 1 or not rows[0]:
        return None
    if set(map(type, chain.from_iterable(rows))) == {int}:
        return _int_rows(rows, indent, memo)
    columns = list(zip(*rows))
    for i, column in enumerate(columns):
        kinds = set(map(type, column))
        if kinds == {str}:
            columns[i] = map(_encode, column)
        elif kinds != {int}:
            return None
    return map(_template(len(rows[0]), indent).__mod__, zip(*columns))


def _vec(v) -> str:
    return "(" + ", ".join(str(x) for x in v) + ")"


def _print_instance(report: dict, out) -> None:
    inst = report["instance"]
    out.write(f"modulus: {inst['mod']}\n")
    out.write("vertices: " + " ".join(inst["vertices"]) + "\n")


def _print_module(report: dict, out) -> None:
    out.write(f"invariant factors: {tuple(report['invariant_factors'])}\n")
    out.write(f"rank: {report['rank']}\n")
    out.write(f"module order: {report['order']}\n")


def _print_solve(report: dict, out) -> None:
    _print_instance(report, out)
    if report["mode"] == "integer-lattice":
        out.write("integer lattice basis columns:\n")
        for col in report["lattice_basis_columns"]:
            out.write("  " + _vec(col) + "\n")
        return
    _print_module(report, out)
    out.write("minimum generating set (largest order first):\n")
    for v in report["display_generating_set"]:
        out.write("  " + _vec(v) + "\n")
    if report["flow_up_generators"]:
        out.write("flow-up generators:\n")
        for v in report["flow_up_generators"]:
            out.write("  " + _vec(v) + "\n")
    crt = report["crt"]
    if crt:
        parts = ", ".join(
            f"mod {c['prime_power']}: {tuple(c['invariant_factors'])}"
            for c in crt["components"]
        )
        out.write(f"crt components: {parts}\n")
    if report["oracle"]:
        out.write(f"oracle: {report['oracle']}\n")


def _print_cycle(report: dict, out) -> None:
    _print_instance(report, out)
    if report["note"]:
        out.write(f"note: {report['note']}\n")
    _print_module(report, out)
    gens = report["generating_set"]
    out.write(f"generating set ({gens['provenance']}, minimum")
    if gens["rotation"]:
        out.write(f", rotated by {gens['rotation']}")
    out.write("):\n")
    for v, o in zip(gens["splines"], gens["orders"]):
        out.write(f"  {_vec(v)}  order {o}\n")
    if report["oracle"]:
        out.write(f"oracle: {report['oracle']}\n")


def _print_construct(report: dict, out) -> None:
    out.write(report["graph_file"])
    out.write(f"# target rank {report['target_rank']}, "
              f"verified rank {report['verified_rank']}\n")


def _print_extend(report: dict, out) -> None:
    out.write(f"new vertex: {report['new_vertex']}\n")
    out.write(f"incident label lcm: {report['incident_lcm']}\n")
    out.write(f"kernel order: {report['kernel_order']}\n")
    out.write(f"restriction surjective: {report['pi_surjective']}\n")
    if "base_module" in report:
        for key in ("base_module", "extended_module"):
            mod = report[key]
            out.write(
                f"{key.replace('_', ' ')}: factors "
                f"{tuple(mod['invariant_factors'])}, rank {mod['rank']}\n"
            )
    else:
        for key in ("base_lattice_basis", "extended_lattice_basis"):
            cols = ", ".join(_vec(c) for c in report[key])
            out.write(f"{key.replace('_', ' ')}: {cols}\n")


def _command(sub, name: str, help: str, build, show) -> argparse.ArgumentParser:
    p = sub.add_parser(name, help=help)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(build=build, show=show)
    return p


def _graph_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("graph", help="graph file (text format, or .json mirror)")
    p.add_argument("--verify", action="store_true", help="cross-check with the brute-force oracle")
    p.add_argument("--budget", type=int, default=None, help="enumeration budget")
    p.add_argument("--order", default=None, help="comma-separated vertex order")


@cache
def build_parser() -> argparse.ArgumentParser:
    """Each subcommand names the function that builds its report from the
    parsed arguments and the one that prints it as text.  Built on first
    use, then reused: a parse fills a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="splinemod",
        description="Exact spline modules over Z/mZ on edge-labeled graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = _command(
        sub, "solve", "compute the spline module of a graph", _solve_report, _print_solve
    )
    _graph_arguments(p_solve)
    group = p_solve.add_mutually_exclusive_group()
    group.add_argument("--crt", action="store_true", help="prime-power decomposition path only")
    group.add_argument("--direct", action="store_true", help="single lattice path only")

    p_cycle = _command(
        sub, "cycle", "closed-form generating sets for cycles", _cycle_report, _print_cycle
    )
    _graph_arguments(p_cycle)

    p_con = _command(
        sub, "construct", "build a graph with prescribed rank", _construct_report, _print_construct
    )
    p_con.add_argument("n", type=int)
    p_con.add_argument("m", type=int)
    p_con.add_argument("k", type=int)

    p_ext = _command(sub, "extend", "analyze a one-vertex extension", _extend_report, _print_extend)
    p_ext.add_argument("base")
    p_ext.add_argument("extension")
    p_ext.add_argument("vertex")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = args.build(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InternalInconsistency as exc:
        print(f"cross-check mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except (SplineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    # An answer may pass the interpreter's digit limit on int-to-text; lift
    # it for the write only, so input stays bounded and callers keep theirs.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        if args.json:
            sys.stdout.write(_json_text(report))
            sys.stdout.write("\n")
        else:
            args.show(report, sys.stdout)
        sys.stdout.flush()  # a small report would otherwise fail at exit
    except OSError as exc:  # a closed pipe or a full disk
        # the interpreter flushes stdout again at exit; what is left of the
        # report goes to the null device, so that flush cannot fail too
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        print(f"error: cannot write the report: {exc}", file=sys.stderr)
        return EXIT_INPUT
    finally:
        sys.set_int_max_str_digits(limit)
    return 0


if __name__ == "__main__":
    sys.exit(main())
