"""Exact computation of generalized spline modules over Z/mZ.

A generalized spline on an edge-labeled graph assigns a residue to every
vertex so that adjacent values differ by a multiple of the edge label.  This
package computes the full structure of the module of splines: flow-up
generating sets, invariant factors, minimum generating sets, rank,
prime-power decomposition, closed forms for cycles, and rank-prescribed
graph constructions, all in exact integer arithmetic and all verifiable
against a brute-force oracle at desk scale.
"""

from .arith import Factorization, additive_order, crt_combine, factorize, is_prime, xgcd
from .construct import ConstructionRecipe, build_rank_1, build_rank_k
from .cycles import (
    CycleInstance,
    GeneratingSet,
    closed_form,
    cycle_instance,
    mgs_merge,
    power_label_cycle_gens,
    single_label_mgs,
    two_label_cycle_gens,
)
from .decompose import Decomposition, decompose, recombine, reduce_graph
from .engine import (
    ExtensionAnalysis,
    SplineModule,
    extension_analysis,
    forest_rank,
    integer_lattice,
    invariant_factors,
)
from .graph import (
    EdgeLabeledGraph,
    NormalizationReport,
    first_failing,
    load_graph,
    normalize,
    parse_graph,
    parse_graph_json,
)
from .matrix import IntMatrix, snf
from .oracle import ModuleFingerprint, enumerate_splines, fingerprint, span_equals

__all__ = [
    "ConstructionRecipe",
    "CycleInstance",
    "Decomposition",
    "EdgeLabeledGraph",
    "ExtensionAnalysis",
    "Factorization",
    "GeneratingSet",
    "IntMatrix",
    "ModuleFingerprint",
    "NormalizationReport",
    "SplineModule",
    "additive_order",
    "build_rank_1",
    "build_rank_k",
    "closed_form",
    "crt_combine",
    "cycle_instance",
    "decompose",
    "enumerate_splines",
    "extension_analysis",
    "factorize",
    "fingerprint",
    "first_failing",
    "forest_rank",
    "integer_lattice",
    "invariant_factors",
    "is_prime",
    "load_graph",
    "mgs_merge",
    "normalize",
    "parse_graph",
    "parse_graph_json",
    "power_label_cycle_gens",
    "recombine",
    "reduce_graph",
    "single_label_mgs",
    "snf",
    "span_equals",
    "two_label_cycle_gens",
    "xgcd",
]
