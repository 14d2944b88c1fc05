"""Edge-labeled graphs over Z/mZ.

A graph carries its modulus.  Vertex order is semantically meaningful: it is
the flow-up order (v1 first), so reordering vertices changes which generating
vectors are triangular, though never the module itself.

``modulus == 0`` selects integer mode: labels are plain integers and the
spline condition is ordinary divisibility over Z.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import gcd, lcm

from .errors import (
    InvalidModulus,
    LengthMismatch,
    ParseError,
    SelfLoop,
    UnknownVertex,
)

Edge = tuple[int, int, int]  # (u index, v index, label)


@dataclass(frozen=True)
class EdgeLabeledGraph:
    modulus: int
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self):
        if self.modulus < 0:
            raise InvalidModulus(f"modulus {self.modulus} is negative")
        if not self.vertices:
            raise InvalidModulus("graph needs at least one vertex")
        if len(set(self.vertices)) != len(self.vertices):
            raise ParseError("duplicate vertex names")
        n = len(self.vertices)
        canon = []
        for u, v, label in self.edges:
            if not (0 <= u < n and 0 <= v < n):
                raise UnknownVertex(f"edge ({u}, {v}) references a missing vertex")
            if u == v:
                raise SelfLoop(f"self-loop at vertex {self.vertices[u]}")
            canon.append((u, v, label % self.modulus if self.modulus else abs(label)))
        object.__setattr__(self, "edges", tuple(canon))

    @property
    def n(self) -> int:
        return len(self.vertices)

    def vertex_index(self, name: str) -> int:
        try:
            return self.vertices.index(name)
        except ValueError:
            raise UnknownVertex(f"unknown vertex {name!r}") from None

    def incident(self, v: int) -> list[Edge]:
        return [e for e in self.edges if v in (e[0], e[1])]

    def degree(self, v: int) -> int:
        return len(self.incident(v))

    def with_vertex_order(self, order: list[str]) -> "EdgeLabeledGraph":
        """Same graph with vertices permuted into the given order."""
        if sorted(order) != sorted(self.vertices):
            raise UnknownVertex(
                f"order {order} is not a permutation of {list(self.vertices)}"
            )
        old_to_new = {self.vertex_index(name): i for i, name in enumerate(order)}
        edges = [(old_to_new[u], old_to_new[v], l) for u, v, l in self.edges]
        return EdgeLabeledGraph(self.modulus, tuple(order), tuple(edges))

    def to_text(self) -> str:
        lines = [f"mod {self.modulus}", "vertices " + " ".join(self.vertices)]
        for u, v, label in self.edges:
            lines.append(f"edge {self.vertices[u]} {self.vertices[v]} {label}")
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        return {
            "mod": self.modulus,
            "vertices": list(self.vertices),
            "edges": [[self.vertices[u], self.vertices[v], l] for u, v, l in self.edges],
        }


@dataclass(frozen=True)
class NormalizationReport:
    """What normalize() did: vertex merges, dropped units, collapsed parallels.

    ``vertex_merge_map[i]`` is the normalized index of original vertex i; the
    map is surjective and order-preserving on class representatives.
    """

    vertex_merge_map: tuple[int, ...]
    dropped_unit_edges: tuple[Edge, ...]
    collapsed_parallel_edges: tuple[tuple[tuple[int, int], int], ...]

    @property
    def identity(self) -> bool:
        n = len(self.vertex_merge_map)
        return (
            self.vertex_merge_map == tuple(range(n))
            and not self.dropped_unit_edges
            and not self.collapsed_parallel_edges
        )

    def pull_back(self, values):
        """Lift a vector on normalized vertices to the original vertex set."""
        return tuple(values[k] for k in self.vertex_merge_map)


def parse_graph(text: str) -> EdgeLabeledGraph:
    """Parse the line-oriented graph format.

    Line 1: ``mod <m>``; line 2: ``vertices <name> ...``; then
    ``edge <u> <v> <label>`` lines.  ``#`` starts a comment, blank lines are
    skipped.  ``mod 0`` selects integer mode.
    """
    modulus = None
    vertices: list[str] | None = None
    edges: list[tuple[str, str, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "mod":
            if modulus is not None:
                raise ParseError("duplicate mod line", lineno)
            if len(parts) != 2:
                raise ParseError("expected: mod <m>", lineno)
            try:
                modulus = int(parts[1])
            except ValueError:
                raise ParseError(f"bad modulus {parts[1]!r}", lineno) from None
            if modulus < 0:
                raise InvalidModulus(f"line {lineno}: modulus {modulus} is negative")
        elif parts[0] == "vertices":
            if vertices is not None:
                raise ParseError("duplicate vertices line", lineno)
            if len(parts) < 2:
                raise ParseError("expected: vertices <name> ...", lineno)
            vertices = parts[1:]
            if len(set(vertices)) != len(vertices):
                raise ParseError("duplicate vertex names", lineno)
        elif parts[0] == "edge":
            if len(parts) != 4:
                raise ParseError("expected: edge <u> <v> <label>", lineno)
            try:
                label = int(parts[3])
            except ValueError:
                raise ParseError(f"bad edge label {parts[3]!r}", lineno) from None
            edges.append((parts[1], parts[2], label))
        else:
            raise ParseError(f"unknown directive {parts[0]!r}", lineno)
    if modulus is None:
        raise ParseError("missing mod line")
    if vertices is None:
        raise ParseError("missing vertices line")
    return _by_name(modulus, vertices, edges)


def _by_name(
    modulus: int, vertices: list[str], edges: list[tuple[str, str, int]]
) -> EdgeLabeledGraph:
    """The graph whose edges name their endpoints; both parsers end here."""
    index = {name: i for i, name in enumerate(vertices)}
    resolved = []
    for u, v, label in edges:
        for name in (u, v):
            if name not in index:
                raise UnknownVertex(f"edge references undeclared vertex {name!r}")
        resolved.append((index[u], index[v], label))
    return EdgeLabeledGraph(modulus, tuple(vertices), tuple(resolved))


def _json_int(value, what: str) -> int:
    # bool is an int subclass, and int() would truncate a float or parse a
    # string; only a JSON integer is accepted.
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{what} {value!r} is not an integer")
    return value


def parse_graph_json(text: str) -> EdgeLabeledGraph:
    """Parse the JSON mirror: {"mod": m, "vertices": [...], "edges": [[u, v, label], ...]}."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    try:
        modulus = _json_int(obj["mod"], "modulus")
        vertices = [str(v) for v in obj["vertices"]]
        raw_edges = list(obj["edges"])
    except (KeyError, TypeError) as exc:
        raise ParseError(f"missing or malformed field: {exc}") from None
    edges = []
    for entry in raw_edges:
        if not isinstance(entry, list) or len(entry) != 3:
            raise ParseError(f"edge entry {entry!r} is not [u, v, label]")
        u, v, label = entry
        edges.append((str(u), str(v), _json_int(label, "edge label")))
    return _by_name(modulus, vertices, edges)


def load_graph(path: str) -> EdgeLabeledGraph:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".json"):
        return parse_graph_json(text)
    return parse_graph(text)


def spline_check(G: EdgeLabeledGraph, values) -> bool:
    """True iff the vertex labeling satisfies every edge condition.

    The condition on edge (u, v, label) is that f[u] - f[v] lies in the ideal
    generated by the label; concretely gcd(label, m) divides the difference
    (label 0 forcing equality).
    """
    if len(values) != G.n:
        raise LengthMismatch(f"expected {G.n} values, got {len(values)}")
    m = G.modulus
    for u, v, label in G.edges:
        diff = values[u] - values[v]
        if m:
            diff %= m
        g = gcd(label, m)
        if g == 0:
            if diff != 0:
                return False
        elif diff % g != 0:
            return False
    return True


def normalize(G: EdgeLabeledGraph) -> tuple[EdgeLabeledGraph, NormalizationReport]:
    """Canonical form with the same spline module.

    Replaces each label by gcd(label, m), merges vertices joined by a
    zero-ideal edge, drops unit edges, and collapses parallel edges into a
    single edge whose ideal is the intersection of theirs (the lcm of the
    gcd-reduced labels, becoming a zero edge when that lcm is m).  Iterates
    until stable, so the result is idempotent.
    """
    m = G.modulus
    n = G.n
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    # Work with ideal generators: gcd(label, m) in [1, m], where m means the
    # zero ideal (equality constraint).  In integer mode g == 0 plays that role.
    work: list[tuple[int, int, int]] = []
    dropped_units: list[Edge] = []
    for u, v, label in G.edges:
        g = gcd(label, m)
        if (m and g == m) or (m == 0 and g == 0):
            union(u, v)
        elif g == 1:
            dropped_units.append((u, v, label))
        else:
            work.append((u, v, g))

    collapsed: list[tuple[tuple[int, int], int]] = []
    while True:
        # Collapse parallel edges between current merge classes.  The ideal of
        # the combined constraint is the intersection, i.e. the lcm of the
        # gcd-reduced labels; an lcm of m (the zero ideal) forces a merge, so
        # iterate until no new merges appear.
        grouped: dict[tuple[int, int], int] = {}
        counts: dict[tuple[int, int], int] = {}
        for u, v, g in work:
            ru, rv = find(u), find(v)
            if ru == rv:
                continue  # constraint became trivial under the merge
            key = (min(ru, rv), max(ru, rv))
            grouped[key] = lcm(grouped[key], g) if key in grouped else g
            counts[key] = counts.get(key, 0) + 1
        new_zero = False
        next_work = []
        for (u, v), g in sorted(grouped.items()):
            if m and g == m:
                union(u, v)
                new_zero = True
            else:
                next_work.append((u, v, g))
        work = next_work
        if not new_zero:
            collapsed = [
                (key, g)
                for key, g in sorted(grouped.items())
                if counts[key] > 1 and not (m and g == m)
            ]
            break

    reps = sorted({find(i) for i in range(n)})
    rep_index = {r: k for k, r in enumerate(reps)}
    merge_map = tuple(rep_index[find(i)] for i in range(n))
    vertices = tuple(G.vertices[r] for r in reps)
    edges = tuple(
        (rep_index[find(u)], rep_index[find(v)], g) for u, v, g in work
    )
    normalized = EdgeLabeledGraph(m, vertices, edges)
    report = NormalizationReport(merge_map, tuple(dropped_units), tuple(collapsed))
    return normalized, report
