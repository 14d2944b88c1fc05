"""Edge-labeled graphs over Z/mZ.

A graph carries its modulus.  Vertex order is semantically meaningful: it is
the flow-up order (v1 first), so reordering vertices changes which generating
vectors are triangular, though never the module itself.

``modulus == 0`` selects integer mode: labels are plain integers and the
spline condition is ordinary divisibility over Z.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import compress, count
from math import gcd, lcm
from operator import sub

from .errors import InternalInconsistency, ParseError, SplineError

Edge = tuple[int, int, int]  # (u index, v index, label)


@dataclass(frozen=True)
class EdgeLabeledGraph:
    """A graph over Z/mZ; ``modulus == 0`` is integer mode.

    Besides the three fields, each graph keeps ``conditions``: one
    ``(u, v, g)`` per edge with g = gcd(label, m), the modulus of the edge
    condition.  g == m is the zero ideal, which forces equality; in integer
    mode that is g == 0, since gcd(label, 0) = |label|.  This is the one
    place a label becomes its edge modulus: every solver reads
    ``conditions``, and only the brute-force oracle, the independent
    reference, takes its own gcd.  ``conditions`` is derived from the
    fields, so it takes no part in equality, hashing or ``repr``.
    """

    modulus: int
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self):
        m = self.modulus
        if m < 0:
            raise SplineError(f"modulus {m} is negative")
        if not self.vertices:
            raise SplineError("graph needs at least one vertex")
        if len(set(self.vertices)) != len(self.vertices):
            raise ParseError("duplicate vertex names")
        n = len(self.vertices)
        canon = []
        conditions = []
        for u, v, label in self.edges:
            if not (0 <= u < n and 0 <= v < n):
                raise SplineError(f"edge ({u}, {v}) references a missing vertex")
            if u == v:
                raise SplineError(f"self-loop at vertex {self.vertices[u]}")
            label = label % m if m else abs(label)
            canon.append((u, v, label))
            conditions.append((u, v, gcd(label, m)))
        object.__setattr__(self, "edges", tuple(canon))
        object.__setattr__(self, "conditions", tuple(conditions))

    @property
    def n(self) -> int:
        return len(self.vertices)

    def vertex_index(self, name: str) -> int:
        try:
            return self.vertices.index(name)
        except ValueError:
            raise SplineError(f"unknown vertex {name!r}") from None

    def incident(self, v: int) -> list[Edge]:
        """The ``conditions`` of the edges at vertex v."""
        return [c for c in self.conditions if v in (c[0], c[1])]

    def with_vertex_order(self, order: list[str]) -> "EdgeLabeledGraph":
        """Same graph with vertices permuted into the given order."""
        if sorted(order) != sorted(self.vertices):
            raise SplineError(
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

    def pull_back(self, values):
        """Lift a vector on normalized vertices to the original vertex set.

        Entry i of the result is entry ``vertex_merge_map[i]`` of ``values``,
        the same object, so a vertex-major block (one row per vertex) lifts
        with its rows shared within each merge class.
        """
        return tuple(values[k] for k in self.vertex_merge_map)


_INTEGER = re.compile(r"[+-]?[0-9]+")


def _text_int(token: str, what: str, lineno: int) -> int:
    # int() would also read "1_2" as 12 and the Arabic-Indic digit "٤" as 4
    if not _INTEGER.fullmatch(token):
        raise ParseError(f"bad {what} {token!r}", lineno)
    try:
        return int(token)
    except ValueError:  # past the interpreter's limit on the digits of an int
        raise ParseError(f"{what} of {len(token)} characters is too long", lineno) from None


def parse_graph(text: str) -> EdgeLabeledGraph:
    """Parse the line-oriented graph format.

    Line 1: ``mod <m>``; line 2: ``vertices <name> ...``; then
    ``edge <u> <v> <label>`` lines.  ``#`` starts a comment, blank lines are
    skipped.  ``mod 0`` selects integer mode.  The modulus and the labels
    are an optional sign and the ASCII digits 0-9, nothing else.
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
            modulus = _text_int(parts[1], "modulus", lineno)
            if modulus < 0:
                raise SplineError(f"line {lineno}: modulus {modulus} is negative")
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
            edges.append((parts[1], parts[2], _text_int(parts[3], "edge label", lineno)))
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
                raise SplineError(f"edge references undeclared vertex {name!r}")
        resolved.append((index[u], index[v], label))
    return EdgeLabeledGraph(modulus, tuple(vertices), tuple(resolved))


def _json_int(value, what: str) -> int:
    # bool is an int subclass, and int() would truncate a float or parse a
    # string; only a JSON integer is accepted.
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{what} {value!r} is not an integer")
    return value


def _json_names(values, what: str) -> list[str]:
    # str() would turn 1 into "1", true into "True" and a string into its
    # characters; only JSON strings name vertices.
    if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
        raise ParseError(f"{what} {values!r} is not a list of strings")
    return values


def parse_graph_json(text: str) -> EdgeLabeledGraph:
    """Parse the JSON mirror: {"mod": m, "vertices": [...], "edges": [[u, v, label], ...]}.

    Vertex names and edge endpoints must be JSON strings.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    except ValueError:  # past the interpreter's limit on the digits of an int
        raise ParseError("a JSON integer is too long") from None
    if not isinstance(obj, dict):
        raise ParseError(f"graph is not a JSON object: {obj!r}")
    try:
        modulus = _json_int(obj["mod"], "modulus")
        vertices = _json_names(obj["vertices"], "vertices")
        raw_edges = obj["edges"]
    except KeyError as exc:
        raise ParseError(f"missing field: {exc}") from None
    if not isinstance(raw_edges, list):
        raise ParseError(f"edges {raw_edges!r} is not a list")
    edges = []
    for entry in raw_edges:
        if not isinstance(entry, list) or len(entry) != 3:
            raise ParseError(f"edge entry {entry!r} is not [u, v, label]")
        u, v = _json_names(entry[:2], "edge endpoints")
        edges.append((u, v, _json_int(entry[2], "edge label")))
    return _by_name(modulus, vertices, edges)


def load_graph(path: str) -> EdgeLabeledGraph:
    """The graph in the file at ``path``: JSON if the name ends in
    ``.json``, the text format otherwise.  The file must be UTF-8, and a
    leading byte-order mark is dropped, as the ``utf-8-sig`` codec drops
    it; the mark is removed after decoding so that a decoding error names
    its byte offset in the file itself."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read().removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8: {exc.reason} at byte {exc.start}") from None
    if path.endswith(".json"):
        return parse_graph_json(text)
    return parse_graph(text)


def first_failing(G: EdgeLabeledGraph, rows) -> int | None:
    """Index of the first vector of a block that fails an edge condition.

    The block is vertex-major: ``rows[i]`` holds every vector's value at
    vertex i, so column j is the j-th vector.  Returns None when every
    column is a spline of G.  The condition of edge (u, v, label) is that
    g = gcd(label, m), read from ``G.conditions``, divides the difference
    of the two values (g = 0, an integer-mode label 0, forcing equality).
    Since g divides m, the difference need not be reduced mod m first.

    Each condition compares its two rows at C speed: the gcd h of the
    column differences is 0 iff the rows agree, and g divides h iff g
    divides every difference, so ``h % g if g else h`` is nonzero exactly
    when some column fails.  Only then are the columns scanned for the
    first one that fails.  Two kinds of condition are skipped, both because
    they hold for every column: g = 1, and rows[u] == rows[v], where every
    difference is 0.  The second covers the vertices of one merge class in
    a pulled-back block, which share one row object, and in a single
    vector every edge whose two ends carry the same value.  So no failing
    vector is missed.
    """
    if len(rows) != G.n:
        raise SplineError(f"expected {G.n} values, got {len(rows)}")
    width = first = len(rows[0])
    for u, v, g in G.conditions:
        a, b = rows[u], rows[v]
        if g == 1 or a == b:
            continue
        h = gcd(*map(sub, a, b))
        if h % g if g else h:
            diffs = map(sub, a, b)
            j = next(compress(count(), map(g.__rmod__, diffs) if g else diffs))
            first = min(first, j)
            if not first:
                break
    return first if first < width else None


def check_splines(G: EdgeLabeledGraph, rows, what: str) -> None:
    """Raise InternalInconsistency naming the first vector of a vertex-major
    block (as for ``first_failing``) that fails an edge condition of G.

    Every vector set the program prints passes through here, so a wrong
    vector exits 4 with one message: ``what`` names its producer.
    """
    j = first_failing(G, rows)
    if j is not None:
        vector = tuple(row[j] for row in rows)
        raise InternalInconsistency(f"{what} {vector} fails an edge condition")


def components(n: int, pairs) -> list[int]:
    """Entry v is the least vertex in v's component of the graph on 0..n-1
    with edges ``pairs``; a pair may repeat or join a vertex to itself.

    Union-find that links the larger root under the smaller.
    """
    root = list(range(n))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = x = root[root[x]]  # path halving
        return x

    for u, v in pairs:
        ru, rv = find(u), find(v)
        if ru != rv:
            root[max(ru, rv)] = min(ru, rv)
    return [find(x) for x in range(n)]


def normalize(G: EdgeLabeledGraph) -> tuple[EdgeLabeledGraph, NormalizationReport]:
    """Canonical form with the same spline module.

    Each edge's modulus g = gcd(label, m) is read from ``G.conditions``,
    the single derivation every solver shares; only the brute-force oracle
    takes its own gcd.  Unit edges (g = 1) are dropped, and the other input
    edges are grouped by the pair of merge classes they join.  A group's
    combined ideal is the intersection of its members', the lcm of their g;
    where that is m, the zero ideal, the two classes merge: merge classes
    from ``components`` over the zero pairs, then regroup, until no lcm is
    m.  Each remaining group becomes one edge labeled by its lcm, so the
    result is idempotent, and a group of two or more input edges is
    reported as a collapsed parallel edge under its pair of class
    representatives (their least original indices).
    """
    m = G.modulus
    n = G.n
    work: list[Edge] = []
    dropped_units: list[Edge] = []
    for edge, condition in zip(G.edges, G.conditions):
        g = condition[2]
        if g == 1 and g != m:  # over Z/1 every edge is a zero edge
            dropped_units.append(edge)
        else:
            work.append(condition)

    root = list(range(n))
    merged: list[tuple[int, int]] = []
    while True:
        groups: dict[tuple[int, int], list[int]] = {}
        for u, v, g in work:
            ru, rv = root[u], root[v]
            if ru != rv:  # an edge inside a class holds for every spline
                groups.setdefault((min(ru, rv), max(ru, rv)), []).append(g)
        ideals = {key: lcm(*gs) for key, gs in groups.items()}
        zero = [key for key, g in ideals.items() if g == m]
        if not zero:
            break
        merged += zero
        root = components(n, merged)

    reps = sorted(set(root))
    rep_index = {r: k for k, r in enumerate(reps)}
    merge_map = tuple(rep_index[r] for r in root)
    vertices = tuple(G.vertices[r] for r in reps)
    keys = sorted(ideals)
    edges = tuple((rep_index[u], rep_index[v], ideals[u, v]) for u, v in keys)
    collapsed = tuple((key, ideals[key]) for key in keys if len(groups[key]) > 1)
    normalized = EdgeLabeledGraph(m, vertices, edges)
    report = NormalizationReport(merge_map, tuple(dropped_units), collapsed)
    return normalized, report
