"""Exit-code contract of the CLI under random, partly malformed input.

Every run ends in 0 (an answer), 2 (an input error) or 3 (over budget);
never in a traceback, and never in 4 (a cross-check mismatch).
"""

import contextlib
import io
import json
import pathlib
import tempfile

from hypothesis import given, settings, strategies as st

from splinemod import cli

NAMES = ["a", "b", "c", "d", "e"]
CLEAN = [None] * 12  # weight of a document left well formed

TEXT_FLAWS = [
    ("mod", "mod x"), ("mod", "mod -4"), ("mod", "mod 6.5"), ("mod", "mod"),
    ("vertices", "vertices a a"), ("vertices", "vertices"),
    ("drop", 0), ("drop", 1),
    ("add", "edge a z 2"), ("add", "edge a a 2"), ("add", "edge a b x"),
    ("add", "edge a b"), ("add", "bogus 1"), ("add", "mod 6"),
    # int() would read these as 12, 4, 4 and 4
    ("mod", "mod 1_2"), ("mod", "mod ٤"), ("add", "edge a b 0_4"), ("add", "edge a b ٤"),
]
JSON_FLAWS = [
    ("mod", "6"), ("mod", 6.0), ("mod", True), ("mod", None), ("mod", -4),
    ("vertices", 5), ("vertices", "ab"), ("vertices", []),
    ("edges", 5), ("add", 5), ("add", ["a", "b"]), ("add", ["a", "b", 2.5]),
    ("add", ["a", "b", True]), ("add", ["a", "z", 2]), ("add", ["a", "a", 2]),
    ("drop", "mod"), ("drop", "edges"), ("text", "{"), ("text", "[1]"),
]


@st.composite
def graph_model(draw):
    """Modulus, vertex names and [u, v, label] edges of a well-formed graph."""
    m = draw(st.integers(0, 60))
    vertices = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=5, unique=True))
    if len(vertices) >= 3 and draw(st.booleans()):
        pairs = list(zip(vertices, vertices[1:] + vertices[:1]))  # a cycle
    elif len(vertices) >= 2:
        pair = st.lists(st.sampled_from(vertices), min_size=2, max_size=2, unique=True)
        pairs = draw(st.lists(pair, max_size=7))
    else:
        pairs = []
    return m, vertices, [[u, v, draw(st.integers(-70, 70))] for u, v in pairs]


@st.composite
def document(draw, model=graph_model()):
    """(file suffix, file text, declared vertices), flawed now and then."""
    m, vertices, edges = draw(model)
    if draw(st.booleans()):
        lines = [f"mod {m}", "vertices " + " ".join(vertices)]
        lines += [f"edge {u} {v} {label}" for u, v, label in edges]
        kind, value = draw(st.sampled_from(CLEAN + TEXT_FLAWS)) or (None, None)
        if kind == "drop":
            del lines[value]
        elif kind == "mod":
            lines[0] = value
        elif kind == "vertices":
            lines[1] = value
        elif kind == "add":
            lines.append(value)
        return "graph", "\n".join(lines) + "\n", vertices
    obj = {"mod": m, "vertices": vertices, "edges": edges}
    kind, value = draw(st.sampled_from(CLEAN + JSON_FLAWS)) or (None, None)
    if kind == "text":
        return "json", value, vertices
    if kind == "drop":
        del obj[value]
    elif kind == "add":
        edges.append(value)
    elif kind:
        obj[kind] = value
    return "json", json.dumps(obj), vertices


@st.composite
def invocation(draw):
    """argv, with {0} and {1} standing for the documents drawn alongside it."""
    command = draw(st.sampled_from(["solve", "cycle", "extend", "construct"]))
    flags = ["--json"] if draw(st.booleans()) else []
    if command == "construct":
        n, m, k = draw(st.integers(1, 5)), draw(st.integers(-2, 60)), draw(st.integers(0, 5))
        return ["construct", *flags, str(n), str(m), str(k)], []
    if command == "extend":
        m, vertices, edges = draw(graph_model())
        spare = [x for x in NAMES if x not in vertices]
        new = draw(st.sampled_from(spare or NAMES))
        if new in vertices or not draw(st.integers(0, 5)):  # unrelated graphs
            extension = graph_model()
        else:
            reach = draw(st.lists(st.sampled_from(vertices), max_size=3, unique=True))
            extension = st.just((m, vertices + [new], edges + [[u, new, 6] for u in reach]))
        docs = [draw(document(st.just((m, vertices, edges)))), draw(document(extension))]
        return ["extend", *flags, "{0}", "{1}", new], docs
    doc = draw(document())
    argv = [command, *flags, "{0}", "--budget", "20000"]
    if draw(st.booleans()):
        argv.append("--verify")
    if draw(st.integers(0, 3)) == 0:
        order = draw(st.permutations(doc[2]))
        if draw(st.booleans()):
            order = order[1:] + ["z"]
        argv += ["--order", ",".join(order)]
    if command == "solve":
        argv += draw(st.sampled_from([[], ["--crt"], ["--direct"]]))
    return argv, [doc]


@settings(max_examples=250, derandomize=True, deadline=None, database=None)
@given(invocation())
def test_exit_code_is_0_2_or_3(case):
    argv, docs = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, (suffix, text, _) in enumerate(docs):
            path = pathlib.Path(tmp) / f"g{i}.{suffix}"
            path.write_text(text, encoding="utf-8")
            paths.append(str(path))
        argv = [arg.format(*paths) for arg in argv]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert code in (0, 2, 3), (argv, docs, err.getvalue())
