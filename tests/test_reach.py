"""Code that nothing in the program calls is deleted, not kept for the tests."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "splinemod"


def unreached(src: pathlib.Path) -> list[str]:
    """The functions and classes of ``src/*.py``, ``__init__.py`` left out,
    whose name no Name or Attribute node anywhere in ``src`` mentions.
    Dunder methods and ``main`` are exempt: Python and the console script
    call them."""
    trees = {path: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    mentioned = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                mentioned.add(node.id)
            elif isinstance(node, ast.Attribute):
                mentioned.add(node.attr)
    return [
        f"{path.name}:{node.lineno} {node.name}"
        for path, tree in trees.items()
        if path.name != "__init__.py"
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in mentioned
        and node.name != "main"
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def test_every_definition_is_named_in_src():
    assert unreached(SRC) == []
