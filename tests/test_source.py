"""Source-level invariants of the package."""

import ast
from pathlib import Path

import qinfty

SOURCES = sorted(Path(qinfty.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # invariants must raise errors, since asserts vanish under python -O
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _memo_primitives(node: ast.AST) -> list[tuple[str, int]]:
    """(name, line) of each lru_cache or OrderedDict mention below node."""
    return [
        (name, sub.lineno)
        for sub in ast.walk(node)
        # a Name carries its identifier in .id, an Attribute in .attr
        if (name := getattr(sub, "id", None) or getattr(sub, "attr", None)) in ("lru_cache", "OrderedDict")
    ]


def test_every_memo_goes_through_rigor_memo():
    # one memo layer: a cache keyed without the working precision could
    # serve an enclosure computed at another precision
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        allowed = {
            mention
            for node in tree.body
            if path.name == "rigor.py" and isinstance(node, ast.FunctionDef) and node.name == "memo"
            for mention in _memo_primitives(node)
        }
        found += [f"{path.name}:{line} {name}" for name, line in _memo_primitives(tree) if (name, line) not in allowed]
    assert found == []
