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
