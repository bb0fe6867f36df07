"""Source-level rules that keep the package's own checks meaningful."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "slopecalc").glob("*.py"))


def test_no_assert_statements_in_package():
    # python -O strips assert statements; consistency checks must raise instead
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
