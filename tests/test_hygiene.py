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


def test_no_function_calls_itself_by_name():
    # recursion depth set by the input ends in RecursionError; search with a stack
    found = [
        f"{path.name}:{call.lineno} {func.name}"
        for path in SOURCES
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for call in ast.walk(func)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name)
        and call.func.id == func.name
    ]
    assert found == []
