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


def _uses(tree: ast.AST) -> set[str]:
    """Names loaded or read as attributes, except inside the def, class or
    assignment that binds that same name."""
    uses = set()
    stack = [(tree, frozenset())]
    while stack:
        node, owners = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owners = owners | {node.name}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            owners = owners | {t.id for t in targets if isinstance(t, ast.Name)}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        else:
            name = node.attr if isinstance(node, ast.Attribute) else None
        if name is not None and name not in owners:
            uses.add(name)
        stack.extend((child, owners) for child in ast.iter_child_nodes(node))
    return uses


def test_every_export_is_used_by_the_package():
    # no public API exists only for its own test
    init = next(path for path in SOURCES if path.name == "__init__.py")
    exported = {
        alias.asname or alias.name
        for node in ast.parse(init.read_text(encoding="utf-8")).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    used = set().union(
        *(_uses(ast.parse(path.read_text(encoding="utf-8"))) for path in SOURCES if path != init)
    )
    assert exported, "no exports found"
    assert sorted(exported - used) == []
