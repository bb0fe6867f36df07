"""Source-level rules that keep the package's own checks meaningful."""

import ast
import os
import subprocess
import sys
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


def _public_names(tree: ast.Module, is_init: bool) -> set[str]:
    """Public names a module binds at top level: defs, classes and assignments,
    plus, in __init__.py, the names it imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
        elif is_init and isinstance(node, ast.ImportFrom):
            names.update(alias.asname or alias.name for alias in node.names)
    return {name for name in names if not name.startswith("_")}


def _public_members(tree: ast.Module) -> set[str]:
    """Class.name for the public methods and properties of top-level classes."""
    return {
        f"{node.name}.{item.name}"
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not item.name.startswith("_")
    }


def test_every_export_is_used_by_the_package():
    # no public API, top-level name or class member, exists only for its own test
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    public = {
        f"{module}:{name}": name.rsplit(".", 1)[-1]
        for module, tree in trees.items()
        for name in _public_names(tree, module == "__init__.py") | _public_members(tree)
    }
    used = set().union(*(_uses(tree) for module, tree in trees.items() if module != "__init__.py"))
    assert any("." in key for key in public), "no public class members found"
    assert sorted(key for key, name in public.items() if name not in used) == []


def test_package_and_cli_import_leave_out_dataclasses():
    # importing dataclasses (and the inspect module it pulls in) costs every
    # CLI query milliseconds of start-up; the value types are plain __slots__ classes
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "dataclasses")
    ]
    assert found == []
    env = dict(os.environ, PYTHONPATH=str(SOURCES[0].parents[1]))
    # only what the import adds counts, not what interpreter start-up loads
    probe = (
        "import sys; before = set(sys.modules); import slopecalc.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=30
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
