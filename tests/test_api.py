"""The public surface: every exported name resolves."""

import ast
import importlib
import pkgutil
from pathlib import Path

import rct


def test_exports_resolve():
    names = ["rct"] + [f"rct.{m.name}"
                       for m in pkgutil.iter_modules(rct.__path__)]
    for name in names:
        mod = importlib.import_module(name)
        exported = getattr(mod, "__all__", [])
        assert len(set(exported)) == len(exported), name
        missing = [attr for attr in exported if not hasattr(mod, attr)]
        assert not missing, (name, missing)


def _annotations(node) -> list:
    if isinstance(node, ast.arg):
        return [node.annotation]
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [node.returns]
    if isinstance(node, ast.AnnAssign):
        return [node.annotation]
    return []


def _unused_imports(path) -> list:
    """Names an import binds in the file at path that no expression reads.
    A name counts as read anywhere in the module, in any scope, and in a
    quoted annotation too."""
    tree = ast.parse(path.read_text(), str(path))
    bound, read = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        for note in _annotations(node):
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                read.update(n.id for n in ast.walk(ast.parse(note.value))
                            if isinstance(n, ast.Name))
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    return [f"{path}:{line}: {name}" for name, line in sorted(bound.items())
            if name not in read and name not in exported]


def test_no_unused_imports():
    # __init__.py files re-export what they import, so they are skipped
    root = Path(__file__).resolve().parents[1]
    files = [p for top in ("src/rct", "tests", "demos")
             for p in sorted((root / top).rglob("*.py"))
             if p.name != "__init__.py"]
    assert len(files) > 20
    unused = [u for p in files for u in _unused_imports(p)]
    assert not unused, unused
