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


# Functions of src/rct allowed to compute in floats, by module.  Each
# float there only displays, compares a displayed number, or aims an
# exact check; nothing upstream of it reads a float.
FLOAT_FUNCTIONS = {
    "cli": {"_cmd_sturm_isolate",                       # interval midpoints
            "_compare", "_check_case", "run_corpus"},  # corpus tolerance
    "divisors": {"sphere_grid"},                        # rounded to integers
    "fan": {"_unit", "_chordal", "cycle_distance",      # the residual
            "psi_demo"},                                # output coordinates
    "sturm": {"_estimates",                             # aims the cell check
              "_aims"},                                 # aims a single-root cell
}
_FLOAT_CALLS = {"float", "sqrt", "cos", "sin"}


def _float_uses(path) -> list:
    """(function, line) for every float( call, math.sqrt/cos/sin call
    (bare or through math.) and float literal in the file at path, with
    the innermost enclosing function's name."""
    out = []

    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
            func = child.func if isinstance(child, ast.Call) else None
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) \
                and isinstance(func.value, ast.Name) \
                and func.value.id == "math" else None
            literal = isinstance(child, ast.Constant) \
                and type(child.value) is float
            if name in _FLOAT_CALLS or literal:
                out.append((where, child.lineno))
            walk(child, inner)

    walk(ast.parse(path.read_text(), str(path)), "<module>")
    return out


def test_floats_stay_where_they_are_allowed():
    # Exact arithmetic is the contract upstream of display.  The scan sees
    # float(), math.sqrt/cos/sin and float literals; a true division of
    # two ints also makes a float, but telling it from a Fraction division
    # needs types, so this check cannot see it.
    root = Path(__file__).resolve().parents[1] / "src" / "rct"
    seen, stray = set(), []
    for path in sorted(root.glob("*.py")):
        allowed = FLOAT_FUNCTIONS.get(path.stem, set())
        for where, line in _float_uses(path):
            seen.add((path.stem, where))
            if where not in allowed:
                stray.append(f"{path.name}:{line} in {where}")
    assert not stray, stray
    # every allowed function still computes in floats
    assert seen == {(m, f) for m, fs in FLOAT_FUNCTIONS.items() for f in fs}
