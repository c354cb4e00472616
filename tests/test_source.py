"""Properties of the package source itself."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "netrw"
BROAD = {"Exception", "BaseException"}


def _caught_names(handler: ast.ExceptHandler) -> list[str]:
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return [t.id for t in types if isinstance(t, ast.Name)]


def test_no_broad_exception_handlers():
    """A handler that catches everything turns a bug into a silently
    dropped ambiguity or rule; every handler names the errors it expects."""
    broad = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None or BROAD & set(_caught_names(node)):
                broad.append(f"{path.name}:{node.lineno}")
    assert not broad, f"broad exception handlers: {broad}"


def _definitions(tree: ast.Module):
    """Top-level functions and classes, and the methods of those classes,
    as (qualified name, name, line)."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs):
                    yield f"{node.name}.{item.name}", item.name, item.lineno


def _referenced_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.update(alias.name.split("."))
    return names


def test_no_unreferenced_definitions():
    """Every function, class and method in the package is used somewhere in
    the package or its tests.  Dunder methods are called by the language."""
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    }
    referenced = set().union(*map(_referenced_names, trees.values()))
    unused = [
        f"{path.name}:{line} {qualname}"
        for path in sorted(SRC.glob("*.py"))
        for qualname, name, line in _definitions(trees[path])
        if name not in referenced and not (name.startswith("__") and name.endswith("__"))
    ]
    assert not unused, f"definitions nothing refers to: {unused}"


def test_traced_functions_exist():
    """The benchmark's tracer wraps functions by module and name; a renamed
    or deleted one would break only the traced benchmark runs."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{mod}.{name}"
        for mod, name in tracing.WRAPPED
        if not inspect.isfunction(getattr(importlib.import_module(f"netrw.{mod}"), name, None))
    ]
    assert tracing.WRAPPED and not missing, f"traced functions not found: {missing}"


def test_public_api_documented():
    """Every name the package exports says, in its own docstring, what it
    is; an inherited docstring or the signature that dataclass writes in
    place of a missing one does not count."""
    import netrw

    def documented(name):
        doc = getattr(netrw, name).__doc__
        return bool(doc) and not doc.startswith(f"{name}(")

    bare = [name for name in netrw.__all__ if not documented(name)]
    assert not bare, f"exported names without a docstring: {bare}"
