"""Properties of the package source itself."""

import ast
import importlib
import importlib.util
import inspect
from collections import Counter
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
    as (qualified name, name, node)."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs):
                    yield f"{node.name}.{item.name}", item.name, item


def _referenced_names(tree: ast.AST) -> Counter:
    """How often each name is read, as a variable, an attribute or an
    imported name."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.update(alias.name.split("."))
    return names


MODULES = {"netrw"} | {path.stem for path in SRC.glob("*.py")}


def _referenced_globals(tree: ast.AST) -> Counter:
    """How often each top-level name can be meant: read as a bare name,
    imported by name, or read as an attribute of a ``netrw`` module.  An
    attribute of anything else, such as ``str.split``, refers to no
    top-level definition."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if isinstance(node.value, ast.Name) and node.value.id in MODULES:
                names[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


# called by argparse, not by the package
CALLED_FROM_OUTSIDE = {"_Parser.error"}


def test_no_unreferenced_definitions():
    """Every function, class and method in the package is used by the
    package itself: ``src/`` refers to it outside its own body, or it is
    exported in ``netrw.__all__`` or a method of an exported name.  Dunder
    methods are called by the language.  Code that only tests call belongs
    in ``tests/``.  A top-level definition counts as referred to only by
    its bare name, an import of it, or an attribute of a ``netrw`` module;
    a method, by any name or attribute of the same spelling."""
    import netrw

    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.rglob("*.py"))}
    referenced = sum(map(_referenced_names, trees.values()), Counter())
    globals_read = sum(map(_referenced_globals, trees.values()), Counter())

    def unreferenced(qualname, name, node):
        if "." in qualname:
            return referenced[name] <= _referenced_names(node)[name]
        return globals_read[name] <= _referenced_globals(node)[name]

    unused = [
        f"{path.name}:{node.lineno} {qualname}"
        for path in sorted(SRC.glob("*.py"))
        for qualname, name, node in _definitions(trees[path])
        if unreferenced(qualname, name, node)
        and qualname.split(".")[0] not in netrw.__all__
        and qualname not in CALLED_FROM_OUTSIDE
        and not (name.startswith("__") and name.endswith("__"))
    ]
    assert not unused, f"definitions only tests or nothing refer to: {unused}"


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
