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


ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def test_no_environment_reads():
    """The runtime has no environment knobs: what a command does follows
    from its command line and its files alone, so no module reads
    ``os.environ`` or ``os.getenv``."""
    reads = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            read = (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"
                and node.attr in ENVIRONMENT
            )
            imported = (
                isinstance(node, ast.ImportFrom)
                and node.module == "os"
                and any(alias.name in ENVIRONMENT for alias in node.names)
            )
            if read or imported:
                reads.append(f"{path.name}:{node.lineno}")
    assert not reads, f"environment reads: {reads}"


def test_symbols_built_only_in_core():
    """A signature's symbols are built once, by ``core``, when it is read;
    a network, a canonical code and a representative all hold those same
    objects, so no other module calls ``Symbol(...)``."""
    calls = []
    for path in sorted(SRC.rglob("*.py")):
        if path == SRC / "core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "Symbol":
                    calls.append(f"{path.name}:{node.lineno}")
    assert not calls, f"Symbol built outside core: {calls}"


def _assigned_names(node: ast.stmt) -> list[str]:
    """The names a top-level assignment binds, tuple targets unpacked."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [
        n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
    ]


def _definitions(tree: ast.Module):
    """Top-level functions, classes and assigned names, and the methods of
    those classes, as (qualified name, name, node)."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node.name, node
        for name in _assigned_names(node):
            yield name, name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs):
                    yield f"{node.name}.{item.name}", item.name, item


MODULES = {"netrw"} | {path.stem for path in SRC.glob("*.py")}


def _named_class(annotation, classes: set[str]) -> str | None:
    """The package class an annotation names, as a bare or quoted name."""
    if isinstance(annotation, ast.Name):
        name = annotation.id
    elif isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        name = annotation.value
    else:
        return None
    return name if name in classes else None


def _attribute_reads(tree: ast.AST, classes: set[str], owner: str | None = None) -> Counter:
    """How often each attribute is read, keyed by (receiver class, name).
    The receiver's class is known for ``self`` in a method (of ``owner``
    when ``tree`` is a method's own body), a package class read by its
    name, and a name the enclosing function annotates with a package class
    (a parameter or an annotated assignment); it is None for any other
    receiver."""
    reads = Counter()

    def visit(node, known: dict[str, str]):
        if isinstance(node, ast.ClassDef):
            known = {**known, "self": node.name}
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            known = dict(known)
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs:
                if arg.arg != "self":
                    known.pop(arg.arg, None)
                    if cls := _named_class(arg.annotation, classes):
                        known[arg.arg] = cls
            for sub in ast.walk(node):
                if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
                    if cls := _named_class(sub.annotation, classes):
                        known[sub.target.id] = cls
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            receiver = node.value.id if isinstance(node.value, ast.Name) else None
            if receiver in classes:
                reads[receiver, node.attr] += 1
            else:
                reads[known.get(receiver), node.attr] += 1
        for child in ast.iter_child_nodes(node):
            visit(child, known)

    visit(tree, {"self": owner} if owner else {})
    return reads


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


# module names the language and packaging tools read
READ_FROM_OUTSIDE = {"__all__", "__version__"}


def test_no_unreferenced_definitions():
    """Every function, class, method and module-level name in the package
    is used by the package itself: ``src/`` refers to it outside its own
    body, or it is exported in ``netrw.__all__`` or a method of an
    exported name.  Dunder methods are called by the language, and
    ``READ_FROM_OUTSIDE`` names are read by it.  Code or data that only
    tests use belongs in ``tests/``.  A top-level name counts as referred
    to only by its bare name, an import of it, or an attribute of a
    ``netrw`` module.  A method counts as referred to only by an
    attribute of its name whose receiver is of its own class or of no
    known class (see ``_attribute_reads``): ``self.copy()`` in another
    class, ``g.copy()`` with ``g: _Gluing``, or a local variable named
    ``copy``, refers to no ``UnionFind.copy``."""
    import netrw

    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.rglob("*.py"))}
    classes = {
        node.name for tree in trees.values() for node in tree.body if isinstance(node, ast.ClassDef)
    }
    attributes = sum((_attribute_reads(tree, classes) for tree in trees.values()), Counter())
    globals_read = sum(map(_referenced_globals, trees.values()), Counter())

    def unreferenced(qualname, name, node):
        if "." in qualname:
            cls = qualname.split(".")[0]
            own = _attribute_reads(node, classes, cls)
            return attributes[cls, name] + attributes[None, name] <= own[cls, name] + own[None, name]
        return globals_read[name] <= _referenced_globals(node)[name]

    unused = [
        f"{path.name}:{node.lineno} {qualname}"
        for path in sorted(SRC.glob("*.py"))
        for qualname, name, node in _definitions(trees[path])
        if unreferenced(qualname, name, node)
        and qualname.split(".")[0] not in netrw.__all__
        and qualname not in READ_FROM_OUTSIDE
        and not ("." in qualname and name.startswith("__") and name.endswith("__"))
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


def test_no_unused_parameters():
    """Every parameter of every function in the package, lambdas and
    nested functions included, is read in the function's body, a nested
    function's body counting: a parameter that nothing reads is an input
    no caller can use.  ``self`` and ``cls`` are exempt."""
    unused = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {
                sub.id
                for stmt in body
                for sub in ast.walk(stmt)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
            }
            unused += [
                f"{path.name}:{node.lineno} {getattr(node, 'name', 'lambda')}({arg.arg})"
                for arg in params
                if arg is not None and arg.arg not in ("self", "cls") and arg.arg not in read
            ]
    assert not unused, f"parameters their function never reads: {unused}"
