"""Properties of the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "netrw"
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
