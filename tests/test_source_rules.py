"""Source rules for the package, checked over its syntax trees.

No handler may catch everything: a bare `except:`, `except Exception` or
`except BaseException` (alone or inside a tuple) hides defects behind
fallbacks.  Every name the package exports must exist.
"""

import ast
from pathlib import Path

import plqsqp

PACKAGE = Path(plqsqp.__file__).resolve().parent
BROAD = {"Exception", "BaseException"}


def _caught_names(handler):
    if handler.type is None:
        return {"<bare>"}
    nodes = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return {node.id for node in nodes if isinstance(node, ast.Name)}


def test_no_broad_exception_handlers():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler):
                broad = _caught_names(node) & (BROAD | {"<bare>"})
                if broad:
                    found.append(f"{path.name}:{node.lineno} catches {sorted(broad)}")
    assert not found, found


def test_every_export_resolves():
    missing = [name for name in plqsqp.__all__ if not hasattr(plqsqp, name)]
    assert not missing, missing
