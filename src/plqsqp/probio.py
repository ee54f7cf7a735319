"""Problem file I/O.

A problem file is JSON: either the bare problem object or
{"problem": {...}, "metadata": {...}}.  Loading validates structure and
runs the exact certificates of a piecewise g, piece consistency and
convexity, read off its piece table; a failure aborts the load.  The
convexity criterion takes dom g, the union of the pieces, to be convex:
a union that is not connected is refused, a connected nonconvex one is
not detected.
"""

import json

from .errors import ParseError, PLQError, ValidationError
from .kkt import CompositeProblem
from .plq import PLQFunction, check_consistency, check_convexity


def load_problem(path):
    """Parse, validate and certify a problem file; returns (problem, metadata)."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: the top level must be a JSON object")
    obj = raw.get("problem", raw)
    metadata = raw.get("metadata", {})
    for key in ("phi", "Phi", "g", "Theta"):
        if key not in obj:
            raise ParseError(f"{path}: missing field {key!r}")
    try:
        problem = CompositeProblem.from_dict(obj)
    except ValidationError:
        raise
    except PLQError as exc:
        raise ValidationError(str(exc)) from exc
    except (KeyError, TypeError, IndexError) as exc:
        raise ParseError(f"{path}: malformed field ({exc})") from exc
    if isinstance(problem.g, PLQFunction):
        ok, why = check_consistency(problem.g)
        if not ok:
            raise ValidationError(f"piece consistency certificate failed: {why}")
        ok, why = check_convexity(problem.g)
        if not ok:
            raise ValidationError(f"convexity certificate failed: {why}")
    return problem, metadata


def save_problem(path, problem: CompositeProblem, metadata=None):
    """Write a problem (and optional sidecar metadata) as JSON."""
    payload = {"problem": problem.to_dict()}
    if metadata:
        payload["metadata"] = metadata
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
