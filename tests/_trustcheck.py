"""The trusted_builds fixture: every Value._trusted build, checked.

conftest.py registers the fixture, so any test can take it.  Under it,
Value._trusted also builds cls(*fields) through the validating
constructor and compares the two strictly.
"""

import ast
import sys
from pathlib import Path

import pytest

import howekit
from howekit._value import Value


def _trusted_calls(node, module, scope=()):
    # ((module, line), site) for each line of each _trusted call
    if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
        scope += (node.name,)
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "_trusted"):
        for line in range(node.lineno, node.end_lineno + 1):
            yield (module, line), (module, ".".join(scope))
    for child in ast.iter_child_nodes(node):
        yield from _trusted_calls(child, module, scope)


# a running call's line lies in its span, so this names the call's site
# as (module, enclosing function)
TRUSTED_CALL_LINES = dict(
    pair for path in sorted(Path(howekit.__file__).parent.glob("*.py"))
    for pair in _trusted_calls(ast.parse(path.read_text()), path.stem))


def _typed(x):
    # x with the type of every part beside it, through Value fields and
    # dict items in order: a strict comparison of two builds
    if isinstance(x, Value):
        x = type(x), tuple(getattr(x, s) for s in x.__slots__)
    elif isinstance(x, dict):
        x = dict, tuple(x.items())
    if isinstance(x, tuple):
        return tuple, tuple(map(_typed, x))
    return type(x), x


@pytest.fixture
def trusted_builds(monkeypatch):
    """Make Value._trusted also build cls(*fields) through the validating
    constructor: the sites reached, and each build that differs."""
    build, reached, mismatches = Value._trusted.__func__, set(), []

    def checked(cls, *fields):
        caller = sys._getframe(1)
        key = caller.f_globals["__name__"].rpartition(".")[2], caller.f_lineno
        site = TRUSTED_CALL_LINES.get(key, key)
        reached.add(site)
        obj = build(cls, *fields)
        try:
            rebuilt = cls(*fields)
        except (howekit.HowekitError, ValueError, TypeError) as exc:
            rebuilt = exc
        if _typed(obj) != _typed(rebuilt):
            mismatches.append((site, obj, rebuilt))
        return obj

    monkeypatch.setattr(Value, "_trusted", classmethod(checked))
    return reached, mismatches
