"""Lints of the package source: imports, helpers, caps and trusted builds."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

import howekit

from _trustcheck import TRUSTED_CALL_LINES

MODULES = sorted(p for p in Path(howekit.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _imported(tree):
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]


def _docstrings(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node)
            if doc:
                yield doc


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # a doctest that names an import counts as a use
    docs = "\n".join(_docstrings(tree))
    unused = [name for name in _imported(tree) if name not in used
              and not re.search(r"\b%s\b" % re.escape(name), docs)]
    assert unused == []


def _private_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from (n for n in names
                    if n.startswith("_") and not n.startswith("__"))


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_private_helpers_have_callers():
    # a module-level _name that nothing in the package reads is dead code
    trees = [ast.parse(p.read_text())
             for p in Path(howekit.__file__).parent.glob("*.py")]
    used = {name for tree in trees for name in _references(tree)}
    unused = [name for tree in trees for name in _private_definitions(tree)
              if name not in used]
    assert unused == []


def _modules_added_by_import():
    # the modules a fresh interpreter loads for `import howekit`
    src = str(Path(howekit.__file__).parent.parent)
    code = ("import sys; sys.path.insert(0, %r); before = set(sys.modules); "
            "import howekit; print(sorted(set(sys.modules) - before))" % src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    return ast.literal_eval(out)


def test_package_import_leaves_cli_out():
    # the CLI parser is built on first use, never by `import howekit`
    assert "howekit.cli" not in _modules_added_by_import()


def test_package_import_leaves_json_out():
    # json is read by the CLI alone; the library spells its own labels
    assert "json" not in _modules_added_by_import()


# Every call of Value._trusted, which builds an instance without the
# constructor's checks, as (module, enclosing function).  Each builds an
# instance valid by construction.  The trusted_builds fixture of
# _trustcheck.py checks each build against the validating constructor:
# the test below reaches every site, and the tests named after the
# validated ones check each kind of build on more inputs.
TRUSTED_CALL_SITES = {
    ("laurent", "LaurentPolynomial.__add__"),
    ("laurent", "LaurentPolynomial.scale"),
    ("laurent", "LaurentPolynomial.__mul__"),
    ("laurent", "LaurentPolynomial.exact_div"),
    ("partitions", "enumerate_rectangle.walk"),
    ("characters", "_constituents"),
    ("crystals", "_apply_at"),
    ("crystals", "enumerate_B"),
    ("crystals", "_highest_weight_walk"),
    ("duality", "star"),
    ("duality", "star_inverse"),
    ("duality", "king_tableaux_by_weight"),
    ("bicrystal", "bar_complement"),
    ("bicrystal", "from_bar_complement"),
    ("bicrystal", "jdt_bar"),
    ("bicrystal", "delta_count"),
}


def test_trusted_call_sites_are_listed():
    assert set(TRUSTED_CALL_LINES.values()) == TRUSTED_CALL_SITES


def test_every_trusted_build_equals_the_validated_one(trusted_builds):
    # one small instance of every sweep, a bar complement round trip and
    # polynomial arithmetic, which the sweeps may read from a warm cache,
    # reach every site; the fixture checks each build
    reached, mismatches = trusted_builds
    hk = howekit
    p = hk.LaurentPolynomial(2, {(1, 0): 2, (0, -1): -1})
    q = hk.LaurentPolynomial(2, {(0, 1): 1, (0, 0): 3})
    p + (-p), (p * q).exact_div(q)
    for sweep in (hk.verify_schur_duality, hk.verify_howe_duality,
                  hk.verify_bijection, hk.verify_contraction, hk.verify_jdt):
        sweep(2, 2)
    hk.verify_generalized_duality(2, 2, 2)
    hk.injectivity_scan(hk.DiagramSpec("CA", (1, 1)), 2, 2)
    list(map(hk.statistics, hk.highest_weight_vertices((2, 2), (0, 0), 2)))
    for b in hk.enumerate_B((2, 1), 2):
        hk.from_bar_complement(hk.bar_complement(b))
    assert mismatches == []
    assert reached == TRUSTED_CALL_SITES


# Every cap is read, and a LimitExceeded for it raised, in limits.check
# alone.  The one other guard, as (module, enclosing function), is the
# rank cap of the Weyl group walks, which is fixed: no config key sets it.
FIXED_CAP_GUARDS = {("weyl", "check_rank")}


def _name(node):
    if isinstance(node, ast.Attribute):
        return node.attr
    return getattr(node, "id", None)


def _cap_guards(node, module, scope=()):
    if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
        scope += (node.name,)
    if ((isinstance(node, ast.Call)
         and _name(node.func) in ("get_cap", "LimitExceeded"))
            or (isinstance(node, ast.Raise)
                and _name(node.exc) == "LimitExceeded")):
        yield module, ".".join(scope)
    for child in ast.iter_child_nodes(node):
        yield from _cap_guards(child, module, scope)


def test_caps_are_checked_in_limits_alone():
    found = set()
    for path in MODULES:
        if path.stem != "limits":
            found.update(_cap_guards(ast.parse(path.read_text()), path.stem))
    assert found == FIXED_CAP_GUARDS


# Every nested function that calls its own name, as (module, enclosing
# path), with the reason it may recurse.  Each such closure takes one frame
# per level, so its depth is bounded by Python's recursion limit rather
# than by a cap; the pruned walks keep explicit stacks instead.  A new one
# must be listed here with its reason.
RECURSIVE_CLOSURES = {}


def _recursive_closures(node, module, scope=(), nested=False):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        if nested and any(isinstance(n, ast.Call)
                          and isinstance(n.func, ast.Name)
                          and n.func.id == node.name for n in ast.walk(node)):
            yield module, ".".join(scope + (node.name,))
        nested = True
    if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
        scope += (node.name,)
    for child in ast.iter_child_nodes(node):
        yield from _recursive_closures(child, module, scope, nested)


def test_recursive_closures_are_listed():
    found = set()
    for path in MODULES:
        found.update(_recursive_closures(ast.parse(path.read_text()),
                                         path.stem))
    assert found == set(RECURSIVE_CLOSURES)


# Every module-level function memoized for the life of the process by
# functools.lru_cache or cache, as (module, name), with the reason its
# table may stay.  Each grows with the distinct arguments a process asks
# for; a table that one call can drop when it returns belongs to that call
# instead, as the sweeps' tables do.  A new one must be listed here.
PROCESS_CACHES = {
    ("bicrystal", "_king_f_map"):
        "the King operator map of one (index, m), shared by every tableau",
    ("characters", "_elem_sym"):
        "e_k of (family, n), behind elem_sym's enum_cap check",
    ("characters", "_weyl_character_cached"):
        "one alternant quotient per (lam, family, rank)",
    ("cli", "_build_parser"):
        "the argparse parser and the flag tables read from the same "
        "declarations, built once per process on first use",
    ("crystals", "_f_map"):
        "the crystal operator map of one (i, n), shared by every element",
    ("partfn", "_counter_for"):
        "the Kostant counter of one root list, with its memo",
    ("partfn", "_moves"):
        "the Weyl-sum moves of one rank: at most 2^10 unplaced sets, since "
        "every Weyl sum is rank-capped",
    ("weyl", "positive_roots"):
        "the positive roots of one root system",
}


def _memoizes(decorator):
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    if isinstance(decorator, ast.Attribute):
        decorator = decorator.attr
    elif isinstance(decorator, ast.Name):
        decorator = decorator.id
    return decorator in ("lru_cache", "cache")


def test_process_caches_are_listed():
    found = {(path.stem, node.name) for path in MODULES
             for node in ast.parse(path.read_text()).body
             if isinstance(node, ast.FunctionDef)
             and any(map(_memoizes, node.decorator_list))}
    assert found == set(PROCESS_CACHES)
