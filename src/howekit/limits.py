"""Size caps for the exact-arithmetic engines.

All caps are process-wide.  They change only through overridden, for one
with block, which is also how a key=value config file passed as --config
applies its caps to one cli command.  Every guard in the package calls
check before the work it bounds, with its message's fields as args that
check formats only to raise.  The term cap counts the (term, term) pairs
one polynomial product, or one step of a sweep's decomposition chain,
may form.  decompose() has no cap, being one pass over its input's terms,
and neither has exact division, whose quotient's box bounds its loop.
"""

from contextlib import contextmanager

from .errors import LimitExceeded

_DEFAULTS = {
    # maximum number of (term, term) pairs one polynomial product, or
    # (constituent, term) pairs one step of a sweep's decomposition chain,
    # may form; checked before it forms any
    "term_cap": 10_000_000,
    # maximum number of vertices generate_crystal_graph will visit
    "vertex_cap": 1_000_000,
    # maximum number of elements an enumeration (crystal spaces, tableaux) may
    # yield, of letter subsets an elementary symmetric polynomial may sum, of
    # monomials a complete symmetric one may sum, of first-coordinate shifts
    # a Kostant partition count may try, and of the items in each list a
    # verification sweep builds
    "enum_cap": 10_000_000,
}

_overrides: dict = {}


def get_cap(name):
    if name not in _DEFAULTS:
        raise KeyError("unknown cap %r" % name)
    return _overrides.get(name, _DEFAULTS[name])


def check(name, count, what, *args):
    """count, when it is at most the cap called name; otherwise raise
    LimitExceeded("<what % (*args, count)>, above <name> <cap>"), such as
    "B_{mu'} has 300 elements, above enum_cap 299".  A guard that stops at
    the first lower bound over the cap says so in what: "has at least %d"."""
    cap = get_cap(name)
    if count <= cap:
        return count
    raise LimitExceeded("%s, above %s %d" % (what % (*args, count), name, cap))


@contextmanager
def overridden(caps):
    """Apply caps (name -> integer) inside a with block only, then restore
    the overrides in force before it.  All are checked and converted with
    int() before any changes."""
    for name in caps:
        if name not in _DEFAULTS:
            raise ValueError("unknown cap %r" % name)
    caps = {name: int(value) for name, value in caps.items()}
    saved = dict(_overrides)
    _overrides.update(caps)
    try:
        yield
    finally:
        _overrides.clear()
        _overrides.update(saved)
