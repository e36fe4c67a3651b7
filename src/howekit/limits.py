"""Size caps for the exact-arithmetic engines.

All caps are process-wide and may be overridden programmatically (set_cap,
or overridden for one with block), through a key=value config file for one
cli command, or, for the polynomial term cap, through the environment
variable HOWEKIT_TERM_CAP.  decompose() has no cap, being one pass over
its input's terms, and neither has exact division, whose quotient's box
bounds its loop.  The verification sweeps build no product polynomial:
the term cap bounds each step of their decomposition chains instead, as
the constituents so far times the terms of the next factor, checked
before the step sorts any of them.
"""

import os
from contextlib import contextmanager

_DEFAULTS = {
    # maximum number of monomials a polynomial product may produce, and of
    # (constituent, term) pairs one step of a sweep's decomposition chain
    # may sort
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
    if name in _overrides:
        return _overrides[name]
    if name == "term_cap":
        env = os.environ.get("HOWEKIT_TERM_CAP")
        if env is not None:
            return int(env)
    return _DEFAULTS[name]


def set_cap(name, value):
    """Override a cap for this process.  value=None restores the default."""
    if name not in _DEFAULTS:
        raise KeyError("unknown cap %r" % name)
    if value is None:
        _overrides.pop(name, None)
    else:
        _overrides[name] = int(value)


@contextmanager
def overridden(caps):
    """Apply caps (name -> int) inside a with block only, then restore the
    overrides in force before it.  All are checked before any changes."""
    for name in caps:
        if name not in _DEFAULTS:
            raise ValueError("unknown cap %r" % name)
    saved = dict(_overrides)
    _overrides.update(caps)
    try:
        yield
    finally:
        _overrides.clear()
        _overrides.update(saved)
