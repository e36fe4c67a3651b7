"""One digest over the reports of a grid of sweeps, runtime_ms left out.

The digest pins every cell count and failure entry of the grid, so a
change to how the sweeps are run (not what they check) must leave it as
it is.  Injectivity at these bounds reports collisions, so failure
entries are pinned too.  A second digest pins the King bijection on two
shapes outside the square grid: rank 4 with two columns, and rank 1 with
five, whose highest weight walk runs five columns deep.
"""

import hashlib
import json

from howekit import (DiagramSpec, injectivity_scan, verify_bijection,
                     verify_contraction, verify_generalized_duality,
                     verify_howe_duality, verify_jdt, verify_schur_duality)

DIGEST = (
    "e64663543be3db0a4730fa807528d51eb9b0e30c806f0a430c7c522397407604")
KING_DIGEST = (
    "4d9033108e0eb695b922d4af7bc1a09c8cecae03346d475f13210d8d0f16fd7a")


def grid():
    def square(bound):
        return [(n, m) for n in range(1, bound + 1)
                for m in range(1, bound + 1)]

    yield from ((verify_schur_duality, a) for a in square(4))
    yield from ((verify_howe_duality, a) for a in square(3))
    yield from ((verify_bijection, a) for a in square(3))
    yield from ((verify_contraction, a) for a in square(2))
    yield from ((verify_jdt, (n, m)) for n in (1, 2) for m in (1, 2, 3))
    for args in [(1, 1, 4), (2, 2, 2), (1, 2, 2), (3, 1, 2), (1, 3, 0),
                 (2, 0, 3)]:
        yield verify_generalized_duality, args
    for symbols, sizes in [("CC", (1, 1)), ("CA", (1, 1)), ("C", (2,)),
                           ("CAA", (1, 1, 1))]:
        yield injectivity_scan, (DiagramSpec(symbols, sizes), 2, 2)


def _digest(reports):
    text = json.dumps(reports, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_sweep_reports_digest():
    reports = []
    for sweep, args in grid():
        rep = dict(sweep(*args))
        del rep["runtime_ms"]
        reports.append([sweep.__name__, repr(args), rep])
    assert _digest(reports) == DIGEST


def test_king_reports_digest():
    reports = []
    for args in [(4, 2), (1, 5)]:
        rep = dict(verify_bijection(*args))
        del rep["runtime_ms"]
        reports.append([repr(args), rep])
    assert _digest(reports) == KING_DIGEST
