"""Theorem-level verification sweeps.

Every identity in the package is checked by computing both sides through
independent routes: character products against Kostant-type counts, star
transport against direct combinatorics, and so on.  Each sweep body is a
generator of (count, failures) pairs, one per cell, and the one runner
_reported turns it into a sweep that returns the report dict {"cells": N,
"failures": [...], "runtime_ms": T}; an empty failure list means the
identity held on every cell.  A duality sweep's
failure names its cell by "mu" (and "spec" in the generalized sweep) and
"lam", then either "reason": "unexpected constituent" for a constituent
outside the compared lams, or the two routes' values: "char_route" and
"weight_mult" (types A and C) or "branch_route" (generalized).  The
crystal sweeps name "mu_prime" and a "reason".  The injectivity scan
is a falsification harness rather than a proof: it searches for distinct
dominant weights with identical branching vectors and reports whatever it
finds (expected: nothing).
"""

import functools
import itertools
import time
from math import prod
from operator import mul

from . import limits
from .bicrystal import jdt_bar, kappa
from .characters import (_char_products, _check_subsets, _elem_products,
                         char_product, decompose)
from .crystals import _highest_weight_walk, crystal_e, enumerate_B
from .duality import _pair_cell, king_tableaux_by_weight
from .errors import HowekitError
from .partfn import (DiagramSpec, _counter_for, _kostant_sum, _plus_rho,
                     branching_coefficient)
from .partitions import (MultiPartition, Partition, conjugate,
                         enumerate_rectangle, hat, hat_multi)
from .weyl import check_rank, positive_roots


def _reported(sweep):
    """The sweep whose body is the generator sweep: it sums the yielded
    (count, failures) pairs into the report dict, timed from the call.  The
    body's size checks run before its first cell, so they raise here."""
    @functools.wraps(sweep)
    def run(*args):
        t0 = time.perf_counter()
        cells = 0
        failures = []
        for count, fails in sweep(*args):
            cells += count
            failures += fails
        return {"cells": cells, "failures": failures,
                "runtime_ms": int((time.perf_counter() - t0) * 1000)}
    return run


def _checked_count(counts, what):
    """The number of items, named by what, that a sweep is about to list,
    after checking it against enum_cap.  counts yields nondecreasing lower
    bounds of that number, the last being the number itself; it is read
    only until a bound passes the cap, so no huge number is ever built."""
    message = "sweep would list at least %%d %s" % what
    count = 0
    for count in counts:
        limits.check("enum_cap", count, message)
    return count


def _rectangle_size(n, m):
    """C(n+m, n) for n, m >= 0, checked against enum_cap: the number of
    partitions in the n x m rectangle."""
    k, top = min(n, m), max(n, m)
    # C(top+i, i) for i = 0..k
    return _checked_count(
        itertools.accumulate(range(1, k + 1),
                             lambda c, i: c * (top + i) // i, initial=1),
        "partitions of the %d x %d rectangle" % (n, m))


def _rectangle(n, m):
    """The partitions of the n x m rectangle as a list, built after their
    number is checked (negative bounds are left to enumerate_rectangle to
    reject)."""
    if n >= 0 and m >= 0:
        _rectangle_size(n, m)
    return list(enumerate_rectangle(n, m))


def _coerce_multi(mu, spec):
    if isinstance(mu, MultiPartition):
        spec.check_blocks(mu)
        return mu
    return MultiPartition(mu, spec.sizes)


def multiplicity_char_route(lam, symbols, sizes, mu, n):
    """Multiplicity of V(lam) in the tensor product of sp_2n-restricted
    factors described by (symbols, sizes, mu), read off the character.

    >>> multiplicity_char_route([2, 1], "C", [2], [[2, 1]], 2)
    1
    >>> multiplicity_char_route([1, 1], "C", [2], [[2, 1]], 2)
    0
    >>> multiplicity_char_route([2], "AA", [1, 1], [[1], [1]], 2)
    1
    """
    spec = DiagramSpec(symbols, sizes)
    if not isinstance(mu, MultiPartition):
        mu = MultiPartition(mu, spec.sizes)
    # char_product checks the blocks of a MultiPartition
    dec = decompose(char_product(mu, spec, n), "C", n)
    return dec[lam]


def multiplicity_branch_route(lam, symbols, sizes, mu, n):
    """The same multiplicity computed on the dual side, as the branching
    coefficient of the block subalgebra weight hat(mu) inside the sp_2m
    module V(hat(lam)), m = sum of sizes.

    >>> multiplicity_branch_route([2, 1], "C", [2], [[2, 1]], 2)
    1
    >>> multiplicity_branch_route([2], "AA", [1, 1], [[1], [1]], 2)
    1
    """
    spec = DiagramSpec(symbols, sizes)
    mu = _coerce_multi(mu, spec)
    m = spec.total()
    kappa_w = hat(Partition(lam), n, m)
    return branching_coefficient(kappa_w, spec.reversed(), hat_multi(mu, n))


def _compare(dec, lams, other_route, tag, route_key):
    """The failures of one cell: the constituents of dec outside lams, then
    each lam where dec[lam] differs from other_route(lams[lam]).  lams
    maps every compared lam to its weight on the other route; every entry
    is tag plus the offending lam."""
    fails = [dict(tag, lam=list(q.stripped()), reason="unexpected constituent")
             for q in dec if q not in lams]
    for lam, weight in lams.items():
        left, right = dec.mults.get(lam, 0), other_route(weight)
        if left != right:
            fails.append(dict(tag, lam=list(lam.stripped()), char_route=left,
                              **{route_key: right}))
    return fails


@_reported
def _duality_sweep(family, n, m):
    """For every mu in the n x m rectangle, compare the expansion of
    e_{mu'_1}...e_{mu'_m} with Kostant weight multiplicities of rank m:
    type A at (lam', mu') for the lam of |mu|, type C at (hat(lam),
    hat(mu)) for every lam in the rectangle."""
    lams = _rectangle(n, m)
    if m >= 1:
        # the products build every e_k, k <= n, in increasing k
        for k in range(n + 1):
            _check_subsets(k, n if family == "A" else 2 * n)
    check_rank((family, m))  # every cell counts multiplicities at rank m
    kostant = _counter_for(positive_roots((family, m)), m).count
    cols = {lam: conjugate(lam).padded(m) for lam in lams}

    def group(lam):
        return lam.size() if family == "A" else 0

    compared = {}  # lam -> its weight on the multiplicity route, plus rho
    for lam in lams:
        compared.setdefault(group(lam), {})[lam] = _plus_rho(
            cols[lam] if family == "A" else hat(lam, n, m).padded(m),
            (family, m))
    decomposition = _elem_products(family, n)
    for mu in lams:
        same = compared[group(mu)]
        dec = decomposition(cols[mu])
        target = same[mu]
        yield len(same), _compare(
            dec, same, lambda w: _kostant_sum(kostant, w, target, family),
            {"mu": list(mu.stripped())}, "weight_mult")


def verify_schur_duality(n, m):
    """Sweep the type A duality over every mu in the n x m rectangle.

    For each mu, the gl_n expansion of e_{mu'_1}...e_{mu'_m} is compared
    with gl_m Kostant weight multiplicities at (lam', mu'), for every lam
    in the rectangle of the same size.  Exact equality on each cell.
    """
    return _duality_sweep("A", n, m)


def verify_howe_duality(n, m):
    """Sweep the type C duality over every mu in the n x m rectangle.

    The sp_2n expansion of the product of folded e_{mu'_j} is compared
    with sp_2m weight multiplicities at (hat(lam), hat(mu)) for every lam
    in the rectangle; constituents outside the rectangle are failures.
    """
    return _duality_sweep("C", n, m)


@_reported
def verify_generalized_duality(n, r_max, size_bound):
    """Cross-check the two multiplicity routes on every block shape.

    Sweeps all symbol sequences in {A,C}^r for r <= r_max, all block sizes
    up to size_bound, and all multipartitions with component j inside the
    n x size_j rectangle; each cell compares one (spec, mu, lam) triple.
    Each input coarser than a cell is built once, in a table that lives
    for this call: the block factors, the sp_2n decomposition of each
    prefix of each sequence of (symbol, component) pairs, carried left to
    right by the Brauer-Klimyk rule without building the product
    polynomial (characters._products), and hat(lam, n, k), alone and
    plus the rho of C_k, for every lam of each n x k rectangle the sweep
    meets.
    """
    if size_bound < 1:
        return
    # (2 size_bound)^r specs of r blocks, summed over r <= r_max
    _checked_count(itertools.accumulate(
        (2 * size_bound) ** r for r in range(1, r_max + 1)), "block shapes")
    if r_max >= 1:
        check_rank(("C", r_max * size_bound))  # the largest spec's rank
    specs = [DiagramSpec(symbols, sizes) for r in range(1, r_max + 1)
             for symbols in itertools.product("AC", repeat=r)
             for sizes in itertools.product(range(1, size_bound + 1),
                                            repeat=r)]
    decomposition = _char_products(n)
    tables = {}

    def hats(k):
        # {lam: hat(lam, n, k).parts} in rectangle order, and + rho(C_k)
        if k not in tables:
            parts = {lam: hat(lam, n, k).parts for lam in _rectangle(n, k)}
            tables[k] = parts, {lam: _plus_rho(p, ("C", k))
                                for lam, p in parts.items()}
        return tables[k]

    for spec in specs:
        m = spec.total()
        lams = hats(m)[1]
        spec_tag = ["".join(spec.symbols), list(spec.sizes)]
        pools = [hats(k)[0] for k in spec.sizes]
        count = _checked_count(itertools.accumulate(map(len, pools), mul),
                               "multipartitions")
        kostant = _counter_for(spec.reversed().complement_roots(), m).count
        fails = []
        for comps in itertools.product(*pools):
            # the character route does not depend on the block sizes
            dec = decomposition(tuple(zip(spec.symbols, comps)))
            # hat_multi(mu, n).flatten() + rho: a hat in n x k has k parts
            target = _plus_rho(sum((pool[c] for c, pool in zip(
                comps[::-1], pools[::-1])), ()), ("C", m))
            fails += _compare(
                dec, lams,
                lambda w: _kostant_sum(kostant, w, target, "C", True),
                {"spec": spec_tag,
                 "mu": [list(c.stripped()) for c in comps]},
                "branch_route")
        yield count * len(lams), fails


def _height_choices(n, m):
    """The m height ranges of a crystal sweep, whose product is every
    column-height vector mu' with entries <= 2n, after checking both ranks
    and then the number (2n+1)^m of those vectors against enum_cap."""
    if n < 1 or m < 1:
        raise HowekitError("rank parameter must be >= 1")
    _checked_count(itertools.accumulate(itertools.repeat(2 * n + 1, m), mul),
                   "column-height vectors")
    return [range(2 * n + 1)] * m


def _vertices(n, m):
    """The vertices of a crystal sweep: (list(mu'), b) for every b in
    B_{mu'}, over the column-height vectors of _height_choices(n, m)."""
    for mu_prime in itertools.product(*_height_choices(n, m)):
        for b in enumerate_B(mu_prime, n):
            yield list(mu_prime), b


@_reported
def verify_bijection(n, m):
    """Check that star pairs highest weight vertices with King tableaux.

    For every column-height vector mu' with entries <= 2n and every lam in
    the n x m rectangle, the highest weight vertices of weight lam must map
    bijectively onto the King tableaux of shape hat(lam) and weight
    hat(mu), with star_inverse undoing the map.  A failed cell lists its
    mu_prime and lam next to the failure of duality.star_pairing.  One
    walk lists every mu' with its vertices and their weights; each lam's
    weight, the column heights of hat(lam) and its King tableaux are
    built once, and duality._pair_cell pairs each cell as star_pairing
    does.  A cell with no vertex and no King tableau counts, unpaired.
    """
    choices = _height_choices(n, m)
    lams = _rectangle(n, m)
    cells = []
    for lam in lams:
        lam_hat = hat(lam, n, m)
        cells.append((lam.padded(n), list(lam.stripped()),
                      conjugate(lam_hat).stripped(),
                      king_tableaux_by_weight(lam_hat, m, n)))
    weights = {cell[0] for cell in cells}
    for mu_prime, pairs in _highest_weight_walk(choices, n):
        fails = []
        mu_tag = list(mu_prime)
        mu_hat = tuple(n - h for h in reversed(mu_prime))
        buckets = {}
        for b, w in pairs:
            buckets.setdefault(w, []).append(b)
        for w in buckets:
            if w not in weights:
                fails.append({"mu_prime": mu_tag, "weight": list(w),
                              "reason": "weight outside rectangle"})
        for w, lam_tag, heights, table in cells:
            vertices = buckets.get(w, [])
            expected = table.get(mu_hat, [])
            if vertices or expected:
                _, failure = _pair_cell(vertices, heights, mu_hat, n, m,
                                        expected)
                if failure is not None:
                    fails.append(dict(failure, mu_prime=mu_tag, lam=lam_tag))
        yield len(lams), fails


def _removes_pair(before, after, j):
    """Whether after is before with one pair (bar k, k) dropped from
    column j and every other column unchanged."""
    old, new = set(before.columns[j - 1]), set(after.columns[j - 1])
    gone = sorted(old - new)
    return (before.columns[:j - 1] + before.columns[j:]
            == after.columns[:j - 1] + after.columns[j:]
            and new <= old and len(gone) == 2 and gone[0] == -gone[1])


@_reported
def verify_contraction(n, m):
    """Check that kappa_j removes one (bar k, k) pair and commutes with
    every crystal operator e_i, 0 <= i <= n-1, as partial maps."""
    for mu_tag, b in _vertices(n, m):
        fails = []
        raised = [crystal_e(i, b) for i in range(n)]
        for j in range(1, m + 1):
            kb = kappa(j, b)
            if kb is not None and not _removes_pair(b, kb, j):
                fails.append({"mu_prime": mu_tag,
                              "element": b.to_json_obj(), "j": j,
                              "reason": "not a pair removal"})
            for i, eb in enumerate(raised):
                left = kappa(j, eb) if eb is not None else None
                right = crystal_e(i, kb) if kb is not None else None
                if left != right:
                    fails.append({"mu_prime": mu_tag,
                                  "element": b.to_json_obj(),
                                  "j": j, "i": i,
                                  "reason": "commutation broken"})
        yield m * n, fails


@_reported
def verify_jdt(n, m):
    """Check that the jeu de taquin slides agree with the transported
    barred raising operators on every vertex, as partial maps."""
    for mu_tag, b in _vertices(n, m):
        yield m - 1, [{"mu_prime": mu_tag, "element": b.to_json_obj(),
                       "j": j, "reason": "slide disagrees with transport"}
                      for j in range(1, m) if jdt_bar(j, b) != kappa(-j, b)]


def _position_classes(spec, parabolic):
    """Sets of block positions that permitted permutations may mix."""
    byshape = {}
    for pos, key in enumerate(zip(spec.symbols, spec.sizes)):
        byshape.setdefault(key, []).append(pos)
    classes = [v for _, v in sorted(byshape.items())]
    if parabolic:
        # the distinguished last block stays put
        last = len(spec.sizes) - 1
        classes = [[p for p in cls if p != last] for cls in classes]
        classes = [cls for cls in classes if cls]
        classes.append([last])
    return classes


@_reported
def injectivity_scan(spec, part_bound, n_bound):
    """Search for distinct branching data with identical coefficient
    vectors over all dominant weights in the m x n_bound rectangle.

    spec describes the tensor side: either all C blocks or a C block
    followed by A blocks (the parabolic case).  Weight tuples related by a
    permutation of same-type-same-size blocks induce equal vectors and are
    treated as one cell; in the parabolic case the last dual-side block is
    pinned.  Any two inequivalent tuples sharing a vector are reported.
    """
    if not isinstance(spec, DiagramSpec):
        spec = DiagramSpec(*spec)
    word = "".join(spec.symbols)
    parabolic = len(word) > 1 and word == "C".ljust(len(word), "A")
    if "A" in word and not parabolic:
        raise HowekitError(
            "scan needs all C blocks or one leading C block, got %r"
            % (spec.symbols,))
    hspec = spec.reversed()
    m = hspec.total()
    rects = [(m, n_bound)] + [(k, part_bound) for k in hspec.sizes]
    if n_bound >= 0 and part_bound >= 0:
        limits.check("enum_cap", prod(_rectangle_size(a, b) for a, b in rects),
                     "injectivity scan size %d")
    check_rank(("C", m))
    kappas, *pools = (list(enumerate_rectangle(a, b)) for a, b in rects)
    kostant = _counter_for(hspec.complement_roots(), m).count
    lifted = [_plus_rho(kap.padded(m), ("C", m)) for kap in kappas]

    classes = _position_classes(hspec, parabolic)
    reps = {}
    for comps in itertools.product(*pools):
        key = tuple(tuple(sorted(tuple(comps[p].stripped()) for p in cls))
                    for cls in classes)
        reps.setdefault(key, comps)

    groups = {}
    for key in sorted(reps):
        comps = reps[key]
        target = _plus_rho(MultiPartition(comps, hspec.sizes).flatten(),
                           ("C", m))
        vec = tuple(_kostant_sum(kostant, kap, target, "C", True)
                    for kap in lifted)
        groups.setdefault(vec, []).append(comps)

    yield len(reps), [{"mu_hat": [list(c.stripped()) for c in first],
                       "nu_hat": [list(c.stripped()) for c in other]}
                      for first, *others in map(groups.get, sorted(groups))
                      for other in others]
