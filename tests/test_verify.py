"""End-to-end sweep drivers and the injectivity scanner."""

import hashlib
import itertools
import json

import pytest

from howekit import (DiagramSpec, HowekitError, KingElement,
                     LaurentPolynomial, LimitExceeded, MultiPartition,
                     Partition, branching_coefficient, char_product,
                     conjugate, decompose, elem_sym, enumerate_B,
                     enumerate_king_tableaux,
                     enumerate_rectangle, hat, injectivity_scan,
                     is_king_tableau, king_weight, limits,
                     multiplicity_branch_route, multiplicity_char_route,
                     verify_bijection, verify_contraction,
                     verify_generalized_duality, verify_howe_duality,
                     verify_jdt, verify_schur_duality, weight_multiplicity)
from howekit.bicrystal import kappa
from howekit.duality import king_tableaux_by_weight
from howekit.weyl import positive_roots


def test_report_shape():
    rep = verify_howe_duality(1, 1)
    assert set(rep) == {"cells", "failures", "runtime_ms"}
    assert isinstance(rep["cells"], int)
    assert isinstance(rep["failures"], list)
    assert rep["runtime_ms"] >= 0


def test_howe_duality_cells():
    rep = verify_howe_duality(2, 2)
    assert rep["failures"] == []
    assert rep["cells"] == len(list(enumerate_rectangle(2, 2))) ** 2


def test_schur_duality_cells():
    rep = verify_schur_duality(2, 2)
    assert rep["failures"] == []
    lams = list(enumerate_rectangle(2, 2))
    assert rep["cells"] == sum(
        sum(1 for lam in lams if lam.size() == mu.size()) for mu in lams)


def test_multiplicity_routes_agree():
    cases = [
        ([2, 1], "C", [2], [[2, 1]], 2),
        ([2], "AA", [1, 1], [[1], [1]], 2),
        ([2, 2], "CA", [1, 1], [[1, 1], [1]], 2),
        ([1, 1], "CC", [1, 1], [[1], [1]], 2),
    ]
    for lam, symbols, sizes, mu, n in cases:
        left = multiplicity_char_route(lam, symbols, sizes, mu, n)
        right = multiplicity_branch_route(lam, symbols, sizes, mu, n)
        assert left == right, (lam, symbols, mu)


def test_howe_cell_counts_king_tableaux():
    # the (lam, mu) cell of the duality sweep counts King tableaux of the
    # complementary shape and weight
    n, m = 4, 3
    lam, mu = Partition((2, 1, 1)), Partition((3, 2, 1))
    p = LaurentPolynomial.one(n)
    for k in conjugate(mu).padded(m):
        p = p * elem_sym(k, "C", n)
    coeff = decompose(p, "C", n)[lam]
    kings = enumerate_king_tableaux(hat(lam, n, m), (3, 1, 2), m)
    assert coeff == len(kings) == 7
    assert coeff == weight_multiplicity(("C", m), tuple(hat(lam, n, m)),
                                        tuple(hat(mu, n, m).padded(m)))


def test_all_A_blocks_reduce_to_weight_multiplicity():
    # size-one A blocks branch all the way to the Cartan, so both routes
    # collapse to a plain weight space dimension at the complementary pair
    n, m = 2, 3
    for lam in enumerate_rectangle(n, m):
        for mu in enumerate_rectangle(n, m):
            if lam.size() != mu.size():
                continue
            cols = [[1] * k for k in conjugate(mu).padded(m)]
            a = multiplicity_char_route(lam, "A" * m, [1] * m, cols, n)
            b = multiplicity_branch_route(lam, "A" * m, [1] * m, cols, n)
            want = weight_multiplicity(("C", m), tuple(hat(lam, n, m)),
                                       tuple(hat(mu, n, m).padded(m)))
            assert a == b == want, (lam, mu)


def test_swapped_equal_blocks_share_vectors():
    spec = DiagramSpec("CC", (1, 1)).reversed()
    kaps = list(enumerate_rectangle(2, 2))
    nu1 = MultiPartition([[2], [1]], spec.sizes)
    nu2 = MultiPartition([[1], [2]], spec.sizes)
    v1 = tuple(branching_coefficient(k, spec, nu1) for k in kaps)
    v2 = tuple(branching_coefficient(k, spec, nu2) for k in kaps)
    assert v1 == v2


def test_injectivity_scan_small():
    rep = injectivity_scan(DiagramSpec("C", (2,)), 2, 2)
    assert rep["failures"] == []
    assert rep["cells"] == 6
    rep = injectivity_scan(("CC", (1, 1)), 2, 2)
    assert rep["failures"] == []
    rep = injectivity_scan(DiagramSpec("CA", (1, 1)), 2, 3)
    assert rep["failures"] == []


def test_injectivity_scan_reports_shallow_collisions():
    # with too few rows in the probe rectangle the parabolic vectors for
    # ((1),(2)) and ((2),(1)) coincide, and the scanner says so
    rep = injectivity_scan(DiagramSpec("CA", (1, 1)), 2, 2)
    assert {"mu_hat": [[1], [2]], "nu_hat": [[2], [1]]} in rep["failures"]


def test_injectivity_scan_rejects_bad_specs():
    with pytest.raises(HowekitError):
        injectivity_scan(DiagramSpec("AC", (1, 1)), 1, 1)
    with pytest.raises(HowekitError):
        injectivity_scan(DiagramSpec("AA", (1, 1)), 1, 1)
    with pytest.raises(HowekitError):
        injectivity_scan(DiagramSpec("CAC", (1, 1, 1)), 1, 1)


def test_bijection_report():
    rep = verify_bijection(2, 2)
    assert rep["failures"] == []
    assert rep["cells"] > 0


def test_bijection_failure_entry(monkeypatch):
    # with no King tableaux to pair with, every nonempty cell fails with
    # the pairing check's own reason next to its mu' and lam
    from howekit import verify
    monkeypatch.setattr(verify, "king_tableaux_by_weight", lambda *args: {})
    rep = verify_bijection(1, 1)
    assert rep["cells"] == 6
    assert rep["failures"] == [
        {"mu_prime": [0], "lam": [], "reason": "image set mismatch",
         "missing": []},
        {"mu_prime": [1], "lam": [1], "reason": "image set mismatch",
         "missing": []},
        {"mu_prime": [2], "lam": [], "reason": "image set mismatch",
         "missing": []},
    ]


def test_bijection_reports_every_non_invertible_vertex(monkeypatch):
    # an inverse that reverses the columns undoes star only on the
    # vertices whose columns read the same both ways, (-1), (-1) here
    from howekit import duality
    real = duality._star_inverse_cols
    monkeypatch.setattr(duality, "_star_inverse_cols",
                        lambda columns, n, m: real(columns, n, m)[::-1])
    rep = verify_bijection(1, 2)
    assert rep["cells"] == 27
    assert [(f["mu_prime"], f["lam"], f["element"]) for f in rep["failures"]
            if f["reason"] == "star not invertible"] == [
        ([0, 1], [1], [[], [-1]]),
        ([0, 2], [], [[], [-1, 1]]),
        ([1, 0], [1], [[-1], []]),
        ([1, 1], [], [[-1], [1]]),
        ([1, 2], [1], [[-1], [-1, 1]]),
        ([2, 0], [], [[-1, 1], []]),
        ([2, 1], [1], [[-1, 1], [-1]]),
    ]
    assert len(rep["failures"]) == 7


# The first vertex of every nonempty cell of verify_bijection(1, 2), with
# its mu' and lam, in sweep order.
_FIRST_VERTICES = [
    ([0, 0], [], [[], []]),
    ([0, 1], [1], [[], [-1]]),
    ([0, 2], [], [[], [-1, 1]]),
    ([1, 0], [1], [[-1], []]),
    ([1, 1], [], [[-1], [1]]),
    ([1, 1], [2], [[-1], [-1]]),
    ([1, 2], [1], [[-1], [-1, 1]]),
    ([2, 0], [], [[-1, 1], []]),
    ([2, 1], [1], [[-1, 1], [-1]]),
    ([2, 2], [], [[-1, 1], [-1, 1]]),
]


def _tall_image(t):
    # a key above 2m: star_inverse drops it, the column gets taller
    return (t.columns[0] + (2 * t.m + 1,),) + t.columns[1:], t.m


def _wide_alphabet_image(t):
    # the same columns over one more letter pair: a_{m+1} = 0 is added
    return t.columns, t.m + 1


def _low_key_image(t):
    # row 1's key k becomes k - (2m + 1) < 1; star_inverse and king_weight
    # index their tables with it, so they read it as k
    first = t.columns[0]
    if first:
        first = (first[0] - 2 * t.m - 1,) + first[1:]
    return (first,) + t.columns[1:], t.m


@pytest.mark.parametrize("image, reason, skipped", [
    (_tall_image, "shape mismatch", None),
    (_wide_alphabet_image, "weight mismatch", None),
    # star([[-1], [-1]]) is the empty column, King whatever its keys
    (_low_key_image, "image not King", [[-1], [-1]]),
])
def test_bijection_reports_each_image_check_in_order(monkeypatch, image,
                                                     reason, skipped):
    # each bad image round-trips and is missing from its King table, so it
    # reaches the shape, weight and King checks, in that order; the full
    # report pins that order and each check's message
    from howekit import duality
    real = duality.star
    monkeypatch.setattr(duality, "star", lambda b: KingElement._trusted(
        *image(real(b))))
    rep = verify_bijection(1, 2)
    assert rep["cells"] == 27
    assert json.dumps(rep["failures"]) == json.dumps([
        {"element": element, "reason": reason, "mu_prime": mu_prime,
         "lam": lam}
        for mu_prime, lam, element in _FIRST_VERTICES if element != skipped])


def test_bijection_reports_weights_outside_the_rectangle(monkeypatch):
    # a walk that lifts every weight by 2 leaves the 1 x 1 rectangle: each
    # weight is reported, and its lam's King tableaux go unpaired
    from howekit import verify
    walk = verify._highest_weight_walk

    def lifted(choices, n):
        for mu_prime, pairs in walk(choices, n):
            yield mu_prime, [(b, (w[0] + 2,) + w[1:]) for b, w in pairs]
    monkeypatch.setattr(verify, "_highest_weight_walk", lifted)
    rep = verify_bijection(1, 1)
    assert rep["cells"] == 6
    assert rep["failures"] == [
        {"mu_prime": [0], "weight": [2], "reason": "weight outside rectangle"},
        {"mu_prime": [0], "lam": [], "reason": "image set mismatch",
         "missing": [[["1"]]]},
        {"mu_prime": [1], "weight": [3], "reason": "weight outside rectangle"},
        {"mu_prime": [1], "lam": [1], "reason": "image set mismatch",
         "missing": [[[]]]},
        {"mu_prime": [2], "weight": [2], "reason": "weight outside rectangle"},
        {"mu_prime": [2], "lam": [], "reason": "image set mismatch",
         "missing": [[["1b"]]]},
    ]


def test_bijection_stars_each_vertex_once(monkeypatch):
    # one star per highest weight vertex of the sweep, one King table per
    # lam, no pairing call for a cell with nothing in it, and no King test
    # of an image found in its table
    from howekit import duality, verify
    from howekit.crystals import _highest_weight_walk
    n, m = 2, 3
    starred = _counting(monkeypatch, duality, "star")
    king_tests = _counting(monkeypatch, duality, "is_king_tableau")
    tables = _counting(monkeypatch, verify, "king_tableaux_by_weight")
    cells = _counting(monkeypatch, verify, "_pair_cell")
    rep = verify_bijection(n, m)
    assert (rep["cells"], rep["failures"]) == (1250, [])
    vertices = [b for _, pairs in _highest_weight_walk(
                    [range(2 * n + 1)] * m, n) for b, _ in pairs]
    assert len(starred) == len(vertices) == len(set(vertices))
    assert {b for b, in starred} == set(vertices)
    assert [args[0] for args in tables] == [
        hat(lam, n, m) for lam in enumerate_rectangle(n, m)]
    assert len(cells) == 1250 - 936
    assert king_tests == []


def test_king_tables_hold_only_what_the_image_tests_accept():
    # verify_bijection pairs a star image found in its lam's table without
    # testing its shape, weight or King condition: every entry passes them
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            for lam in enumerate_rectangle(n, m):
                lam_hat = hat(lam, n, m)
                heights = conjugate(lam_hat).stripped()
                table = king_tableaux_by_weight(lam_hat, m, n)
                for key, bucket in table.items():
                    for t in bucket:
                        assert t.m == m and len(t.columns) == n
                        assert tuple(sorted(filter(None, t.heights()),
                                            reverse=True)) == heights
                        assert king_weight(t) == key
                        assert is_king_tableau(t)


def test_bijection_checks_each_B_against_enum_cap():
    # the 7^2 = 49 height vectors of (3, 2) pass a cap of 343, and the
    # first B_{mu'} over it in product order is C(6, 3)^2 = 400 at (3, 3)
    with limits.overridden({"enum_cap": 343}):
        with pytest.raises(LimitExceeded) as info:
            verify_bijection(3, 2)
    assert str(info.value) == ("B_{mu'} has at least 400 elements, "
                               "above enum_cap 343")


def test_contraction_and_jdt_reports():
    rep = verify_contraction(2, 2)
    assert rep["failures"] == []
    rep = verify_jdt(2, 1)
    assert rep["failures"] == []


def test_contraction_reports_a_broken_kappa_in_order(monkeypatch):
    # a kappa that, on a third of the (j, b), stands in kappa_2 for
    # kappa_1 or vanishes for j = 2; the report was recorded before the
    # sweep raised each vertex once for all j
    from howekit import verify
    real = verify.kappa

    def broken(j, b):
        if (j + sum(b.word())) % 3:
            return real(j, b)
        return real(2, b) if j == 1 else None

    monkeypatch.setattr(verify, "kappa", broken)
    fails = verify_contraction(2, 2)["failures"]
    assert len(fails) == 181
    assert sum(f["reason"] == "not a pair removal" for f in fails) == 32
    assert fails[:3] == [
        {"mu_prime": [0, 3], "element": [[], [-2, -1, 2]], "j": 1,
         "reason": "not a pair removal"},
        {"mu_prime": [0, 3], "element": [[], [-2, -1, 2]], "j": 1, "i": 1,
         "reason": "commutation broken"},
        {"mu_prime": [0, 3], "element": [[], [-2, -1, 2]], "j": 2, "i": 1,
         "reason": "commutation broken"}]
    assert hashlib.sha256(json.dumps(fails).encode()).hexdigest() == (
        "9882cf55f5d3fa6801388fdde00f496fe180d4d4d805805b8a2d754b2f6019a6")


def test_contraction_raises_each_vertex_once(monkeypatch):
    # n raises of each vertex, shared by every j, and one raise of each
    # contraction that does not vanish
    from howekit import verify
    n, m = 2, 2
    expected = sum(n + n * sum(kappa(j, b) is not None
                               for j in range(1, m + 1))
                   for mu_p in itertools.product(range(2 * n + 1), repeat=m)
                   for b in enumerate_B(mu_p, n))
    raises = _counting(monkeypatch, verify, "crystal_e")
    assert verify_contraction(n, m)["failures"] == []
    assert len(raises) == expected


def test_generalized_duality_report():
    rep = verify_generalized_duality(1, 2, 1)
    assert rep["failures"] == []
    assert rep["cells"] > 0


def _counting(monkeypatch, module, name):
    calls = []
    f = getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *a: calls.append(a) or f(*a))
    return calls


def test_generalized_builds_each_block_factor_once(monkeypatch):
    # (1, 1, 4) meets the components (), (1), ..., (4) on both symbols:
    # 5 Schur and 5 Weyl factors and 10 keys decomposed through the table,
    # where one per multipartition would be 14, 14 and 28
    from howekit import characters
    schur = _counting(monkeypatch, characters, "schur_folded")
    weyl_ = _counting(monkeypatch, characters, "weyl_character")
    decs = _counting(monkeypatch, characters, "_constituents")
    rep = verify_generalized_duality(1, 1, 4)
    assert (rep["cells"], rep["failures"]) == (108, [])
    assert len(decs) == 10
    assert sorted(c.stripped() for c, _ in schur) == [
        (), (1,), (2,), (3,), (4,)]
    assert sorted(c.stripped() for c, _, _ in weyl_) == [
        (), (1,), (2,), (3,), (4,)]


def test_generalized_multiplies_once_per_prefix(monkeypatch):
    # (2, 2, 2) meets 156 sequences of (symbol, component) pairs over the 6
    # partitions of the 2 x 2 rectangle: 12 factors, and every sequence of
    # two extends one of one, so one decomposition step per sequence and no
    # polynomial product; a second pass over the same sequences is all
    # table hits
    from howekit import characters, verify
    keys = {tuple(zip(symbols, comps)) for r in (1, 2)
            for symbols in itertools.product("AC", repeat=r)
            for sizes in itertools.product((1, 2), repeat=r)
            for comps in itertools.product(
                *(enumerate_rectangle(2, k) for k in sizes))}
    prefixes = {key[:i] for key in keys for i in range(1, len(key) + 1)}
    factors = {f: characters.weyl_character(f[1], "C", 2) if f[0] == "C"
               else characters.schur_folded(f[1], 2)
               for key in keys for f in key}
    built, tables, muls = [], [], []
    monkeypatch.setattr(characters, "weyl_character",
                        lambda comp, family, n: built.append(("C", comp))
                        or factors["C", comp])
    monkeypatch.setattr(characters, "schur_folded",
                        lambda comp, n: built.append(("A", comp))
                        or factors["A", comp])
    steps = _counting(monkeypatch, characters, "_klimyk_step")
    table = verify._char_products
    monkeypatch.setattr(verify, "_char_products",
                        lambda *args, **kwargs: tables.append(
                            table(*args, **kwargs)) or tables[-1])
    mul = LaurentPolynomial.__mul__
    monkeypatch.setattr(LaurentPolynomial, "__mul__",
                        lambda self, other: muls.append(1) or mul(self, other))
    rep = verify_generalized_duality(2, 2, 2)
    assert (rep["cells"], rep["failures"]) == (3906, [])
    assert len(built) == len(set(built)) == len(factors) == 12
    assert len(steps) == len(prefixes) == len(keys) == 156
    assert muls == []
    assert len(tables) == 1
    for key in keys:
        tables[0](key)
    assert len(steps) == 156


def test_generalized_builds_each_hat_once(monkeypatch):
    # one call per (k, lam) over the 1 x k rectangles, k = 1..4: 2+3+4+5
    from howekit import verify
    calls = _counting(monkeypatch, verify, "hat")
    rep = verify_generalized_duality(1, 1, 4)
    assert (rep["cells"], rep["failures"]) == (108, [])
    assert len(calls) == len(set(calls)) == 14


def test_generalized_fetches_each_complement_counter_once(monkeypatch):
    # one counter per spec: 2 symbols x 4 sizes, where one per cell would
    # be 108
    from howekit import verify
    calls = _counting(monkeypatch, verify, "_counter_for")
    rep = verify_generalized_duality(1, 1, 4)
    assert (rep["cells"], rep["failures"]) == (108, [])
    assert calls == [(DiagramSpec(s, (k,)).complement_roots(), k)
                     for s in "AC" for k in range(1, 5)]


def test_duality_sweep_fetches_its_counter_once(monkeypatch):
    # every cell counts over the positive roots of gl_4, where one fetch
    # per cell would be 390
    from howekit import verify
    calls = _counting(monkeypatch, verify, "_counter_for")
    rep = verify_schur_duality(4, 4)
    assert (rep["cells"], rep["failures"]) == (390, [])
    assert calls == [(positive_roots(("A", 4)), 4)]


@pytest.mark.parametrize("sweep, args, message", [
    (verify_schur_duality, (1, 1),
     "negative weight multiplicity for (0,), (0,)"),
    (verify_howe_duality, (1, 1),
     "negative weight multiplicity for (1,), (1,)"),
    (verify_generalized_duality, (1, 1, 1),
     "negative branching coefficient for (1,)"),
    (injectivity_scan, (DiagramSpec("CA", (1, 1)), 1, 1),
     "negative branching coefficient for (0, 0)"),
], ids=["schur", "howe", "generalized", "injectivity"])
def test_sweeps_raise_on_a_negative_sum(monkeypatch, sweep, args, message):
    # -1 at the zero vector alone: the cell with lam = mu sums to -1
    from howekit import partfn
    monkeypatch.setattr(partfn._Counter, "count",
                        lambda self, beta: 0 if any(beta) else -1)
    with pytest.raises(HowekitError) as info:
        sweep(*args)
    assert str(info.value) == message


@pytest.mark.parametrize("sweep, args", [
    # 6 + 36 + 216 block shapes, the largest of rank 3 x 3
    (verify_generalized_duality, (1, 3, 3)),
    (injectivity_scan, (DiagramSpec("C", (9,)), 0, 0)),
], ids=["generalized", "injectivity"])
def test_branching_sweeps_check_the_rank_before_any_count(monkeypatch, sweep,
                                                          args):
    from howekit import partfn
    counts = []
    monkeypatch.setattr(partfn._Counter, "count",
                        lambda self, beta: counts.append(beta))
    with pytest.raises(LimitExceeded,
                       match="^rank 9 above enumeration cap for type C$"):
        sweep(*args)
    assert counts == []


def _off_by_one(monkeypatch):
    # every weight multiplicity and branching coefficient of a sweep
    from howekit import verify
    monkeypatch.setattr(verify, "_kostant_sum",
                        lambda *a, f=verify._kostant_sum: f(*a) + 1)


def _extra_constituents(monkeypatch):
    # one constituent outside every rectangle, and one more trivial one,
    # in every decomposition a sweep reads off its product table
    from howekit import characters
    from howekit.characters import CharacterDecomposition

    def dec(r, strict, f=characters._constituents):
        d = f(r, strict)
        return CharacterDecomposition(
            {**d.mults, Partition((3,)): 1, Partition(()): d[()] + 1})
    monkeypatch.setattr(characters, "_constituents", dec)


def _spec_entries(entries):
    return [dict(e, spec=[s, [1]]) for s in "AC" for e in entries]


@pytest.mark.parametrize("patch, sweep, args, want", [
    (_off_by_one, verify_schur_duality, (1, 1), [
        {"mu": [], "lam": [], "char_route": 1, "weight_mult": 2},
        {"mu": [1], "lam": [1], "char_route": 1, "weight_mult": 2}]),
    (_off_by_one, verify_howe_duality, (1, 1), [
        {"mu": [], "lam": [], "char_route": 1, "weight_mult": 2},
        {"mu": [], "lam": [1], "char_route": 0, "weight_mult": 1},
        {"mu": [1], "lam": [], "char_route": 0, "weight_mult": 1},
        {"mu": [1], "lam": [1], "char_route": 1, "weight_mult": 2}]),
    (_off_by_one, verify_generalized_duality, (1, 1, 1), _spec_entries([
        {"mu": [[]], "lam": [], "char_route": 1, "branch_route": 2},
        {"mu": [[]], "lam": [1], "char_route": 0, "branch_route": 1},
        {"mu": [[1]], "lam": [], "char_route": 0, "branch_route": 1},
        {"mu": [[1]], "lam": [1], "char_route": 1, "branch_route": 2}])),
    # type A compares only the lam of |mu|, so the trivial constituent of
    # mu = (1) is unexpected rather than a route mismatch
    (_extra_constituents, verify_schur_duality, (1, 1), [
        {"mu": [], "lam": [3], "reason": "unexpected constituent"},
        {"mu": [], "lam": [], "char_route": 2, "weight_mult": 1},
        {"mu": [1], "lam": [], "reason": "unexpected constituent"},
        {"mu": [1], "lam": [3], "reason": "unexpected constituent"}]),
    (_extra_constituents, verify_howe_duality, (1, 1), [
        {"mu": [], "lam": [3], "reason": "unexpected constituent"},
        {"mu": [], "lam": [], "char_route": 2, "weight_mult": 1},
        {"mu": [1], "lam": [3], "reason": "unexpected constituent"},
        {"mu": [1], "lam": [], "char_route": 1, "weight_mult": 0}]),
    (_extra_constituents, verify_generalized_duality, (1, 1, 1),
     _spec_entries([
         {"mu": [[]], "lam": [3], "reason": "unexpected constituent"},
         {"mu": [[]], "lam": [], "char_route": 2, "branch_route": 1},
         {"mu": [[1]], "lam": [3], "reason": "unexpected constituent"},
         {"mu": [[1]], "lam": [], "char_route": 1, "branch_route": 0}])),
], ids=["off-by-one-schur", "off-by-one-howe", "off-by-one-generalized",
        "extra-schur", "extra-howe", "extra-generalized"])
def test_duality_failure_entries(monkeypatch, patch, sweep, args, want):
    cells = sweep(*args)["cells"]
    patch(monkeypatch)
    rep = sweep(*args)
    assert rep["cells"] == cells
    assert rep["failures"] == want


@pytest.mark.parametrize("sweep, args, error, message", [
    # (2n+1)^m column-height vectors: 5^3 = 125, 3^4 = 81
    (verify_bijection, (2, 3), LimitExceeded,
     "sweep would list at least 125 column-height vectors, above enum_cap 50"),
    (verify_contraction, (1, 4), LimitExceeded,
     "sweep would list at least 81 column-height vectors, above enum_cap 50"),
    (verify_jdt, (1, 4), LimitExceeded,
     "sweep would list at least 81 column-height vectors, above enum_cap 50"),
    # the rank check comes first, whatever the size
    (verify_contraction, (0, 10 ** 9), HowekitError,
     "rank parameter must be >= 1"),
    # C(8, 4) = 70 partitions of the rectangle
    (verify_schur_duality, (4, 4), LimitExceeded,
     "sweep would list at least 70 partitions of the 4 x 4 rectangle, "
     "above enum_cap 50"),
    (verify_howe_duality, (4, 4), LimitExceeded,
     "sweep would list at least 70 partitions of the 4 x 4 rectangle, "
     "above enum_cap 50"),
    # 4 + 16 + 64 = 84 block shapes
    (verify_generalized_duality, (1, 3, 2), LimitExceeded,
     "sweep would list at least 84 block shapes, above enum_cap 50"),
    # C(2+3, 2) * C(1+3, 1) * C(1+3, 1) = 160 cells
    (injectivity_scan, (DiagramSpec("CC", (1, 1)), 3, 3), LimitExceeded,
     "injectivity scan size 160, above enum_cap 50"),
], ids=["bijection", "contraction", "jdt", "rank-first", "schur", "howe",
        "generalized", "injectivity"])
def test_sweeps_check_sizes_before_listing(monkeypatch, sweep, args, error,
                                           message):
    from howekit import verify

    def listing(*args, **kwargs):
        raise AssertionError("listed before the size check")
    monkeypatch.setattr(verify, "enumerate_rectangle", listing)
    monkeypatch.setattr(itertools, "product", listing)
    with limits.overridden({"enum_cap": 50}):
        with pytest.raises(HowekitError) as info:
            sweep(*args)
    assert (type(info.value), str(info.value)) == (error, message)


@pytest.mark.parametrize("sweep, letters, subsets", [
    (verify_schur_duality, 1500, 561375500),
    (verify_howe_duality, 3000, 4495501000),
], ids=["schur", "howe"])
def test_duality_sweeps_check_every_factor_before_the_first(
        monkeypatch, sweep, letters, subsets):
    # e_2 of 1500 letters is under enum_cap yet holds 1.12 M exponent
    # tuples; e_3 is over it, so the sweep must stop before building any
    from howekit import characters

    def building(*args):
        raise AssertionError("built an elementary polynomial")
    monkeypatch.setattr(characters, "combinations", building)
    with pytest.raises(LimitExceeded) as info:
        sweep(1500, 1)
    assert str(info.value) == ("e_3 of %d letters has %d subsets, above "
                               "enum_cap 10000000" % (letters, subsets))


@pytest.mark.parametrize("sweep, family", [
    (verify_schur_duality, "A"), (verify_howe_duality, "C"),
], ids=["schur", "howe"])
def test_duality_sweeps_check_the_rank_before_the_first_product(
        monkeypatch, sweep, family):
    # every cell counts weight multiplicities at rank m, so a rank above
    # MAX_RANK is refused before any product is built
    from howekit import verify

    def building(*args):
        raise AssertionError("built a product")
    monkeypatch.setattr(verify, "_elem_products", building)
    with pytest.raises(LimitExceeded,
                       match="^rank 11 above enumeration cap for type %s$"
                       % family):
        sweep(1, 11)


@pytest.mark.parametrize("args, cap, count, what", [
    # 2 block shapes, each over the 6 x 1 rectangle: C(7, 1) = 7
    ((6, 1, 1), 5, 7, "partitions of the 6 x 1 rectangle"),
    # 14 block shapes; one of 3 blocks has 3^3 = 27 multipartitions
    ((2, 3, 1), 20, 27, "multipartitions"),
], ids=["args0-5-partitions of the 6 x 1 rectangle",
        "args1-20-multipartitions"])
def test_generalized_checks_each_block_shape(args, cap, count, what):
    with limits.overridden({"enum_cap": cap}):
        with pytest.raises(LimitExceeded) as info:
            verify_generalized_duality(*args)
    assert str(info.value) == ("sweep would list at least %d %s, above "
                               "enum_cap %d" % (count, what, cap))


def test_generalized_without_block_sizes_is_empty(monkeypatch, capsys):
    # size_bound < 1 admits no block shape, whatever r_max: no symbol
    # sequence may be listed
    from howekit.cli import dispatch

    def listing(*args, **kwargs):
        raise AssertionError("listed block shapes")
    monkeypatch.setattr(itertools, "product", listing)
    for size_bound in (0, -1):
        rep = verify_generalized_duality(1, 10 ** 9, size_bound)
        assert (rep["cells"], rep["failures"]) == (0, [])
    rc = dispatch(["verify-generalized", "--n", "1", "--r", "1000000000",
                   "--size-bound", "0"])
    rep = json.loads(capsys.readouterr().out)
    assert (rc, rep["cells"], rep["failures"]) == (0, 0, [])


@pytest.mark.parametrize("entry, checks", [
    (lambda spec, mu: char_product(mu, spec, 2), 1),
    (lambda spec, mu: branching_coefficient((1, 1, 0), spec, mu), 1),
    (lambda spec, mu: multiplicity_char_route(
        (1,), spec.symbols, spec.sizes, mu, 2), 1),
    # mu itself, then its hat against the reversed spec inside
    # branching_coefficient
    (lambda spec, mu: multiplicity_branch_route(
        (1,), spec.symbols, spec.sizes, mu, 2), 2),
], ids=["char_product", "branching_coefficient", "char_route",
        "branch_route"])
def test_block_sizes_have_one_check(monkeypatch, entry, checks):
    # the same bad multipartition gives one message from every entry point
    spec = DiagramSpec("CA", (1, 2))
    with pytest.raises(ValueError, match=r"^multipartition blocks \(2, 1\) "
                       r"do not match spec sizes \(1, 2\)$"):
        entry(spec, MultiPartition([[1], [1]], (2, 1)))
    seen = []
    check = DiagramSpec.check_blocks
    monkeypatch.setattr(DiagramSpec, "check_blocks",
                        lambda self, mu: seen.append(mu) or check(self, mu))
    entry(spec, MultiPartition([[1], [1]], (1, 2)))
    assert len(seen) == checks
