"""Star duality between column crystals and King tableaux."""

import hashlib
import itertools
import json

import pytest

from howekit import (HowekitError, KingElement, KingEntry, LimitExceeded,
                     MalformedTableau, Partition, TensorElement, enumerate_B,
                     enumerate_king_tableaux, hat, highest_weight_vertices,
                     is_king_tableau, is_semistandard, king_weight, limits,
                     star, star_inverse, tilde_expand,
                     verify_combinatorial_howe, weight_multiplicity)
from howekit.bicrystal import dilate, kappa, king_e, king_f
from howekit.duality import (_star_inverse_cols, king_tableaux_by_weight,
                             star_pairing)


def K(cols, m):
    return KingElement(cols, m)


def test_entry_order():
    # alphabet 1 < 1b < 2 < 2b < ...
    seq = [KingEntry(1), KingEntry(1, True), KingEntry(2), KingEntry(2, True)]
    assert seq == sorted(seq)
    assert str(KingEntry(3, True)) == "3b"
    assert KingEntry.from_str("2b") == KingEntry(2, True)
    assert KingEntry.from_str("4") == KingEntry(4)


def test_tilde_sets_pinned():
    # unbarred tilde set keeps i when neither i nor i-bar is in the column;
    # barred tilde set keeps i when both are present
    got = tilde_expand(TensorElement([(-3, -2, 4, 5)], 5))
    assert got == ((1, 4, 5), (4, 5))
    two = tilde_expand(TensorElement([(-1,), (1,)], 2))
    assert two == ((2,), (), (1, 2), (1,))


def test_star_pinned_two_column_example():
    b = TensorElement([(-3, -2, 4, 5), (-5, -2, -1, 1, 2, 4)], 5)
    assert star(b).to_json_obj() == [
        ["1", "2b"], ["2b"], ["2"], ["1", "1b", "2", "2b"], ["1", "1b"]]
    assert star_inverse(star(b), 5, 2) == b


def test_star_pinned_highest_weight_example():
    b = TensorElement([(-4, -3), (-2, -1, 1), (-4,)], 4)
    t = star(b)
    assert t.to_json_obj() == [["1", "2b", "3"], ["1", "3"], ["2", "3"], ["2"]]
    assert tuple(t.shape()) == (4, 3, 1)
    assert king_weight(t) == (3, 1, 2)
    assert is_king_tableau(t)
    assert star_inverse(t, 4, 3) == b


def test_star_single_barred_letter():
    # one length-one column: all n slots but the top one receive a 1
    b = TensorElement([(-5,)], 5)
    assert star(b).to_json_obj() == [["1"], ["1"], ["1"], ["1"], []]


def test_star_shape_and_weight_transport():
    # shapes go to hat(lam), weights to the reversed complement of heights
    n, m = 3, 2
    for mu_p in itertools.product(range(0, 2 * n + 1), repeat=m):
        for lam in [(0, 0, 0), (1, 1, 0), (2, 1, 1), (2, 2, 2)]:
            lam_p = Partition(lam)
            if not lam_p.fits_in(n, m):
                continue
            for b in highest_weight_vertices(mu_p, lam_p.padded(n), n):
                t = star(b)
                assert t.shape() == hat(lam_p, n, m)
                assert king_weight(t) == tuple(n - h for h in reversed(mu_p))


def test_star_is_a_bijection_small():
    n, m = 2, 2
    seen = {}
    for mu_p in itertools.product(range(0, 2 * n + 1), repeat=m):
        for lam in [(), (1,), (1, 1), (2,), (2, 1), (2, 2)]:
            lam_p = Partition(lam)
            if not lam_p.fits_in(n, m):
                continue
            vs = highest_weight_vertices(mu_p, lam_p.padded(n), n)
            kings = enumerate_king_tableaux(
                hat(lam_p, n, m), tuple(n - h for h in reversed(mu_p)), m)
            def canon(t):
                cols = t.to_json_obj()
                while cols and not cols[-1]:
                    cols.pop()
                return str(cols)

            images = sorted(canon(star(b)) for b in vs)
            assert images == sorted(canon(t) for t in kings), (mu_p, lam)
            for b in vs:
                assert star_inverse(star(b), n, m) == b


def test_king_tableau_judgments():
    # semistandard but with a first-row entry below the row index
    bad = K([[(1, False)], [(1, False)]], 2)
    assert is_semistandard(bad)
    assert is_king_tableau(bad)
    low = K([[(1, False), (1, True)]], 2)
    assert is_semistandard(low)
    assert not is_king_tableau(low)  # row 2 holds a barred 1
    jag = K([[(1, False), (2, True)], [(2, False)]], 2)
    assert is_king_tableau(jag)


def test_semistandard_rejects_what_is_not_a_tableau():
    # increasing heights: not semistandard, and not a tableau at all
    grown = K([[(1, False)], [(1, False), (2, False)]], 2)
    assert not is_semistandard(grown)
    with pytest.raises(MalformedTableau):
        is_king_tableau(grown)
    # row 1 weakly increases, row 2 does not (2b then 2)
    low = K([[(1, False), (2, True)], [(1, False), (2, False)]], 2)
    assert not is_semistandard(low)
    assert not is_king_tableau(low)


def test_king_weight_counts_entries():
    t = K([[(1, False), (2, True)], [(1, True)]], 2)
    # one 1 and one 1b cancel; a single 2b remains
    assert king_weight(t) == (-1, 0)


def test_malformed_columns():
    grown = K([[(1, False)], [(1, False), (2, False)]], 2)
    with pytest.raises(MalformedTableau):
        is_king_tableau(grown)
    with pytest.raises(HowekitError):
        K([[(1, False), (1, False)]], 2)
    with pytest.raises(HowekitError):
        K([[(3, False)]], 2)


def test_enumerate_king_tableaux_brute_force():
    # cross-check the enumerator against a direct filter over all fillings
    m = 2
    alphabet = [(v, b) for v in (1, 2) for b in (False, True)]

    def fillings(shape):
        cols = Partition(shape).conjugate().stripped()
        spots = sum(cols)
        for combo in itertools.product(alphabet, repeat=spots):
            out, i = [], 0
            for h in cols:
                out.append(list(combo[i:i + h]))
                i += h
            try:
                t = KingElement(out, m)
            except HowekitError:
                continue
            yield t

    for shape in [(1,), (2,), (1, 1), (2, 1)]:
        for weight in itertools.product(range(-2, 3), repeat=m):
            direct = [t for t in fillings(shape) if is_king_tableau(t)
                      and king_weight(t) == weight]
            fast = enumerate_king_tableaux(Partition(shape), weight, m)
            assert len(direct) == len(fast), (shape, weight)


def _king_fillings(shape, m):
    """Every filling of shape over the rank-m dual alphabet that passes
    is_king_tableau, in no particular order."""
    alphabet = [(v, b) for v in range(1, m + 1) for b in (False, True)]
    cols = Partition(shape).conjugate().stripped()
    for combo in itertools.product(alphabet, repeat=sum(cols)):
        out, i = [], 0
        for h in cols:
            out.append(list(combo[i:i + h]))
            i += h
        try:
            t = KingElement(out, m)
        except HowekitError:
            continue
        if is_king_tableau(t):
            yield t


def test_king_table_matches_brute_force():
    # oracle: a filter over all fillings of every shape of size <= 4 in an
    # m x 2 box; buckets are keyed by king_weight, and a wider n only pads
    for m in (1, 2, 3):
        for shape in [(1,), (2,), (1, 1), (2, 1), (1, 1, 1), (2, 2),
                      (2, 1, 1)]:
            if len(shape) > m:
                continue
            table = king_tableaux_by_weight(Partition(shape), m)
            for w, bucket in table.items():
                assert all(king_weight(t) == w for t in bucket)
            found = [t for bucket in table.values() for t in bucket]
            assert len(set(found)) == len(found)
            assert set(found) == set(_king_fillings(shape, m)), (m, shape)
            wide = king_tableaux_by_weight(Partition(shape), m, shape[0] + 1)
            assert wide == {w: [KingElement(t.columns + ((),), m)
                                for t in bucket]
                            for w, bucket in table.items()}
            for w, bucket in table.items():
                assert enumerate_king_tableaux(Partition(shape), w, m) == bucket


def test_king_enumerations_check_cap():
    # shape (2, 1) at m = 2 has comb(4, 2) * comb(4, 1) = 24 candidates
    shape = Partition((2, 1))
    with limits.overridden({"enum_cap": 23}):
        with pytest.raises(LimitExceeded, match="King enumeration size 24"):
            king_tableaux_by_weight(shape, 2)
        with pytest.raises(LimitExceeded, match="King enumeration size 24"):
            enumerate_king_tableaux(shape, (1, 2), 2)
    with limits.overridden({"enum_cap": 24}):
        assert len(enumerate_king_tableaux(shape, (1, 2), 2)) == 1


@pytest.mark.parametrize("call, message", [
    (lambda: king_tableaux_by_weight(Partition((1, 1)), 1),
     r"^shape Partition\(\[1, 1\]\) has more than 1 rows$"),
    (lambda: king_tableaux_by_weight(Partition((2,)), 1, 1),
     r"^shape Partition\(\[2\]\) is wider than 1 columns$"),
    (lambda: enumerate_king_tableaux(Partition((1,)), (1, 0), 1),
     r"^weight \(1, 0\) does not have 1 coordinates$"),
], ids=["rows", "columns", "weight"])
def test_king_enumerations_check_shape_and_weight(call, message):
    with pytest.raises(HowekitError, match=message):
        call()


def test_king_enumeration_rejects_rank_zero():
    # the same error as KingElement([], 0), which the table would hold
    message = "alphabet rank must be positive"
    with pytest.raises(HowekitError, match=message):
        KingElement([], 0)
    with pytest.raises(HowekitError, match=message):
        king_tableaux_by_weight(Partition(()), 0)
    with pytest.raises(HowekitError, match=message):
        enumerate_king_tableaux(Partition(()), (), 0)


def test_king_count_is_weight_multiplicity():
    for m in (1, 2):
        for shape in [(1,), (2,), (1, 1), (2, 2), (2, 1)]:
            lam = Partition(shape)
            if lam.length() > m:
                continue
            for weight in itertools.product(range(0, 3), repeat=m):
                if sorted(weight, reverse=True) != list(weight):
                    continue
                count = len(enumerate_king_tableaux(lam, weight, m))
                assert count == weight_multiplicity(("C", m),
                                                    lam.padded(m), weight)


def test_verify_combinatorial_howe_report():
    rep = verify_combinatorial_howe(2, 2, (2, 1), Partition((1,)))
    assert rep["ok"]
    assert all(len(pair) == 2 for pair in rep["pairs"])


def test_verify_combinatorial_howe_reports_a_failure(monkeypatch):
    # a star that sends every vertex to the first one's image: the second
    # vertex, [[-2, 2], [-2]], does not come back
    from howekit import duality
    real = duality.star
    first = TensorElement([(-2, -1), (1,)], 2)
    monkeypatch.setattr(duality, "star", lambda b: real(first))
    assert verify_combinatorial_howe(2, 2, (2, 1), Partition((1,))) == {
        "ok": False,
        "failure": {"element": [[-2, 2], [-2]],
                    "reason": "star not invertible"}}


def test_star_rejects_an_element_with_no_columns():
    with pytest.raises(HowekitError, match="at least one column"):
        star(TensorElement([], 2))
    # one empty column is an element with a column, and round trips
    b = TensorElement([()], 2)
    assert star_inverse(star(b), 2, 1) == b


def test_star_pairing_failure_paths():
    # B^hw_{(1),(1)} at n = 2 is the single column (2bar); its King
    # partner has shape hat(1) = (1) and weight (n - 1) = (1)
    b = TensorElement([(-2,)], 2)
    shape, weight = Partition((1,)), (1,)
    pairs, failure = star_pairing([b], shape, weight, 2, 1)
    assert failure is None and pairs == [(b, star(b))]
    assert star_pairing([b, b], shape, weight, 2, 1) == (
        None, {"reason": "star not injective"})
    assert star_pairing([], shape, weight, 2, 1) == (
        None, {"reason": "image set mismatch",
               "missing": [star(b).to_json_obj()]})
    # same sp_4 weight (1, 0), but a column of height 3 has King weight -1
    tall = TensorElement([(-2, -1, 1)], 2)
    assert star_pairing([tall], shape, weight, 2, 1) == (
        None, {"element": [[-2, -1, 1]], "reason": "weight mismatch"})


def test_star_pairing_checks_every_rank_before_enumerating(monkeypatch):
    # a wrong-rank vertex after a good one raises star_inverse's error
    # before any star or King enumeration
    from howekit import duality
    calls = []
    for name in ("star", "enumerate_king_tableaux", "king_tableaux_by_weight"):
        monkeypatch.setattr(duality, name,
                            lambda *a, name=name: calls.append(name))
    good, wide = TensorElement([(-2,)], 2), TensorElement([(-3,)], 3)
    with pytest.raises(HowekitError, match="^expected 2 columns, got 3$"):
        star_pairing([good, wide], Partition((1,)), (1,), 2, 1)
    assert calls == []


def test_combinatorial_howe_rejects_a_mismatched_m(monkeypatch):
    # two heights in mu' at m = 3 once gave a "star not invertible"
    # failure; it now raises, naming both numbers, before anything is built
    from howekit import duality
    calls = []
    for name in ("highest_weight_vertices", "star", "star_pairing",
                 "enumerate_king_tableaux", "hat"):
        monkeypatch.setattr(duality, name,
                            lambda *a, name=name: calls.append(name))
    with pytest.raises(HowekitError) as info:
        verify_combinatorial_howe(2, 3, (2, 1), (1,))
    assert str(info.value) == "mu_prime has 2 column heights, expected m = 3"
    assert calls == []


def test_king_json_round_trip():
    t = K([[(1, False), (2, True)], [(2, False)]], 2)
    assert KingElement.from_json_obj(t.to_json_obj(), 2) == t


def _all_elements(n, m):
    for mu_p in itertools.product(range(2 * n + 1), repeat=m):
        yield from enumerate_B(mu_p, n)


def _star_by_definition(b):
    # column i collects the x with i in ctilde_x, x = 1, 1b, 2, ...
    tilde = tilde_expand(b)
    return KingElement([[KingEntry.from_key(k) for k in range(1, len(tilde) + 1)
                         if i in tilde[k - 1]] for i in range(1, b.n + 1)],
                       len(b.columns))


def test_star_images_equal_validated_ones():
    # star against its definition, built through the public constructor,
    # and star_inverse against the element it came from
    for n in (1, 2):
        for m in (1, 2):
            for b in _all_elements(n, m):
                t = star(b)
                assert t == _star_by_definition(b)
                assert star_inverse(t, n, m) == b


def test_star_inverse_kernel_undoes_star():
    # the pairing checks the round trip on raw columns, through the
    # kernel under star_inverse; every element, not only highest weight
    for n in (1, 2):
        for m in (1, 2, 3):
            for b in _all_elements(n, m):
                t = star(b)
                cols = _star_inverse_cols(t.columns, n, m)
                assert cols == b.columns == star_inverse(t, n, m).columns


def test_star_inverse_keeps_the_rank_check():
    with pytest.raises(HowekitError, match="^rank must be positive$"):
        star_inverse(KingElement([], 1))
    # the pairing keeps star_inverse's column-count error: a rank-2 vertex
    # at n = 1 or n = 0 has two King columns
    b = TensorElement([(-2,)], 2)
    for n in (1, 0):
        with pytest.raises(HowekitError,
                           match="^expected %d columns, got 2$" % n):
            star_pairing([b], Partition((1,)), (1,), n, 1)


def test_star_inverse_checks_the_column_count():
    with pytest.raises(HowekitError, match="^expected 1 columns, got 2$"):
        star_inverse(KingElement([[1], [1]], 1), 1)


def test_star_inverse_keeps_every_letter():
    # the letter 3 has no column of b at m = 2: star_inverse raises the
    # constructor's error rather than drop it and return b = [[], [-1]],
    # whose star is not t
    t = KingElement([[(1, False), (3, False)]], 3)
    with pytest.raises(HowekitError,
                       match="^entry 3 outside the dual alphabet of rank 2$"):
        star_inverse(t, 1, 2)
    # an m below t.m that holds every letter inverts as at t.m
    t = KingElement([[1, 2]], 2)
    assert star_inverse(t, 1, 1) == star_inverse(KingElement([[1, 2]], 1))


def test_king_table_entries_equal_validated_ones(trusted_builds):
    reached, mismatches = trusted_builds
    shapes = [(), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1), (4,), (3, 1),
              (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    for m in (1, 2, 3):
        for shape in shapes:
            if len(shape) <= m:
                king_tableaux_by_weight(Partition(shape), m)
    assert mismatches == []
    assert ("duality", "king_tableaux_by_weight") in reached


def test_king_operator_images_equal_validated_ones(trusted_builds):
    reached, mismatches = trusted_builds
    for n in (1, 2):
        for m in (1, 2):
            ops = list(range(1, m + 1)) + [-j for j in range(1, m)]
            for b in _all_elements(n, m):
                t = star(b)
                for idx in ops:
                    king_f(idx, t), king_e(idx, t)
    assert mismatches == []
    assert ("duality", "star") in reached


def test_king_columns_hold_order_keys():
    # 2j - 1 for j, 2j for jbar, whatever spelling the letters came in
    t = K([[(1, False), (2, True)]], 2)
    assert t.columns == ((1, 4),)
    for same in (K([[1, 4]], 2), K([[KingEntry(1), KingEntry(2, True)]], 2)):
        assert same == t and hash(same) == hash(t)


@pytest.mark.parametrize("cols, message", [
    ([[5]], "entry 3 outside the dual alphabet of rank 2"),
    ([[0]], "order key must be >= 1, got 0"),
    ([[4, 3]], r"column \['2b', '2'\] is not strictly increasing"),
    # strings are spelled letters, not keys or pairs: from_json_obj reads them
    ([["10"]], "entry '10' is not a dual letter"),
    ([["12"]], "entry '12' is not a dual letter"),
    ([["1b2"]], "entry '1b2' is not a dual letter"),
    ([[None]], "entry None is not a dual letter"),
    ([[(1, False, 2)]], r"entry \(1, False, 2\) is not a dual letter"),
    ([[1.0]], "entry 1.0 is not a dual letter"),
    ([[True]], "entry True is not a dual letter"),
])
def test_king_column_rejects_bad_entries(cols, message):
    with pytest.raises(HowekitError, match=message):
        K(cols, 2)


def _json(x):
    return None if x is None else x.to_json_obj()


def _king_layer_records():
    for n in (1, 2):
        for m in (1, 2, 3):
            ops = list(range(1, m + 1)) + [-j for j in range(1, m)]
            for b in _all_elements(n, m):
                t = star(b)
                try:
                    king = is_king_tableau(t)
                except MalformedTableau as exc:
                    king = str(exc)
                yield [b.to_json_obj(), t.to_json_obj(), king_weight(t),
                       list(t.shape()), king,
                       [[_json(op(j, t)) for op in (king_e, king_f)]
                        + [_json(op(j, b)) for op in (kappa, dilate)]
                        for j in ops]]


def test_king_layer_digest():
    # star images, their weights, shapes and King property, and every
    # King operator and transported map on them, for n <= 2 and m <= 3
    text = json.dumps(list(_king_layer_records()), separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "4bde57e441b354c56cc349c21e48d678c24158338ce605d28f96d720995efa87")
