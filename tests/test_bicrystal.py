"""Contraction, dilatation, bar-complement jeu de taquin, charge."""

import itertools

import pytest

from howekit import (D_statistic, HowekitError, KingElement, Partition,
                     TensorElement, bar_complement, charge_king, crystal_e,
                     delta_count, dilate, dilate_fully, enumerate_B,
                     from_bar_complement, gamma_count, highest_weight_vertices,
                     is_highest_weight, jdt_bar, kappa, king_e, king_f, star,
                     statistics, to_lowest, weight_of)
from howekit.bicrystal import BarComplement, _min_offset, epsilon_string


def T(cols, n):
    return TensorElement(cols, n)


def test_king_operator_example():
    t = KingElement([[(1, True), (2, False)],
                     [(1, False), (1, True), (2, True)],
                     [(1, False), (2, False)]], 2)
    assert king_f(-1, t).to_json_obj() == [
        ["1b", "2"], ["1", "2", "2b"], ["1", "2"]]
    assert king_e(-1, t).to_json_obj() == [
        ["1b", "2"], ["1", "1b", "2b"], ["1", "1b"]]
    assert king_f(2, t).to_json_obj() == [
        ["1b", "2b"], ["1", "1b", "2b"], ["1", "2"]]
    assert king_e(1, t) is None
    assert king_e(2, t) is None
    assert king_f(1, t) is None


def test_king_operators_partial_inverses():
    t = KingElement([[(1, True), (2, False)],
                     [(1, False), (1, True), (2, True)],
                     [(1, False), (2, False)]], 2)
    for idx in (1, -1, 2):
        ft = king_f(idx, t)
        if ft is not None:
            assert king_e(idx, ft) == t
        et = king_e(idx, t)
        if et is not None:
            assert king_f(idx, et) == t


def test_contraction_single_column():
    b = T([(-4, -3, -2, 3)], 4)
    assert kappa(1, b) == T([(-4, -2)], 4)
    # the removed pair straddles the value whose barred copy disappears
    assert kappa(1, T([(-1, 1)], 1)) == T([()], 1)
    assert kappa(1, T([(-2, -1)], 2)) is None


def test_contraction_commuting_square():
    b = T([(-4, -3, -2, 3)], 4)
    eb = crystal_e(2, b)
    assert eb == T([(-4, -3, -2, 2)], 4)
    assert kappa(1, eb) == crystal_e(2, kappa(1, b)) == T([(-4, -3)], 4)


def test_contraction_commutes_everywhere_small():
    n, m = 2, 2
    for b in enumerate_B((2, 1), n):
        for j in range(1, m + 1):
            kb = kappa(j, b)
            for i in range(n):
                eb = crystal_e(i, b)
                left = kappa(j, eb) if eb is not None else None
                right = crystal_e(i, kb) if kb is not None else None
                assert left == right, (b, i, j)


def test_dilate_inverts_contraction():
    for b in enumerate_B((2,), 2):
        kb = kappa(1, b)
        if kb is None:
            continue
        candidates = []
        cur = kb
        d = dilate(1, cur)
        assert d is not None
        # dilation after contraction restores the original element
        assert kappa(1, d) == kb
    full = dilate_fully(T([(-1,)], 1))
    assert full == T([(-1,)], 1) or full.heights()[0] >= 1


def test_statistics_guards():
    empty = T([], 2)
    assert dilate_fully(empty) is empty
    b = T([(-2, -1), (1, 2)], 2)
    for j in (0, 2):
        with pytest.raises(HowekitError, match=r"^index %d outside 1\.\.1$"
                           % j):
            gamma_count(j, b)
    with pytest.raises(HowekitError, match=r"^D needs every column of "
                       r"height 2 \(weight zero\)$"):
        D_statistic(T([(-2, -1), (1,)], 2))


def test_bar_complement_pinned():
    b = T([(-3, 1, 5), (-5, -1, 2, 4, 5)], 5)
    bc = bar_complement(b)
    assert bc.to_json_obj() == [[-3], [-4, -3, -2], [-5, -1], [-3, -1]]
    assert from_bar_complement(bc) == b


def test_bar_complement_round_trip():
    for b in enumerate_B((2, 1), 2):
        assert from_bar_complement(bar_complement(b)) == b


def test_bar_complements_equal_validated_ones(trusted_builds):
    reached, mismatches = trusted_builds
    for n in (1, 2, 3):
        for m in (1, 2):
            for heights in itertools.product(range(2 * n + 1), repeat=m):
                for b in enumerate_B(heights, n):
                    from_bar_complement(bar_complement(b))
    assert mismatches == []
    assert reached >= {("bicrystal", "bar_complement"),
                       ("bicrystal", "from_bar_complement")}


@pytest.mark.parametrize("cols, n, message", [
    ([(1,), ()], 2, "^entry 1 is not a barred letter$"),
    ([(-1, -2), ()], 2, r"^column \(-1, -2\) is not strictly increasing$"),
    ([(-1,)], 2, "^expected an even number of columns$"),
    ([(), ()], 0, "^rank must be positive$"),
], ids=["unbarred", "decreasing", "odd", "rank"])
def test_bar_complement_constructor_checks(cols, n, message):
    with pytest.raises(HowekitError, match=message):
        BarComplement(cols, n)


@pytest.mark.parametrize("cols, message", [
    ([(-3,), ()], "^letter -3 outside the rank-2 alphabet$"),
    ([(0,), ()], "^letter 0 outside the rank-2 alphabet$"),
    ([(2, 1), ()], r"^column \(2, 1\) is not strictly increasing$"),
    ([(-1,), (-2, 1, 2)], "^entry 1 is not a barred letter$"),
], ids=["below", "zero", "decreasing-unbarred", "first-unbarred"])
def test_bar_complement_columns_are_checked_as_columns(cols, message):
    # each column passes check_column, then must hold barred letters only
    with pytest.raises(HowekitError, match=message):
        BarComplement(cols, 2)


def test_jdt_three_step_example():
    b = T([(-3, 1, 5), (-5, -1, 2, 4, 5)], 5)
    out = jdt_bar(1, b)
    assert bar_complement(out).to_json_obj() == \
        [[-3], [-4, -3], [-5, -2, -1], [-3, -1]]
    assert out == kappa(-1, b)


def test_jdt_second_pinned_example():
    b = T([(-4, -2, 1, 4, 5), (-5, -1, 1)], 5)
    assert bar_complement(b).to_json_obj() == \
        [[-4, -2], [-3, -2], [-5, -1], [-5, -4, -3, -2]]
    out = jdt_bar(1, b)
    assert out == T([(-4, -2, 1, 2, 4, 5), (-5, -2, -1, 1)], 5)
    assert out == kappa(-1, b)


def test_jdt_matches_dual_operator_small():
    n, m = 2, 2
    for b in enumerate_B((2, 1), n):
        assert jdt_bar(1, b) == kappa(-1, b), b


def test_gamma_count_reads_the_bar_complement_everywhere_small():
    # gamma_j is the minimal offset of cbar_{j+1} against cbar_jbar, the
    # columns 2j and 2j - 1 (from zero) of the public bar complement
    for n, m in itertools.product((1, 2, 3), repeat=2):
        for heights in itertools.product(range(2 * n + 1), repeat=m):
            for b in enumerate_B(heights, n):
                bc = bar_complement(b).columns
                for j in range(1, m):
                    assert gamma_count(j, b) == _min_offset(
                        bc[2 * j], bc[2 * j - 1]), (j, b)


def test_barred_contraction_skips_index_zero():
    # the index-zero operator is the one the barred contraction misses
    b = T([(), (1,)], 1)
    eb = crystal_e(0, b)
    assert eb == T([(), (-1,)], 1)
    assert kappa(-1, eb) is None
    kb = kappa(-1, b)
    assert kb == T([(1,), (-1, 1)], 1)
    assert crystal_e(0, kb) == T([(-1,), (-1, 1)], 1)


def test_delta_count_is_height_defect():
    n = 2
    for col in itertools.combinations([-2, -1, 1, 2], n):
        b = T([col], n)
        d = delta_count(1, b)
        assert d % 2 == 0
        # contracting d/2 times lands on an admissible column
        cur = b
        for _ in range(d // 2):
            cur = kappa(1, cur)
        assert kappa(1, cur) is None
    with pytest.raises(HowekitError):
        delta_count(1, T([(-2,)], 2))


def test_delta_count_rejects_column_indices_outside_range():
    b = T([(-2, -1), (1, 2)], 2)
    for j in (0, -1, 3):
        with pytest.raises(HowekitError, match="index %d outside 1..2" % j):
            delta_count(j, b)


def test_charge_and_D_agree_on_weight_zero():
    n, m = 2, 2
    zero = Partition(()).padded(n)
    found = 0
    for b in highest_weight_vertices((n,) * m, zero, n):
        st = statistics(b)
        assert st["D"] == st["charge"]
        assert st["D"] == D_statistic(b)
        assert st["charge"] == charge_king(star(b))
        assert all(d % 2 == 0 for d in st["delta"])
        assert len(st["gamma"]) == m - 1
        found += 1
    assert found > 0


def test_charge_rejects_nonzero_weight():
    t = star(T([(-1,)], 2))
    with pytest.raises(HowekitError):
        charge_king(t)


def test_to_lowest_kills_f_strings():
    t = star(highest_weight_vertices((2, 2), Partition(()).padded(2), 2)[0])
    low = to_lowest(t)
    for j in (1, 2):
        assert king_f(j, low) is None
        assert epsilon_string(j, low) >= 0
