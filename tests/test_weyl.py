"""Signed permutation groups, dot actions, root systems."""

import itertools

import pytest

from howekit import (LimitExceeded, Partition, WeylElement,
                     weight_multiplicity, weyl, weyl_character)
from howekit.weyl import (act, dot_delta_C, dot_rho, enumerate_weyl,
                          positive_roots, rho, sign)


def test_positive_roots_pinned():
    assert set(positive_roots(("C", 2))) == {(1, -1), (1, 1), (2, 0), (0, 2)}
    assert set(positive_roots(("A", 3))) == {(1, -1, 0), (1, 0, -1), (0, 1, -1)}


def test_positive_root_counts():
    for m in range(1, 5):
        assert len(positive_roots(("A", m))) == m * (m - 1) // 2
        assert len(positive_roots(("C", m))) == m * m


def test_group_orders_and_signs():
    import math
    for m in range(1, 5):
        wa = list(enumerate_weyl(("A", m)))
        wc = list(enumerate_weyl(("C", m)))
        assert len(wa) == math.factorial(m)
        assert len(wc) == math.factorial(m) * 2 ** m
        assert len(set(wa)) == len(wa)
        if m >= 2:
            assert sum(sign(w) for w in wa) == 0
            assert sum(sign(w) for w in wc) == 0


def test_act_compose_inverse():
    v = (5, -1, 2)
    for w in enumerate_weyl(("C", 3)):
        assert act(w.inverse(), act(w, v)) == v
        assert sorted(abs(x) for x in act(w, v)) == sorted(abs(x) for x in v)
    u = WeylElement((2, 1, 3), (1, 1, -1))
    w = WeylElement((3, 1, 2), (-1, 1, 1))
    assert act(u.compose(w), v) == act(u, act(w, v))
    assert sign(u.compose(w)) == sign(u) * sign(w)


def test_sign_matches_reflection_length():
    s = WeylElement((2, 1, 3))
    assert sign(s) == -1
    flip = WeylElement((1, 2, 3), (1, 1, -1))
    assert sign(flip) == -1
    assert sign(WeylElement((1, 2))) == 1


def test_rho():
    assert rho(("C", 3)) == (3, 2, 1)
    assert rho(("A", 3)) == (2, 1, 0)


def simple_reflection_A(i, m):
    perm = list(range(1, m + 1))
    perm[i - 1], perm[i] = perm[i], perm[i - 1]
    return WeylElement(tuple(perm))


def test_dot_rho_simple_reflection_formula():
    # s_i o beta swaps the adjacent entries with a unit shift
    m = 4
    for beta in itertools.product(range(-2, 3), repeat=m):
        for i in range(1, m):
            got = dot_rho(simple_reflection_A(i, m), beta, ("A", m))
            want = list(beta)
            want[i - 1], want[i] = beta[i] - 1, beta[i - 1] + 1
            assert got == tuple(want)


def test_dot_delta_simple_reflections():
    n, m = 2, 3
    for beta in itertools.product(range(-2, 4), repeat=m):
        for i in range(1, m):
            got = dot_delta_C(simple_reflection_A(i, m), beta, n, m)
            want = list(beta)
            want[i - 1], want[i] = beta[i] - 1, beta[i - 1] + 1
            assert got == tuple(want)
        # the sign flip in the last coordinate reflects around -n-m
        flip = WeylElement((1, 2, 3), (1, 1, -1))
        got = dot_delta_C(flip, beta, n, m)
        assert got[:2] == beta[:2]
        assert got[-1] == -beta[-1] + 2 * n + 2 * m


def test_dot_actions_are_group_actions():
    n, m = 2, 2
    beta = (3, -1)
    for u in enumerate_weyl(("C", m)):
        for w in enumerate_weyl(("C", m)):
            left = dot_delta_C(u.compose(w), beta, n, m)
            right = dot_delta_C(u, dot_delta_C(w, beta, n, m), n, m)
            assert left == right
            assert dot_rho(u.compose(w), beta, ("C", m)) == \
                dot_rho(u, dot_rho(w, beta, ("C", m)), ("C", m))


def test_check_id_rejects_garbage():
    with pytest.raises(ValueError):
        weyl.check_id(("B", 2))
    with pytest.raises(ValueError):
        weyl.check_id(("C", 0))


@pytest.mark.parametrize("call", [
    lambda fam, m: enumerate_weyl((fam, m)),
    lambda fam, m: weyl_character(Partition(()), fam, m),
    lambda fam, m: weight_multiplicity((fam, m), Partition(()), (0,) * m),
], ids=["enumerate_weyl", "weyl_character", "weight_multiplicity"])
@pytest.mark.parametrize("family", ["A", "C"])
def test_rank_cap_message(call, family):
    m = weyl.MAX_RANK[family] + 1
    with pytest.raises(LimitExceeded) as info:
        call(family, m)
    assert str(info.value) == ("rank %d above enumeration cap for type %s"
                               % (m, family))
