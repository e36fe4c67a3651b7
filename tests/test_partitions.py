"""Partitions, the hat complement, and multipartition plumbing."""

import itertools

import pytest

from howekit import (MultiPartition, Partition, conjugate, enumerate_rectangle,
                     hat, hat_multi, mu_of_n)
from howekit.partitions import (check_weight, involution_I, reduce_column_full)


def rect(n, m):
    return list(enumerate_rectangle(n, m))


def test_normalization_and_equality():
    assert Partition([3, 2, 0]) == Partition([3, 2]) == (3, 2)
    assert hash(Partition([3, 2, 0])) == hash(Partition([3, 2]))
    assert len(Partition([3, 2, 0])) == 3  # stored length survives
    assert Partition([3, 2, 0]).stripped() == (3, 2)
    assert Partition(()).size() == 0
    assert Partition([4, 1]).size() == 5
    assert Partition([4, 1]).length() == 2
    assert Partition([2, 1]).padded(4) == (2, 1, 0, 0)


def test_rejects_bad_parts():
    with pytest.raises(ValueError):
        Partition([1, 2])
    with pytest.raises(ValueError):
        Partition([2, -1])


def test_fits_in():
    assert Partition([3, 2]).fits_in(2, 3)
    assert not Partition([3, 2]).fits_in(1, 3)
    assert not Partition([4]).fits_in(2, 3)
    assert Partition(()).fits_in(0, 0)


def test_conjugate_pinned_value():
    assert conjugate(Partition([5, 4, 2, 1])) == (4, 3, 2, 2, 1)


def test_conjugate_involution_and_transpose_counts():
    for lam in rect(4, 4):
        assert conjugate(conjugate(lam)) == lam
        c = conjugate(lam)
        assert c.size() == lam.size()
        # column heights really are the transpose
        for j in range(1, (lam[0] if len(lam.stripped()) else 0) + 1):
            assert c[j - 1] == sum(1 for x in lam if x >= j)


def test_hat_pinned_value():
    assert hat(Partition([5, 4, 2, 1]), 4, 5) == (3, 2, 2, 1, 0)


def test_hat_involution_and_size():
    for n in range(1, 5):
        for m in range(1, 5):
            for lam in rect(n, m):
                h = hat(lam, n, m)
                assert h.fits_in(m, n)
                assert h.size() == n * m - lam.size()
                assert hat(h, m, n) == lam


def test_hat_outside_rectangle():
    with pytest.raises(ValueError):
        hat(Partition([5, 1]), 2, 3)


def test_enumerate_rectangle_order_and_count():
    import math
    got = rect(2, 2)
    assert got == [(), (1,), (1, 1), (2,), (2, 1), (2, 2)]
    for n in range(4):
        for m in range(4):
            lams = rect(n, m)
            assert len(lams) == math.comb(n + m, n)
            assert lams == sorted(lams)
            assert len(set(lams)) == len(lams)


def test_enumerate_rectangle_walks_tall_rectangles():
    # 1500 rows are deeper than the recursion limit; the walk keeps its
    # own stack and still lists the 1501 partitions in lex order
    lams = rect(1500, 1)
    assert len(lams) == 1501
    assert lams[:3] == [(), (1,), (1, 1)] and lams[-1] == (1,) * 1500
    # the bound check runs at the call, not at the first next
    with pytest.raises(ValueError, match="nonnegative"):
        enumerate_rectangle(-1, 2)


def test_involution_pinned_value():
    assert involution_I((3, 1, 1, 1, 2, 2, 1)) == (-1, -2, -2, -1, -1, -1, -3)
    assert involution_I(involution_I((0, -2, 5))) == (0, -2, 5)


def test_reduce_column_full():
    assert reduce_column_full(Partition([3, 3, 2]), 3) == (2,)
    assert len(reduce_column_full(Partition([3, 3, 2]), 3)) == 3
    with pytest.raises(ValueError):
        reduce_column_full(Partition([4]), 3)


def test_check_weight():
    assert check_weight((1, -2), 2) == (1, -2)
    with pytest.raises(ValueError):
        check_weight((1, 2, 3), 2)


def test_multipartition_basics():
    mu = MultiPartition([[2, 1], [1]], blocks=[2, 1])
    assert mu == MultiPartition([[2, 1, 0], [1]], blocks=[2, 1])
    assert hash(mu) == hash(MultiPartition([[2, 1, 0], [1]], blocks=[2, 1]))
    assert mu.flatten() == (2, 1, 1)
    assert mu.total_size() == 4
    assert len(mu) == 2


@pytest.mark.parametrize("blocks, message", [
    ([1, 2], "^needs one block size per component$"),
    ([0], r"^block sizes must be positive: \(0,\)$"),
])
def test_multipartition_rejects_bad_blocks(blocks, message):
    with pytest.raises(ValueError, match=message):
        MultiPartition([[1]], blocks)


def test_hat_multi_pinned_example():
    mu = MultiPartition([[2, 1, 1], [2], [3, 2]], blocks=[2, 2, 3])
    h = hat_multi(mu, 3)
    assert h == MultiPartition([[2, 1, 1], [2, 2], [2]], blocks=[3, 2, 2])
    assert h.blocks == (3, 2, 2)
    # flattened form agrees with I(conjugate concatenation) + n*(1,...,1)
    assert h.flatten() == (2, 1, 1, 2, 2, 2, 0)


def test_mu_of_n_pinned_examples():
    h = MultiPartition([[2, 1, 1], [2, 2], [2]], blocks=[3, 2, 2])
    assert mu_of_n(h, 3) == MultiPartition([[2, 1, 1], [2], [3, 2]],
                                           blocks=[2, 2, 3])
    assert mu_of_n(h, 5) == MultiPartition(
        [[2, 2, 2, 1, 1], [2, 2, 2], [3, 3, 3, 2]], blocks=[2, 2, 3])


def test_mu_of_n_grows_by_full_rows():
    # raising n by one prepends one part of size m_j to component j
    h = MultiPartition([[2, 1], [1]], blocks=[2, 1])
    for n in range(2, 5):
        small = mu_of_n(h, n)
        big = mu_of_n(h, n + 1)
        for comp_s, comp_b, b in zip(small.components, big.components,
                                     small.blocks):
            assert comp_b.stripped() == tuple(
                sorted(comp_s.stripped() + (b,), reverse=True))


def test_hat_multi_round_trip():
    for n in (1, 2, 3):
        for blocks in [(1,), (2,), (1, 2), (2, 2)]:
            pools = [rect(n, b) for b in blocks]
            for comps in itertools.product(*pools):
                mu = MultiPartition(comps, blocks)
                h = hat_multi(mu, n)
                assert tuple(reversed(h.blocks)) == blocks
                assert mu_of_n(h, n) == mu
