"""Vector partition functions, weight multiplicities, branching coefficients.

The memoized counters are checked against a straightforward depth-first
enumeration of nonnegative root combinations, so the two routes share no
code.
"""

import functools
import itertools

import pytest

from howekit import (DiagramSpec, HowekitError, LimitExceeded,
                     MultiPartition, Partition, branching_coefficient,
                     kostant_partition, restricted_partition,
                     twisted_partition_C, weight_multiplicity,
                     weyl_character)
from howekit import limits, partfn
from howekit.partitions import involution_I
from howekit.weyl import (MAX_RANK, WeylElement, enumerate_weyl,
                          positive_roots, rho, sign)


def brute(roots, beta):
    """Bounded exhaustive count, assuming small beta.  A branch stops once
    its residual has negative height <., (m, ..., 1)>, which every positive
    root of C_m has positive, or is nonzero where no root left touches."""
    roots = list(roots)
    bound = sum(abs(x) for x in beta) + 1
    hv = range(len(beta), 0, -1)
    untouched = [[not any(r[i] for r in roots[idx:]) for i in range(len(beta))]
                 for idx in range(len(roots) + 1)]

    def rec(idx, residual):
        if all(x == 0 for x in residual):
            return 1
        if any(x and u for x, u in zip(residual, untouched[idx])):
            return 0
        total = 0
        for k in range(bound + 1):
            nxt = tuple(a - k * b for a, b in zip(residual, roots[idx]))
            if sum(a * h for a, h in zip(nxt, hv)) < 0:
                break
            total += rec(idx + 1, nxt)
        return total

    return rec(0, tuple(beta))


def test_kostant_pinned_values():
    roots = positive_roots(("C", 2))
    assert kostant_partition(roots, (2, 0)) == 3
    assert kostant_partition(roots, (0, 0)) == 1
    assert kostant_partition(roots, (-1, 0)) == 0
    assert kostant_partition(roots, (1, 1)) == 2


@pytest.mark.parametrize("roots, beta, value, memo", [
    (positive_roots(("C", 4)), (4, 3, 2, 1), 17448, 134),
    (positive_roots(("C", 5)), (3, 0, 2, -1, 1), 0, 105),
    (positive_roots(("A", 6)), (3, 1, 0, -1, -1, -2), 1143, 77),
    (DiagramSpec("CA", (2, 2)).complement_roots(), (2, 1, 1, 0), 25, 24),
], ids=["C4", "C5", "A6", "CA22"])
def test_fresh_counter_value_and_memo_size(roots, beta, value, memo):
    # the memo holds one entry per residual reached (the empty one
    # included), whatever order the peel walks its slots in
    counter = partfn._Counter(roots, len(beta))
    assert counter.count(beta) == value
    assert len(counter.memo) == memo


def test_kostant_against_bounded_search():
    # each shift d_j of the peel is >= 0 only (type A), <= 0 only (inside
    # an A block of a complement), free (C, and across blocks) or fixed
    # (inside a C block), with 2e_i (C, A blocks) and without (A, C blocks)
    cases = [(positive_roots(id), id[1], span)
             for id, span in ((("A", 3), 4), (("C", 2), 4), (("C", 3), 3),
                              (("A", 5), 2))]
    cases += [(DiagramSpec(symbols, sizes).complement_roots(), total, span)
              for total, span in ((1, 4), (2, 4), (3, 3))
              for r in range(1, total + 1)
              for sizes in itertools.product(range(1, total + 1), repeat=r)
              if sum(sizes) == total
              for symbols in itertools.product("AC", repeat=r)]
    for roots, m, span in cases:
        for beta in itertools.product(range(-1, span), repeat=m):
            assert kostant_partition(roots, beta) == brute(roots, beta), \
                (roots, beta)


def test_kostant_takes_subsets_of_positive_roots_only():
    for roots in ([(1, 0), (0, 1)], [(1, 1, 0), (1, -1)], [(-1, 1)],
                  [(2, 0), (2, 0)], [(0, 0)]):
        with pytest.raises(ValueError):
            kostant_partition(roots, (0, 0))
    for beta in ((), (0,), (0, 0, 0), (1,), (0, -1), (2, 0)):
        assert kostant_partition([], beta) == (0 if any(beta) else 1)


def test_kostant_shift_bound_raises_before_any_peel(monkeypatch):
    # the first coordinate of C_2 at (2, 0) shifts by d in -2..2: 5 ways
    peels = []
    count = partfn._Counter.count
    monkeypatch.setattr(partfn._Counter, "count",
                        lambda self, beta: peels.append(beta)
                        or count(self, beta))
    with pytest.raises(LimitExceeded, match=" 40754369 ways, above "
                       "enum_cap 10000000$"):
        kostant_partition(positive_roots(("C", 8)), (20,) + (0,) * 7)
    roots = positive_roots(("C", 2))
    with limits.overridden({"enum_cap": 4}), pytest.raises(LimitExceeded):
        kostant_partition(roots, (2, 0))
    assert peels == []
    with limits.overridden({"enum_cap": 5}):
        assert kostant_partition(roots, (2, 0)) == 3
    assert peels[0] == (2, 0)


def test_twisted_is_involution_composed():
    assert twisted_partition_C((0, -2), 2) == 3
    roots = positive_roots(("C", 2))
    for beta in itertools.product(range(-3, 3), repeat=2):
        assert twisted_partition_C(beta, 2) == \
            kostant_partition(roots, involution_I(beta))


def test_restricted_partition_drops_block_roots():
    spec = DiagramSpec("CA", (1, 1))
    comp = spec.complement_roots()
    full = positive_roots(("C", 2))
    assert set(comp) < set(full)
    for beta in itertools.product(range(0, 4), repeat=2):
        assert restricted_partition(spec, beta) == brute(comp, beta)
    # removing roots can only decrease the count
    for beta in itertools.product(range(0, 3), repeat=2):
        assert restricted_partition(spec, beta) <= \
            kostant_partition(full, beta)


def test_weight_multiplicity_basics():
    assert weight_multiplicity(("C", 2), (1, 1), (1, 1)) == 1
    assert weight_multiplicity(("C", 2), (1, 1), (0, 0)) == 1
    assert weight_multiplicity(("C", 2), (2, 0), (0, 0)) == 2
    assert weight_multiplicity(("A", 2), (2, 1), (1, 2)) == 1
    # the highest weight always has multiplicity one
    for lam in [(3, 1), (2, 2), (4, 0)]:
        assert weight_multiplicity(("C", 2), lam, lam) == 1


def test_weight_multiplicity_weyl_invariance():
    lam = (2, 1)
    base = {}
    for mu in itertools.product(range(-2, 3), repeat=2):
        base[mu] = weight_multiplicity(("C", 2), lam, mu)
    for mu, k in base.items():
        for smu in itertools.permutations(mu):
            for signs in itertools.product((1, -1), repeat=2):
                other = tuple(s * x for s, x in zip(signs, smu))
                assert base.get(other, k) == k


def test_weight_multiplicity_matches_character():
    for lam in [(1, 0), (1, 1), (2, 1), (2, 2)]:
        ch = weyl_character(lam, "C", 2)
        for exp, coef in ch.terms.items():
            assert weight_multiplicity(("C", 2), lam, exp) == coef


def test_weight_multiplicity_rejects_non_dominant():
    with pytest.raises(ValueError):
        weight_multiplicity(("C", 2), (1, 2), (0, 0))
    with pytest.raises(ValueError):
        weight_multiplicity(("C", 2), (1, -1), (0, 0))


def test_diagram_spec_needs_a_block():
    with pytest.raises(ValueError, match="^at least one block required$"):
        DiagramSpec("", ())


def test_branching_trivial_spec():
    # the whole algebra as a single C block: restriction is the identity
    spec = DiagramSpec("C", (2,))
    for kappa in [(0, 0), (1, 0), (1, 1), (2, 1)]:
        nu = MultiPartition([Partition(kappa)], blocks=[2])
        assert branching_coefficient(Partition(kappa), spec, nu) == 1
        other = MultiPartition([Partition((3, 3))], blocks=[2])
        assert branching_coefficient(Partition(kappa), spec, other) == 0


def test_branching_to_cartan_is_weight_multiplicity():
    # gl_1 x gl_1 blocks contribute no roots, so restriction to them just
    # reads off weight spaces of sp_4
    spec = DiagramSpec("AA", (1, 1))
    lam = Partition((2, 1))
    ch = weyl_character((2, 1), "C", 2)
    for a in range(0, 4):
        for b in range(0, 4):
            nu = MultiPartition([[a], [b]], blocks=[1, 1])
            assert branching_coefficient(lam, spec, nu) == \
                ch.coefficient((a, b)), (a, b)


def test_branching_block_mismatch():
    spec = DiagramSpec("CA", (1, 1))
    nu = MultiPartition([[1], [1]], blocks=[1, 2])
    with pytest.raises(ValueError):
        branching_coefficient(Partition((1,)), spec, nu)


@functools.cache
def weyl_terms(id):
    """(eps(w), w) for every w in W, w as the (input index, sign) pair of
    each output coordinate, so that w(v) needs no validation."""
    return [(sign(w), tuple((p - 1, s) for p, s in zip(w.perm, w.signs)))
            for w in enumerate_weyl(id)]


def unpruned_sum(count, id, shifted, target):
    """sum_w eps(w) count(w(shifted) - target) over all of W, no term
    skipped."""
    return sum(eps * count(tuple(s * shifted[p] - t
                                 for (p, s), t in zip(w, target)))
               for eps, w in weyl_terms(id))


def unpruned_branching(kappa, spec, nu_vec, count):
    """The alternating sum over all of W(C_m), count being the partition
    function of spec's complement roots."""
    m = spec.total()
    r = rho(("C", m))
    shifted = tuple(a + b for a, b in zip(kappa.padded(m), r))
    target = tuple(a + b for a, b in zip(nu_vec, r))
    return unpruned_sum(count, ("C", m), shifted, target)


def partitions_in_box(rows, cols):
    return [Partition(p) for p in itertools.product(range(cols, -1, -1),
                                                    repeat=rows)
            if list(p) == sorted(p, reverse=True)]


def test_branching_pruned_sum_matches_unpruned():
    specs = [DiagramSpec(symbols, sizes)
             for r in (1, 2)
             for symbols in itertools.product("AC", repeat=r)
             for sizes in itertools.product((1, 2), repeat=r)]
    # the whole of sp_4 as one C block leaves no complement roots
    assert DiagramSpec("C", (2,)) in specs
    assert DiagramSpec("C", (2,)).complement_roots() == ()
    for spec in specs:
        m = spec.total()
        count = partfn._Counter(spec.complement_roots(), m).count
        multis = [MultiPartition(parts, blocks=spec.sizes)
                  for parts in itertools.product(
                      *(partitions_in_box(k, 1) for k in spec.sizes))]
        # every sign pattern: non-dominant, with negative entries
        raws = list(itertools.product((-1, 1), repeat=m))
        for kappa in partitions_in_box(min(m, 2), 2):
            for nu in multis + raws:
                vec = nu.flatten() if isinstance(nu, MultiPartition) else nu
                want = unpruned_branching(kappa, spec, vec, count)
                if want < 0:
                    with pytest.raises(HowekitError):
                        branching_coefficient(kappa, spec, nu)
                else:
                    assert branching_coefficient(kappa, spec, nu) == want, \
                        (spec, kappa, nu)


def unpruned_weight_multiplicity(id, lam, mu, count):
    """Kostant's alternating sum over all of W, no term skipped, count
    being the partition function of id's positive roots."""
    r = rho(id)
    return unpruned_sum(count, id, tuple(a + b for a, b in zip(lam, r)),
                        tuple(a + b for a, b in zip(mu, r)))


def test_weight_multiplicity_pruned_sum_matches_unpruned():
    for id, part_max, span in ((("A", 1), 3, 3), (("A", 2), 3, 3),
                               (("A", 3), 2, 2), (("C", 1), 3, 3),
                               (("C", 2), 3, 3)):
        m = id[1]
        count = partfn._Counter(positive_roots(id), m).count
        # every mu in the box, non-dominant and negative entries included
        mus = list(itertools.product(range(-span, span + 1), repeat=m))
        nonzero = 0
        for lam in partitions_in_box(m, part_max):
            vec = lam.padded(m)
            for mu in mus:
                want = unpruned_weight_multiplicity(id, vec, mu, count)
                assert weight_multiplicity(id, lam, mu) == want, (id, lam, mu)
                nonzero += want != 0
        assert nonzero > len(mus) // 4, id


def test_weight_multiplicity_rank_cap():
    m = MAX_RANK["A"] + 1
    with pytest.raises(LimitExceeded,
                       match="^rank 11 above enumeration cap for type A$"):
        weight_multiplicity(("A", m), Partition((1,)), (1,) + (0,) * (m - 1))


def test_branching_rank_cap_before_any_count(monkeypatch):
    # the Weyl sum at C_12 would walk 2^12 12! signed permutations
    counts = []
    monkeypatch.setattr(partfn._Counter, "count",
                        lambda self, beta: counts.append(beta))
    with pytest.raises(LimitExceeded,
                       match="^rank 12 above enumeration cap for type C$"):
        branching_coefficient(Partition((3, 2, 1)), DiagramSpec("A", (12,)),
                              (0,) * 12)
    assert counts == []


def test_moves_list_every_choice_with_its_parity():
    for m in range(1, 5):
        moves = partfn._moves(m)
        assert sorted(moves) == sorted(
            free for size in range(m + 1)
            for free in itertools.combinations(range(m), size))
        for free, choices in moves.items():
            # taking j passes the smaller unplaced coordinates
            assert choices == [(j, tuple(x for x in free if x != j),
                                sum(x < j for x in free) % 2) for j in free]
        for perm in itertools.permutations(range(m)):
            free, odd = tuple(range(m)), 0
            for j in perm:
                (rest, parity), = [(r, p) for k, r, p in moves[free]
                                   if k == j]
                free, odd = rest, odd + parity
            assert free == ()
            assert sign(WeylElement([j + 1 for j in perm])) == (-1) ** odd


def negative_at_zero(monkeypatch):
    # -1 at the zero vector alone: lam = mu makes the identity term the one
    # negative term, since w(lam + rho) = lam + rho only for w = 1
    monkeypatch.setattr(partfn._Counter, "count",
                        lambda self, beta: 0 if any(beta) else -1)


@pytest.mark.parametrize("call, args, message", [
    (weight_multiplicity, (("C", 2), (1, 0), (1, 0)),
     "negative weight multiplicity for (1, 0), (1, 0)"),
    (weight_multiplicity, (("A", 2), Partition((2, 1)), (2, 1)),
     "negative weight multiplicity for (2, 1), (2, 1)"),
    (branching_coefficient, (Partition((1,)), DiagramSpec("AA", (1, 1)),
                             MultiPartition([[1], []], blocks=[1, 1])),
     "negative branching coefficient for (1, 0)"),
], ids=["weight-C", "weight-A", "branching"])
def test_negative_sum_raises(monkeypatch, call, args, message):
    negative_at_zero(monkeypatch)
    with pytest.raises(HowekitError) as info:
        call(*args)
    assert str(info.value) == message
