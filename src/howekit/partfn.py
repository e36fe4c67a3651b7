"""Kostant partition functions, weight multiplicities, branching coefficients.

The partition function of a set of positive roots of C_m counts
expressions of a vector as a nonnegative integer combination of them.  It
is evaluated pointwise by peeling one coordinate at a time, memoized on the
residual vector; the generating series is never materialized.  On top of
it sit the alternating Weyl sums: Kostant's weight multiplicity formula
and the branching rule for block-diagonal subalgebras g_(X,k) of sp_2m.
"""

import itertools
from collections import defaultdict
from functools import cache, lru_cache
from math import comb
from operator import add, sub

from ._value import Value, check_weight
from .errors import HowekitError
from .partitions import Partition, MultiPartition, involution_I
from . import limits, weyl


class DiagramSpec(Value):
    """A block-diagonal subalgebra description: symbols in {A, C} + sizes.

    Block j occupies the coordinate range (K_{j-1}, K_j] of Z^m where
    K_j = k_1 + ... + k_j; an A block contributes the roots eps_i - eps_j
    inside its range, a C block the full type C positive system there.
    """

    __slots__ = ("symbols", "sizes")

    def __init__(self, symbols, sizes):
        symbols = tuple(str(s).upper() for s in symbols)
        sizes = check_weight(sizes)
        if len(symbols) != len(sizes):
            raise ValueError("one size per symbol required")
        if not symbols:
            raise ValueError("at least one block required")
        if any(s not in ("A", "C") for s in symbols):
            raise ValueError("symbols must be A or C: %r" % (symbols,))
        if any(k < 1 for k in sizes):
            raise ValueError("sizes must be positive: %r" % (sizes,))
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "sizes", sizes)

    def __repr__(self):
        return "DiagramSpec(%r, %r)" % (list(self.symbols), list(self.sizes))

    def total(self):
        return sum(self.sizes)

    def check_blocks(self, mu):
        """ValueError unless the multipartition mu has these block sizes."""
        if mu.blocks != self.sizes:
            raise ValueError("multipartition blocks %r do not match spec "
                             "sizes %r" % (mu.blocks, self.sizes))

    def reversed(self):
        return DiagramSpec(tuple(reversed(self.symbols)), tuple(reversed(self.sizes)))

    def block_ranges(self):
        """0-based half-open coordinate ranges, one per block."""
        return [(end - k, end) for k, end in
                zip(self.sizes, itertools.accumulate(self.sizes))]

    def block_roots(self):
        """The root subset R_(X,k) as vectors in Z^m."""
        m = self.total()
        return tuple((0,) * a + r + (0,) * (m - b)
                     for (a, b), sym in zip(self.block_ranges(), self.symbols)
                     for r in weyl.positive_roots((sym, b - a)))

    def complement_roots(self):
        """R^+(C_m) minus the block subset."""
        blocked = set(self.block_roots())
        return tuple(r for r in weyl.positive_roots(("C", self.total()))
                     if r not in blocked)


class _Counter:
    """The partition function of a fixed subset of R^+(C_m), one coordinate
    at a time (the flow-polytope recursion).

    The roots whose first nonzero coordinate is i are e_i - e_j, e_i + e_j
    (j > i) and 2e_i.  Taking a_j copies of e_i - e_j and b_j of e_i + e_j
    shifts coordinate j by d_j = a_j - b_j: d_j > 0 needs e_i - e_j in the
    set, d_j < 0 needs e_i + e_j.  What beta_i leaves after sum |d_j| must
    be an even 2k, spread over the f free slots (each j with both roots,
    and 2e_i) in C(k+f-1, f-1) ways.  The rest counts beta_{i+1..} + d over
    the roots that do not touch coordinate i, so the memo key is the
    residual alone: its length fixes the level.
    """

    def __init__(self, roots, m):
        self.memo = {(): 1}
        if roots and (len(set(roots)) < len(roots) or not set(
                weyl.positive_roots(("C", m))).issuperset(roots)):
            raise ValueError("%r is not a subset of R+(C_%d)" % (roots, m))
        signs = defaultdict(set)  # (i, j) -> r_j over r = e_i +- e_j, 2e_i
        for r in roots:
            nz = [k for k, x in enumerate(r) if x]
            signs[nz[0], nz[-1]].add(r[nz[-1]])
        # by residual length: whether each d_j may go below and above 0,
        # and the number of free slots; None where no root starts
        self.levels = {}
        for i in range(m):
            slots = tuple((1 in signs[i, j], -1 in signs[i, j])
                          for j in range(i + 1, m))
            free = sum(map(all, slots)) + ((i, i) in signs)
            idle = not free and not any(map(any, slots))
            self.levels[m - i] = None if idle else (slots, free)

    def count(self, beta):
        got = self.memo.get(beta)
        if got is not None:
            return got
        rest = beta[1:]
        total = 0
        level = self.levels[len(beta)]
        if level is None:
            if not beta[0]:
                total = self.count(rest)
        elif beta[0] >= 0:
            slots, free = level
            # entries: (shifted residual prefix, its sum, which stays >= 0 as
            # for every positive root, what beta_0 leaves after sum |d_j|)
            stack = [((), 0, beta[0])]
            while stack:
                prefix, partial, left = stack.pop()
                t = len(prefix)
                if t == len(rest):
                    k, odd = divmod(left, 2)
                    if not odd:
                        weight = comb(k + free - 1, free - 1) if free else not k
                        if weight:
                            total += weight * self.count(prefix)
                    continue
                x = rest[t]
                down, up = slots[t]
                lo = max(-left if down else 0, -partial - x)
                hi = left if up else 0
                stack.extend((prefix + (x + d,), partial + x + d, left - abs(d))
                             for d in range(lo, hi + 1))
        self.memo[beta] = total
        return total


@lru_cache(maxsize=None)
def _counter_for(roots, m):
    return _Counter(roots, m)


def kostant_partition(roots, beta):
    """Number of ways to write beta as a nonnegative combination of roots.

    roots must be distinct positive roots of one C_m (the type A roots
    e_i - e_j among them); any other list raises ValueError.  Before any
    peel, the shifts of the first coordinate are bounded by the lattice
    points of the u-dimensional cross-polytope of radius beta_1,
    sum_k C(u, k) C(beta_1, k) 2^k, u being the number of coordinates they
    may move; LimitExceeded is raised when that is above enum_cap.
    """
    roots = tuple(map(check_weight, roots))
    beta = check_weight(beta)
    m = len(roots[0]) if roots else len(beta)
    if len(beta) != m:
        raise ValueError("vector length mismatch")
    counter = _counter_for(roots, m)
    level = counter.levels.get(m)
    if level and beta[0] > 0:
        u = sum(map(any, level[0]))
        shifts = sum(comb(u, k) * comb(beta[0], k) << k for k in range(u + 1))
        limits.check("enum_cap", shifts, "kostant count of %r may shift its "
                     "first coordinate %d ways", beta)
    return counter.count(beta)


def twisted_partition_C(beta, m):
    """P-tilde(beta) = P(I(beta)) over the type C_m positive roots."""
    beta = check_weight(beta, m)
    return kostant_partition(weyl.positive_roots(("C", m)), involution_I(beta))


def restricted_partition(spec, beta):
    """Partition function over R^+(C_m) minus the block subset of spec."""
    beta = check_weight(beta, spec.total())
    return kostant_partition(spec.complement_roots(), beta)


@cache
def _moves(m):
    """Each increasing tuple free of unplaced coordinates of Z^m, mapped
    to [(j, rest, odd)] for j in free: rest is free without j, and odd
    whether taking j past the smaller ones adds an odd inversion count."""
    return {free: [(j, free[:i] + free[i + 1:], i & 1)
                   for i, j in enumerate(free)]
            for size in range(m + 1)
            for free in itertools.combinations(range(m), size)}


def _weyl_sum(count, shifted, target, signed):
    """sum_w eps(w) count(w(shifted) - target) over the Weyl group, for
    shifted = lam + rho (lam dominant) and target = mu + rho.

    w runs over the signed permutations if signed (type C; shifted is then
    positive), else over the plain ones.  count must vanish outside the
    cone spanned by the positive roots of A_{m-1} or C_m.  Every such root
    lies in {x : x_1 + ... + x_k >= 0 for all k}, so w is built one
    coordinate at a time, its sign carried along, and a prefix is cut as
    soon as a partial sum of the argument goes negative: every term it
    would reach has count 0.
    """
    moves = _moves(len(shifted))
    last = len(shifted) - 1
    total = 0
    # entries: (argument prefix, unplaced input coordinates, prefix sum,
    # sign); a coordinate of value v may come next where v >= low
    stack = [((), tuple(range(last + 1)), 0, 1)]
    while stack:
        arg, free, partial, eps = stack.pop()
        i = len(arg)
        t = target[i]
        low = t - partial
        if i == last:  # one coordinate left: count the leaves here
            v = shifted[free[0]]
            if v >= low:
                total += eps * count(arg + (v - t,))
            if signed and -v >= low:
                total -= eps * count(arg + (-v - t,))
            continue
        for j, rest, odd in moves[free]:
            v = shifted[j]
            if v >= low:
                e = -eps if odd else eps
                stack.append((arg + (v - t,), rest, v - low, e))
                if signed and -v >= low:
                    stack.append((arg + (-v - t,), rest, -v - low, -e))
    return total


def _plus_rho(v, id):
    return tuple(map(add, v, weyl.rho(id)))


def _kostant_sum(count, shifted, target, family, branching=False):
    """_weyl_sum of type family, a multiplicity: HowekitError if it is
    negative, naming lam = shifted - rho (and mu = target - rho)."""
    total = _weyl_sum(count, shifted, target, family == "C")
    if total < 0:
        lam, mu = (tuple(map(sub, v, weyl.rho((family, len(v)))))
                   for v in (shifted, target))
        raise HowekitError(
            "negative branching coefficient for %r" % (lam,) if branching
            else "negative weight multiplicity for %r, %r" % (lam, mu))
    return total


def weight_multiplicity(id, lam, mu):
    """Kostant's formula K_{lam,mu} = sum_w eps(w) P(w(lam+rho) - (mu+rho))."""
    family, m = weyl.check_id(id)
    lam = weyl.check_dominant(lam, id)
    mu = check_weight(mu, m)
    weyl.check_rank(id)
    return _kostant_sum(_counter_for(weyl.positive_roots(id), m).count,
                        _plus_rho(lam, id), _plus_rho(mu, id), family)


def branching_coefficient(kappa, spec, nu):
    """Multiplicity [V(kappa) : V^X_k(nu)] for the subalgebra g_(X,k).

    kappa is a dominant weight of sp_2m (a partition with at most m parts,
    m = sum of spec sizes); nu is a multipartition whose components are the
    dominant block weights, flattened to Z^m.

    The value is the pruned sum (see _weyl_sum) of
    eps(w) P(w(kappa+rho) - (nu+rho)) over the signed permutations w, P
    being the partition function of the complement roots.
    """
    m = spec.total()
    kappa = Partition(kappa).padded(m)
    if isinstance(nu, MultiPartition):
        spec.check_blocks(nu)
        nu_vec = nu.flatten()
    else:
        nu_vec = check_weight(nu, m)
    id = weyl.check_rank(("C", m))
    return _kostant_sum(_counter_for(spec.complement_roots(), m).count,
                        _plus_rho(kappa, id), _plus_rho(nu_vec, id), "C", True)
