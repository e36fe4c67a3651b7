"""Kostant partition functions, weight multiplicities, branching coefficients.

The partition function of a root list counts expressions of a vector as a
nonnegative integer combination of the listed roots.  It is evaluated
pointwise by memoized dynamic programming; the generating series is never
materialized.  On top of it sit the alternating Weyl sums: Kostant's weight
multiplicity formula and the branching rule for block-diagonal subalgebras
g_(X,k) of sp_2m.
"""

from functools import lru_cache
from operator import sub

from ._value import Value
from .errors import HowekitError, LimitExceeded
from .partitions import Partition, MultiPartition, check_weight, involution_I
from . import weyl


class DiagramSpec(Value):
    """A block-diagonal subalgebra description: symbols in {A, C} + sizes.

    Block j occupies the coordinate range (K_{j-1}, K_j] of Z^m where
    K_j = k_1 + ... + k_j; an A block contributes the roots eps_i - eps_j
    inside its range, a C block the full type C positive system there.
    """

    __slots__ = ("symbols", "sizes")

    def __init__(self, symbols, sizes):
        symbols = tuple(str(s).upper() for s in symbols)
        sizes = tuple(int(k) for k in sizes)
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

    def reversed(self):
        return DiagramSpec(tuple(reversed(self.symbols)), tuple(reversed(self.sizes)))

    def block_ranges(self):
        """0-based half-open coordinate ranges, one per block."""
        out = []
        start = 0
        for k in self.sizes:
            out.append((start, start + k))
            start += k
        return out

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


def _height_vector(m):
    # <., rho_C> is strictly positive on every positive root of C_m
    return tuple(range(m, 0, -1))


class _Counter:
    """Memoized DP for one fixed root list."""

    def __init__(self, roots):
        if not roots:
            self.m = None
            self.roots = ()
            return
        self.m = len(roots[0])
        hv = _height_vector(self.m)
        heights = []
        for r in roots:
            h = sum(a * b for a, b in zip(r, hv))
            if h <= 0:
                raise ValueError("root %r has nonpositive height" % (r,))
            heights.append(h)
        order = sorted(range(len(roots)), key=lambda i: (-heights[i], roots[i]))
        self.roots = tuple(roots[i] for i in order)
        self.heights = tuple(heights[i] for i in order)
        self.hv = hv
        self.memo = {}

    def count(self, beta):
        if self.m is None:
            return 1 if all(x == 0 for x in beta) else 0
        if len(beta) != self.m:
            raise ValueError("vector length mismatch")
        beta = tuple(beta)
        h = sum(a * b for a, b in zip(beta, self.hv))
        if h < 0:
            return 0
        return self._count(0, beta, h)

    def _count(self, idx, residual, h):
        # h is the height of residual (>= 0); the height is linear, so each
        # copy of roots[idx] taken off lowers it by heights[idx]
        if h == 0:
            return 1 if not any(residual) else 0
        if idx == len(self.roots):
            return 0
        key = (idx, residual)
        got = self.memo.get(key)
        if got is not None:
            return got
        root = self.roots[idx]
        step = self.heights[idx]
        total = self._count(idx + 1, residual, h)
        h -= step
        while h >= 0:
            residual = tuple(map(sub, residual, root))
            total += self._count(idx + 1, residual, h)
            h -= step
        self.memo[key] = total
        return total


@lru_cache(maxsize=None)
def _counter_for(roots):
    return _Counter(roots)


def kostant_partition(roots, beta):
    """Number of ways to write beta as a nonnegative combination of roots."""
    roots = tuple(tuple(int(x) for x in r) for r in roots)
    return _counter_for(roots).count(tuple(int(x) for x in beta))


def twisted_partition_C(beta, m):
    """P-tilde(beta) = P(I(beta)) over the type C_m positive roots."""
    beta = check_weight(beta, m)
    return kostant_partition(weyl.positive_roots(("C", m)), involution_I(beta))


def restricted_partition(spec, beta):
    """Partition function over R^+(C_m) minus the block subset of spec."""
    beta = check_weight(beta, spec.total())
    return kostant_partition(spec.complement_roots(), beta)


def _weyl_sum(count, shifted, target, signed):
    """sum_w eps(w) count(w(shifted) - target) over the Weyl group.

    w runs over the signed permutations (type C) when signed, else over
    the plain permutations (type A).  count must vanish outside the cone
    spanned by the positive roots of A_{m-1} or C_m.  Every such root lies
    in {x : x_1 + ... + x_k >= 0 for all k}, so w is built one coordinate
    at a time, its sign carried along, and a prefix is cut as soon as a
    partial sum of the argument goes negative: every term it would reach
    has count 0.
    """
    m = len(shifted)
    flips = (1, -1) if signed else (1,)
    arg = [0] * m
    total = 0

    def place(i, free, partial, eps):
        # free: the input coordinates not yet placed, in increasing order;
        # taking the one at index idx adds idx inversions to the permutation
        nonlocal total
        if i == m:
            total += eps * count(tuple(arg))
            return
        t = target[i]
        for idx, j in enumerate(free):
            rest = free[:idx] + free[idx + 1:]
            e = -eps if idx & 1 else eps
            for f in flips:
                x = f * shifted[j] - t
                if partial + x >= 0:
                    arg[i] = x
                    place(i + 1, rest, partial + x, f * e)

    place(0, tuple(range(m)), 0, 1)
    return total


def weight_multiplicity(id, lam, mu):
    """Kostant's formula K_{lam,mu} = sum_w eps(w) P(w(lam+rho) - (mu+rho))."""
    family, m = weyl.check_id(id)
    lam = weyl.check_dominant(lam, id)
    mu = check_weight(mu, m)
    if m > weyl.MAX_RANK[family]:
        raise LimitExceeded("rank %d above enumeration cap for type %s"
                            % (m, family))
    r = weyl.rho(id)
    total = _weyl_sum(_counter_for(weyl.positive_roots(id)).count,
                      tuple(a + b for a, b in zip(lam, r)),
                      tuple(a + b for a, b in zip(mu, r)), family == "C")
    if total < 0:
        raise HowekitError("negative weight multiplicity for %r, %r" % (lam, mu))
    return total


@lru_cache(maxsize=None)
def _complement_counter(spec):
    return _counter_for(spec.complement_roots())


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
        if nu.blocks != spec.sizes:
            raise ValueError("nu blocks %r do not match spec sizes %r"
                             % (nu.blocks, spec.sizes))
        nu_vec = nu.flatten()
    else:
        nu_vec = check_weight(nu, m)
    r = weyl.rho(("C", m))
    total = _weyl_sum(_complement_counter(spec).count,
                      tuple(a + b for a, b in zip(kappa, r)),
                      tuple(a + b for a, b in zip(nu_vec, r)), True)
    if total < 0:
        raise HowekitError("negative branching coefficient for %r" % (kappa,))
    return total
