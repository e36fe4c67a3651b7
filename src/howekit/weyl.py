"""Weyl groups of types A_{m-1} and C_m as signed permutations.

Type A is realized gl-style in Z^m: the group is S_m with all signs +1,
positive roots eps_i - eps_j (i < j), and rho = (m-1, ..., 0).  Type C_m is
the full group of signed permutations, positive roots eps_i - eps_j and
eps_i + eps_j (i < j) together with 2 eps_i, and rho = (m, ..., 1).

Both dot actions used by the straightening theorems live here:
w o lam = w(lam + rho) - rho, and the type C variant shifted by
delta = (-n-1, ..., -n-m).
"""

import itertools
from functools import lru_cache
from math import prod
from operator import add, sub

from ._value import Value
from .errors import LimitExceeded
from .partitions import Partition, check_weight

FAMILIES = ("A", "C")

# enumeration caps: |W(C_8)| = 2^8 * 8!, |W(A at m=10)| = 10!
MAX_RANK = {"A": 10, "C": 8}


def check_id(id):
    """Validate a root system id (family, m) and return it normalized."""
    family, m = id
    family = str(family).upper()
    if family not in FAMILIES:
        raise ValueError("family must be A or C, got %r" % (family,))
    m = int(m)
    if m < 1:
        raise ValueError("rank parameter must be >= 1")
    return family, m


def check_rank(id):
    """check_id, then the rank cap MAX_RANK of the family."""
    family, m = check_id(id)
    if m > MAX_RANK[family]:
        raise LimitExceeded("rank %d above enumeration cap for type %s"
                            % (m, family))
    return family, m


def check_dominant(lam, id):
    """Validate lam as a dominant weight for id; return it as a length-m
    tuple.  lam is a Partition or a weight vector."""
    family, m = check_id(id)
    v = lam.padded(m) if isinstance(lam, Partition) else check_weight(lam, m)
    for a, b in zip(v, v[1:]):
        if a < b:
            raise ValueError("weight %r is not dominant for %s" % (v, family))
    if family == "C" and v[-1] < 0:
        raise ValueError("weight %r is not dominant for C" % (v,))
    return v


class WeylElement(Value):
    """A signed permutation.

    perm is one-line notation on {1,...,m}: position i of the output takes
    coordinate perm[i-1] of the input, then signs[i-1] is applied.  Type A
    elements carry all signs +1.
    """

    __slots__ = ("perm", "signs")

    def __init__(self, perm, signs=None):
        perm = tuple(int(x) for x in perm)
        m = len(perm)
        if sorted(perm) != list(range(1, m + 1)):
            raise ValueError("perm must be a permutation of 1..m: %r" % (perm,))
        if signs is None:
            signs = (1,) * m
        signs = tuple(int(s) for s in signs)
        if len(signs) != m or any(s not in (1, -1) for s in signs):
            raise ValueError("signs must be a tuple of +-1 of length %d" % m)
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "signs", signs)

    def __repr__(self):
        return "WeylElement(perm=%r, signs=%r)" % (list(self.perm), list(self.signs))

    def __len__(self):
        return len(self.perm)

    def compose(self, other):
        """self * other: apply other first, then self."""
        if len(self) != len(other):
            raise ValueError("rank mismatch")
        perm = tuple(other.perm[p - 1] for p in self.perm)
        signs = tuple(self.signs[i] * other.signs[self.perm[i] - 1]
                      for i in range(len(self)))
        return WeylElement(perm, signs)

    def inverse(self):
        # output coordinate k of the inverse is input coordinate perm^-1(k)
        order = sorted(range(len(self)), key=self.perm.__getitem__)
        return WeylElement([i + 1 for i in order],
                           [self.signs[i] for i in order])


def transposition(i, m):
    """The simple reflection s_i swapping coordinates i and i+1 (1-based)."""
    perm = list(range(1, m + 1))
    perm[i - 1], perm[i] = perm[i], perm[i - 1]
    return WeylElement(tuple(perm))


def sign(w):
    """eps(w) = (sign of the permutation) * (product of the signs)."""
    p = w.perm
    inversions = sum(a > b for i, a in enumerate(p) for b in p[i + 1:])
    return (-1) ** inversions * prod(w.signs)


def act(w, v):
    """Apply the signed permutation to a weight vector."""
    v = check_weight(v, len(w))
    return tuple(w.signs[i] * v[w.perm[i] - 1] for i in range(len(w)))


def enumerate_weyl(id):
    """All elements of the Weyl group, deterministically ordered, built
    anew on each call: no cache pins a group of up to 10 M elements."""
    family, m = check_rank(id)
    signs = (list(itertools.product((1, -1), repeat=m)) if family == "C"
             else [None])
    return tuple(WeylElement(p, s)
                 for p in itertools.permutations(range(1, m + 1))
                 for s in signs)


def rho(id):
    family, m = check_id(id)
    if family == "C":
        return tuple(range(m, 0, -1))
    return tuple(range(m - 1, -1, -1))


def _dot(w, v, shift):
    """w(v + shift) - shift."""
    v = check_weight(v, len(shift))
    return tuple(map(sub, act(w, tuple(map(add, v, shift))), shift))


def dot_rho(w, lam, id):
    """w o lam = w(lam + rho) - rho."""
    return _dot(w, lam, rho(id))


def delta_shift(n, m):
    """delta = (-n-1, -n-2, ..., -n-m)."""
    return tuple(-n - i for i in range(1, m + 1))


def dot_delta_C(w, beta, n, m):
    """w o beta = w(beta + delta) - delta with delta = (-n-1,...,-n-m)."""
    return _dot(w, beta, delta_shift(n, m))


@lru_cache(maxsize=None)
def positive_roots(id):
    """The positive roots as vectors in Z^m."""
    family, m = check_id(id)

    def root(i, j, s):
        return tuple((k == i) + s * (k == j) for k in range(m))

    roots = [root(i, j, -1) for i in range(m) for j in range(i + 1, m)]
    if family == "C":
        roots += [root(i, j, 1) for i in range(m) for j in range(i + 1, m)]
        roots += [root(i, i, 1) for i in range(m)]
    return tuple(roots)
