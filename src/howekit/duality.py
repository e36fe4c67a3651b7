"""Star duality between column Fock spaces, and King tableaux.

The dual alphabet is 1 < 1bar < 2 < 2bar < ... < m < mbar.  Columns hold
each letter as its order key, 2j-1 for an unbarred j and 2j for a barred
one; KingEntry is the letter as a (value, barred) value and spells the
keys ("2b" for 4).  A King tableau is a semistandard filling on this
alphabet whose row-j entries are all >= j (i.e. have key >= 2j-1), and
its weight is (a_m, ..., a_1) with a_j counting unbarred j minus barred j.

The duality sends a tensor product of m type-C_n columns to a tensor
product of n columns on the dual alphabet: first each column c_j expands
into the pair of type-A columns

    ctilde_j    = {1 <= x <= n : xbar not in c_j}
    ctilde_jbar = {1, ..., n} cap c_j

and then column i of the image collects every dual letter x with
i in ctilde_x.  This is a bijection between the two Fock spaces; on
highest weight vertices it produces King tableaux, with shape and weight
given by the rectangle complement maps.
"""

from itertools import combinations
from math import comb, prod
from operator import le

from . import limits
from ._value import Value, check_int, check_weight
from .crystals import TensorElement, highest_weight_vertices
from .errors import HowekitError, MalformedTableau
from .partitions import Partition, conjugate, hat


def _spell(k):
    # the letter of order key k: "j" for 2j - 1, "jb" for 2j
    return "%d%s" % ((k + 1) // 2, "" if k % 2 else "b")


class KingEntry(Value):
    """A letter of the dual alphabet.

    >>> KingEntry(2, True) < KingEntry(3, False)
    True
    >>> str(KingEntry(3, True)), str(KingEntry(3, False))
    ('3b', '3')
    """

    __slots__ = ("value", "barred")

    def __init__(self, value, barred=False):
        value = check_int(value)
        if value < 1:
            raise HowekitError("entry value must be >= 1, got %r" % (value,))
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "barred", bool(barred))

    def key(self):
        """Position in the total order 1 < 1b < 2 < 2b < ..."""
        return 2 * self.value - (0 if self.barred else 1)

    @classmethod
    def from_key(cls, k):
        k = check_int(k)
        if k < 1:
            raise HowekitError("order key must be >= 1, got %r" % (k,))
        return cls((k + 1) // 2, k % 2 == 0)

    @classmethod
    def from_str(cls, s):
        s = s.strip()
        return cls(int(s.removesuffix("b")), s.endswith("b"))

    def __str__(self):
        return _spell(self.key())

    def __repr__(self):
        return "KingEntry(%d, %r)" % (self.value, self.barred)

    def __lt__(self, other):
        return self.key() < other.key()

    def __le__(self, other):
        return self.key() <= other.key()


def _key(e):
    # the order key of a KingEntry, a key or a (value, barred) pair
    if type(e) is int:
        e = KingEntry.from_key(e)
    elif isinstance(e, (tuple, list)) and len(e) == 2:
        e = KingEntry(*e)
    elif not isinstance(e, KingEntry):
        raise HowekitError("entry %r is not a dual letter, order key or "
                           "(value, barred) pair" % (e,))
    return e.key()


def check_king_column(entries, m):
    col = tuple(map(_key, entries))
    for k in col:
        if k > 2 * m:
            raise HowekitError("entry %s outside the dual alphabet of rank %d"
                               % (_spell(k), m))
    for a, b in zip(col, col[1:]):
        if a >= b:
            raise HowekitError("column %r is not strictly increasing"
                               % (list(map(_spell, col)),))
    return col


class KingElement(Value):
    """A tensor product of columns on the dual alphabet, empties kept.
    Each column is a tuple of order keys, built from KingEntry letters,
    (value, barred) pairs or keys; KingEntry spells them.

    >>> t = KingElement([[(1, False), (2, True)], []], 2)
    >>> t.columns, t.heights()
    (((1, 4), ()), (2, 0))
    """

    __slots__ = ("columns", "m")

    def __init__(self, columns, m):
        m = check_int(m)
        if m < 1:
            raise HowekitError("alphabet rank must be positive")
        cols = tuple(check_king_column(c, m) for c in columns)
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "m", m)

    def heights(self):
        return tuple(len(c) for c in self.columns)

    def shape(self):
        """Conjugate of the column heights, as a partition."""
        return conjugate(sorted(self.heights(), reverse=True))

    def __repr__(self):
        return "KingElement(%r, %d)" % (self.to_json_obj(), self.m)

    def to_json_obj(self):
        return [list(map(_spell, c)) for c in self.columns]

    @classmethod
    def from_json_obj(cls, obj, m):
        return cls([[KingEntry.from_str(s) for s in c] for c in obj], m)


def tilde_expand(b):
    """The 2m type-A columns (ctilde_1, ctilde_1bar, ..., ctilde_mbar).

    >>> tilde_expand(TensorElement([(-3, -2, 4, 5)], 5))
    ((1, 4, 5), (4, 5))
    """
    n = b.n
    out = []
    for c in b.columns:
        barred = {-x for x in c if x < 0}
        unbarred = {x for x in c if x > 0}
        out.append(tuple(x for x in range(1, n + 1) if x not in barred))
        out.append(tuple(x for x in range(1, n + 1) if x in unbarred))
    return tuple(out)


def star(b):
    """The dual element: column i collects the x with i in ctilde_x.

    An element with no columns has no dual: its King columns would be
    over an empty alphabet.
    """
    if not b.columns:
        raise HowekitError("star needs an element with at least one column")
    cols = [[] for _ in range(b.n)]
    # letters go in as j, jbar for j = 1, 2, ..., so every column is sorted
    for plain, c in zip(range(1, 2 * len(b.columns), 2), b.columns):
        for i, col in enumerate(cols, 1):
            if -i not in c:
                col.append(plain)
            if i in c:
                col.append(plain + 1)
    return KingElement._trusted(tuple(map(tuple, cols)), len(b.columns))


def star_inverse(t, n=None, m=None):
    """Recover b from b*: barred part of c_j is the complement of
    ctilde_j, unbarred part is ctilde_jbar.  An m below t.m must still
    hold every letter of t."""
    if n is None:
        n = len(t.columns)
    if m is None:
        m = t.m
    if len(t.columns) != n:
        raise HowekitError("expected %d columns, got %d" % (n, len(t.columns)))
    if n < 1:
        raise HowekitError("rank must be positive")
    if t.m > m:
        for col in t.columns:
            check_king_column(col, m)
    return TensorElement._trusted(_star_inverse_cols(t.columns, n, m), n)


def _star_inverse_cols(columns, n, m):
    # star_inverse's columns, from n King columns over a rank-m alphabet.
    # tilde[k]: the King columns holding key k, in increasing order;
    # letters above m have no column of b
    tilde = [[] for _ in range(2 * m + 1)]
    for i, col in enumerate(columns, 1):
        for k in col:
            if k <= 2 * m:
                tilde[k].append(i)
    return tuple([tuple([-x for x in range(n, 0, -1) if x not in tilde[k]])
                  + tuple(tilde[k + 1]) for k in range(1, 2 * m, 2)])


def king_weight(t):
    """The weight (a_m, ..., a_1), a_j = #(unbarred j) - #(barred j)."""
    a = [0] * (2 * t.m + 1)
    for c in t.columns:
        for k in c:
            a[k] += 1
    return tuple(a[2 * j - 1] - a[2 * j] for j in range(t.m, 0, -1))


def _rows_increase(cols):
    # columns of weakly decreasing heights: row r of each column sits
    # beside row r of the next
    return all(all(map(le, left, right))
               for left, right in zip(cols, cols[1:]))


def is_semistandard(t):
    """Rows weakly increasing across the columns taken in tensor order."""
    heights = t.heights()
    return (all(a >= b for a, b in zip(heights, heights[1:]))
            and _rows_increase(t.columns))


def is_king_tableau(t):
    """Semistandard with every row-j entry >= j (key at least 2j - 1).

    Raises MalformedTableau when the columns do not assemble into a
    tableau, i.e. the heights are not weakly decreasing.

    >>> t = KingElement([[(1, False)], [(1, False), (2, False)]], 2)
    >>> is_king_tableau(t)
    Traceback (most recent call last):
        ...
    howekit.errors.MalformedTableau: column heights (1, 2) not weakly decreasing
    """
    heights = t.heights()
    if any(a < b for a, b in zip(heights, heights[1:])):
        raise MalformedTableau("column heights %r not weakly decreasing"
                               % (heights,))
    cols = t.columns
    # rows weakly increase from the first column, so its row-j entry is
    # the least of row j
    if cols and any(k < 2 * r - 1 for r, k in enumerate(cols[0], start=1)):
        return False
    return _rows_increase(cols)


def king_tableaux_by_weight(shape, m, n=None):
    """All King tableaux of the given shape, as elements with n columns
    (defaulting to the shape width), bucketed by king_weight.

    Columns are drawn from the alphabet in lex order, left to right, so
    each bucket lists its tableaux in that order.

    >>> table = king_tableaux_by_weight(Partition([1]), 1)
    >>> sorted(table.items())
    [((-1,), [KingElement([['1b']], 1)]), ((1,), [KingElement([['1']], 1)])]
    """
    shape = Partition(shape)
    if len(shape.stripped()) > m:
        raise HowekitError("shape %r has more than %d rows" % (shape, m))
    heights = shape.conjugate().stripped()
    width = len(heights)
    if n is None:
        n = width
    if width > n:
        raise HowekitError("shape %r is wider than %d columns" % (shape, n))
    if m < 1:
        raise HowekitError("alphabet rank must be positive")
    limits.check("enum_cap", prod(comb(2 * m, h) for h in heights),
                 "King enumeration size %d")

    columns_by_height = {h: [c for c in combinations(range(1, 2 * m + 1), h)
                             if all(c[r] >= 2 * r + 1 for r in range(h))]
                         for h in set(heights)}

    # one column at a time, left to right; a semistandard prefix always
    # extends (repeat the top of its last column), so no level outgrows
    # the table
    prefixes = [()]
    for h in heights:
        prefixes = [acc + (col,) for acc in prefixes
                    for col in columns_by_height[h]
                    if not acc or all(map(le, acc[-1], col))]
    table = {}
    for cols in prefixes:
        t = KingElement._trusted(cols + ((),) * (n - width), m)
        table.setdefault(king_weight(t), []).append(t)
    return table


def enumerate_king_tableaux(shape, weight, m, n=None):
    """All King tableaux of the given shape and weight, as elements with
    n columns (defaulting to the shape width).

    >>> len(enumerate_king_tableaux(Partition([1]), (1,), 1))
    1
    """
    target = check_weight(weight)
    if len(target) != m:
        raise HowekitError("weight %r does not have %d coordinates" % (weight, m))
    return king_tableaux_by_weight(shape, m, n).get(target, [])


def star_pairing(vertices, lam_hat, mu_hat, n, m):
    """Pair each vertex with its star image; check that this is a
    bijection onto the King tableaux of shape lam_hat and weight mu_hat,
    with star_inverse undoing it.  Every vertex's rank is checked first,
    with star_inverse's column-count error, and those tableaux are then
    enumerated.

    Returns (pairs, None), or (None, failure) where failure holds the
    "reason" and the offending "element" or the "missing" tableaux.
    verify_bijection calls _pair_cell with each lam_hat's inputs prebuilt.
    """
    for b in vertices:
        if b.n != n:
            raise HowekitError("expected %d columns, got %d" % (n, b.n))
    return _pair_cell(vertices, conjugate(lam_hat).stripped(), mu_hat, n, m,
                      enumerate_king_tableaux(lam_hat, mu_hat, m, n))


def _pair_cell(vertices, heights, mu_hat, n, m, expected):
    """star_pairing given vertices of rank n, the column heights of
    lam_hat, which a star image's nonzero column heights, sorted, match
    iff it has that shape, and its King tableaux of weight mu_hat, the
    expected list.

    An image equal to a tableau of the expected list passes: the list
    holds only King tableaux of that shape and weight.  The shape, weight
    and King tests run, in that order, only on an image outside the list.
    """
    pairs = []
    images = set()
    table = {t.columns for t in expected}
    for b in vertices:
        t = star(b)
        if _star_inverse_cols(t.columns, n, m) != b.columns:
            reason = "star not invertible"
        elif t.m == m and t.columns in table:
            reason = None
        elif tuple(sorted(filter(None, map(len, t.columns)),
                          reverse=True)) != heights:
            reason = "shape mismatch"
        elif king_weight(t) != mu_hat:
            reason = "weight mismatch"
        elif not is_king_tableau(t):
            reason = "image not King"
        else:
            reason = None
        if reason is not None:
            return None, {"element": b.to_json_obj(), "reason": reason}
        images.add(t)
        pairs.append((b, t))
    if images != set(expected):
        missing = [t.to_json_obj() for t in expected if t not in images]
        return None, {"reason": "image set mismatch", "missing": missing}
    if len(images) != len(vertices):
        return None, {"reason": "star not injective"}
    return pairs, None


def verify_combinatorial_howe(n, m, mu_prime, lam):
    """Check that star maps B^hw_{mu',lam} bijectively onto the King
    tableaux of shape hat(lam) and weight hat(mu).

    Returns a report dict with the explicit pairing; on failure the
    offending element is recorded under "failure".  A mu_prime without
    exactly m heights raises before anything is built.
    """
    mu_prime = check_weight(mu_prime)
    if len(mu_prime) != m:
        raise HowekitError("mu_prime has %d column heights, expected m = %d"
                           % (len(mu_prime), m))
    lam = Partition(lam)
    lam_hat = hat(lam, n, m)
    # mu_hat coordinates may be negative when a column is taller than n;
    # King tableau weights are honest weight vectors, not partitions
    mu_hat = tuple(n - h for h in reversed(mu_prime))

    vertices = highest_weight_vertices(mu_prime, lam.padded(n), n)
    pairs, failure = star_pairing(vertices, lam_hat, mu_hat, n, m)
    if failure is not None:
        return {"ok": False, "failure": failure}
    return {"ok": True, "pairs": pairs}
