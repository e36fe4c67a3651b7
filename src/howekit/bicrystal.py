"""Crystal operators on the dual Fock space and the charge statistics.

The dual space of n columns on 1 < 1bar < ... < m < mbar carries a type
A_{2m-1} crystal whose word reads the columns first from right to left
and next from top to bottom.  Operator indices are encoded as signed
integers: +j is the unbarred operator (plus on letters j, minus on jbar,
f sends j -> jbar) and -j is the barred operator (plus on jbar, minus on
j+1, f sends jbar -> j+1).

Transporting the unbarred raising operators through the star duality
contracts a column, i.e. removes one pair (kbar, k); transporting the
barred ones performs a jeu de taquin slide on the bar complement

    cbar_j    = {nbar, ..., 1bar} cap c_j
    cbar_jbar = {xbar : x not in c_j}

between columns jbar and j+1 (taken in reversed order, so the box slides
from column jbar into column j+1).  The charge of a weight-zero King
tableau and the matching statistic D on the symplectic side are computed
from the string lengths of the lowest weight vertex, or equivalently
from contraction counts delta_j and slide counts gamma_j.
"""

from functools import lru_cache, partial
from math import ceil
from operator import gt

from ._value import Value
from .crystals import TensorElement, _lower, _raise, is_admissible
from .duality import KingElement, king_weight, star, star_inverse
from .errors import HowekitError


@lru_cache(maxsize=None)
def _king_f_map(idx, m):
    # f on the keys it acts on, j -> jbar or jbar -> j+1; cached and shared
    j = abs(int(idx))
    if idx > 0:
        if not 1 <= j <= m:
            raise HowekitError("unbarred index %d outside 1..%d" % (j, m))
        return {2 * j - 1: 2 * j}
    if idx < 0:
        if not 1 <= j <= m - 1:
            raise HowekitError("barred index %d outside 1..%d" % (j, m - 1))
        return {2 * j: 2 * j + 1}
    raise HowekitError("operator index must be nonzero")


def king_f(idx, t):
    """Lowering operator on the dual space, None when it vanishes.

    >>> t = KingElement([[(1, True), (2, False)], [(1, False), (1, True), (2, True)],
    ...                  [(1, False), (2, False)]], 2)
    >>> king_f(-1, t).to_json_obj()
    [['1b', '2'], ['1', '2', '2b'], ['1', '2']]
    >>> king_f(2, t).to_json_obj()
    [['1b', '2b'], ['1', '1b', '2b'], ['1', '2']]
    """
    return _lower(t, reversed(range(len(t.columns))), _king_f_map(idx, t.m))


def king_e(idx, t):
    """Raising operator on the dual space, None when it vanishes.

    >>> t = KingElement([[(1, True), (2, False)], [(1, False), (1, True), (2, True)],
    ...                  [(1, False), (2, False)]], 2)
    >>> king_e(-1, t).to_json_obj()
    [['1b', '2'], ['1', '1b', '2b'], ['1', '1b']]
    >>> king_e(1, t) is None and king_e(2, t) is None and king_f(1, t) is None
    True
    """
    return _raise(t, reversed(range(len(t.columns))), _king_f_map(idx, t.m))


def _transport(op, j, b):
    # the King operator op(j, .) carried back through the star duality
    t = op(j, star(b))
    return None if t is None else star_inverse(t, b.n, len(b.columns))


def kappa(j, b):
    """The operator transported from the dual raising operator: the
    contraction of column j for j > 0, the jeu de taquin move for j < 0.

    >>> kappa(1, TensorElement([(-4, -3, -2, 3)], 4))
    TensorElement([[-4, -2]], 4)
    """
    return _transport(king_e, j, b)


def dilate(j, b):
    """Inverse of contraction on column j, via the dual lowering operator."""
    return _transport(king_f, j, b)


class BarComplement(Value):
    """The 2m barred columns (cbar_1, cbar_1bar, ..., cbar_m, cbar_mbar)."""

    __slots__ = ("columns", "n")

    def __init__(self, columns, n):
        n = int(n)
        if n < 1:
            raise HowekitError("rank must be positive")
        cols = []
        for c in columns:
            col = tuple(int(x) for x in c)
            for x in col:
                if not -n <= x <= -1:
                    raise HowekitError("entry %d is not a barred letter" % (x,))
            for a, b in zip(col, col[1:]):
                if a >= b:
                    raise HowekitError("column %r is not strictly increasing"
                                       % (col,))
            cols.append(col)
        if len(cols) % 2:
            raise HowekitError("expected an even number of columns")
        object.__setattr__(self, "columns", tuple(cols))
        object.__setattr__(self, "n", n)

    def __repr__(self):
        return "BarComplement(%r, %d)" % (list(map(list, self.columns)), self.n)

    def to_json_obj(self):
        return [list(c) for c in self.columns]


def bar_complement(b):
    """The barred-part/complement expansion of each column.

    >>> bar_complement(TensorElement([(-3, 1, 5), (-5, -1, 2, 4, 5)], 5)).to_json_obj()
    [[-3], [-4, -3, -2], [-5, -1], [-3, -1]]
    """
    n = b.n
    return BarComplement._trusted(tuple([col for c in b.columns for col in (
        tuple(x for x in c if x < 0),
        tuple(-x for x in range(n, 0, -1) if x not in c))]), n)


def from_bar_complement(bc):
    """Rebuild the tensor element: column j has barred part cbar_j and
    unbarred part the complement of cbar_jbar."""
    n, cols = bc.n, bc.columns
    return TensorElement._trusted(tuple(
        barred + tuple(x for x in range(1, n + 1) if -x not in bar)
        for barred, bar in zip(cols[::2], cols[1::2])), n)


def _min_offset(left, right):
    """Minimal l so that right (rows 1..q) and left (rows l+1..l+p) form
    a skew tableau of shape nu/(1^l), rows weakly increasing."""
    l = max(0, len(right) - len(left))
    while any(map(gt, left, right[l:])):
        l += 1
    return l


def _skew_pair(j, b):
    """cbar_{j+1} and cbar_jbar of b, read straight off columns j+1 and j."""
    left = [x for x in b.columns[j] if x < 0]
    right = [-x for x in range(b.n, 0, -1) if x not in b.columns[j - 1]]
    return left, right


def jdt_bar(j, b):
    """One jeu de taquin slide on the bar complement, between columns
    jbar and j+1, or None when the pair is already straight.

    >>> b = TensorElement([(-3, 1, 5), (-5, -1, 2, 4, 5)], 5)
    >>> bar_complement(jdt_bar(1, b)).to_json_obj()
    [[-3], [-4, -3], [-5, -2, -1], [-3, -1]]
    """
    m = len(b.columns)
    if not 1 <= j <= m - 1:
        raise HowekitError("jdt index %d outside 1..%d" % (j, m - 1))
    # cbar_{j+1}, the target column, and cbar_jbar, the source column
    left, right = _skew_pair(j, b)
    l = _min_offset(left, right)
    if l == 0:
        return None
    # left sits at rows l+1.., right at rows 1..; the hole starts at row l
    # of the left column and sinks while the entry below it is <= its
    # right neighbour, then takes that neighbour xbar: x leaves cbar_jbar,
    # so column j gains the letter x, and column j+1 gains xbar.  The hole
    # stops by row len(right): sinking past it would mean below <= right in
    # every row l..len(right) and the left column reaching that row, so
    # offset l - 1 would already form a skew tableau, against minimal l
    k = l
    while k - l < len(left) and left[k - l] <= right[k - 1]:
        k += 1
    xbar = right[k - 1]
    cols = list(b.columns)
    cols[j - 1] = tuple(sorted(cols[j - 1] + (-xbar,)))
    cols[j] = tuple(sorted(cols[j] + (xbar,)))
    return TensorElement._trusted(tuple(cols), b.n)


def _string(op, x):
    """Apply op until it vanishes: the end of the string and its length."""
    k = 0
    while True:
        y = op(x)
        if y is None:
            return x, k
        x = y
        k += 1


def epsilon_string(idx, t):
    """Length of the raising string through t for the given operator."""
    return _string(partial(king_e, idx), t)[1]


def to_lowest(t):
    """Exhaust the unbarred lowering operators.  Each acts on its own
    letters j, jbar only, so one string per operator suffices."""
    for j in range(1, t.m + 1):
        t = _string(partial(king_f, j), t)[0]
    return t


def delta_count(j, b):
    """Contractions needed to make column j admissible, n - height.

    The column must be full (height n): this is the charge context.
    """
    m = len(b.columns)
    if not 1 <= j <= m:
        raise HowekitError("index %d outside 1..%d" % (j, m))
    col = b.columns[j - 1]
    n = b.n
    if len(col) != n:
        raise HowekitError("column %d has height %d, expected %d"
                           % (j, len(col), n))
    # star is a bijection, so the string of king_e(1, .) on the star is
    # the string of kappa(1, .), carried across once each way
    low = _string(partial(king_e, 1), star(type(b)._trusted((col,), n)))[0]
    [cur] = star_inverse(low, n, 1).columns
    if not is_admissible(cur, n):
        raise HowekitError("contraction did not reach an admissible column")
    return n - len(cur)


def dilate_fully(b):
    """Dilate every column recursively as much as possible: the lowest
    vertex of star(b), carried back.  An element with no columns has
    nothing to dilate."""
    if not b.columns:
        return b
    return star_inverse(to_lowest(star(b)), b.n, len(b.columns))


def gamma_count(j, b_dil):
    """Number of slides available between columns jbar and j+1 of the
    dilated element: the offset of the minimal skew pair."""
    m = len(b_dil.columns)
    if not 1 <= j <= m - 1:
        raise HowekitError("index %d outside 1..%d" % (j, m - 1))
    return _min_offset(*_skew_pair(j, b_dil))


def _charge_sum(m, unbarred, barred):
    """The charge weighting of the unbarred counts u_1..u_m (all even) and
    the barred counts b_1..b_{m-1}:
    sum (2(m-j)+1) u_j/2 + sum 2(m-j) ceil(b_j/2)."""
    total = 0
    for j, u in enumerate(unbarred, start=1):
        if u % 2:
            raise HowekitError("odd unbarred count %d at %d" % (u, j))
        total += (2 * (m - j) + 1) * (u // 2)
    for j, b in enumerate(barred, start=1):
        total += 2 * (m - j) * ceil(b / 2)
    return total


def charge_king(t):
    """The charge of a weight-zero King tableau, via the string lengths of
    its lowest weight vertex in the unbarred string crystal."""
    m = t.m
    if king_weight(t) != (0,) * m:
        raise HowekitError("charge needs weight zero, got %r" % (king_weight(t),))
    low = to_lowest(t)
    return _charge_sum(m, [epsilon_string(j, low) for j in range(1, m + 1)],
                       [epsilon_string(-j, low) for j in range(1, m)])


def _counts(b):
    """The contraction counts delta_j and the dilated slide counts gamma_j."""
    m = len(b.columns)
    deltas = [delta_count(j, b) for j in range(1, m + 1)]
    b_dil = dilate_fully(b)
    return deltas, [gamma_count(j, b_dil) for j in range(1, m)]


def D_statistic(b):
    """The symplectic charge: computed from contraction counts delta_j
    and slide counts gamma_j of the dilated element; equals the charge
    of star(b) on weight-zero highest weight elements."""
    if any(len(c) != b.n for c in b.columns):
        raise HowekitError("D needs every column of height %d (weight zero)"
                           % b.n)
    return _charge_sum(len(b.columns), *_counts(b))


def statistics(b):
    """The JSON-friendly bundle: charge, D and the underlying counts."""
    deltas, gammas = _counts(b)
    return {
        "charge": charge_king(star(b)),
        "D": _charge_sum(len(b.columns), deltas, gammas),
        "delta": deltas,
        "gamma": gammas,
    }
