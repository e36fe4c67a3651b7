"""Kashiwara-Nakashima crystal combinatorics for type C_n columns.

Letters live in the ordered alphabet nbar < ... < 1bar < 1 < ... < n and
are encoded as nonzero integers in [-n, n], barred letters negative, so
the alphabet order is the integer order with zero skipped.  A column is a
strictly increasing tuple of letters (a subset, drawn top to bottom), and
a tensor element is a tuple of columns read first from left to right and
next from top to bottom.

The operators f_i, e_i for i = 0, ..., n-1 act through the usual
bracketing rule on the reading word.  For i >= 1 the letters -(i+1) and i
contribute a plus, the letters -i and i+1 a minus; f sends
-(i+1) -> -i and i -> i+1 at the leftmost unbracketed plus, e undoes the
rightmost unbracketed minus.  For i = 0 the letter -1 is a plus, 1 is a
minus, and f sends -1 -> 1: this is the orientation of the 0-arrows in
the vector crystal nbar -> ... -> 1bar -> 1 -> ... -> n.  The rule only
needs the column reading order and the map f on letters, so the dual
crystal of the bicrystal module runs on the same routine.
"""

from functools import lru_cache
from itertools import combinations, product
from math import comb, prod
from operator import add, gt, mul

from . import limits, weyl
from ._value import Value
from .errors import HowekitError
from .partitions import Partition


def check_column(entries, n):
    """Validate and normalize a column over the rank-n alphabet.

    >>> check_column([-3, -2, 4], 4)
    (-3, -2, 4)
    """
    col = tuple(int(x) for x in entries)
    for x in col:
        if x == 0 or not -n <= x <= n:
            raise HowekitError("letter %r outside the rank-%d alphabet" % (x, n))
    for a, b in zip(col, col[1:]):
        if a >= b:
            raise HowekitError("column %r is not strictly increasing" % (col,))
    return col


class TensorElement(Value):
    """A tensor product of columns, the basic Fock-space vertex.

    >>> b = TensorElement([(-4, -3), (-2, -1, 1), (-4,)], 4)
    >>> b.word()
    (-4, -3, -2, -1, 1, -4)
    >>> weight_of(b)
    (2, 1, 1, 0)
    """

    __slots__ = ("columns", "n")

    def __init__(self, columns, n):
        n = int(n)
        if n < 1:
            raise HowekitError("rank must be positive")
        cols = tuple(check_column(c, n) for c in columns)
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "n", n)

    def word(self):
        """The reading word: columns left to right, each top to bottom."""
        out = []
        for c in self.columns:
            out.extend(c)
        return tuple(out)

    def heights(self):
        return tuple(len(c) for c in self.columns)

    def __repr__(self):
        return "TensorElement(%r, %d)" % (list(map(list, self.columns)), self.n)

    def to_json_obj(self):
        return [list(c) for c in self.columns]


def _bracket(columns, order, f_map):
    """Positions of the unbracketed plus and minus symbols of a word.

    The word reads the columns in the given order of their indices, each
    from top to bottom; the plus letters are the keys of f_map (those f
    acts on) and the minus letters its values.  Returns
    (plus_positions, minus_positions), each as (column, letter) pairs in
    word order, after recursively cancelling +- pairs.
    """
    stack = []
    open_minus = []
    for j in order:
        for x in columns[j]:
            if x in f_map:
                stack.append((j, x))
            elif x in f_map.values():
                if stack:
                    stack.pop()
                else:
                    open_minus.append((j, x))
    return stack, open_minus


def _apply_at(b, j, old, new):
    # b is a TensorElement or a KingElement, both (columns of ints, rank).
    # Every operator moves a letter to its neighbour in the alphabet, and a
    # column holding both neighbours reads them one after the other, plus
    # then minus, so the pair is bracketed and never the one acted on: new
    # is not in the column and takes old's place in the strict order
    columns, rank = b._fields(b)
    col = columns[j]
    k = col.index(old)
    return type(b)._trusted(
        columns[:j] + (col[:k] + (new,) + col[k + 1:],) + columns[j + 1:], rank)


def _lower(b, order, f_map):
    """The signature rule's f: change the leftmost unbracketed plus."""
    stack, _ = _bracket(b.columns, order, f_map)
    if not stack:
        return None
    j, x = stack[0]
    return _apply_at(b, j, x, f_map[x])


def _raise(b, order, f_map):
    """The signature rule's e: undo f at the rightmost unbracketed minus."""
    _, open_minus = _bracket(b.columns, order, f_map)
    if not open_minus:
        return None
    j, x = open_minus[-1]
    return _apply_at(b, j, x, next(k for k, v in f_map.items() if v == x))


@lru_cache(maxsize=None)
def _f_map(i, n):
    # f_i on the letters it acts on; the cached dict is shared, never mutate it
    if i == 0:
        return {-1: 1}
    if not 1 <= i <= n - 1:
        raise HowekitError("operator index %d outside 0..%d" % (i, n - 1))
    return {-(i + 1): -i, i: i + 1}


def crystal_f(i, b):
    """Kashiwara lowering operator f_i, or None when it vanishes.

    >>> b = TensorElement([(-1,), (2,), (-2, 1), (2,), (2,), (1,), (-1,), (-2,)], 2)
    >>> crystal_f(1, b).word()
    (-1, 2, -2, 1, 2, 2, 1, -1, -1)
    """
    return _lower(b, range(len(b.columns)), _f_map(i, b.n))


def crystal_e(i, b):
    """Kashiwara raising operator e_i, or None when it vanishes.

    >>> b = TensorElement([(-1,), (2,), (-2, 1), (2,), (2,), (1,), (-1,), (-2,)], 2)
    >>> crystal_e(1, b).word()
    (-1, 1, -2, 1, 2, 2, 1, -1, -2)
    """
    return _raise(b, range(len(b.columns)), _f_map(i, b.n))


def weight_of(b):
    """The weight (a_n, ..., a_1), a_i = #(letters -i) - #(letters i)."""
    a = [0] * (b.n + 1)
    for x in b.word():
        if x < 0:
            a[-x] += 1
        else:
            a[x] -= 1
    return tuple(a[b.n - k] for k in range(b.n))


def is_highest_weight(b):
    """Whether every prefix of the reading word has partition weight.

    Equivalent to e_i(b) = None for all i = 0, ..., n-1.

    >>> is_highest_weight(TensorElement([(-4, -3), (-2, -1, 1), (-4,)], 4))
    True
    >>> is_highest_weight(TensorElement([(1,)], 2))
    False
    """
    # a[i] = #(-i) - #(i) for the word so far; the sentinel a[0] = 0
    # makes a_1 >= 0 one more neighbour comparison
    a = [0] * (b.n + 1)
    for x in b.word():
        if x < 0:
            a[-x] += 1
        else:
            a[x] -= 1
        if any(map(gt, a, a[1:])):
            return False
    return True


def is_admissible(c, n):
    """N_i(c) = #{x in c : x <= -i or x >= i} <= n - i + 1 for all i.

    >>> is_admissible((-2, -1, 1, 3), 3)
    False
    >>> is_admissible((-2, -1, 1, 3), 4)
    True
    """
    col = check_column(c, n)
    for i in range(1, n + 1):
        if sum(1 for x in col if x <= -i or x >= i) > n - i + 1:
            return False
    return True


def is_coadmissible(c, n):
    """M_i(c) = #{x in c : -i <= x <= i} <= i for all i."""
    col = check_column(c, n)
    for i in range(1, n + 1):
        if sum(1 for x in col if abs(x) <= i) > i:
            return False
    return True


def _checked_heights(mu_prime, n):
    """The column heights of B_{mu'}, each in 0..2n, under enum_cap."""
    if n < 1:
        raise HowekitError("rank must be positive")
    heights = tuple(int(h) for h in mu_prime)
    for h in heights:
        if not 0 <= h <= 2 * n:
            raise HowekitError("column height %d outside 0..%d" % (h, 2 * n))
    limits.check("enum_cap", prod(comb(2 * n, h) for h in heights),
                 "B_{mu'} has %d elements")
    return heights


def enumerate_B(mu_prime, n):
    """All tensor elements with column heights mu_prime, lex order.

    >>> len(list(enumerate_B((1,), 2)))
    4
    """
    heights = _checked_heights(mu_prime, n)
    alphabet = [x for x in range(-n, n + 1) if x != 0]
    for cols in product(*(combinations(alphabet, h) for h in heights)):
        yield TensorElement._trusted(cols, n)


def _highest_weight_walk(choices, n):
    """(mu', [(b, weight_of(b)) for the highest weight b of B_{mu'}]) for
    each mu' in product(*choices) order, each list in enumerate_B's order;
    a prefix whose column sizes multiply past enum_cap raises, naming that
    lower bound.  Columns fill letter by letter, skipping a letter that
    takes the word's weight out of the dominant chamber, which no
    extension undoes; each highest weight prefix is filled once for all
    the mu' it starts.
    """
    # a[i] = #(-i) - #(i) between the sentinels a[0] = 0 (so a_1 >= 0) and
    # a[n + 1], which no count reaches; the weight is a[n:0:-1].  Letter x
    # adds d to a_i, i = |x|, and keeps a dominant iff a[j] < a[j + 1]
    # before it, for j = i (x < 0) or i - 1 (x > 0)
    moves = [(x, -x, 1, -x) if x < 0 else (x, x, -1, x - 1)
             for x in range(-n, n + 1) if x]
    a = (0,) * (n + 1) + (2 * n * len(choices) + 1,)
    stack = [((), [((), a)], 1)]  # (heights, parent's prefixes, |B|)
    while stack:
        mu, prefixes, size = stack.pop()
        limits.check("enum_cap", size, "B_{mu'} has at least %d elements")
        if mu:
            h = mu[-1]
            # (cols, open column, its next alphabet index, a), one letter
            # more per round, each column leaving room for the rest
            level = [(cols, (), 0, a) for cols, a in prefixes]
            for r in range(h):
                level = [(cols, col + (x,), k + 1, a[:i] + (a[i] + d,)
                          + a[i + 1:]) for cols, col, first, a in level
                         for k, (x, i, d, j) in enumerate(
                             moves[first:2 * n - h + r + 1], first)
                         if a[j] < a[j + 1]]
            prefixes = [(cols + (col,), a) for cols, col, _, a in level]
        if len(mu) == len(choices):
            yield mu, [(TensorElement._trusted(cols, n), a[n:0:-1])
                       for cols, a in prefixes]
        else:
            stack.extend((mu + (h,), prefixes, size * comb(2 * n, h))
                         for h in reversed(choices[len(mu)]))


def highest_weight_vertices(mu_prime, lam, n):
    """The set B^hw_{mu', lam}: highest weight vertices of a given weight,
    in enumerate_B's order, read off the highest weight walk's weights."""
    target = tuple(int(x) for x in lam)
    target += (0,) * (n - len(target))
    if len(target) != n:
        raise HowekitError("weight %r does not have %d coordinates" % (lam, n))
    heights = _checked_heights(mu_prime, n)
    [(_, pairs)] = _highest_weight_walk([(h,) for h in heights], n)
    return [b for b, w in pairs if w == target]


def highest_weight_seed(lam, n, m=None):
    """The standard highest weight element of weight lam.

    Column j is the top lam'_j letters -n, ..., -(n - lam'_j + 1); the
    connected component of this vertex realizes the crystal B(lam).
    """
    lam = Partition(lam)
    heights = lam.conjugate().stripped()
    if any(h > n for h in heights):
        raise HowekitError("weight %r is not dominant for rank %d" % (lam, n))
    if m is None:
        m = len(heights)
    if len(heights) > m:
        raise HowekitError("weight %r needs more than %d columns" % (lam, m))
    cols = [tuple(range(-n, -n + h)) for h in heights]
    cols += [()] * (m - len(heights))
    return TensorElement(cols, n)


class CrystalGraph(Value):
    """A finite crystal graph: vertices in BFS order, labeled edges."""

    __slots__ = ("vertices", "edges", "n")

    def __init__(self, vertices, edges, n):
        object.__setattr__(self, "vertices", tuple(vertices))
        object.__setattr__(self, "edges", tuple(edges))
        object.__setattr__(self, "n", int(n))

    def __len__(self):
        return len(self.vertices)

    def to_dot(self):
        lines = ["digraph crystal {", "  rankdir=TB;"]
        # a label is a list of int lists: no quote to escape
        for k, b in enumerate(self.vertices):
            label = repr(b.to_json_obj()).replace(" ", "")
            lines.append('  v%d [label="%s"];' % (k, label))
        for src, i, dst in self.edges:
            lines.append('  v%d -> v%d [label="%d"];' % (src, dst, i))
        lines.append("}")
        return "\n".join(lines)

    def to_json_obj(self):
        return {
            "n": self.n,
            "vertices": [b.to_json_obj() for b in self.vertices],
            "edges": [[src, i, dst] for src, i, dst in self.edges],
        }


def _dimension(lam):
    """dim V(lam) of sp_2n, n = len(lam): the product of (lam + rho, alpha)
    / (rho, alpha) over the positive roots alpha."""
    def pairings(v):
        return prod(sum(map(mul, v, a))
                    for a in weyl.positive_roots(("C", len(v))))
    rho = weyl.rho(("C", len(lam)))
    return pairings(tuple(map(add, lam, rho))) // pairings(rho)


def generate_crystal_graph(seed, ops=None):
    """Close a seed vertex under the f_i, i in ops, by BFS.

    Under every f_i a highest weight seed closes to B(weight_of(seed)),
    whose dimension is checked against vertex_cap before the walk.

    >>> g = generate_crystal_graph(TensorElement([(-3, -2)], 3))
    >>> len(g)
    14
    """
    if ops is None:
        ops = range(seed.n)
    ops = sorted(set(int(i) for i in ops))
    if ops == list(range(seed.n)) and is_highest_weight(seed):
        limits.check("vertex_cap", _dimension(weight_of(seed)),
                     "crystal graph has %d vertices")
    index = {seed: 0}
    vertices = [seed]
    edges = []
    # vertices is also the BFS queue: it grows while the loop reads it
    for src, b in enumerate(vertices):
        for i in ops:
            c = crystal_f(i, b)
            if c is None:
                continue
            if c not in index:
                limits.check("vertex_cap", len(vertices) + 1,
                             "crystal graph has at least %d vertices")
                index[c] = len(vertices)
                vertices.append(c)
            edges.append((src, i, index[c]))
    return CrystalGraph(vertices, edges, seed.n)
