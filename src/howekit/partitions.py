"""Partitions, multipartitions and the rectangle complement involution.

Conventions.  A partition is a weakly decreasing tuple of nonnegative
integers; trailing zeros are remembered (the hat map wants vectors of a
fixed length m) but ignored by equality and hashing.  P_{n,m} denotes the
partitions with at most n parts, every part at most m.  For a weight
vector w, I(w) reverses the coordinates and negates them.
"""

from ._value import Value, check_int, check_weight


class Partition(Value):
    """A partition with explicit stored length.

    A Partition argument is taken as it is, unchecked: every Partition
    was checked here or built valid by construction at a _trusted site.

    >>> Partition([3, 2, 0]) == Partition([3, 2])
    True
    >>> len(Partition([3, 2, 0]))
    3
    """

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        if isinstance(parts, Partition):
            object.__setattr__(self, "parts", parts.parts)
            return
        parts = check_weight(parts)
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError("parts must be weakly decreasing: %r" % (parts,))
        if parts and parts[-1] < 0:
            raise ValueError("parts must be nonnegative: %r" % (parts,))
        object.__setattr__(self, "parts", parts)

    def stripped(self):
        """The parts with trailing zeros removed, the only zeros there are."""
        return tuple(filter(None, self.parts))

    def padded(self, m):
        """The parts padded with zeros to length m (error if too long)."""
        s = self.stripped()
        if len(s) > m:
            raise ValueError("partition %r has more than %d parts" % (s, m))
        return s + (0,) * (m - len(s))

    def size(self):
        return sum(self.parts)

    def length(self):
        """Number of nonzero parts."""
        return len(self.stripped())

    def fits_in(self, n, m):
        """True when self lies in P_{n,m} (at most n parts, parts <= m)."""
        s = self.stripped()
        return len(s) <= n and (not s or s[0] <= m)

    def check_fits(self, n, m):
        """Raise ValueError unless self lies in P_{n,m}."""
        if not self.fits_in(n, m):
            raise ValueError("partition %r does not fit in %d x %d"
                             % (self.stripped(), n, m))

    def conjugate(self):
        return conjugate(self)

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __eq__(self, other):
        if isinstance(other, Partition):
            return self.stripped() == other.stripped()
        if isinstance(other, tuple):
            try:
                return self == Partition(other)
            except (ValueError, TypeError):
                return False
        return NotImplemented

    def __hash__(self):
        return hash(self.stripped())

    def __lt__(self, other):
        if isinstance(other, Partition):
            return self.stripped() < other.stripped()
        return NotImplemented

    def __repr__(self):
        return "Partition(%r)" % (list(self.parts),)


def conjugate(p):
    """Transpose the Young diagram.

    >>> conjugate(Partition([5, 4, 2, 1])).parts
    (4, 3, 2, 2, 1)
    """
    s = Partition(p).stripped()
    if not s:
        return Partition(())
    return Partition(tuple(sum(1 for x in s if x >= j) for j in range(1, s[0] + 1)))


def involution_I(w):
    """I(w): reverse the coordinates and negate each entry."""
    return tuple(-x for x in reversed(tuple(w)))


def hat(p, n, m):
    """Complement-conjugate inside the n x m rectangle.

    hat(p) = I(p') + n*(1,...,1) as a vector of length m; it is the
    conjugate of the complement of p in the rectangle, an element of
    P_{m,n}.  Containment of p in P_{n,m} is checked, not clamped.

    >>> hat(Partition([5, 4, 2, 1]), 4, 5).parts
    (3, 2, 2, 1, 0)
    """
    p = Partition(p)
    p.check_fits(n, m)
    cp = conjugate(p).padded(m)
    return Partition(tuple(n + x for x in involution_I(cp)))


class MultiPartition(Value):
    """A tuple of partitions attached to a tuple of block sizes.

    The orientation (which side of the rectangle each block size bounds)
    depends on the operation; constructors only check structural sanity.
    """

    __slots__ = ("components", "blocks")

    def __init__(self, components, blocks):
        components = tuple(Partition(c) for c in components)
        blocks = check_weight(blocks)
        if len(components) != len(blocks):
            raise ValueError("needs one block size per component")
        if any(b < 1 for b in blocks):
            raise ValueError("block sizes must be positive: %r" % (blocks,))
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "blocks", blocks)

    def __len__(self):
        return len(self.components)

    def __repr__(self):
        return "MultiPartition(%r, blocks=%r)" % (
            [list(c.parts) for c in self.components],
            list(self.blocks),
        )

    def flatten(self):
        """Concatenate the components, each padded to its block size.

        Errors out when a component has more parts than its block.
        """
        out = []
        for c, b in zip(self.components, self.blocks):
            out.extend(c.padded(b))
        return tuple(out)

    def total_size(self):
        return sum(c.size() for c in self.components)


def conjugate_concat(mu):
    """The vector mu': per-block conjugates, each padded to its block size.

    Here block j bounds the COLUMNS of component j, so the conjugate has at
    most blocks[j] parts.
    """
    return MultiPartition([conjugate(c) for c in mu.components],
                          mu.blocks).flatten()


def hat_multi(mu, n):
    """Componentwise hat in the n x m_j rectangles, components reversed.

    The flattened result equals I(mu') + n*(1,...,1) in Z^m, m = sum m_j.

    >>> mu = MultiPartition([[2, 1, 1], [2], [3, 2]], blocks=[2, 2, 3])
    >>> hat_multi(mu, 3) == MultiPartition([[2, 1, 1], [2, 2], [2]], blocks=[3, 2, 2])
    True
    """
    comps = [hat(c, n, b) for c, b in zip(mu.components, mu.blocks)]
    return MultiPartition(tuple(reversed(comps)), tuple(reversed(mu.blocks)))


def mu_of_n(mu_hat, n):
    """Invert hat_multi: the multipartition whose hat (row bound n) is mu_hat.

    mu_hat carries the hat-side block sizes (m_r,...,m_1); each component i
    must lie in P_{blocks[i], n}, which forces n >= largest part of mu_hat.
    Raising n by one prepends one part m_j to every component of the result.
    """
    comps = []
    blocks = []
    for c, b in zip(reversed(mu_hat.components), reversed(mu_hat.blocks)):
        comps.append(hat(c, b, n))
        blocks.append(b)
    return MultiPartition(tuple(comps), tuple(blocks))


def reduce_column_full(p, bound):
    """Drop the parts equal to bound, keeping the stored length.

    Used when a column of full height acts as the trivial factor (the top
    elementary symmetric polynomial of n variables reduces to 1).
    """
    p = Partition(p)
    if any(x > bound for x in p.parts):
        raise ValueError("part exceeds bound %d: %r" % (bound, p.parts))
    kept = tuple(x for x in p.parts if x != bound)
    return Partition(kept + (0,) * (len(p.parts) - len(kept)))


def enumerate_rectangle(n, m):
    """Yield every partition in P_{n,m} exactly once, lexicographically."""
    n, m = check_int(n), check_int(m)
    if n < 0 or m < 0:
        raise ValueError("rectangle bounds must be nonnegative")

    # lexicographic order on stripped tuples: each prefix comes before
    # its extensions, and these go by their next part, so the stack of
    # prefixes still to visit holds the least on top
    def walk():
        stack = [()]
        while stack:
            prefix = stack.pop()
            yield Partition._trusted(prefix)
            if len(prefix) < n:
                stack.extend(prefix + (part,) for part in
                             range(prefix[-1] if prefix else m, 0, -1))

    return walk()
