"""Determinantal characters: elementary symmetric blocks, Jacobi-Trudi
determinants for gl_n and sp_2n, straightening, Weyl characters and their
decomposition.

Two variable conventions coexist.  Family "A" works with x_1, ..., x_n.
Family "C" works with the same n variables but its elementary symmetric
polynomials are those of the 2n values x_1, ..., x_n, 1/x_1, ..., 1/x_n;
they vanish outside degrees 0..2n and satisfy e_{n+k} = e_{n-k}.

The E map sends a monomial x^beta in m variables to the product
e_{beta_1} ... e_{beta_m} of those blocks; applied to Delta_m * x^beta it
produces the same determinant as the Jacobi-Trudi matrix.
"""

from functools import lru_cache, partial, reduce
from itertools import combinations, permutations, product
from math import comb, factorial
from operator import add, mul

from . import limits, weyl
from ._value import Value, check_int, check_weight
from .errors import NotACharacter
from .laurent import LaurentPolynomial
from .partitions import Partition, conjugate, reduce_column_full


def _check_subsets(k, letters):
    """Raise LimitExceeded when e_k has more subsets of the letters than
    enum_cap allows."""
    limits.check("enum_cap", comb(letters, k) if k >= 0 else 0,
                 "e_%d of %d letters has %d subsets", k, letters)


def elem_sym(k, family, n):
    """e_k of the n (family A) or 2n folded (family C) variable values.

    Raises LimitExceeded, before enumerating, when e_k has more subsets of
    the letters than enum_cap allows, whether or not e_k is cached.
    """
    family = str(family).upper()
    k = check_int(k)
    n = check_int(n)
    if n < 0:
        raise ValueError("n must be nonnegative")
    if family not in ("A", "C"):
        raise ValueError("family must be A or C, got %r" % (family,))
    _check_subsets(k, n if family == "A" else 2 * n)
    return _elem_sym(k, family, n)


@lru_cache(maxsize=None)
def _elem_sym(k, family, n):
    """elem_sym(k, family, n) for checked arguments."""
    # letter s < n is x_{s+1}; in family C, letter n + s is 1/x_{s+1}
    letters = n if family == "A" else 2 * n
    if k < 0 or k > letters:
        return LaurentPolynomial.zero(n)
    terms = {}
    for subset in combinations(range(letters), k):
        exp = [0] * n
        for s in subset:
            if s < n:
                exp[s] += 1
            else:
                exp[s - n] -= 1
        key = tuple(exp)
        terms[key] = terms.get(key, 0) + 1
    return LaurentPolynomial(n, terms)


def E_map(p, family, n):
    """Linear extension of x^beta -> e_{beta_1}*...*e_{beta_m}, each term
    multiplied left to right from one(n)."""
    out = LaurentPolynomial.zero(n)
    for exp, coef in sorted(p.terms.items()):
        term = reduce(mul, (elem_sym(k, family, n) for k in exp),
                      LaurentPolynomial.one(n))
        out = out + term.scale(coef)
    return out


def _products(factor, family, n):
    """A function from a tuple of keys k to the decomposition of
    factor(k_1)*...*factor(k_r) into the characters of family at rank n,
    without building the product: a chain holds {lam + rho: multiplicity}
    from {rho: 1} and takes each factor by the Brauer-Klimyk rule.

    Steps are kept for every prefix, keyed by its parent's index and its
    last key; each factor is built once, and each tuple finished once, so
    tuples sharing a prefix share their steps.  Each step checks its
    count of pairs, len(state) * len(factor), against term_cap before it
    sorts any.  The tables live as long as the returned function: one
    sweep.  Every factor is a character, so the product is W-invariant by
    construction and is not checked; the finish keeps decompose's sign
    and partition checks and messages.
    """
    r = weyl.rho((family, n))
    table = {}  # (parent index, last key) -> (index, state); () is 0
    factors = {}
    finished = {}

    def product(keys):
        at, state = 0, {r: 1}
        for k in keys:
            got = table.get((at, k))
            if got is None:
                if k not in factors:
                    factors[k] = factor(k)
                f = factors[k]
                limits.check("term_cap", len(state) * len(f),
                             "character step forms %d (constituent, term) pairs")
                got = table[at, k] = (len(table) + 1, _klimyk(family, state, f))
            at, state = got
        if at not in finished:
            finished[at] = _constituents(r, state)
        return finished[at]

    return product


def _klimyk(family, state, f):
    """state * f for a W-invariant polynomial f, where state maps lam +
    rho to the multiplicity of chi_lam, by the Brauer-Klimyk rule

        chi_lam * f = sum_e f[e] eps(w) chi_{w(lam + rho + e) - rho},

    w sorting lam + rho + e into the dominant chamber (_to_chamber); a
    term on a wall adds nothing, and zero multiplicities are dropped.
    """
    out = {}
    for eta, mult in state.items():
        for e, c in f.terms.items():
            got = _to_chamber(tuple(map(add, eta, e)), family)
            if got is not None:
                s, nu = got
                out[nu] = out.get(nu, 0) + s * mult * c
    return {nu: c for nu, c in out.items() if c}


def _elem_products(family, n):
    """_products over column heights c: the decomposition of
    e_{c_1}...e_{c_k} into the characters of family at rank n."""
    return _products(lambda k: elem_sym(k, family, n), family, n)


def delta_product(family, m):
    """Delta^A_m = prod_{i<j} (1 - x_i/x_j); Delta^C_m has the extra
    factors prod_{i<=j} (1 - 1/(x_i x_j)): one factor per positive root
    alpha, 1 - x^alpha for alpha = e_i - e_j and 1 - x^-alpha otherwise."""
    id = weyl.check_id((family, m))
    out = LaurentPolynomial.one(m)
    for a in weyl.positive_roots(id):
        exp = a if sum(a) == 0 else tuple(-x for x in a)
        out = out * (LaurentPolynomial.one(m) - LaurentPolynomial.monomial(exp))
    return out


def _det(matrix):
    """Determinant of a square matrix of polynomials by minor expansion in
    two row passes: top-down, list the column subsets reached through
    nonzero entries; bottom-up, sum their minors from the row below's."""
    size = len(matrix)
    if size == 0:
        raise ValueError("empty matrix")
    nvars = matrix[0][0].nvars
    one, zero = LaurentPolynomial.one(nvars), LaurentPolynomial.zero(nvars)
    nonzero = [{c for c, e in enumerate(r) if not e.is_zero()} for r in matrix]
    levels = [{tuple(range(size))}]
    for nz in nonzero[:-1]:
        levels.append({cols[:pos] + cols[pos + 1:] for cols in levels[-1]
                       for pos, c in enumerate(cols) if c in nz})
    minors = {(): one}
    for row, nz in zip(reversed(matrix), reversed(nonzero)):
        below, minors = minors, {}
        for cols in levels.pop():
            total = zero
            for pos, c in enumerate(cols):
                if c in nz:
                    sub = below[cols[:pos] + cols[pos + 1:]]
                    total = total + (row[c] * sub).scale(-1 if pos % 2 else 1)
            minors[cols] = total
    return minors[tuple(range(size))]


def _jt_det(degrees, family, n):
    """The determinant whose (i, j) entry is e_k, or e_k - e_l, for
    degrees[i][j] = (k,) or (k, l).  Every entry's subset count is checked
    against enum_cap, in build order, before any entry is built."""
    letters = n if family == "A" else 2 * n
    for row in degrees:
        for ks in row:
            for k in ks:
                _check_subsets(k, letters)

    def entry(ks):
        p = elem_sym(ks[0], family, n)
        return p - elem_sym(ks[1], family, n) if len(ks) > 1 else p

    return _det([[entry(ks) for ks in row] for row in degrees])


def jt_determinant(beta, family, n, m):
    """The Jacobi-Trudi determinant v_beta.

    Family A entries are e_{beta_i + j - i} over n variables; family C
    entries are e_{beta_i - i + j} - e_{beta_i - i - j} over the folded
    values.  For partitions, v_{lambda'} equals the Weyl character of
    lambda (exactly in type C; in type A each dropped full column
    contributes one factor e_n = x_1...x_n).
    """
    family = str(family).upper()
    beta = check_weight(beta, m)
    if m < 1:
        raise ValueError("m must be >= 1")
    return _jt_det([[(b - i + j,) if family == "A" else (b - i + j, b - i - j)
                     for j in range(1, m + 1)]
                    for i, b in enumerate(beta, 1)], family, n)


def _to_chamber(y, family):
    """Sort y into the dominant chamber, strictly: None when y lies on a
    wall, else (eps(w), eta) with y = w(eta) and eta strictly dominant.

    Type A sorts decreasingly; type C sorts the absolute values
    decreasingly and each negative entry flips the sign once more.  The
    permutation's sign is the parity of the sort's inversion count.
    """
    if family == "C":
        if 0 in y:
            return None
        s = -1 if sum(v < 0 for v in y) % 2 else 1
        y = tuple(abs(v) for v in y)
    else:
        s = 1
    if len(set(y)) < len(y):
        return None
    inversions = sum(a < b for i, a in enumerate(y) for b in y[i + 1:])
    return (-s if inversions % 2 else s), tuple(sorted(y, reverse=True))


def straighten(beta, family, n, m):
    """Bring beta to the dominant chamber of the relevant dot action.

    Returns None when v_beta = 0 (beta + shift on a wall, or the dominant
    representative has a vanishing row), else (sign, gamma) with
    v_beta = sign * v_gamma and gamma a partition; type A additionally
    drops the parts equal to n (each dropped part is one e_n factor).
    """
    family = str(family).upper()
    beta = check_weight(beta, m)
    if family == "C":
        # straightening over delta = (-n-1, ..., -n-m) sends y to the
        # antidominant point -reversed(eta) of its orbit: the sort followed
        # by the longest element, whose sign is (-1)^(m(m+1)/2)
        d = weyl.delta_shift(n, m)
        got = _to_chamber(tuple(a + b for a, b in zip(beta, d)), "C")
        if got is None:
            return None
        s, eta = got
        gamma = tuple(-a - b for a, b in zip(reversed(eta), d))
        if gamma[-1] < 0:
            return None
        return (-s if m * (m + 1) // 2 % 2 else s), Partition(gamma)
    if family == "A":
        r = weyl.rho(("A", m))
        got = _to_chamber(tuple(a + b for a, b in zip(beta, r)), "A")
        if got is None:
            return None
        s, eta = got
        gamma = tuple(a - b for a, b in zip(eta, r))
        if gamma[0] > n or gamma[-1] < 0:
            return None
        return s, reduce_column_full(Partition(gamma), n)
    raise ValueError("family must be A or C")


def _alternant(v, family):
    """sum_w eps(w) x^{w(v)} for a strictly dominant v, each sign read off
    by sorting the orbit point back into the chamber."""
    if family == "C":
        orbit = (y for p in permutations(v)
                 for y in product(*((x, -x) for x in p)))
    else:
        orbit = permutations(v)
    return LaurentPolynomial(len(v), {y: _to_chamber(y, family)[0]
                                      for y in orbit})


@lru_cache(maxsize=None)
def _weyl_character_cached(lam, family, rank):
    r = weyl.rho((family, rank))
    return _alternant(tuple(map(add, lam, r)), family).exact_div(
        _alternant(r, family))


def weyl_character(lam, family, rank):
    """The irreducible character as an alternant quotient.

    Family C gives the sp_{2 rank} character in rank variables; family A
    gives the gl_rank Schur polynomial.  Raises LimitExceeded, before
    enumerating, when the |W| points of each alternant's orbit are more
    than enum_cap allows, whether or not the character is cached.
    """
    family = str(family).upper()
    v = weyl.check_dominant(lam, (family, rank))
    family, rank = weyl.check_rank((family, rank))
    order = factorial(rank) << rank if family == "C" else factorial(rank)
    limits.check("enum_cap", order, "alternant of W(%s_%d) has %d terms",
                 family, rank if family == "C" else rank - 1)
    return _weyl_character_cached(v, family, rank)


class CharacterDecomposition(Value):
    """Multiplicities of irreducible characters in a W-invariant polynomial."""

    __slots__ = ("mults",)

    def __init__(self, mults):
        clean = {}
        for lam, c in mults.items():
            lam = Partition(lam)
            c = check_int(c)
            if c:
                clean[lam] = c
        object.__setattr__(self, "mults", clean)

    def __getitem__(self, lam):
        return self.mults.get(Partition(lam), 0)

    __hash__ = None

    def __iter__(self):
        return iter(sorted(self.mults, key=lambda p: p.stripped()))

    def __len__(self):
        return len(self.mults)

    def items(self):
        return [(p, self.mults[p]) for p in self]

    def __repr__(self):
        return "CharacterDecomposition(%r)" % {
            p.stripped(): c for p, c in self.items()}

    def to_json_obj(self):
        return [{"lam": list(p.stripped()), "mult": c} for p, c in self.items()]


def _is_invariant(p, family, rank):
    # invariant under W iff under its simple reflections: the adjacent
    # swaps, then in type C the sign change of the last coordinate
    reflections = [lambda e, i=i: e[:i] + (e[i + 1], e[i]) + e[i + 2:]
                   for i in range(rank - 1)]
    if family == "C" and rank >= 1:
        reflections.append(lambda e: e[:-1] + (-e[-1],))
    return all({s(e): c for e, c in p.terms.items()} == p.terms
               for s in reflections)


def decompose(p, family, rank):
    """Write a W-invariant polynomial as a sum of irreducible characters.

    If p = sum m_lam chi_lam then p * a_rho = sum m_lam a_{lam+rho}, and
    each alternant has exactly one strictly dominant term.  So m_lam is
    the sum of eps(w) * p[e] over the exponents e of p with e + rho =
    w(lam + rho), read off in one pass over p: the Brauer-Klimyk rule
    (_klimyk) applied to chi_0 * p.  Constituents are then checked in
    lex-descending order, the order of peeling the greatest exponent.
    Raises NotACharacter when the input is not invariant, a
    multiplicity is negative, or a constituent is not a partition.
    """
    family, rank = weyl.check_id((family, rank))
    if p.nvars != rank:
        raise ValueError("polynomial arity %d does not match rank %d"
                         % (p.nvars, rank))
    if not _is_invariant(p, family, rank):
        raise NotACharacter("input is not Weyl invariant")
    r = weyl.rho((family, rank))
    return _constituents(r, _klimyk(family, {r: 1}, p))


def _constituents(r, strict):
    """The CharacterDecomposition with multiplicity strict[eta] at eta -
    r, for the strictly dominant eta of strict, whose values are nonzero.
    Constituents are checked in lex-descending order, the order of
    peeling the greatest exponent: NotACharacter when a multiplicity is
    negative or a constituent is not a partition."""
    mults = {}
    for eta in sorted(strict, reverse=True):
        coef = strict[eta]
        top = tuple(a - b for a, b in zip(eta, r))
        if coef < 0:
            raise NotACharacter("negative multiplicity %d at %r" % (coef, top))
        # eta is strictly decreasing, so top is weakly decreasing
        if top[-1] < 0:
            raise NotACharacter("leading exponent %r is not a partition" % (top,))
        mults[Partition._trusted(top)] = coef
    return CharacterDecomposition._trusted(mults)


def _check_monomials(k, letters):
    """Raise LimitExceeded when h_k, the sum of every monomial of degree k
    in the letters, has more of them than enum_cap allows."""
    limits.check("enum_cap", comb(k + letters - 1, letters - 1),
                 "h_%d of %d letters has %d monomials", k, letters)


def schur_folded(delta, n):
    """The 2n-variable Schur polynomial s_delta specialized at
    (x_1,...,x_n,1/x_1,...,1/x_n), as a Jacobi-Trudi determinant over
    the folded values.

    When n is 1 or delta has one part, it is the row form
    det(h_{delta_i - i + j}) of size l(delta) (_h_det).  Otherwise it is
    the dual form det(e_{delta'_i - i + j}) of size delta_1, whose entries
    have far fewer terms than the h_k; its expansion keeps one level of
    minors per row, so h_k of the row form's largest index k = delta_1 +
    l(delta) - 1 is checked against enum_cap first, which bounds delta_1.
    """
    delta = Partition(delta)
    s = delta.stripped()
    if len(s) > 2 * n:
        raise ValueError("partition %r has more than %d parts" % (s, 2 * n))
    if not s:
        return LaurentPolynomial.one(n)
    top = s[0] + len(s) - 1
    if n == 1 or len(s) == 1:
        return _h_det(s, top, n)
    _check_monomials(top, 2 * n)
    cols = conjugate(delta).padded(s[0])
    return _jt_det([[(c - i + j,) for j in range(1, s[0] + 1)]
                    for i, c in enumerate(cols, 1)], "C", n)


def _h_det(s, top, n):
    """det(h_{s_i - i + j}) of the 2n folded values, for a partition s
    with at least one part; top = s_1 + l(s) - 1 is its largest index.

    The complete symmetric h_k come from the folded e_j by h_k =
    sum_{j>=1} (-1)^(j-1) e_j h_{k-j}.  Before any is built, the subset
    count of every e_j used is checked against enum_cap, in increasing j,
    and then the monomials of h_top.
    """
    letters = 2 * n
    for j in range(1, min(top, letters) + 1):
        _check_subsets(j, letters)
    _check_monomials(top, letters)
    e = [elem_sym(j, "C", n) for j in range(min(top, letters) + 1)]
    h = [e[0]]
    for k in range(1, top + 1):
        total = LaurentPolynomial.zero(n)
        for j in range(1, min(k, letters) + 1):
            term = e[j] * h[k - j]
            total = total + term if j % 2 else total - term
        h.append(total)
    zero = LaurentPolynomial.zero(n)
    return _det([[h[d - i + j] if d - i + j >= 0 else zero
                  for j in range(1, len(s) + 1)]
                 for i, d in enumerate(s, 1)])


def _block_factor(n, key):
    """The factor of a (symbol, component) key: the sp_2n character of the
    component for C, its folded Schur polynomial for A."""
    if key[0] == "C":
        return weyl_character(key[1], "C", n)
    return schur_folded(key[1], n)


def _char_products(n):
    """_products over (symbol, component) keys: the sp_2n decomposition of
    the product of their block factors (_block_factor)."""
    return _products(partial(_block_factor, n), "C", n)


def char_product(mu, spec, n):
    """prod_j s^{X_j}_{mu^(j)} in n variables.

    spec is the X-sequence with block sizes (the tensor-side order); C
    factors are sp_2n characters, A factors are 2n-variable Schur
    polynomials folded at (x, 1/x).  Component j must fit in the
    n x (size_j) rectangle.  Every input is checked before any factor is
    built; the product is then taken left to right from one(n), each
    factor built when it is reached.
    """
    spec.check_blocks(mu)
    for comp, size in zip(mu.components, spec.sizes):
        comp.check_fits(n, size)
    return reduce(mul, (_block_factor(n, key)
                        for key in zip(spec.symbols, mu.components)),
                  LaurentPolynomial.one(n))
