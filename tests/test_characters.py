"""Determinantal characters: alternants, straightening, decomposition."""

import hashlib
import itertools
import json
import math
import random
import tracemalloc

import pytest

from howekit import (DiagramSpec, HowekitError, LaurentPolynomial,
                     LimitExceeded, MultiPartition, NotACharacter, Partition,
                     char_product, conjugate, decompose, enumerate_rectangle,
                     jt_determinant, limits, schur_folded, straighten, weyl,
                     weyl_character)
from howekit import characters
from howekit.characters import E_map, _elem_products, delta_product, elem_sym
from howekit.partitions import conjugate_concat, reduce_column_full


def count_ssyt(lam, n):
    """Semistandard fillings with entries 1..n, by direct search."""
    lam = Partition(lam).stripped()
    if not lam:
        return 1
    rows = len(lam)

    def rec(r, above):
        if r == rows:
            return 1
        total = 0
        for row in itertools.product(range(1, n + 1), repeat=lam[r]):
            if any(a > b for a, b in zip(row, row[1:])):
                continue
            if above is not None and any(a >= b for a, b in
                                         zip(above[:lam[r]], row)):
                continue
            total += rec(r + 1, row)
        return total

    return rec(0, None)


def peel_oracle(p, family, rank):
    """decompose by peeling: subtract the character of the lex-greatest
    exponent until nothing is left.  Assumes p is W-invariant.  Each step
    peels one constituent, and p has at most len(p.terms) of them, since
    decompose reads each off at least one term of p."""
    mults = {}
    q = p
    steps = 0
    while not q.is_zero():
        steps += 1
        if steps > len(p.terms):
            raise HowekitError("peeling exceeded %d steps" % len(p.terms))
        top = q.lex_max()
        coef = q.terms[top]
        if coef < 0:
            raise NotACharacter("negative multiplicity %d at %r" % (coef, top))
        if any(a < b for a, b in zip(top, top[1:])) or top[-1] < 0:
            raise NotACharacter("leading exponent %r is not a partition"
                                % (top,))
        lam = Partition(top)
        mults[lam] = mults.get(lam, 0) + coef
        q = q - weyl_character(lam, family, rank).scale(coef)
    return mults


def outcome(call):
    """What call() returns, or the type and message of what it raises."""
    try:
        return call()
    except HowekitError as exc:
        return type(exc), str(exc)


def both(p, family, rank):
    """The outcomes of decompose and of the peeling oracle on p."""
    new = outcome(lambda: dict(decompose(p, family, rank).items()))
    old = outcome(lambda: peel_oracle(p, family, rank))
    return new, old


def straighten_oracle(beta, family, n, m):
    """straighten through an explicit WeylElement, act and sign."""
    if family == "C":
        d = weyl.delta_shift(n, m)
        y = tuple(a + b for a, b in zip(beta, d))
        if 0 in y or len({abs(v) for v in y}) < m:
            return None
        order = sorted(range(m), key=lambda j: abs(y[j]))
        w = weyl.WeylElement(tuple(j + 1 for j in order),
                             tuple(-1 if y[j] > 0 else 1 for j in order))
        gamma = tuple(a - b for a, b in zip(weyl.act(w, y), d))
        if gamma[-1] < 0:
            return None
        return weyl.sign(w), Partition(gamma)
    r = weyl.rho(("A", m))
    y = tuple(a + b for a, b in zip(beta, r))
    if len(set(y)) < m:
        return None
    w = weyl.WeylElement(tuple(j + 1 for j in
                               sorted(range(m), key=lambda j: -y[j])))
    gamma = tuple(a - b for a, b in zip(weyl.act(w, y), r))
    if gamma[0] > n or gamma[-1] < 0:
        return None
    return weyl.sign(w), reduce_column_full(Partition(gamma), n)


def test_weyl_character_type_a_dimensions():
    for n in (1, 2, 3):
        for lam in enumerate_rectangle(n, 3):
            ch = weyl_character(lam, "A", n)
            assert ch.evaluate_ones() == count_ssyt(lam, n), (n, lam)
            # highest weight occurs once, at the lexicographic top
            if lam.size():
                assert ch.lex_max() == lam.padded(n)
                assert ch.coefficient(lam.padded(n)) == 1


def test_weyl_character_type_c_small_dimensions():
    # fundamental and adjoint dimensions of sp_4 and sp_6
    assert weyl_character((1, 0), "C", 2).evaluate_ones() == 4
    assert weyl_character((1, 1), "C", 2).evaluate_ones() == 5
    assert weyl_character((2, 0), "C", 2).evaluate_ones() == 10
    assert weyl_character((1, 0, 0), "C", 3).evaluate_ones() == 6
    assert weyl_character((1, 1, 0), "C", 3).evaluate_ones() == 14
    assert weyl_character((2, 0, 0), "C", 3).evaluate_ones() == 21


def test_weyl_character_column_dimensions_match_admissibility():
    # dim of the k-th fundamental module = number of admissible columns
    from howekit import is_admissible
    for n in (2, 3):
        letters = [x for x in range(-n, n + 1) if x]
        for k in range(1, n + 1):
            count = sum(1 for c in itertools.combinations(letters, k)
                        if is_admissible(c, n))
            lam = Partition((1,) * k)
            assert weyl_character(lam, "C", n).evaluate_ones() == count


def test_weyl_character_invariance():
    # invariant under x_i <-> x_j and x_i <-> 1/x_i
    ch = weyl_character((2, 1), "C", 2)
    swapped = LaurentPolynomial(2, {(b, a): c for (a, b), c in ch.terms.items()})
    flipped = LaurentPolynomial(2, {(-a, b): c for (a, b), c in ch.terms.items()})
    assert ch == swapped == flipped


def test_weyl_character_rejects_bad_weights():
    with pytest.raises(ValueError):
        weyl_character((1, 2), "C", 2)
    with pytest.raises(ValueError):
        weyl_character((1, 0), "B", 2)


def test_e_map_alternant_identity():
    # applying E to the deformed monomial reproduces the determinant
    for n in (1, 2):
        for m in (1, 2):
            d = delta_product("C", m)
            for beta in itertools.product(range(-1, n + 2), repeat=m):
                lhs = E_map(d * LaurentPolynomial.monomial(beta), "C", n)
                assert lhs == jt_determinant(beta, "C", n, m), (n, m, beta)


def test_jt_partition_case_is_the_character():
    for n in (2, 3):
        for lam in enumerate_rectangle(n, 3):
            beta = conjugate(lam).padded(3)
            assert jt_determinant(beta, "C", n, 3) == \
                weyl_character(lam, "C", n)


def test_jt_antisymmetry_under_dot_action():
    from howekit.weyl import WeylElement, dot_delta_C
    n, m = 2, 3
    swaps = [WeylElement((2, 1, 3)), WeylElement((1, 3, 2))]
    flip = WeylElement((1, 2, 3), (1, 1, -1))
    for beta in itertools.product(range(-1, 4), repeat=m):
        v = jt_determinant(beta, "C", n, m)
        for w in swaps + [flip]:
            moved = dot_delta_C(w, beta, n, m)
            assert jt_determinant(moved, "C", n, m) == v.scale(-1), (beta, w)


def test_jt_vanishes_on_walls():
    # fixed points of a dot reflection have vanishing determinants
    n, m = 2, 2
    from howekit.weyl import WeylElement, dot_delta_C
    hits = 0
    for beta in itertools.product(range(-3, 6), repeat=m):
        for w in [WeylElement((2, 1)), WeylElement((1, 2), (1, -1))]:
            if dot_delta_C(w, beta, n, m) == beta:
                assert jt_determinant(beta, "C", n, m).is_zero(), (beta, w)
                hits += 1
    assert hits > 0


def test_straighten_pinned_case():
    # (0, 2) reflects to the partition (1, 1) with a sign
    sign, gamma = straighten((0, 2), "C", 2, 2)
    assert (sign, gamma) == (-1, (1, 1))
    assert jt_determinant((0, 2), "C", 2, 2) == \
        weyl_character(conjugate(gamma), "C", 2).scale(-1)


def test_straighten_agrees_with_determinant_type_c():
    for n in (1, 2):
        for m in (1, 2, 3):
            for beta in itertools.product(range(-2, n + 3), repeat=m):
                v = jt_determinant(beta, "C", n, m)
                s = straighten(beta, "C", n, m)
                if s is None:
                    assert v.is_zero(), (n, m, beta)
                else:
                    sign, gamma = s
                    assert v == weyl_character(conjugate(gamma), "C",
                                               n).scale(sign)


def test_straighten_agrees_with_determinant_type_a():
    e_full = {}
    for n in (1, 2):
        e_full[n] = LaurentPolynomial.monomial((1,) * n)
        for m in (1, 2, 3):
            for beta in itertools.product(range(-2, n + 3), repeat=m):
                v = jt_determinant(beta, "A", n, m)
                s = straighten(beta, "A", n, m)
                if s is None:
                    assert v.is_zero(), (n, m, beta)
                    continue
                sign, gamma = s
                dropped = sum(beta) - gamma.size()
                assert dropped % n == 0 and dropped >= 0
                want = weyl_character(conjugate(gamma), "A", n).scale(sign)
                want = want * e_full[n] ** (dropped // n)
                assert v == want, (n, m, beta)


def test_schur_folded_matches_doubled_alphabet():
    # s_delta at (x, 1/x) has the dimension of the 2n-letter Schur module
    for n in (1, 2):
        for delta in enumerate_rectangle(2 * n, 2):
            assert schur_folded(delta, n).evaluate_ones() == \
                count_ssyt(delta, 2 * n), (n, delta)
    assert schur_folded((1,), 2) == elem_sym(1, "C", 2)
    with pytest.raises(ValueError):
        schur_folded((1, 1, 1), 1)


def test_schur_folded_row_form_matches_dual_form():
    # det(h_{delta_i - i + j}) against the dual Jacobi-Trudi determinant
    # det(e_{delta'_i - i + j}) of size delta_1, on every delta with at
    # most 2n parts, each at most 4; the row form itself is checked up to
    # 3 parts, as it takes seconds on the taller shapes of n = 3, which
    # schur_folded sends to the dual form
    for n in (1, 2, 3):
        for delta in enumerate_rectangle(2 * n, 4):
            s = delta.stripped()
            if not s:
                continue
            cols = conjugate(delta).padded(s[0])
            dual = characters._det(
                [[elem_sym(c - i + j, "C", n) for j in range(1, s[0] + 1)]
                 for i, c in enumerate(cols, 1)])
            assert schur_folded(delta, n) == dual, (n, s)
            if len(s) <= 3:
                top = s[0] + len(s) - 1
                assert characters._h_det(s, top, n) == dual, (n, s)


def test_schur_folded_determinant_has_one_row_per_part(monkeypatch):
    # s_(400) at n = 1 is the 1 x 1 determinant (h_400), where the dual
    # form would expand 400 rows
    sizes = []
    det = characters._det
    monkeypatch.setattr(characters, "_det",
                        lambda matrix: sizes.append(len(matrix))
                        or det(matrix))
    got = schur_folded((400,), 1)
    assert sizes == [1]
    assert got == LaurentPolynomial(1, {(k,): 1 for k in range(-400, 401, 2)})


def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(LaurentPolynomial, name)
    monkeypatch.setattr(LaurentPolynomial, name,
                        lambda *args: calls.append(None) or real(*args))
    return calls


def test_determinant_walks_many_rows(monkeypatch):
    # the expansion walks the rows in two loops, so 2,000 rows are no
    # recursion depth: a diagonal matrix of monomials gives their product,
    # one product per row.  6 rows go first: an expansion through zeros
    # shows there as extra products, at 2,000 rows as 2^2000 subsets
    calls = _count_calls(monkeypatch, "__mul__")
    zero = LaurentPolynomial.zero(2)
    for size in (6, 2000):
        diagonal = [LaurentPolynomial.monomial((i % 3, -(i % 5)))
                    for i in range(size)]
        del calls[:]
        got = characters._det([[diagonal[i] if i == j else zero
                                for j in range(size)] for i in range(size)])
        assert len(calls) == size
        assert got == LaurentPolynomial.monomial(
            (sum(i % 3 for i in range(size)),
             -sum(i % 5 for i in range(size))))


def _leibniz(matrix):
    """sum over sigma of sgn(sigma) * prod_i M[i][sigma(i)], the products
    taken left to right from one."""
    size = len(matrix)
    total = LaurentPolynomial.zero(matrix[0][0].nvars)
    for sigma in itertools.permutations(range(size)):
        inversions = sum(a > b for a, b in itertools.combinations(sigma, 2))
        term = LaurentPolynomial.one(total.nvars)
        for i, j in enumerate(sigma):
            term = term * matrix[i][j]
        total = total + term.scale(-1 if inversions % 2 else 1)
    return total


def _sparse_matrix(rng, size):
    """A size x size matrix of small Laurent polynomials in 2 variables,
    about a third of its entries zero."""
    def entry():
        if rng.random() < 0.35:
            return LaurentPolynomial.zero(2)
        return LaurentPolynomial(2, {(rng.randint(-1, 1), rng.randint(-1, 1)):
                                     rng.choice((-2, -1, 1, 2))
                                     for _ in range(rng.randint(1, 3))})
    return [[entry() for _ in range(size)] for _ in range(size)]


def test_determinant_matches_leibniz_formula():
    rng = random.Random(29)
    zero = LaurentPolynomial.zero(2)
    for size in range(1, 6):
        for trial in range(6):
            matrix = _sparse_matrix(rng, size)
            if size > 1 and trial == 1:
                matrix[rng.randrange(size)] = [zero] * size
            if size > 1 and trial == 2:
                j = rng.randrange(size)
                for row in matrix:
                    row[j] = zero
            if size > 2 and trial == 3:
                # column 0 is reached by row 0 alone
                for row in matrix[1:]:
                    row[0] = zero
            assert characters._det(matrix) == _leibniz(matrix), (size, trial)
    with pytest.raises(ValueError, match="^empty matrix$"):
        characters._det([])


def test_determinant_forms_one_product_per_reached_entry(monkeypatch):
    # a full 6 x 6 matrix reaches every column subset: each subset of size
    # k multiplies k entries by their minors, sum_k k C(6, k) = 6 * 2^5
    calls = _count_calls(monkeypatch, "__mul__")
    tests = _count_calls(monkeypatch, "is_zero")
    characters._det([[LaurentPolynomial.monomial((i, j)) for j in range(6)]
                     for i in range(6)])
    assert len(calls) == 192
    assert len(tests) == 36  # each entry is tested for zero once


def _ac04_grid():
    for fam in ("C", "A"):
        for n in (1, 2, 3):
            for m in (1, 2, 3):
                for beta in itertools.product(range(-2, n + 3), repeat=m):
                    yield beta, fam, n, m


FOLDED_SHAPES = [(1, 1), (2, 1), (2, 2), (3, 1), (2, 1, 1), (3, 2, 1)]

# pinned before the expansion became two row passes: the polynomials,
# and apart from them the dict order of their terms, which JSON output
# sorts away but a change to how minors accumulate would show
DETERMINANT_DIGESTS = (
    "fb1726d6447d1bd1035e50395a40c38f00bfbffca37d3408d38a59d427b026cb",
    "640f8946317c45071fe5225935ee656a1ce302218bcacf14178d5c7492f0ae04")


def test_determinant_layer_digest():
    # every AC04 determinant, then the folded Schur polynomials in the
    # dual form (schur_folded) and the row form
    polys = [jt_determinant(*args) for args in _ac04_grid()]
    for n in (2, 3):
        for s in FOLDED_SHAPES:
            polys += [schur_folded(s, n),
                      characters._h_det(s, s[0] + len(s) - 1, n)]
    assert len(polys) == 2482 + 24
    pins = ([p.to_json_obj() for p in polys],
            [[list(e) for e in p.terms] for p in polys])
    assert tuple(hashlib.sha256(json.dumps(pin).encode()).hexdigest()
                 for pin in pins) == DETERMINANT_DIGESTS


@pytest.mark.parametrize("delta, n, k, letters", [
    # the row form: h_1000 of the 6 folded letters at n = 3
    ((1000,), 3, 1000, 6),
    # the dual form, 1000 rows deep, bounded by the row form's h_1001
    ((1000, 1), 2, 1001, 4),
], ids=["row-form", "dual-form"])
def test_schur_folded_checks_its_largest_h_before_building(
        monkeypatch, delta, n, k, letters):
    built = []
    monkeypatch.setattr(characters, "elem_sym",
                        lambda *args: built.append(args))
    with pytest.raises(LimitExceeded) as info:
        schur_folded(delta, n)
    monomials = math.comb(k + letters - 1, letters - 1)
    assert str(info.value) == ("h_%d of %d letters has %d monomials, above "
                               "enum_cap 10000000" % (k, letters, monomials))
    assert built == []


def test_decompose_tensor_square_of_vector_module():
    for n in (2, 3):
        sq = elem_sym(1, "C", n) * elem_sym(1, "C", n)
        dec = decompose(sq, "C", n)
        assert dict((tuple(k.stripped()), v) for k, v in dec.items()) == \
            {(2,): 1, (1, 1): 1, (): 1}


def test_decompose_round_trip_random_sums():
    rng = random.Random(3)
    lams = list(enumerate_rectangle(2, 3))
    for fam in ("A", "C"):
        for _ in range(8):
            mults = {lam: rng.randint(0, 3) for lam in
                     rng.sample(lams, k=4)}
            p = LaurentPolynomial.zero(2)
            for lam, c in mults.items():
                if c:
                    p = p + weyl_character(lam, fam, 2).scale(c)
            dec = decompose(p, fam, 2)
            want = {lam: c for lam, c in mults.items() if c}
            assert dict(dec.items()) == want


def test_decompose_rejects_non_characters():
    # x1 is moved by the coordinate swap; x1 + x2 is fixed by it, and only
    # the type C sign change moves it
    for exps in ([(1, 0)], [(1, 0), (0, 1)]):
        p = LaurentPolynomial(2, {e: 1 for e in exps})
        with pytest.raises(NotACharacter) as info:
            decompose(p, "C", 2)
        assert str(info.value) == "input is not Weyl invariant"
    # the swaps alone pass x1 + x2 in type A
    assert dict(decompose(LaurentPolynomial(2, {(1, 0): 1, (0, 1): 1}),
                          "A", 2).items()) == {(1,): 1}
    neg = weyl_character((1, 1), "C", 2).scale(-1)
    with pytest.raises(NotACharacter):
        decompose(neg, "C", 2)
    # invariant but with a negative multiplicity hidden below the top
    tricky = weyl_character((2, 0), "C", 2) - weyl_character((1, 1), "C", 2)
    with pytest.raises(NotACharacter):
        decompose(tricky, "C", 2)


def test_decompose_matches_peeling_on_signed_sums():
    rng = random.Random(8)
    seen = set()
    for fam in ("A", "C"):
        for rank in (1, 2, 3):
            lams = list(enumerate_rectangle(rank, 2))
            for _ in range(12):
                p = LaurentPolynomial.zero(rank)
                for lam in rng.sample(lams, k=min(4, len(lams))):
                    c = rng.randint(-2, 3)
                    p = p + weyl_character(lam, fam, rank).scale(c)
                new, old = both(p, fam, rank)
                assert new == old, (fam, rank, p)
                seen.add(type(new))
    assert seen == {dict, tuple}  # both clean sums and failures occur


def test_decompose_matches_peeling_on_negative_shifts():
    # chi_lam * (x_1...x_n)^-k is chi_{lam - k}: a non-partition constituent
    for rank in (1, 2, 3):
        unit = LaurentPolynomial.monomial((-1,) * rank)
        box = Partition((1,))
        for lam in enumerate_rectangle(rank, 2):
            base = weyl_character(lam, "A", rank)
            if lam.size():
                base = base + weyl_character(box, "A", rank).scale(2)
            for k in range(3):
                new, old = both(base * unit ** k, "A", rank)
                assert new == old, (rank, lam, k)
    p = weyl_character(box, "A", 2) * LaurentPolynomial.monomial((-1, -1))
    assert both(p, "A", 2)[0] == (
        NotACharacter, "leading exponent (0, -1) is not a partition")


def test_jacobi_trudi_checks_every_entry_before_building(monkeypatch):
    # each case trips on an entry that build order reaches after smaller
    # ones; with the cache cold, any entry built would enumerate subsets
    characters._elem_sym.cache_clear()
    calls = []
    monkeypatch.setattr(characters, "combinations",
                        lambda *args: calls.append(args)
                        or itertools.combinations(*args))
    cases = [
        # row 1 of s_(3) at n = 6: e_1, e_2, e_3 of 12 letters
        (lambda: schur_folded(Partition((3,)), 6), 12, 3),
        # rows (e_2, e_3), (e_1, e_2) of 8 letters
        (lambda: jt_determinant((2, 2), "A", 8, 2), 8, 3),
        # rows (e_2 - e_0, e_3 - e_-1), (e_1 - e_-1, e_2 - e_-2)
        (lambda: jt_determinant((2, 2), "C", 4, 2), 8, 3),
    ]
    for build, letters, k in cases:
        subsets = math.comb(letters, k)
        with limits.overridden({"enum_cap": subsets - 1}):
            with pytest.raises(LimitExceeded) as err:
                build()
        assert str(err.value) == ("e_%d of %d letters has %d subsets, above "
                                  "enum_cap %d" % (k, letters, subsets,
                                                   subsets - 1))
        assert calls == []
    # at the default cap the same builds enumerate
    for build, _, _ in cases:
        build()
    assert calls


def test_weyl_character_above_max_rank_builds_no_orbit(monkeypatch):
    # an orbit of W(A) at rank 11 has 39,916,800 points: fail, not build
    def refuse(*args):
        raise AssertionError("orbit of %r built" % (args,))

    monkeypatch.setattr(characters, "permutations", refuse)
    for fam in ("A", "C"):
        rank = weyl.MAX_RANK[fam] + 1
        with pytest.raises(LimitExceeded,
                           match="rank %d above enumeration cap" % rank):
            weyl_character(Partition(()), fam, rank)
    with pytest.raises(AssertionError, match="orbit of"):
        characters._alternant((2, 1, 0), "A")


def test_decompose_needs_no_weyl_group():
    # rank 11 is above the type A enumeration cap; peeling needed the
    # group for chi_(1), the one-pass count does not
    assert weyl.MAX_RANK["A"] < 11
    p = LaurentPolynomial(11, {tuple(int(i == j) for j in range(11)): 1
                               for i in range(11)})
    assert dict(decompose(p, "A", 11).items()) == {Partition((1,)): 1}
    with pytest.raises(LimitExceeded):
        peel_oracle(p, "A", 11)


def test_straighten_matches_weyl_element_oracle():
    for fam in ("A", "C"):
        for n in (1, 2, 3):
            for m in (1, 2, 3):
                for beta in itertools.product(range(-3, n + 3), repeat=m):
                    assert straighten(beta, fam, n, m) == \
                        straighten_oracle(beta, fam, n, m), (fam, n, m, beta)


def test_char_product_is_deformed_alternant():
    # the product of block characters matches applying E to the block-local
    # deformation times the conjugate exponent vector
    def embed(p, m, off):
        out = LaurentPolynomial.zero(m)
        for exp, coef in p.terms.items():
            e = [0] * m
            e[off:off + len(exp)] = exp
            out = out + LaurentPolynomial.monomial(e, coef)
        return out

    n = 2
    for symbols, sizes in [("C", (2,)), ("CA", (1, 1)), ("AC", (1, 2)),
                           ("AA", (1, 1)), ("CC", (1, 1))]:
        spec = DiagramSpec(symbols, sizes)
        m = spec.total()
        delta = LaurentPolynomial.one(m)
        off = 0
        for sym, size in zip(spec.symbols, spec.sizes):
            delta = delta * embed(delta_product(sym, size), m, off)
            off += size
        pools = [list(enumerate_rectangle(n, s)) for s in sizes]
        for comps in itertools.product(*pools):
            mu = MultiPartition(comps, sizes)
            mup = conjugate_concat(mu)
            lhs = char_product(mu, spec, n)
            rhs = E_map(delta * LaurentPolynomial.monomial(mup), "C", n)
            assert lhs == rhs, (symbols, sizes, mu)


def test_char_product_validates_components():
    spec = DiagramSpec("C", (1,))
    with pytest.raises(ValueError):
        char_product(MultiPartition([[2]], blocks=[1]), spec, 2)
    with pytest.raises(ValueError):
        char_product(MultiPartition([[1]], blocks=[1]),
                     DiagramSpec("CC", (1, 1)), 2)


def _naive_product(factors, n):
    """one(n) * f_1 * ... * f_r, left to right."""
    out = LaurentPolynomial.one(n)
    for f in factors:
        out = out * f
    return out


def _block_factors(key, n):
    return [weyl_character(comp, "C", n) if sym == "C"
            else schur_folded(comp, n) for sym, comp in key]


def test_char_products_match_left_to_right_products():
    # one table serves every spec of a rank; each entry decomposes, and
    # char_product equals, one(n) * f_1 * f_2 built from fresh factors
    for n in (1, 2):
        product = characters._char_products(n)
        for r in (1, 2):
            for symbols in itertools.product("AC", repeat=r):
                for sizes in itertools.product((1, 2), repeat=r):
                    spec = DiagramSpec(symbols, sizes)
                    pools = [list(enumerate_rectangle(n, k)) for k in sizes]
                    for comps in itertools.product(*pools):
                        mu = MultiPartition(comps, sizes)
                        keys = tuple(zip(symbols, comps))
                        naive = _naive_product(_block_factors(keys, n), n)
                        assert product(keys) == decompose(
                            naive, "C", n), (spec, mu)
                        assert char_product(mu, spec, n) == naive


@pytest.mark.parametrize("mu, spec, message", [
    # the component fits in 2 x 2, but the spec's block has size 1
    (MultiPartition([[1]], [2]), DiagramSpec("C", [1]),
     r"^multipartition blocks \(2,\) do not match spec sizes \(1,\)$"),
    (MultiPartition([[1]], [1]), DiagramSpec("CC", [1, 1]),
     r"^multipartition blocks \(1,\) do not match spec sizes \(1, 1\)$"),
    # the first component is fine, the second is not
    (MultiPartition([[1], [3]], [1, 1]), DiagramSpec("CA", [1, 1]),
     r"^partition \(3,\) does not fit in 2 x 1$"),
], ids=["block-size", "block-count", "second-component"])
def test_char_product_checks_before_building(monkeypatch, mu, spec, message):
    built = []
    monkeypatch.setattr(characters, "weyl_character",
                        lambda *args: built.append(args))
    monkeypatch.setattr(characters, "schur_folded",
                        lambda *args: built.append(args))
    with pytest.raises(ValueError, match=message):
        char_product(mu, spec, 2)
    assert built == []


@pytest.mark.parametrize("symbols, comps", [("C", [[1]]), ("CA", [[1], []])],
                         ids=["one-factor", "two-factors"])
def test_char_product_checks_its_first_factor(symbols, comps):
    # chi_(1) of sp_4 has 4 terms; a product that starts from it, even with
    # no other factor, is over a term cap of 3
    spec = DiagramSpec(symbols, [1] * len(comps))
    with limits.overridden({"term_cap": 3}):
        with pytest.raises(LimitExceeded,
                           match="^polynomial product forms 4 term pairs, "
                                 "above term_cap 3$"):
            char_product(MultiPartition(comps, spec.sizes), spec, 2)


def test_elem_sym_checks_its_cap_whatever_the_cache_holds():
    # e_3 of 22 letters: 1540 subsets, 1342 distinct exponents
    characters._elem_sym.cache_clear()
    message = "^e_3 of 22 letters has 1540 subsets, above enum_cap 1000$"
    with limits.overridden({"enum_cap": 1000}):
        with pytest.raises(LimitExceeded, match=message):
            elem_sym(3, "C", 11)
    assert len(elem_sym(3, "C", 11).terms) == 1342
    with limits.overridden({"enum_cap": 1000}):
        with pytest.raises(LimitExceeded, match=message):
            elem_sym(3, "C", 11)


def test_E_map_of_many_variables():
    # 1,500 column heights, multiplied in a loop with no frame per height
    p = LaurentPolynomial.monomial((1,) * 1500)
    assert E_map(p, "A", 1) == LaurentPolynomial.monomial((1500,))


def test_E_map_table_keys_have_fixed_size():
    # 3,000 heights multiplied left to right keep one running product
    p = LaurentPolynomial.monomial((1,) * 3000)
    tracemalloc.start()
    try:
        got = E_map(p, "A", 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == LaurentPolynomial.monomial((3000,))
    assert peak < 8 * 2 ** 20


def _column_heights(n, m):
    return [conjugate(mu).padded(m) for mu in enumerate_rectangle(n, m)]


@pytest.mark.parametrize("family,bound", [("A", 4), ("C", 3)])
def test_elem_products_match_left_to_right_products(family, bound):
    for n in range(1, bound + 1):
        for m in range(1, bound + 1):
            product = _elem_products(family, n)
            for heights in _column_heights(n, m):
                naive = _naive_product(
                    [elem_sym(k, family, n) for k in heights], n)
                assert E_map(LaurentPolynomial.monomial(heights),
                             family, n) == naive
                assert product(heights) == decompose(naive, family, n)


def test_elem_products_multiply_once_per_prefix(monkeypatch):
    # 70 height vectors of length 4: 280 steps when each is built anew
    heights = _column_heights(4, 4)
    product = _elem_products("A", 4)
    calls = []
    step = characters._klimyk_step

    def counting(*args):
        calls.append(1)
        return step(*args)

    monkeypatch.setattr(characters, "_klimyk_step", counting)
    for h in heights:
        product(h)
    prefixes = {h[:i] for h in heights for i in range(1, 5)}
    assert len(calls) == len(prefixes) == 125
    # a second pass is all table hits
    for h in heights:
        product(h)
    assert len(calls) == 125


@pytest.mark.parametrize("family", ["A", "C"])
def test_decomposition_chain_matches_decompose_on_duality_keys(family):
    # every key of the type A and C duality sweeps with n, m <= 3
    for n in range(1, 4):
        decomposition = _elem_products(family, n)
        for m in range(1, 4):
            for heights in _column_heights(n, m):
                product = E_map(LaurentPolynomial.monomial(heights), family, n)
                assert decomposition(heights) == decompose(
                    product, family, n), (n, heights)


def test_decomposition_chain_matches_decompose_on_generalized_keys():
    # every key of verify_generalized_duality with n <= 2, r <= 2 and
    # block sizes <= 2
    for n in (1, 2):
        decomposition = characters._char_products(n)
        for r in (1, 2):
            for symbols in itertools.product("AC", repeat=r):
                for sizes in itertools.product((1, 2), repeat=r):
                    for comps in itertools.product(
                            *(enumerate_rectangle(n, k) for k in sizes)):
                        key = tuple(zip(symbols, comps))
                        assert decomposition(key) == decompose(
                            _naive_product(_block_factors(key, n), n),
                            "C", n), key


@pytest.mark.parametrize("family, factor", [
    # a negated character: a negative multiplicity
    ("C", -weyl_character((1, 0), "C", 2)),
    # chi_(-1,-1) of gl_2: a constituent that is not a partition
    ("A", LaurentPolynomial.monomial((-1, -1))),
], ids=["negative", "not-a-partition"])
def test_decomposition_chain_rejects_non_characters_like_decompose(
        family, factor):
    with pytest.raises(NotACharacter) as want:
        decompose(factor, family, 2)
    chain = characters._products(lambda key: factor, family, 2)
    with pytest.raises(NotACharacter) as got:
        chain(("f",))
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("cap, sorted_before, message", [
    # e_2 of the 4 folded letters of sp_4 has 5 terms, and is
    # chi_(1,1) + chi_0: the first step pairs 1 x 5, the second 2 x 5
    (4, 0, "character step forms 5 (constituent, term) pairs, "
     "above term_cap 4"),
    (9, 5, "character step forms 10 (constituent, term) pairs, "
     "above term_cap 9"),
], ids=["first-step", "second-step"])
def test_decomposition_step_checks_term_cap_before_sorting(
        monkeypatch, cap, sorted_before, message):
    decomposition = _elem_products("C", 2)
    sorted_ = []
    chamber = characters._to_chamber
    monkeypatch.setattr(characters, "_to_chamber",
                        lambda *a: sorted_.append(a) or chamber(*a))
    with limits.overridden({"term_cap": cap}):
        with pytest.raises(LimitExceeded) as info:
            decomposition((2, 2))
    assert str(info.value) == message
    assert len(sorted_) == sorted_before
    assert decomposition((2, 2)) == decompose(
        elem_sym(2, "C", 2) * elem_sym(2, "C", 2), "C", 2)
