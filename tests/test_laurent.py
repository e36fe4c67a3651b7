"""Sparse Laurent polynomial arithmetic and the deformation factors."""

import itertools
import math
import operator
import random

import pytest

from howekit import LaurentPolynomial, LimitExceeded
from howekit import limits
from howekit.characters import delta_product, elem_sym


def mono(exp, c=1):
    return LaurentPolynomial.monomial(exp, c)


def random_poly(rng, nvars, nterms, span=3):
    p = LaurentPolynomial.zero(nvars)
    for _ in range(nterms):
        exp = tuple(rng.randint(-span, span) for _ in range(nvars))
        p = p + mono(exp, rng.randint(-4, 4))
    return p


def test_constructors_and_basics():
    one = LaurentPolynomial.one(2)
    zero = LaurentPolynomial.zero(2)
    assert one != zero
    assert zero.is_zero()
    assert (one - one).is_zero()
    assert one.coefficient((0, 0)) == 1
    assert one.coefficient((5, 5)) == 0
    assert len(mono((1, -1), 3)) == 1
    assert mono((1, 0)) + mono((1, 0)) == mono((1, 0), 2)
    assert mono((1, 0), 1) + mono((1, 0), -1) == zero


def test_ring_axioms_on_samples():
    rng = random.Random(11)
    for _ in range(25):
        p = random_poly(rng, 2, 3)
        q = random_poly(rng, 2, 3)
        r = random_poly(rng, 2, 2)
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) * r == p * r + q * r
        assert (p * q) * r == p * (q * r)
        assert p - p == LaurentPolynomial.zero(2)


def test_pow_shift_lexmax_ones():
    x = mono((1, 0))
    y = mono((0, 1))
    p = (x + y) ** 3
    assert p.coefficient((2, 1)) == 3
    assert p.evaluate_ones() == 8
    assert p.lex_max() == (3, 0)
    assert p.shift((0, -1)) == (x + y) ** 3 * mono((0, -1))
    assert (x + y) ** 0 == LaurentPolynomial.one(2)


def test_arity_mismatch():
    with pytest.raises(ValueError):
        LaurentPolynomial.one(2) + LaurentPolynomial.one(3)
    with pytest.raises(ValueError):
        LaurentPolynomial.one(2) * LaurentPolynomial.one(3)


def test_exact_div_round_trip():
    rng = random.Random(7)
    hits = 0
    while hits < 15:
        p = random_poly(rng, 2, 3)
        q = random_poly(rng, 2, 2)
        if q.is_zero():
            continue
        assert (p * q).exact_div(q) == p
        hits += 1


def test_exact_div_rejects_nondivisible():
    from howekit import HowekitError
    x = mono((1,))
    one = LaurentPolynomial.one(1)
    with pytest.raises(HowekitError):
        (x + one).exact_div(x - one)
    with pytest.raises(HowekitError):
        # exact leading term, non-exact constant coefficient
        (x.scale(2) + one).exact_div(x.scale(2) + one.scale(2))
    with pytest.raises(ZeroDivisionError):
        one.exact_div(LaurentPolynomial.zero(1))


def test_exact_div_rejects_before_step_cap():
    # the lex lower bound on quotient exponents, not a step cap (there is
    # none), detects these inexact divisions within a few steps
    from howekit import HowekitError
    one = LaurentPolynomial.one(1)
    x = mono((1,))
    x1, x2 = mono((1, 0)), mono((0, 1))
    with pytest.raises(HowekitError, match="not exact"):
        (x + one).exact_div(x - one)
    with pytest.raises(HowekitError, match="not exact"):
        (x1 + x2).exact_div(x1 - x2)
    assert (x1 * x1 - x2 * x2).exact_div(x1 - x2) == x1 + x2


def test_exact_div_box_stops_an_endless_descent():
    # (x1 + 1) / (x2 - 1) peels x1/x2, x1/x2^2, ...: the first coordinate
    # stays above the lex floor, so only the Newton box ends the loop
    from howekit import HowekitError
    one = LaurentPolynomial.one(2)
    x1, x2 = mono((1, 0)), mono((0, 1))
    with pytest.raises(HowekitError, match="outside the box"):
        (x1 + one).exact_div(x2 - one)


def test_cold_weyl_character_ignores_decompose_cap():
    # exact division is bounded by its box, not by any cap
    from howekit import Partition, weyl_character
    from howekit.characters import _weyl_character_cached
    _weyl_character_cached.cache_clear()
    chi = weyl_character(Partition((2, 1)), "A", 3)
    assert len(chi) == 7
    assert chi == weyl_character(Partition((2, 1)), "A", 3)


def test_trusted_results_equal_validated_ones(trusted_builds):
    # sums, negations, scalings, products and quotients skip the
    # constructor's checks; the fixture rebuilds each through it
    reached, mismatches = trusted_builds
    rng = random.Random(5)
    for _ in range(20):
        p = random_poly(rng, 2, 4)
        q = random_poly(rng, 2, 3)
        p + q, p + (-p), -p, p.scale(-3), p * q, q * p
        if not q.is_zero():
            (p * q).exact_div(q)
    assert mismatches == []
    assert reached >= {("laurent", "LaurentPolynomial." + f)
                       for f in ("__add__", "scale", "__mul__", "exact_div")}


def test_json_round_trip_and_ordering():
    p = mono((1, -2), 3) + mono((0, 0), -1) + mono((2, 2))
    obj = p.to_json_obj()
    assert obj == sorted(obj, key=lambda t: t["exp"])
    assert LaurentPolynomial.from_json_obj(obj) == p
    assert LaurentPolynomial.from_json_obj([], nvars=2) == \
        LaurentPolynomial.zero(2)
    # repeated exponents merge, cancelling ones vanish, arity is checked
    assert LaurentPolynomial.from_json_obj(
        [{"exp": [1], "coef": 2}, {"exp": [0], "coef": 1},
         {"exp": [1], "coef": "-2"}]) == mono((0,))
    with pytest.raises(ValueError, match="cannot infer arity"):
        LaurentPolynomial.from_json_obj([])
    with pytest.raises(ValueError, match="wrong arity"):
        LaurentPolynomial.from_json_obj(obj, nvars=3)


def test_delta_factors_pinned():
    # one variable: single factor 1 - x^-2
    d1 = delta_product("C", 1)
    assert d1 == LaurentPolynomial.one(1) - mono((-2,))
    # two variables: the expansion has exactly 8 monomials
    d2 = delta_product("C", 2)
    assert len(d2) == 8
    assert d2.coefficient((0, 0)) == 1
    a2 = delta_product("A", 2)
    assert a2 == LaurentPolynomial.one(2) - mono((1, -1))
    # the A factor of the C deformation divides it exactly
    assert d2.exact_div(a2) is not None


def test_term_cap_trips_on_products():
    big = LaurentPolynomial.zero(1)
    for k in range(40):
        big = big + mono((k,))
    with limits.overridden({"term_cap": 50}):
        with pytest.raises(LimitExceeded):
            big * big
    assert len(big * big) == 79


def test_term_cap_counts_pairs():
    # p * p forms 5 x 5 = 25 pairs but has only 9 terms: the cap counts
    # the pairs, so 24 refuses it although its result would fit
    p = sum((mono((k,)) for k in range(1, 6)), LaurentPolynomial.zero(1))
    with limits.overridden({"term_cap": 24}):
        with pytest.raises(LimitExceeded,
                           match="^polynomial product forms 25 term pairs, "
                                 "above term_cap 24$"):
            p * p
    with limits.overridden({"term_cap": 25}):
        assert len(p * p) == 9


def test_product_over_term_cap_forms_no_pair(monkeypatch):
    from howekit import laurent
    calls = []
    monkeypatch.setattr(laurent, "add",
                        lambda *a: calls.append(a) or operator.add(*a))
    p = sum((mono((k,)) for k in range(1, 6)), LaurentPolynomial.zero(1))
    with limits.overridden({"term_cap": 24}):
        with pytest.raises(LimitExceeded):
            p * p
    assert calls == []
    # the stub sees every pair of a product under the cap
    assert len(p * p) == 9 and len(calls) == 25


def test_overridden_converts_every_value_first():
    p = sum((mono((k,)) for k in range(1, 3)), LaurentPolynomial.zero(1))
    with limits.overridden({"term_cap": "3"}):
        assert limits.get_cap("term_cap") == 3
        with pytest.raises(LimitExceeded, match="term_cap 3$"):
            p * p
    default = limits.get_cap("term_cap")
    with pytest.raises(ValueError, match="invalid literal for int"):
        with limits.overridden({"term_cap": "3", "enum_cap": "many"}):
            pass
    assert limits.get_cap("term_cap") == default


def test_check_formats_its_message_only_to_raise():
    class Unspellable:
        def __repr__(self):
            raise AssertionError("formatted under the cap")
    assert limits.check("term_cap", 3, "%r has %d pairs", Unspellable()) == 3


def test_elem_sym_values():
    # A family: coefficient census matches binomials
    for n in (1, 2, 3):
        for k in range(0, n + 1):
            p = elem_sym(k, "A", n)
            assert len(p) == math.comb(n, k)
            assert p.evaluate_ones() == math.comb(n, k)
        assert elem_sym(-1, "A", n).is_zero()
        assert elem_sym(n + 1, "A", n).is_zero()
        assert elem_sym(0, "A", n) == LaurentPolynomial.one(n)
    # C family: 2n folded letters
    for n in (1, 2, 3):
        for k in range(0, 2 * n + 1):
            assert elem_sym(k, "C", n).evaluate_ones() == \
                math.comb(2 * n, k)
        assert elem_sym(2 * n + 1, "C", n).is_zero()


def test_elem_sym_fold_symmetry():
    # e_{n+k} = e_{n-k} in the folded variables
    for n in (1, 2, 3):
        for k in range(0, n + 1):
            assert elem_sym(n + k, "C", n) == elem_sym(n - k, "C", n)


def test_elem_sym_checks_subsets_against_enum_cap():
    # keys no other test builds: lru_cache keeps results, never exceptions
    with limits.overridden({"enum_cap": math.comb(13, 5) - 1}):
        with pytest.raises(LimitExceeded):
            elem_sym(5, "A", 13)
    with limits.overridden({"enum_cap": math.comb(14, 4) - 1}):
        with pytest.raises(LimitExceeded):
            elem_sym(4, "C", 7)
    with limits.overridden({"enum_cap": math.comb(13, 5)}):
        assert elem_sym(5, "A", 13).evaluate_ones() == math.comb(13, 5)
    # C(28, 14) is about 40 M subsets: rejected before any is built
    with pytest.raises(LimitExceeded):
        elem_sym(14, "C", 14)


def test_non_polynomial_operands_raise_type_error():
    p = mono((1, 0)) + mono((0, -1), 2)
    cases = [(op, bad) for op in (operator.add, operator.sub)
             for bad in (1, 2.5, "x", None)]
    cases += [(operator.mul, bad) for bad in (2.5, "x", None)]
    for op, bad in cases:
        with pytest.raises(TypeError):
            op(p, bad)
        with pytest.raises(TypeError):
            op(bad, p)
    assert p * True == p
    assert 2 * p == p * 2 == p + p
    assert (p * 0).is_zero()
