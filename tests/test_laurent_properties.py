"""Ring laws of the Laurent kernel as derandomized property tests."""

import pytest

from howekit import LaurentPolynomial

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

# fixed examples and no example database, so runs are reproducible
SETTINGS = hypothesis.settings(derandomize=True, database=None,
                               max_examples=60, deadline=None)


def polys(nvars, min_terms=0):
    exps = st.tuples(*[st.integers(-2, 2)] * nvars)
    terms = st.dictionaries(exps, st.integers(-3, 3), min_size=min_terms,
                            max_size=4)
    return terms.map(lambda t: LaurentPolynomial(nvars, t))


def triples(min_terms=0):
    return st.integers(1, 3).flatmap(
        lambda n: st.tuples(polys(n), polys(n), polys(n, min_terms)))


@SETTINGS
@hypothesis.given(triples())
def test_multiplication_commutes_and_associates(abc):
    a, b, c = abc
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)


@SETTINGS
@hypothesis.given(triples())
def test_multiplication_distributes_over_addition(abc):
    a, b, c = abc
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


@SETTINGS
@hypothesis.given(triples(min_terms=1))
def test_exact_div_undoes_multiplication(abc):
    a, _, c = abc
    hypothesis.assume(not c.is_zero())
    assert (a * c).exact_div(c) == a
