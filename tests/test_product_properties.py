"""Block-character products as derandomized property tests."""

import pytest

from howekit import (DiagramSpec, MultiPartition, char_product, decompose,
                     enumerate_rectangle)

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

# fixed examples and no example database, so runs are reproducible
SETTINGS = hypothesis.settings(derandomize=True, database=None,
                               max_examples=60, deadline=None)


@st.composite
def products(draw):
    # up to two A/C blocks of size <= 2 at rank n <= 3, each component
    # drawn from its n x size rectangle
    n = draw(st.integers(1, 3))
    r = draw(st.integers(1, 2))
    symbols = draw(st.tuples(*[st.sampled_from("AC")] * r))
    sizes = draw(st.tuples(*[st.integers(1, 2)] * r))
    comps = [draw(st.sampled_from(list(enumerate_rectangle(n, k))))
             for k in sizes]
    return MultiPartition(comps, sizes), DiagramSpec(symbols, sizes), n


@SETTINGS
@hypothesis.given(products())
def test_char_product_decomposes_into_the_rectangle(case):
    # decompose raises NotACharacter on a negative multiplicity
    mu, spec, n = case
    for lam in decompose(char_product(mu, spec, n), "C", n):
        assert lam.fits_in(n, spec.total()), (mu, spec, lam)
