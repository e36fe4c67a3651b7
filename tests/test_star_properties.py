"""Star duality and the King operators as derandomized property tests."""

import pytest

from howekit import (KingElement, TensorElement, enumerate_B, king_weight,
                     star, star_inverse)
from howekit.bicrystal import dilate, kappa, king_e, king_f

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

# fixed examples and no example database, so runs are reproducible
SETTINGS = hypothesis.settings(derandomize=True, database=None,
                               max_examples=60, deadline=None)


@st.composite
def elements(draw):
    # m random admissible columns of rank n <= 5, m <= 4: an element of
    # B(mu') for random column heights mu'
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 4))
    cols = [draw(st.sampled_from(list(enumerate_B((h,), n)))).columns[0]
            for h in draw(st.tuples(*[st.integers(0, 2 * n)] * m))]
    return TensorElement(cols, n)


def indices(m):
    # the unbarred operators 1..m and the barred ones -1..-(m-1)
    return list(range(1, m + 1)) + [-j for j in range(1, m)]


@SETTINGS
@hypothesis.given(elements())
def test_star_round_trips(b):
    n, m = b.n, len(b.columns)
    t = star(b)
    assert star_inverse(t, n, m) == b
    assert king_weight(t) == tuple(n - h for h in reversed(b.heights()))
    assert KingElement.from_json_obj(t.to_json_obj(), m) == t


@SETTINGS
@hypothesis.given(elements())
def test_transported_and_king_operators_invert(b):
    t = star(b)
    for j in indices(len(b.columns)):
        up = kappa(j, b)
        if up is not None:
            assert dilate(j, up) == b
        raised = king_e(j, t)
        if raised is not None:
            assert king_f(j, raised) == t
