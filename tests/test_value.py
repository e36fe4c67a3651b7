"""Every data class follows the one immutable value rule of howekit._value,
and copies and pickles through it; its repr and the guards of its
constructors and of the functions that check their arguments read as
pinned here."""

import copy
import inspect
import pickle
import re

import pytest

import howekit
from howekit import (CharacterDecomposition, CrystalGraph, DiagramSpec,
                     HowekitError, KingElement, KingEntry, LaurentPolynomial,
                     MultiPartition, Partition, TensorElement, WeylElement,
                     branching_coefficient, crystal_f, enumerate_rectangle,
                     kappa, king_e, kostant_partition, limits, positive_roots,
                     star, weight_multiplicity)
from howekit._value import Value
from howekit.bicrystal import BarComplement
from howekit.characters import decompose, elem_sym, jt_determinant, straighten

# k = 0 twice gives two equal instances, k = 1 a different one
EXAMPLES = {
    Partition: lambda k: Partition([2, k]),
    MultiPartition: lambda k: MultiPartition([[1], [k]], [1, 1]),
    WeylElement: lambda k: WeylElement([1, 2], [1, 1 - 2 * k]),
    DiagramSpec: lambda k: DiagramSpec("AC", [1, 1 + k]),
    LaurentPolynomial: lambda k: LaurentPolynomial(1, {(k,): 1}),
    CharacterDecomposition: lambda k: CharacterDecomposition({(1,): 1 + k}),
    TensorElement: lambda k: TensorElement([(-1,), (1 + k,)], 2),
    CrystalGraph: lambda k: CrystalGraph([TensorElement([(-1,)], 1 + k)],
                                         [], 1 + k),
    KingEntry: lambda k: KingEntry(1, bool(k)),
    KingElement: lambda k: KingElement([[(1, bool(k))]], 1),
    BarComplement: lambda k: BarComplement([(-1,), (-1 - k,)], 2),
}


def test_every_data_class_has_an_example():
    exported = {obj for obj in map(howekit.__dict__.get, howekit.__all__)
                if inspect.isclass(obj) and not issubclass(obj, Exception)}
    assert exported | {BarComplement} == set(EXAMPLES)


@pytest.mark.parametrize("cls", list(EXAMPLES), ids=lambda c: c.__name__)
def test_value_rule(cls):
    make = EXAMPLES[cls]
    a, b, c = make(0), make(0), make(1)
    assert issubclass(cls, Value)
    for name in cls.__slots__ + ("other",):
        with pytest.raises(AttributeError, match="is immutable"):
            setattr(a, name, None)
    assert a == b and not a != b
    if cls is CharacterDecomposition:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    assert a != c and not a == c
    # the constructor takes the fields in __slots__ order, as _trusted does
    assert cls(*(getattr(a, s) for s in cls.__slots__)) == a
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(twin) is cls and twin == a
        if cls is not CharacterDecomposition:
            assert hash(twin) == hash(a)


@pytest.mark.parametrize("value, text", [
    (BarComplement([(-2, -1), ()], 2), "BarComplement([[-2, -1], []], 2)"),
    (CharacterDecomposition({(2, 1): -1, (1,): 2}),  # items in key order
     "CharacterDecomposition({(1,): 2, (2, 1): -1})"),
    (LaurentPolynomial.zero(2), "LaurentPolynomial(2, 0)"),
    (LaurentPolynomial(2, {(1, -1): 3, (0, 0): -2}),
     "LaurentPolynomial(2, -2*x^[0, 0] +3*x^[1, -1])"),
    (KingEntry(2, True), "KingEntry(2, True)"),
    (MultiPartition([[2, 1], []], [2, 3]),
     "MultiPartition([[2, 1], []], blocks=[2, 3])"),
    (WeylElement((2, 1), (1, -1)), "WeylElement(perm=[2, 1], signs=[1, -1])"),
], ids=["bar-complement", "decomposition", "zero-polynomial", "polynomial",
        "king-entry", "multipartition", "weyl-element"])
def test_repr(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("call, error, message", [
    (lambda: TensorElement([], 0), HowekitError,
     "rank must be positive"),
    (lambda: elem_sym(1, "A", -1), ValueError, "n must be nonnegative"),
    (lambda: elem_sym(1, "B", 2), ValueError, "family must be A or C, got 'B'"),
    (lambda: jt_determinant((), "A", 2, 0), ValueError, "m must be >= 1"),
    (lambda: straighten((1,), "B", 2, 1), ValueError, "family must be A or C"),
    (lambda: decompose(LaurentPolynomial.one(2), "C", 3), ValueError,
     "polynomial arity 2 does not match rank 3"),
    (lambda: LaurentPolynomial(-1), ValueError, "nvars must be nonnegative"),
    (lambda: LaurentPolynomial.one(1) ** -1, ValueError,
     "negative powers not supported"),
    (lambda: LaurentPolynomial.zero(1).lex_max(), ValueError,
     "zero polynomial has no leading term"),
    (lambda: Partition((3, 2, 1)).padded(2), ValueError,
     "partition (3, 2, 1) has more than 2 parts"),
    (lambda: WeylElement((1, 1)), ValueError,
     "perm must be a permutation of 1..m: (1, 1)"),
    (lambda: WeylElement((1, 2), (1, 0)), ValueError,
     "signs must be a tuple of +-1 of length 2"),
    (lambda: WeylElement((1, 2)).compose(WeylElement((1,))), ValueError,
     "rank mismatch"),
    (lambda: KingEntry(0), HowekitError,
     "entry value must be >= 1, got 0"),
    (lambda: Partition((2.7, 1)), ValueError, "2.7 is not an integer"),
], ids=["tensor-rank", "elem-sym-rank", "elem-sym-family", "jt-columns",
        "straighten-family", "decompose-arity", "laurent-arity",
        "negative-power", "zero-lex-max", "padded", "weyl-perm",
        "weyl-signs", "compose-rank", "king-entry", "not-an-integer"])
def test_guard_message(call, error, message):
    with pytest.raises(error, match="^%s$" % re.escape(message)):
        call()


def _overridden(caps):
    with limits.overridden(caps):
        pass


B = TensorElement([(-2,), (1,)], 2)

# each call hands a non-integral value to a coercion of an integer argument
NON_INTEGERS = {
    "partition": (lambda: Partition((2.7, 1)), 2.7),
    "tensor-letter": (lambda: TensorElement([(1.5,)], 3), 1.5),
    "crystal-f": (lambda: crystal_f(1.5, B), 1.5),
    "kappa": (lambda: kappa(1.5, B), 1.5),
    "king-e": (lambda: king_e(1.5, star(B)), 1.5),
    "laurent-coef": (lambda: LaurentPolynomial(1, {(1,): 2.9}), 2.9),
    "scale": (lambda: LaurentPolynomial.one(1).scale(1.5), 1.5),
    "spec-size": (lambda: DiagramSpec("C", [1.9]), 1.9),
    "elem-sym": (lambda: elem_sym(1.5, "A", 2), 1.5),
    "rectangle": (lambda: enumerate_rectangle(1, 1.5), 1.5),
    "weight-mult": (lambda: weight_multiplicity(("C", 2), (1, 0), (0.9, 0)),
                    0.9),
    "branching": (lambda: branching_coefficient(
        (1,), DiagramSpec("C", [1]), (1.5,)), 1.5),
    "kostant": (lambda: kostant_partition(positive_roots(("C", 2)),
                                          (1.5, 0.5)), 1.5),
    "cap": (lambda: _overridden({"enum_cap": 2.5}), 2.5),
}


@pytest.mark.parametrize("name", NON_INTEGERS)
def test_non_integers_are_refused(name):
    call, x = NON_INTEGERS[name]
    with pytest.raises(ValueError, match="^%s$" % re.escape(
            "%r is not an integer" % x)):
        call()


def test_integral_values_and_integer_strings_pass():
    assert type(Partition((2.0, True)).parts[1]) is int
    assert Partition((2.0, True)).parts == (2, 1)
    assert LaurentPolynomial(1, {(1.0,): "2"}) == \
        LaurentPolynomial(1, {(1,): 2})
    assert DiagramSpec("C", ["2"]).sizes == (2,)
    assert crystal_f(1.0, B) == crystal_f(1, B)
