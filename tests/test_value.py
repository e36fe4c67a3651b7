"""Every data class follows the one immutable value rule of howekit._value,
and copies and pickles through it."""

import copy
import inspect
import pickle

import pytest

import howekit
from howekit import (CharacterDecomposition, CrystalGraph, DiagramSpec,
                     KingElement, KingEntry, LaurentPolynomial,
                     MultiPartition, Partition, TensorElement, WeylElement)
from howekit._value import Value
from howekit.bicrystal import BarComplement

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
