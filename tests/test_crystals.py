"""Column tensor crystals: operators, admissibility, graph generation."""

import functools
import itertools
import math

import pytest

from howekit import (CrystalGraph, HowekitError, LaurentPolynomial, LimitExceeded,
                     Partition, TensorElement, crystal_e, crystal_f,
                     enumerate_B, generate_crystal_graph, highest_weight_seed,
                     highest_weight_vertices, is_admissible, is_coadmissible,
                     is_highest_weight, weight_of, weyl_character)
from howekit import limits
from howekit import crystals
from howekit.crystals import _highest_weight_walk


def all_elements(mu_prime, n):
    return list(enumerate_B(mu_prime, n))


def test_column_validation():
    with pytest.raises(HowekitError):
        TensorElement([(0,)], 2)
    with pytest.raises(HowekitError):
        TensorElement([(2, 1)], 2)
    with pytest.raises(HowekitError):
        TensorElement([(3,)], 2)
    with pytest.raises(HowekitError):
        TensorElement([(1, 1)], 2)


def test_word_and_weight():
    b = TensorElement([(-4, -3), (-2, -1, 1), (-4,)], 4)
    assert b.word() == (-4, -3, -2, -1, 1, -4)
    assert weight_of(b) == (2, 1, 1, 0)
    assert b.heights() == (2, 3, 1)
    # barred letters count negatively
    assert weight_of(TensorElement([(-1, 1)], 1)) == (0,)
    assert weight_of(TensorElement([(1,), (1,)], 2)) == (0, -2)


def test_operator_words_pinned():
    w = TensorElement([(-1,), (2,), (-2, 1), (2,), (2,), (1,), (-1,), (-2,)], 2)
    assert crystal_f(1, w).word() == (-1, 2, -2, 1, 2, 2, 1, -1, -1)
    assert crystal_e(1, w).word() == (-1, 1, -2, 1, 2, 2, 1, -1, -2)
    # the index-zero arrow turns the lowest barred letter around
    assert crystal_f(0, TensorElement([(-1,)], 1)) == TensorElement([(1,)], 1)
    assert crystal_e(0, TensorElement([(1,)], 1)) == TensorElement([(-1,)], 1)


def test_operators_are_partial_inverses():
    for n, mu_p in [(2, (1, 1)), (2, (2,)), (3, (2, 1))]:
        for b in all_elements(mu_p, n):
            for i in range(n):
                fb = crystal_f(i, b)
                if fb is not None:
                    assert crystal_e(i, fb) == b
                eb = crystal_e(i, b)
                if eb is not None:
                    assert crystal_f(i, eb) == b


def test_operators_preserve_heights():
    for b in all_elements((2, 1), 2):
        for i in range(2):
            fb = crystal_f(i, b)
            if fb is not None:
                assert fb.heights() == b.heights()


def test_admissibility_pinned():
    assert not is_admissible((-2, -1, 1, 3), 3)
    assert is_admissible((-2, -1, 1, 3), 4)
    assert is_admissible((-3, -2), 3)
    assert is_coadmissible((-2, 1), 2)
    assert not is_coadmissible((-1, 1), 2)


def test_highest_weight_is_operator_kill_set():
    for n, mu_p in [(2, (1, 1)), (2, (2, 1)), (3, (2, 1))]:
        for b in all_elements(mu_p, n):
            assert is_highest_weight(b) == \
                all(crystal_e(i, b) is None for i in range(n))


def test_enumerate_B_counts(monkeypatch):
    # alphabet combinations are columns by construction: none is rechecked
    checks = []
    monkeypatch.setattr(crystals, "check_column", lambda *a: checks.append(a))
    for n, mu_p in [(2, (1,)), (2, (2, 1)), (3, (3, 2))]:
        want = math.prod(math.comb(2 * n, h) for h in mu_p)
        got = all_elements(mu_p, n)
        assert len(got) == want
        assert len(set(got)) == want
        # lex order: columns left to right, each column's letters in order
        assert [b.columns for b in got] == sorted(b.columns for b in got)
    assert all_elements((), 2) == [TensorElement([], 2)]
    assert checks == []


def test_highest_weight_vertices_weights():
    n = 2
    for mu_p in [(1, 1), (2, 1), (2, 2)]:
        for lam in [(1, 1), (2, 0), (2, 2)]:
            vs = highest_weight_vertices(mu_p, Partition(lam).padded(n), n)
            for b in vs:
                assert is_highest_weight(b)
                assert weight_of(b) == Partition(lam).padded(n)
                assert b.heights() == mu_p


@functools.cache
def highest_weight_oracle(mu_p, n):
    # every element of B_{mu'} run through is_highest_weight
    return [b for b in enumerate_B(mu_p, n) if is_highest_weight(b)]


def test_highest_weight_generator_matches_filter():
    cases = [(n, m) for n in (1, 2, 3) for m in (0, 1, 2)] + [(2, 3), (3, 3)]
    for n, m in cases:
        for mu_p in itertools.product(range(2 * n + 1), repeat=m):
            want = highest_weight_oracle(mu_p, n)
            [(_, pairs)] = _highest_weight_walk([(h,) for h in mu_p], n)
            assert [b for b, _ in pairs] == want, (n, mu_p)
            for w in {weight_of(b) for b in want}:
                assert highest_weight_vertices(mu_p, w, n) == [
                    b for b in want if weight_of(b) == w], (n, mu_p, w)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_highest_weight_walk_matches_filter(n, m):
    # the shared walk lists every mu' in product order, each with its
    # highest weight elements and their weights
    got = list(_highest_weight_walk([range(2 * n + 1)] * m, n))
    keys = list(itertools.product(range(2 * n + 1), repeat=m))
    assert [mu_p for mu_p, _ in got] == keys
    for mu_p, pairs in got:
        assert pairs == [(b, weight_of(b))
                         for b in highest_weight_oracle(mu_p, n)], mu_p


def test_highest_weight_generator_walks_many_columns():
    # 600 columns of height 2 at rank 1: only (-1, 1) each time; the walk
    # keeps its own stack, so the column count is not a recursion depth
    assert highest_weight_vertices((2,) * 600, (), 1) == [
        TensorElement([(-1, 1)] * 600, 1)]


def _vertices_of_weight_221(mu_p, n):
    # highest_weight_vertices as an iterator, at the weight (2, 2, 1) of
    # the vertex (3bar, 2bar, 1bar) (3bar, 2bar) of B_{(3, 2)}, n = 3
    return iter(highest_weight_vertices(mu_p, (2, 2, 1), n))


@pytest.mark.parametrize("enum", [enumerate_B, _vertices_of_weight_221],
                         ids=["enumerate_B", "highest_weight_vertices"])
def test_B_enumerations_check_heights_and_cap(enum):
    with pytest.raises(HowekitError, match=r"column height 7 outside 0\.\.6"):
        next(enum((1, 7), 3))
    with limits.overridden({"enum_cap": 299}):
        with pytest.raises(LimitExceeded, match="B_{mu'} has 300 elements, "
                           "above enum_cap 299"):
            next(enum((3, 2), 3))
    with limits.overridden({"enum_cap": 300}):
        assert next(enum((3, 2), 3)).heights() == (3, 2)


def test_highest_weight_seed():
    seed = highest_weight_seed((2, 1), 2)
    assert seed == TensorElement([(-2, -1), (-2,)], 2)
    assert is_highest_weight(seed)
    with pytest.raises(HowekitError):
        highest_weight_seed((1, 1, 1), 2)


def test_highest_weight_seed_checks_the_column_count():
    with pytest.raises(HowekitError, match=r"^weight Partition\(\[2, 1\]\) "
                       "needs more than 1 columns$"):
        highest_weight_seed((2, 1), 2, 1)


def test_highest_weight_vertices_check_the_weight_arity():
    with pytest.raises(HowekitError, match=r"^weight \(1, 0, 0\) does not "
                       "have 2 coordinates$"):
        highest_weight_vertices((1,), (1, 0, 0), 2)


def test_vector_module_orbit():
    # the rank-one column space is a single cycle through all 2n letters
    for n in (2, 3):
        g = generate_crystal_graph(TensorElement([(-n,)], n))
        assert len(g) == 2 * n


def test_graph_from_two_row_column():
    g = generate_crystal_graph(TensorElement([(-3, -2)], 3))
    assert len(g) == 14
    dot = g.to_dot()
    assert dot.startswith("digraph")
    assert dot.count("label=") >= 14
    obj = g.to_json_obj()
    assert len(obj["vertices"]) == 14
    assert all(len(e) == 3 for e in obj["edges"])


def test_graph_character_identity():
    for lam in [(1, 0), (1, 1), (2, 1)]:
        g = generate_crystal_graph(highest_weight_seed(lam, 2))
        p = LaurentPolynomial.zero(2)
        for v in g.vertices:
            p = p + LaurentPolynomial.monomial(weight_of(v))
        assert p == weyl_character(lam, "C", 2)


def test_graph_restricted_ops():
    b = TensorElement([(-3, -2)], 3)
    sub = generate_crystal_graph(b, ops=(1,))
    full = generate_crystal_graph(b)
    assert len(sub) <= len(full)
    assert all(lbl == 1 for _, lbl, _ in sub.edges)


def test_vertex_cap():
    with limits.overridden({"vertex_cap": 5}):
        with pytest.raises(LimitExceeded):
            generate_crystal_graph(TensorElement([(-3, -2)], 3))


def test_dimension_formula_counts_highest_weight_components():
    # every highest weight element of B_{mu'} with n <= 3 and m <= 2
    checked = 0
    for n in (1, 2, 3):
        for m in (1, 2):
            for mu_p in itertools.product(range(2 * n + 1), repeat=m):
                for b in enumerate_B(mu_p, n):
                    if is_highest_weight(b):
                        assert crystals._dimension(weight_of(b)) == len(
                            generate_crystal_graph(b)), b
                        checked += 1
    assert checked == 254


def test_vertex_cap_trips_before_the_walk(monkeypatch):
    # a highest weight seed of dimension 4,045,184: no f_i is applied
    seed = TensorElement([range(-6, 0), range(-6, 0), (-6, -5, -4)], 6)
    calls = []
    monkeypatch.setattr(crystals, "crystal_f",
                        lambda *args: calls.append(args))
    with pytest.raises(LimitExceeded,
                       match="^crystal graph has 4045184 vertices, "
                             "above vertex_cap 1000000$"):
        generate_crystal_graph(seed)
    assert calls == []


def test_vertex_cap_walks_other_closures():
    # [[1]] is not highest weight: its closure lists 2 of the 4 vertices
    # of its component, and an ops subset closes a seed partway
    b = TensorElement([(1,)], 2)
    assert len(generate_crystal_graph(b)) == 2
    with limits.overridden({"vertex_cap": 2}):
        assert len(generate_crystal_graph(b)) == 2
    seed = TensorElement([(-3, -2)], 3)
    with limits.overridden({"vertex_cap": len(
            generate_crystal_graph(seed, ops=(1,)))}):
        generate_crystal_graph(seed, ops=(1,))
        with pytest.raises(LimitExceeded):
            generate_crystal_graph(seed)


@pytest.mark.parametrize("seed, ops", [
    # not highest weight: no dimension to check before the walk
    (TensorElement([(1,)], 2), None),
    # highest weight, but an ops subset closes only part of B(lambda)
    (TensorElement([(-3, -2)], 3), (1,)),
], ids=["not-highest-weight", "ops-subset"])
def test_vertex_cap_trips_as_the_graph_grows(seed, ops):
    # both closures have 2 vertices: the second is one over a cap of 1
    with limits.overridden({"vertex_cap": 1}):
        with pytest.raises(LimitExceeded, match="^crystal graph has at least "
                           "2 vertices, above vertex_cap 1$"):
            generate_crystal_graph(seed, ops)


def test_highest_weight_elements_equal_validated_ones(trusted_builds):
    reached, mismatches = trusted_builds
    cases = [(n, m) for n in (1, 2, 3) for m in (0, 1, 2)] + [(2, 3), (3, 3)]
    for n, m in cases:
        for mu_p in itertools.product(range(2 * n + 1), repeat=m):
            [(_, pairs)] = _highest_weight_walk([(h,) for h in mu_p], n)
            for w in {w for _, w in pairs}:
                list(highest_weight_vertices(mu_p, w, n))
    assert mismatches == []
    assert ("crystals", "_highest_weight_walk") in reached


def test_operator_images_equal_validated_ones(trusted_builds):
    reached, mismatches = trusted_builds
    for n in (1, 2, 3):
        for m in (1, 2):
            for mu_p in itertools.product(range(2 * n + 1), repeat=m):
                for b in enumerate_B(mu_p, n):
                    for i in range(n):
                        crystal_f(i, b), crystal_e(i, b)
    assert mismatches == []
    assert reached >= {("crystals", "enumerate_B"), ("crystals", "_apply_at")}


def test_highest_weight_elements_keep_the_rank_check():
    # the rank is checked before any column height
    for call in [lambda: highest_weight_vertices((), (), 0),
                 lambda: highest_weight_vertices((1,), (), 0),
                 lambda: list(enumerate_B((1,), 0)),
                 lambda: list(enumerate_B((0,), -1))]:
        with pytest.raises(HowekitError, match="^rank must be positive$"):
            call()


def test_highest_weight_vertices_read_weights_off_the_walk(monkeypatch):
    # the walk carries each vertex's weight, so no weight_of call is made
    want = [b for b in highest_weight_oracle((2, 1, 2), 2)
            if weight_of(b) == (2, 1)]
    calls = []
    real = crystals.weight_of
    monkeypatch.setattr(crystals, "weight_of",
                        lambda b: calls.append(b) or real(b))
    assert want and highest_weight_vertices((2, 1, 2), (2, 1), 2) == want
    assert calls == []
