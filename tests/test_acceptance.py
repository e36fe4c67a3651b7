"""Acceptance gate: twelve exact-equality criteria, one verdict line each.

Every test computes its criterion from scratch, records a PASS/FAIL line
through _acreport (echoed in the terminal summary), and then asserts.
Budgets are generous wall-clock ceilings; all identities are exact.
"""

import itertools
import json
import re
import time

from _acreport import record

from howekit import (DiagramSpec, LaurentPolynomial, MultiPartition,
                     Partition, TensorElement, bar_complement,
                     branching_coefficient, char_product, charge_king,
                     conjugate, crystal_e, crystal_f, decompose, elem_sym,
                     enumerate_king_tableaux, enumerate_rectangle,
                     generate_crystal_graph, hat, hat_multi,
                     highest_weight_seed, highest_weight_vertices,
                     injectivity_scan, is_admissible, is_highest_weight,
                     is_king_tableau, jdt_bar, jt_determinant, kappa,
                     king_e, king_f, kostant_partition, mu_of_n,
                     multiplicity_branch_route, multiplicity_char_route,
                     star, star_inverse, statistics, straighten,
                     tilde_expand, verify_bijection, verify_contraction,
                     verify_generalized_duality, verify_howe_duality,
                     verify_jdt, verify_schur_duality, weight_multiplicity,
                     weight_of, weyl_character)
from howekit.bicrystal import delta_count, epsilon_string, to_lowest
from howekit.characters import E_map, delta_product
from howekit.cli import dispatch
from howekit.duality import KingElement, KingEntry, king_weight
from howekit.weyl import (WeylElement, dot_delta_C, dot_rho, enumerate_weyl,
                          positive_roots, sign, transposition)


def _sweep(fn, pairs):
    cells, fails = 0, 0
    for n, m in pairs:
        rep = fn(n, m)
        cells += rep["cells"]
        fails += len(rep["failures"])
    return cells, fails


def test_ac01_howe_duality():
    t0 = time.perf_counter()
    pairs = [(n, m) for n in (1, 2, 3) for m in (1, 2, 3)]
    cells, fails = _sweep(verify_howe_duality, pairs)
    dt = time.perf_counter() - t0
    ok = fails == 0 and dt < 60
    assert record("AC01", ok, "type C duality n,m<=3: %d cells, "
                  "%d failures, %.1fs" % (cells, fails, dt))


def test_ac02_schur_duality():
    t0 = time.perf_counter()
    pairs = [(n, m) for n in (1, 2, 3, 4) for m in (1, 2, 3, 4)]
    cells, fails = _sweep(verify_schur_duality, pairs)
    dt = time.perf_counter() - t0
    ok = fails == 0 and dt < 60
    assert record("AC02", ok, "type A duality n,m<=4: %d cells, "
                  "%d failures, %.1fs" % (cells, fails, dt))


def test_ac03_combinatorial_howe():
    t0 = time.perf_counter()
    pairs = [(n, m) for n in (1, 2, 3) for m in (1, 2, 3)]
    cells, fails = _sweep(verify_bijection, pairs)
    b = TensorElement([(-4, -3), (-2, -1, 1), (-4,)], 4)
    t = star(b)
    pinned = (t.to_json_obj() == [["1", "2b", "3"], ["1", "3"],
                                  ["2", "3"], ["2"]]
              and star_inverse(t, 4, 3) == b)
    dt = time.perf_counter() - t0
    ok = fails == 0 and pinned and dt < 120
    assert record("AC03", ok, "star bijection n,m<=3: %d cells, %d failures, "
                  "pinned pair %s, %.1fs"
                  % (cells, fails, "ok" if pinned else "BROKEN", dt))


def test_ac04_straightening():
    t0 = time.perf_counter()
    checked, bad = 0, 0
    for fam in ("C", "A"):
        for n in (1, 2, 3):
            e_full = LaurentPolynomial.monomial((1,) * n)
            for m in (1, 2, 3):
                for beta in itertools.product(range(-2, n + 3), repeat=m):
                    checked += 1
                    v = jt_determinant(beta, fam, n, m)
                    s = straighten(beta, fam, n, m)
                    if s is None:
                        bad += 0 if v.is_zero() else 1
                        continue
                    sgn, gamma = s
                    want = weyl_character(conjugate(gamma), fam, n).scale(sgn)
                    if fam == "A":
                        dropped = sum(beta) - gamma.size()
                        if dropped % n or dropped < 0:
                            bad += 1
                            continue
                        want = want * e_full ** (dropped // n)
                    bad += 0 if v == want else 1
    dt = time.perf_counter() - t0
    ok = bad == 0 and dt < 60
    assert record("AC04", ok, "straightening both families m,n<=3: "
                  "%d determinants, %d mismatches, %.1fs" % (checked, bad, dt))


def test_ac05_jacobi_trudi():
    t0 = time.perf_counter()
    n, bad, checked = 3, 0, 0
    for lam in enumerate_rectangle(n, 3):
        checked += 1
        beta = conjugate(lam).padded(3)
        for fam in ("A", "C"):
            if jt_determinant(beta, fam, n, 3) != weyl_character(lam, fam, n):
                bad += 1
        g = generate_crystal_graph(highest_weight_seed(tuple(lam), n))
        p = LaurentPolynomial.zero(n)
        for v in g.vertices:
            p = p + LaurentPolynomial.monomial(weight_of(v))
        if p != weyl_character(lam, "C", n):
            bad += 1
    dt = time.perf_counter() - t0
    ok = bad == 0 and dt < 30
    assert record("AC05", ok, "alternant = determinant = crystal character, "
                  "%d shapes in 3x3, %d mismatches, %.1fs"
                  % (checked, bad, dt))


def _parts_into(total, m, bound):
    if m == 0:
        if total == 0:
            yield ()
        return
    for first in range(min(total, bound), -1, -1):
        for rest in _parts_into(total - first, m - 1, first):
            yield (first,) + rest


def test_ac06_kostant_formula():
    t0 = time.perf_counter()
    cells, bad = 0, 0
    for m in (1, 2, 3):
        for size in range(0, 7):
            for lam in _parts_into(size, m, size):
                ch = weyl_character(Partition(lam), "C", m)
                for exp, coef in ch.terms.items():
                    cells += 1
                    if weight_multiplicity(("C", m), lam, exp) != coef:
                        bad += 1
    dt = time.perf_counter() - t0
    ok = bad == 0 and dt < 30
    assert record("AC06", ok, "alternating sum vs character coefficients, "
                  "C_m m<=3 |lam|<=6: %d cells, %d mismatches, %.1fs"
                  % (cells, bad, dt))


def test_ac07_contraction():
    t0 = time.perf_counter()
    pairs = [(n, m) for n in (1, 2, 3) for m in (1, 2)]
    cells, fails = _sweep(verify_contraction, pairs)
    b = TensorElement([(-4, -3, -2, 3)], 4)
    eb = crystal_e(2, b)
    square = (kappa(1, b) == TensorElement([(-4, -2)], 4)
              and eb == TensorElement([(-4, -3, -2, 2)], 4)
              and kappa(1, eb) == crystal_e(2, kappa(1, b))
              == TensorElement([(-4, -3)], 4))
    dt = time.perf_counter() - t0
    ok = fails == 0 and square and dt < 60
    assert record("AC07", ok, "contraction commutes n<=3 m<=2: %d cells, "
                  "%d failures, pinned square %s, %.1fs"
                  % (cells, fails, "ok" if square else "BROKEN", dt))


def test_ac08_jeu_de_taquin():
    t0 = time.perf_counter()
    pairs = [(n, m) for n in (1, 2, 3) for m in (1, 2)]
    cells, fails = _sweep(verify_jdt, pairs)

    b1 = TensorElement([(-3, 1, 5), (-5, -1, 2, 4, 5)], 5)
    ex1 = (bar_complement(b1).to_json_obj()
           == [[-3], [-4, -3, -2], [-5, -1], [-3, -1]]
           and bar_complement(jdt_bar(1, b1)).to_json_obj()
           == [[-3], [-4, -3], [-5, -2, -1], [-3, -1]]
           and jdt_bar(1, b1) == kappa(-1, b1))
    b2 = TensorElement([(-4, -2, 1, 4, 5), (-5, -1, 1)], 5)
    ex2 = (jdt_bar(1, b2)
           == TensorElement([(-4, -2, 1, 2, 4, 5), (-5, -2, -1, 1)], 5)
           and jdt_bar(1, b2) == kappa(-1, b2))
    c = TensorElement([(), (1,)], 1)
    counter = (kappa(-1, crystal_e(0, c)) is None
               and crystal_e(0, kappa(-1, c))
               == TensorElement([(-1,), (-1, 1)], 1))
    dt = time.perf_counter() - t0
    ok = fails == 0 and ex1 and ex2 and counter and dt < 60
    assert record("AC08", ok, "jeu de taquin n<=3 m<=2: %d cells, "
                  "%d failures, examples %s/%s, counterexample %s, %.1fs"
                  % (cells, fails, ex1, ex2, counter, dt))


def test_ac09_charge():
    t0 = time.perf_counter()
    seen, bad = 0, 0
    for n in (1, 2, 3):
        zero = Partition(()).padded(n)
        for m in (1, 2, 3):
            for b in highest_weight_vertices((n,) * m, zero, n):
                seen += 1
                st = statistics(b)
                if st["D"] != st["charge"]:
                    bad += 1
                if any(d % 2 for d in st["delta"]):
                    bad += 1
    dt = time.perf_counter() - t0
    ok = bad == 0 and seen > 0 and dt < 60
    assert record("AC09", ok, "D = charge on weight-zero highest weights "
                  "n,m<=3: %d elements, %d mismatches, %.1fs"
                  % (seen, bad, dt))


def test_ac10_generalized_duality():
    t0 = time.perf_counter()
    cells, fails = 0, 0
    for n in (1, 2, 3):
        rep = verify_generalized_duality(n, 2, 2)
        cells += rep["cells"]
        fails += len(rep["failures"])
    dt = time.perf_counter() - t0
    ok = fails == 0 and dt < 120
    assert record("AC10", ok, "char route = branch route, r<=2 m_j<=2 n<=3: "
                  "%d cells, %d failures, %.1fs" % (cells, fails, dt))


def test_ac11_injectivity_scan():
    t0 = time.perf_counter()
    specs = [("C", (1,)), ("C", (2,)), ("CC", (1, 1)), ("CC", (1, 2)),
             ("CC", (2, 1)), ("CC", (2, 2)), ("CCC", (1, 1, 1)),
             ("CA", (1, 1)), ("CA", (1, 2)), ("CA", (2, 1)),
             ("CA", (2, 2)), ("CAA", (1, 1, 1))]
    cells, fails = 0, 0
    for symbols, sizes in specs:
        rep = injectivity_scan(DiagramSpec(symbols, sizes), 2, 3)
        cells += rep["cells"]
        fails += len(rep["failures"])
    dt = time.perf_counter() - t0
    ok = fails == 0 and dt < 300
    assert record("AC11", ok, "injectivity scan, %d specs parts<=2 "
                  "n_bound=3: %d cells, %d violations, %.1fs"
                  % (len(specs), cells, fails, dt))


def _run_cli(args):
    import contextlib
    import io
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = dispatch(args)
    return rc, buf.getvalue()


def _pinned_checks():
    checks = []

    def add(label, value):
        checks.append((label, bool(value)))

    # partition calculus
    add("conjugate", tuple(conjugate(Partition((5, 4, 2, 1))))
        == (4, 3, 2, 2, 1))
    add("hat", tuple(hat(Partition((5, 4, 2, 1)), 4, 5).padded(5))
        == (3, 2, 2, 1, 0))
    mu = MultiPartition([[2, 1, 1], [2], [3, 2]], blocks=[2, 2, 3])
    h = hat_multi(mu, 3)
    add("hat-multi", h == MultiPartition([[2, 1, 1], [2, 2], [2]],
                                         blocks=[3, 2, 2]))
    add("hat-multi-flat", h.flatten() == (2, 1, 1, 2, 2, 2, 0))
    add("mu-of-n-3", mu_of_n(h, 3) == mu)
    add("mu-of-n-5", mu_of_n(h, 5) == MultiPartition(
        [[2, 2, 2, 1, 1], [2, 2, 2], [3, 3, 3, 2]], blocks=[2, 2, 3]))

    # dot actions and roots
    beta = (1, 0, 2)
    got = dot_rho(transposition(1, 3), beta, ("A", 3))
    add("dot-rho", got == (-1, 2, 2))
    got = dot_delta_C(WeylElement((1, 2, 3), (1, 1, -1)), beta, 2, 3)
    add("dot-delta-flip", got[:2] == beta[:2] and got[-1] == -2 + 4 + 6)
    add("roots-C2", set(positive_roots(("C", 2)))
        == {(1, -1), (1, 1), (2, 0), (0, 2)})

    # determinantal identities
    add("e-fold", all(elem_sym(n + k, "C", n) == elem_sym(n - k, "C", n)
                      for n in (1, 2, 3) for k in range(0, n + 1)))
    alternant = True
    for n in (1, 2):
        d = delta_product("C", 2)
        for b in itertools.product(range(-1, n + 2), repeat=2):
            alternant &= (E_map(d * LaurentPolynomial.monomial(b), "C", n)
                          == jt_determinant(b, "C", n, 2))
    add("alternant", alternant)
    add("jt-partition", all(
        jt_determinant(conjugate(lam).padded(2), "C", 2, 2)
        == weyl_character(lam, "C", 2) for lam in enumerate_rectangle(2, 2)))
    add("jt-antisym", jt_determinant(
        dot_delta_C(transposition(1, 2), (1, 0), 2, 2), "C", 2, 2)
        == jt_determinant((1, 0), "C", 2, 2).scale(-1))
    def embed(p, m, off):
        out = LaurentPolynomial.zero(m)
        for exp, coef in p.terms.items():
            e = [0] * m
            e[off:off + len(exp)] = exp
            out = out + LaurentPolynomial.monomial(e, coef)
        return out

    spec = DiagramSpec("CA", (1, 2))
    mprod = MultiPartition([[1], [2, 1]], spec.sizes)
    from howekit.partitions import conjugate_concat
    embedded = embed(delta_product("C", 1), 3, 0) * \
        embed(delta_product("A", 2), 3, 1)
    target = embedded * LaurentPolynomial.monomial(conjugate_concat(mprod))
    add("product-alternant", char_product(mprod, spec, 3)
        == E_map(target, "C", 3))

    # crystal operators
    w = TensorElement([(-1,), (2,), (-2, 1), (2,), (2,), (1,), (-1,), (-2,)],
                      2)
    add("word-f1", crystal_f(1, w).word() == (-1, 2, -2, 1, 2, 2, 1, -1, -1))
    add("word-e1", crystal_e(1, w).word() == (-1, 1, -2, 1, 2, 2, 1, -1, -2))
    add("arrow-0", crystal_f(0, TensorElement([(-1,)], 1))
        == TensorElement([(1,)], 1))
    b = TensorElement([(-4, -3), (-2, -1, 1), (-4,)], 4)
    add("hwv-kill", all(crystal_e(i, b) is None for i in range(4)))
    add("hwv-weight", weight_of(b) == (2, 1, 1, 0))
    add("hwv-word", b.word() == (-4, -3, -2, -1, 1, -4)
        and is_highest_weight(b))
    add("hwv-member", b.heights() == (2, 3, 1))
    add("admissible-3", not is_admissible((-2, -1, 1, 3), 3))
    add("admissible-4", is_admissible((-2, -1, 1, 3), 4))
    g = generate_crystal_graph(TensorElement([(-3, -2)], 3))
    add("graph-14", len(g.vertices) == 14)

    # star duality
    add("tilde", tilde_expand(TensorElement([(-3, -2, 4, 5)], 5))
        == ((1, 4, 5), (4, 5)))
    two = TensorElement([(-3, -2, 4, 5), (-5, -2, -1, 1, 2, 4)], 5)
    add("star-two-col", star(two).to_json_obj() == [
        ["1", "2b"], ["2b"], ["2"], ["1", "1b", "2", "2b"], ["1", "1b"]])
    t = star(b)
    add("star-hwv", t.to_json_obj() == [["1", "2b", "3"], ["1", "3"],
                                        ["2", "3"], ["2"]]
        and tuple(t.shape()) == (4, 3, 1) and is_king_tableau(t))
    add("star-m1", star(TensorElement([(-5,)], 5)).to_json_obj()
        == [["1"], ["1"], ["1"], ["1"], []])
    add("star-weight", king_weight(t) == (3, 1, 2))
    add("transport", all(
        king_weight(star(e)) == tuple(2 - h for h in reversed(e.heights()))
        for e in [TensorElement([(-2,), (-2, -1)], 2),
                  TensorElement([(1,), (-1, 1)], 2)]))
    printed = KingElement([[(1, False), (2, True), (3, False)],
                           [(1, False), (3, False)],
                           [(2, False), (3, False)],
                           [(3, False)]], 3)
    add("king-printed", is_king_tableau(printed))
    add("king-count", len(enumerate_king_tableaux(Partition((2, 1)),
                                                  (1, 2), 2))
        == weight_multiplicity(("C", 2), (2, 1), (1, 2)))
    add("pairing", star_inverse(t, 4, 3) == b)

    # transported operators and slides
    king = KingElement([[(1, True), (2, False)],
                        [(1, False), (1, True), (2, True)],
                        [(1, False), (2, False)]], 2)
    add("king-f1bar", king_f(-1, king).to_json_obj()
        == [["1b", "2"], ["1", "2", "2b"], ["1", "2"]])
    add("king-zeros", king_e(1, king) is None and king_e(2, king) is None
        and king_f(1, king) is None)
    sq = TensorElement([(-4, -3, -2, 3)], 4)
    add("kappa-n4", kappa(1, sq) == TensorElement([(-4, -2)], 4)
        and kappa(1, crystal_e(2, sq)) == crystal_e(2, kappa(1, sq)))
    commute = True
    from howekit import enumerate_B
    for e in enumerate_B((2, 1), 2):
        for i in (0, 1):
            ee = crystal_e(i, e)
            ke = kappa(1, e)
            left = kappa(1, ee) if ee is not None else None
            right = crystal_e(i, ke) if ke is not None else None
            commute &= left == right
    add("kappa-commutes", commute)
    b1 = TensorElement([(-3, 1, 5), (-5, -1, 2, 4, 5)], 5)
    add("jdt-bars", bar_complement(b1).to_json_obj()
        == [[-3], [-4, -3, -2], [-5, -1], [-3, -1]])
    add("jdt-slide", bar_complement(jdt_bar(1, b1)).to_json_obj()
        == [[-3], [-4, -3], [-5, -2, -1], [-3, -1]])
    b2 = TensorElement([(-4, -2, 1, 4, 5), (-5, -1, 1)], 5)
    add("jdt-kappa", jdt_bar(1, b2) == kappa(-1, b2))

    # charge statistics
    eps_ok = True
    for cols in itertools.product(
            itertools.combinations((-2, -1, 1, 2), 2), repeat=2):
        e = TensorElement(list(cols), 2)
        low = to_lowest(star(e))
        for j in (1, 2):
            eps_ok &= epsilon_string(j, low) == delta_count(j, e)
            eps_ok &= delta_count(j, e) % 2 == 0
    add("epsilon-delta", eps_ok)

    # classical reduction and the alternating-sum identity
    classical = True
    for lam in enumerate_rectangle(2, 2):
        for nu in enumerate_rectangle(2, 2):
            if lam.size() != nu.size():
                continue
            cols = [[1] * k for k in conjugate(nu).padded(2)]
            a = multiplicity_char_route(lam, "AA", [1, 1], cols, 2)
            bb = multiplicity_branch_route(lam, "AA", [1, 1], cols, 2)
            want = weight_multiplicity(("C", 2), tuple(hat(lam, 2, 2)),
                                       tuple(hat(nu, 2, 2).padded(2)))
            classical &= a == bb == want
    add("classical", classical)
    m = 3
    roots = positive_roots(("A", m))
    altsum = True
    for lam, nu in [((2, 1), (2, 1)), ((2, 2), (2, 1, 1))]:
        lam_p = tuple(conjugate(Partition(lam)).padded(m))
        nu_p = tuple(conjugate(Partition(nu)).padded(m))
        total = 0
        for wl in enumerate_weyl(("A", m)):
            shifted = dot_rho(wl, lam_p, ("A", m))
            total += sign(wl) * kostant_partition(
                roots, tuple(a - c for a, c in zip(shifted, nu_p)))
        p = LaurentPolynomial.one(2)
        for k in nu_p:
            p = p * elem_sym(k, "A", 2)
        altsum &= total == decompose(p, "A", 2)[Partition(lam)]
    add("alternating-sum", altsum)

    # command line
    rc, out = _run_cli(["hat", "--partition", "5,4,2,1", "--n", "4",
                        "--m", "5"])
    add("cli-hat", rc == 0 and out == "[3,2,2,1,0]\n")
    rc, out = _run_cli(["crystal-graph", "--seed", "-3,-2", "--n", "3",
                        "--dot"])
    add("cli-dot", rc == 0
        and len(re.findall(r"^  v\d+ \[label=", out, re.M)) == 14)

    return checks


def test_ac12_pinned_examples():
    t0 = time.perf_counter()
    checks = _pinned_checks()
    bad = [label for label, ok in checks if not ok]
    dt = time.perf_counter() - t0
    ok = not bad and dt < 10
    assert record("AC12", ok, "%d pinned examples, %.1fs%s"
                  % (len(checks), dt,
                     ", failing: " + ",".join(bad) if bad else ""))
