"""Acceptance suite: every criterion runs at its stated tolerance (exact
arithmetic throughout) and prints one pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import os
import time
from fractions import Fraction

import pytest

from chiralring.rootsystem import build_root_system, chevalley_data
from chiralring.rootsystem.reps import trace_power_degrees
from chiralring import abideals
from chiralring.cdsw import (Workspace, check_S_power, check_part_i,
                             check_prop_hat, check_conj_c1, check_conj_c2_c3,
                             check_sln_remark)
from conftest import (casimir, chevalley_generator_indices,
                      enumerate_abelian_ideals_bruteforce,
                      highest_weight_vector, random_element)


_WS = {}


def _ws(t, r):
    if (t, r) not in _WS:
        _WS[(t, r)] = Workspace(chevalley_data(build_root_system(t, r)))
    return _WS[(t, r)]


def _report(num, ok, text):
    print("ACCEPTANCE %2d: %s  %s" % (num, "PASS" if ok else "FAIL", text))
    assert ok, text


def test_criterion_1_peterson_count():
    types = [("A", r) for r in range(1, 6)] + \
        [("B", r) for r in range(2, 5)] + [("C", r) for r in range(2, 5)] + \
        [("D", 4), ("D", 5), ("F", 4), ("G", 2), ("E", 6)]
    t0 = time.time()
    ok = True
    for key in types:
        rs = build_root_system(*key)
        ideals = abideals.enumerate_abelian_ideals(rs)
        ok = ok and len(ideals) == 2 ** rs.rank
    elapsed = time.time() - t0
    ok = ok and elapsed < 5.0
    _report(1, ok, "|abelian ideals| = 2^rank for %d types in %.2fs"
            % (len(types), elapsed))


def test_criterion_2_poincare_series():
    types = [("A", r) for r in range(1, 5)] + \
        [("B", r) for r in range(2, 5)] + [("C", r) for r in range(2, 5)] + \
        [("D", 4), ("G", 2)]
    t0 = time.time()
    ok = True
    for key in types:
        rep = abideals.check_prop_cox(build_root_system(*key))
        ok = ok and rep["pass"]
    elapsed = time.time() - t0
    ok = ok and elapsed < 5.0
    _report(2, ok, "series agreement below t^g and positive t^g discrepancy "
            "for %d types in %.2fs" % (len(types), elapsed))


def test_criterion_3_s_power_vanishing():
    budgets = {("A", 1): 1.0, ("A", 2): 60.0, ("B", 2): 600.0}
    ok = True
    lines = []
    for key, budget in budgets.items():
        ws = _ws(*key)
        t0 = time.time()
        in_g = check_S_power(ws, ws.g)["contained"]
        not_in = not check_S_power(ws, ws.g - 1)["contained"]
        elapsed = time.time() - t0
        ok = ok and in_g and not_in and elapsed < budget
        lines.append("%s%d: S^%d in I, S^%d not in I (%.2fs)"
                     % (key[0], key[1], ws.g, ws.g - 1, elapsed))
    _report(3, ok, "; ".join(lines))


def test_criterion_4_invariant_dimensions():
    ok = True
    for key in (("A", 1), ("A", 2)):
        ws = _ws(*key)
        rep = check_part_i(ws, ws.g)
        dims = [d["dim"] for d in rep["diagonal"]]
        ok = ok and dims == [1] * ws.g + [0]
        ok = ok and all(o["dim"] == 0 for o in rep["offdiagonal"])
        ok = ok and rep["pass"]
    _report(4, ok, "dim of invariants in the quotient is 1 at (k,k) for "
            "k < g, 0 at k = g, 0 off-diagonal, for sl(2) and sl(3)")


def test_criterion_5_product_hat_vanishes():
    t0 = time.time()
    ok = True
    for key in (("A", 1), ("A", 2)):
        ws = _ws(*key)
        degrees = trace_power_degrees(ws.lie)
        for k1 in degrees:
            for k2 in degrees:
                if k1 > k2:
                    continue
                rep = check_prop_hat(ws, k1, k2)
                ok = ok and rep["pass"]
    elapsed = time.time() - t0
    ok = ok and elapsed < 60.0
    _report(5, ok, "hat of products and the differential identities vanish "
            "in the quotient for all generator-degree pairs on sl(2), sl(3) "
            "(%.2fs)" % elapsed)


def test_criterion_6_invariant_algebra_generated():
    ok = True
    for key in (("A", 1), ("A", 2)):
        ws = _ws(*key)
        counts = abideals.poincare_series(
            abideals.enumerate_abelian_ideals(ws.lie.rs))
        rep = check_conj_c1(ws, ws.g - 1, ideal_counts=counts)
        ok = ok and rep["pass"]
    _report(6, ok, "hat-monomial span matches invariant dimensions and the "
            "abelian-ideal counts for d < g on sl(2), sl(3)")


def test_criterion_7_ideal_generated_and_critical_relation():
    ok = True
    for key in (("A", 1), ("A", 2)):
        ws = _ws(*key)
        rep = check_conj_c2_c3(ws)
        ok = ok and rep["pass"]
        ok = ok and all(h["in_ideal"] for h in rep["hat_in_L"])
        ok = ok and rep["c2_relation_with_p1_power"]
    _report(7, ok, "higher hats generate the invariant ideal below g; a "
            "degree-g relation hits the quadratic hat power, sl(2), sl(3)")


def test_criterion_8_trace_identity():
    t0 = time.time()
    ok = True
    for n in (2, 3):
        rep = check_sln_remark(n)
        ok = ok and rep["identity_holds"] and rep["pass"]
        ok = ok and Fraction(rep["trxy_coefficient"]) != 0
    elapsed = time.time() - t0
    ok = ok and elapsed < 300.0
    _report(8, ok, "exact Grassmann trace identity and nonzero Tr(XY)^n "
            "coefficient after xi-eta extraction, n = 2, 3 (%.2fs)" % elapsed)


def test_criterion_9_structural_suite():
    import random
    t0 = time.time()
    ok = True
    for key in (("A", 1), ("A", 2), ("B", 2)):
        lie = chevalley_data(build_root_system(*key))
        n = lie.dim
        # Jacobi on all triples
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    acc = {}
                    for (u, v, w) in ((a, b, c), (b, c, a), (c, a, b)):
                        for d, f1 in lie.bracket(v, w).items():
                            for e, f2 in lie.bracket(u, d).items():
                                acc[e] = acc.get(e, 0) + f1 * f2
                    ok = ok and not any(acc.values())
        # form invariance on all triples
        for x in range(n):
            for y in range(n):
                row = lie.bracket(x, y)
                for z in range(n):
                    t1 = sum(v * lie.form[d][z] for d, v in row.items())
                    t2 = sum(v * lie.form[y][d]
                             for d, v in lie.bracket(x, z).items())
                    ok = ok and t1 + t2 == 0
        ws = _ws(*key)
        act, alg = ws.action, ws.alg
        # Leibniz and Casimir commutation on random elements
        rng = random.Random(42)
        for _ in range(5):
            u = random_element(alg, rng)
            v = random_element(alg, rng)
            for gi in chevalley_generator_indices(lie):
                ok = ok and act.act(gi, u.wedge(v)) == \
                    act.act(gi, u).wedge(v) + u.wedge(act.act(gi, v))
            ok = ok and casimir(act, act.act(0, u)) == \
                act.act(0, casimir(act, u))
        # Casimir eigenvalue = dim on every nonempty abelian ideal vector
        for ideal in abideals.enumerate_abelian_ideals(lie.rs):
            if ideal.dim == 0:
                continue
            hv = highest_weight_vector(alg, lie, ideal)
            ok = ok and casimir(act, hv) == hv.scale(ideal.dim)
            for i in range(lie.rank):
                e_i = lie.e_index(lie.rs.simple_roots[i])
                ok = ok and act.act(e_i, hv).is_zero()
    elapsed = time.time() - t0
    ok = ok and elapsed < 60.0
    _report(9, ok, "Jacobi, invariance, Leibniz, Casimir commutation, "
            "eigenvalue-d and highest-weight checks for A1, A2, B2 "
            "(%.2fs)" % elapsed)


def test_criterion_10_oracle_agreement():
    ok = True
    # combinatorial oracle
    for key in [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3),
                ("G", 2)]:
        rs = build_root_system(*key)
        ok = ok and abideals.enumerate_abelian_ideals(rs) == \
            enumerate_abelian_ideals_bruteforce(rs)
    _report(10, ok, "DFS enumeration matches brute force (rank <= 3)")


@pytest.mark.slow
@pytest.mark.skipif(os.environ.get("CHIRALRING_G2_HEAVY") != "1",
                    reason="optional G2 run (runtime unverified, expected "
                           "hours); enable with CHIRALRING_G2_HEAVY=1")
def test_criterion_3_optional_g2():
    ws = _ws("G", 2)
    not_in = not check_S_power(ws, 3)["contained"]
    in_g = check_S_power(ws, 4)["contained"]
    _report(3, in_g and not_in,
            "G2 (certified): S^4 in I and S^3 not in I")
