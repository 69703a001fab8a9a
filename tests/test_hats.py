import hashlib
from fractions import Fraction

import pytest

from chiralring.abideals import enumerate_abelian_ideals, poincare_series
from chiralring.exterior import OddMatrix
from chiralring.rootsystem import build_root_system, chevalley_data
from chiralring.cdsw import Workspace
from chiralring.cdsw.core import (ideal_weight_zero, invariants_of_quotient,
                                  XX, YY)
from chiralring.cdsw.hats import (hat_trace, hat_generators, hat_monomials,
                                  trace_z_power, d_trace, check_prop_hat,
                                  check_conj_c1, check_conj_c2_c3,
                                  z_matrix)
from conftest import chevalley_generator_indices, use_seed_primes


def test_hat_bidegrees(ws_sl3):
    for k in (2, 3):
        h = hat_trace(ws_sl3, k)
        assert h.degree_pair == (k - 1, k - 1)
        assert h.value.is_zero() or h.value.bidegree() == (k - 1, k - 1)


def test_hats_invariant(ws_sl2, ws_sl3, ws_so5):
    for ws in (ws_sl2, ws_sl3, ws_so5):
        for h in hat_generators(ws):
            for a in chevalley_generator_indices(ws.lie):
                assert ws.action.act(a, h.value).is_zero()


def test_hat_quadratic_is_multiple_of_S(ws_sl2, ws_sl3, ws_so5):
    expected = {3: Fraction(1, 2), 8: Fraction(1, 3), 10: Fraction(2, 3)}
    for ws in (ws_sl2, ws_sl3, ws_so5):
        h2 = hat_trace(ws, 2)
        mask, coeff = next(iter(ws.S.terms.items()))
        ratio = h2.value.terms.get(mask, Fraction(0)) / coeff
        assert ratio != 0
        assert h2.value == ws.S.scale(ratio)
        assert ratio == 2 * ws.trace_S_constant()


def test_sl2_odd_trace_power_vanishes(ws_sl2):
    assert trace_z_power(ws_sl2, 3).is_zero()
    assert hat_trace(ws_sl2, 3).value.is_zero()


def test_sl3_hat_cubic_independent_of_S_squared(ws_sl3):
    """hat(Tr z^3) and S^2 span the two-dimensional invariant space of the
    (2,2) quotient by the XX and YY families."""
    from chiralring.exactla import Echelon
    h3 = hat_trace(ws_sl3, 3).value
    s2 = ws_sl3.S.power(2)
    cols = {m: i for i, m in enumerate(sorted(set(h3.terms) | set(s2.terms)))}
    ech = Echelon()
    ech.insert({cols[m]: c for m, c in h3.terms.items()})
    ech.insert({cols[m]: c for m, c in s2.terms.items()})
    assert ech.rank == 2


def test_trace_z_square_not_literally_zero(ws_sl2, ws_sl3):
    """Pinned witness: the product-rule identities vanish in the quotient,
    not in the raw Grassmann algebra (the (2,2) trace reduces to
    -2 Tr(X^2 Y^2) which is a nonzero combination of relation products)."""
    for ws, nterms in ((ws_sl2, 3), (ws_sl3, None)):
        fz = trace_z_power(ws, 2)
        assert not fz.is_zero()
        if nterms is not None:
            assert len(fz.terms) == nterms
        sub = ideal_weight_zero(ws, (XX, YY), 2, 2)
        assert sub.contains(fz)


def _z_powers_by_products(ws, top):
    """Reference [z^0, ..., z^top], every power a full product."""
    X, Y = ws.xy_matrices()
    z = z_matrix(X, Y)
    pows = [OddMatrix.identity(ws.alg, X.size)]
    for _ in range(top):
        pows.append(pows[-1].matmul(z))
    return pows


def _d_trace_by_products(ws, k):
    """Reference dF applied to X and to Y: sum_{i+j=k-1} Tr(z^i A z^j),
    every product taken."""
    X, Y = ws.xy_matrices()
    pows = _z_powers_by_products(ws, k - 1)
    out = {}
    for arg, A in (("X", X), ("Y", Y)):
        total = ws.alg.zero()
        for i in range(k):
            total = total + pows[i].matmul(A).matmul(pows[k - 1 - i]).trace()
        out[arg] = total
    return out


def _hat_trace_by_products(ws, k):
    """Reference hat of Tr_V(w^k): k * sum_{i+j=k-2} Tr(z^i X z^j Y), every
    product taken and each trace read from the full last product."""
    X, Y = ws.xy_matrices()
    pows = _z_powers_by_products(ws, k - 2)
    total = ws.alg.zero()
    for i in range(k - 1):
        prod = pows[i].matmul(X).matmul(pows[k - 2 - i]).matmul(Y)
        total = total + prod.trace()
    return total.scale(k)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_d_trace_matches_sum_of_products(ws_sl3, ws_so5, k):
    for ws in (ws_sl3, ws_so5) if k <= 4 else (ws_sl3,):
        for arg, expected in _d_trace_by_products(ws, k).items():
            assert d_trace(ws, k, arg) == expected, (arg, k)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_traces_match_full_products(ws_sl3, ws_so5, k):
    """Tr(z^k) from half powers and hat from trace-only products against
    the full z^k and the product-by-product hat (B2 up to k = 3)."""
    for ws in (ws_sl3, ws_so5) if k <= 3 else (ws_sl3,):
        assert trace_z_power(ws, k) == \
            _z_powers_by_products(ws, k)[k].trace(), k
        assert hat_trace(ws, k).value == _hat_trace_by_products(ws, k), k


def test_degree_k_traces_build_powers_up_to_half_k(sl3):
    ws = Workspace(sl3)
    for k in (2, 3, 4, 5, 6):
        trace_z_power(ws, k)
        hat_trace(ws, k)
        d_trace(ws, k, "X")
        # z^0 .. z^ceil(k/2)
        assert len(ws.z_powers) == (k + 1) // 2 + 1, k


def _digest(elem):
    """[term count, digest of the exact terms], as the benchmark's
    workloads pin elements."""
    text = ";".join("%d:%s" % (m, c) for m, c in sorted(elem.terms.items()))
    return [len(elem.terms), hashlib.sha256(text.encode()).hexdigest()[:16]]


def test_g2_degree_four_traces_pinned():
    """G2 in its 7-dimensional representation, which no other test
    expands; the pinned answers are those of the product-by-product
    formulas."""
    ws = Workspace(chevalley_data(build_root_system("G", 2)))
    assert _digest(hat_trace(ws, 4).value) == [3260, "1cbc043add5402ff"]
    assert _digest(d_trace(ws, 4, "X")) == [6044, "674923ff6d27484d"]


def test_d_trace_in_ideal_not_zero(ws_sl3):
    el = d_trace(ws_sl3, 3, "X")
    assert not el.is_zero()
    assert el.bidegree() == (3, 2)


@pytest.mark.parametrize("pair", [(2, 2), (2, 3), (3, 3)])
def test_prop_hat_sl3(ws_sl3, pair):
    rep = check_prop_hat(ws_sl3, *pair)
    assert rep["a_in_ideal"] and rep["b_in_ideal"] and rep["c_in_ideal"]
    assert rep["pass"]


def test_prop_hat_sl2(ws_sl2):
    rep = check_prop_hat(ws_sl2, 2, 2)
    assert rep["pass"]
    # literal vanishing fails: the identities are quotient statements
    assert not rep["a_zero_literal"]
    assert not rep["c_zero_literal"]


def test_prop_hat_so5(ws_so5):
    for pair in [(2, 2), (2, 4)]:
        rep = check_prop_hat(ws_so5, *pair)
        assert rep["pass"], rep


def test_dim_E_matches_ideal_counts(ws_sl2, ws_sl3, ws_so5):
    for ws in (ws_sl2, ws_sl3, ws_so5):
        counts = poincare_series(enumerate_abelian_ideals(ws.lie.rs))
        for d in range(ws.g):
            expected = counts[d] if d < len(counts) else 0
            dim = (invariants_of_quotient(ws, d, d, (XX, YY)) if d
                   else 1)  # E_(0,0) is the constants
            assert dim == expected, (ws.lie.rs.type_label, d)


def test_hat_monomials_enumeration(ws_sl3):
    monos = hat_monomials(ws_sl3, 3, hat_generators(ws_sl3))
    expos = {e for e, _ in monos}
    # generators of hat-degrees 1 and 2: monomials of degree 3
    assert expos == {(3, 0), (1, 1)}


def test_conj_c1(ws_sl2, ws_sl3):
    for ws in (ws_sl2, ws_sl3):
        counts = poincare_series(enumerate_abelian_ideals(ws.lie.rs))
        rep = check_conj_c1(ws, ws.g - 1, ideal_counts=counts)
        assert rep["pass"], rep
        for row in rep["rows"]:
            assert row["dim_E"] == row["dim_P_span"] == row["ideal_count"]


def test_conj_c1_sl3_values(ws_sl3):
    counts = poincare_series(enumerate_abelian_ideals(ws_sl3.lie.rs))
    rep = check_conj_c1(ws_sl3, 2, ideal_counts=counts)
    assert [(r["d"], r["dim_E"]) for r in rep["rows"]] == \
        [(0, 1), (1, 1), (2, 2)]


def test_conj_c2_c3(ws_sl2, ws_sl3):
    for ws in (ws_sl2, ws_sl3):
        rep = check_conj_c2_c3(ws)
        assert rep["pass"], rep
        assert rep["c2_relation_with_p1_power"]


def test_conj_c3_sl3_values(ws_sl3):
    rep = check_conj_c2_c3(ws_sl3)
    assert rep["hat_in_L"] == [{"k": 3, "in_ideal": True}]
    assert [(r["d"], r["dim_L"], r["dim_hat_ideal"])
            for r in rep["per_degree"]] == [(0, 0, 0), (1, 0, 0), (2, 1, 1)]


def test_modular_prop_hat_agrees(monkeypatch, ws_sl3):
    """The Proposition report on A2 is the same under seed-drawn first
    primes."""
    want = check_prop_hat(ws_sl3, 2, 3)
    use_seed_primes(monkeypatch, 77)
    assert check_prop_hat(ws_sl3, 2, 3) == want


def test_modular_conjecture_checks_agree(monkeypatch, ws_sl2, ws_sl3):
    """The conjecture reports on A1 and A2 are the same under seed-drawn
    first primes."""
    def reports():
        out = []
        for ws in (ws_sl2, ws_sl3):
            counts = poincare_series(enumerate_abelian_ideals(ws.lie.rs))
            out += [check_conj_c1(ws, ws.g - 1, counts),
                    check_conj_c2_c3(ws)]
        return out

    want = reports()
    use_seed_primes(monkeypatch, 99)
    assert reports() == want


def test_off_diagonal_invariants_vanish_in_double_quotient(ws_sl2, ws_sl3):
    """Invariants of the quotient by the XX and YY families vanish in
    off-diagonal bidegrees (multiplicity-free pairing structure)."""
    from chiralring.liemodule import invariant_basis_elements
    for ws in (ws_sl2, ws_sl3):
        for (p, q) in [(1, 0), (0, 2), (2, 1), (0, 3), (1, 2)]:
            inv = invariant_basis_elements(ws.action, p, q)
            if not inv:
                continue
            sub = ideal_weight_zero(ws, (XX, YY), p, q)
            assert sub.insert_all(inv) == 0, (p, q)
