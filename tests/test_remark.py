from fractions import Fraction
from itertools import product
from math import factorial, prod

import pytest

from chiralring.cdsw import Workspace
from chiralring.cdsw.remark import (newton_f, newton_ints, check_sln_remark,
                                    z_traces)
from chiralring.exterior import ComponentTooLarge, ExtElement, OddMatrix
from chiralring.rootsystem import build_root_system, chevalley_data
from conftest import (bidegree, component, eval_poly_grassmann, matrix_trace,
                      sub, xi_eta)


def _evaluate(poly, values):
    """poly ({exponent tuple: coefficient}) at the given numbers."""
    return sum(c * prod(v ** x for v, x in zip(values, e))
               for e, c in poly.items())


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_defining_identity_on_power_sums(n):
    """f_n(p_1(t), ..., p_n(t)) = p_(n+1)(t) for the power sums p_k(t) =
    sum_i t_i^k of n variables, at every point of {0, ..., n+1}^n.  The
    difference is a polynomial in t of degree at most n+1 in each variable
    (f_n has weight n+1), and it vanishes on a grid of n+2 values per
    variable, so it is zero: the identity holds exactly."""
    f = newton_f(n)
    for t in product(range(n + 2), repeat=n):
        sums = [sum(x ** k for x in t) for k in range(1, n + 2)]
        assert _evaluate(f, sums[:n]) == sums[n], t


def test_f1_f2_f3_exact():
    assert newton_f(1) == {(2,): Fraction(1)}
    assert newton_f(2) == {(1, 1): Fraction(3, 2), (3, 0): Fraction(-1, 2)}
    # p_4 = (1/6)p1^4 - p1^2 p2 + (1/2)p2^2 + (4/3)p1 p3
    assert newton_f(3) == {(4, 0, 0): Fraction(1, 6),
                           (2, 1, 0): Fraction(-1),
                           (0, 2, 0): Fraction(1, 2),
                           (1, 0, 1): Fraction(4, 3)}


@pytest.mark.parametrize("n", range(1, 7))
def test_leading_coefficient_magnitude(n):
    f = newton_f(n)
    lead = f[(n + 1,) + (0,) * (n - 1)]
    assert abs(lead) == Fraction(1, factorial(n))
    # observed sign pattern: (-1)^(n+1); only nonvanishing matters downstream
    assert lead == Fraction((-1) ** (n + 1), factorial(n))
    if n >= 2:
        assert f[(n - 1, 1) + (0,) * (n - 2)] != 0


@pytest.mark.parametrize("n", [2, 3])
def test_sln_remark(n):
    rep = check_sln_remark(n)
    assert rep["identity_holds"]
    assert rep["star_term_is_c_trxy_n"]
    assert rep["lhs_xieta_in_ideal"]
    assert rep["other_terms_in_ideal"]
    assert rep["s_power_in_ideal"]
    assert rep["pass"]
    assert Fraction(rep["trxy_coefficient"]) != 0


def test_sln_remark_witnesses_s_power(ws_sl3):
    """The xi-eta extraction and the direct S-power membership agree."""
    from chiralring.cdsw.core import check_S_power
    rep = check_sln_remark(3)
    assert rep["s_power_in_ideal"] == check_S_power(ws_sl3, 3)["contained"]


def test_degenerate_rank_guard():
    with pytest.raises(ValueError):
        check_sln_remark(1)
    with pytest.raises(ValueError):
        newton_f(0)


def test_xi_eta_part_of_trace_z_square(ws_sl2):
    """Tr(Z^2) with Z = XY + xi X + eta Y splits as Tr((XY)^2) plus the
    xi-eta cross terms, whose extraction is exactly -2 Tr(XY)."""
    alg = ws_sl2.alg
    X, Y = ws_sl2.xy_matrices()
    Z = (X.matmul(Y) + X.scale_left({1 << alg.xi_bit: 1})
         + Y.scale_left({1 << alg.eta_bit: 1}))
    tz2 = matrix_trace(Z.matmul(Z))
    trxy = matrix_trace(X.matmul(Y))
    assert xi_eta(tz2) == trxy.scale(-2)
    # Tr Z itself carries no auxiliary variables: the matrices are traceless
    assert matrix_trace(Z) == trxy
    # the xi-eta part sits in the diagonal (2,2) slot; the xi-only and
    # eta-only cross terms sit off-diagonal at (3,1) and (1,3)
    assert bidegree(xi_eta(tz2)) == (1, 1)
    offdiag = sub(tz2, component(tz2, 2, 2))
    assert component(offdiag, 3, 1) + component(offdiag, 1, 3) == offdiag


@pytest.mark.parametrize("n", range(1, 7))
def test_newton_f_monomials_have_weight_n_plus_one(n):
    """sum_i i e_i = n+1 on every monomial of f_n, so on traces
    T_i = D^i Tr(Z^i) every monomial carries the same factor D^(n+1)."""
    for e in newton_f(n):
        assert sum(i * x for i, x in enumerate(e, 1)) == n + 1, e


@pytest.mark.parametrize("n", [2, 3])
def test_int_evaluation_matches_fraction_oracle(n):
    """The int traces are D^k Tr(Z^k), and the int evaluations of f_n and
    of its y1^(n-1) y2 term are L D^(n+1) times the Fraction evaluation."""
    ws = Workspace(chevalley_data(build_root_system("A", n - 1)))
    alg = ws.alg
    D, traces = z_traces(ws, n)
    X, Y = ws.xy_matrices()
    Z = (X.matmul(Y) + X.scale_left({1 << alg.xi_bit: 1})
         + Y.scale_left({1 << alg.eta_bit: 1}))
    power = Z
    exact = []
    for k, terms in enumerate(traces, 1):
        exact.append(matrix_trace(power))
        assert ExtElement.from_ints(alg, terms, D ** k) == exact[-1], k
        power = power.matmul(Z)
    f = newton_f(n)
    e_star = (n - 1, 1) + (0,) * (n - 2)
    star = {e_star: f[e_star]}
    monomials = {}
    for poly in (f, star):
        L, val = newton_ints(poly, traces[:n], monomials)
        want = eval_poly_grassmann(poly, exact[:n], alg)
        assert ExtElement(alg, val) == want.scale(L * D ** (n + 1))
    # f_n's monomials, the star term's among them, were each built once
    assert e_star in monomials


def test_sln_remark_guards_before_expanding(monkeypatch):
    """A cap below the (n,n) component refuses before any matrix power or
    trace is built."""
    def refuse(self, other):
        raise AssertionError("a matrix product before the cap check")
    monkeypatch.setattr(OddMatrix, "matmul", refuse)
    with pytest.raises(ComponentTooLarge):
        check_sln_remark(3, cap=1)
