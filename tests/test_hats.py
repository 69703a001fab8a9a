import hashlib
from collections import Counter
from fractions import Fraction
from math import prod

import pytest

from chiralring.abideals import enumerate_abelian_ideals, poincare_series
from chiralring import exterior
from chiralring.cdsw import hats
from chiralring.exterior import (ComponentTooLarge, DEFAULT_MONOMIAL_CAP,
                                 GrassmannAlgebra, OddMatrix)
from chiralring.rootsystem import build_root_system, chevalley_data
from chiralring.cdsw import Workspace
from chiralring.cdsw.core import (ideal_weight_zero, invariants_of_quotient,
                                  XX, YY)
from chiralring.cdsw.hats import (hat_trace, hat_monomials, trace_z_power,
                                  d_trace, check_prop_hat, check_conj_c1,
                                  check_conj_c2_c3, z_matrix, _hat_trace_ints)
from chiralring.cli import CheckRunner
from chiralring.rootsystem.reps import trace_power_degrees
from conftest import (act_on, bidegree, chevalley_generator_indices,
                      eliminated_over, entry, fraction_S, matrix_trace, power,
                      scalar, trace_product, use_seed_primes)


def test_hat_bidegrees(ws_sl3):
    for k in (2, 3):
        h = hat_trace(ws_sl3, k)
        assert h.degree_pair == (k - 1, k - 1)
        assert h.value.is_zero() or bidegree(h.value) == (k - 1, k - 1)


def test_hats_invariant(ws_sl2, ws_sl3, ws_so5):
    for ws in (ws_sl2, ws_sl3, ws_so5):
        for k in trace_power_degrees(ws.lie):
            h = hat_trace(ws, k)
            for a in chevalley_generator_indices(ws.lie):
                assert act_on(ws.action, a, h.value).is_zero()


def test_hat_quadratic_is_multiple_of_S(ws_sl2, ws_sl3, ws_so5):
    expected = {3: Fraction(1, 2), 8: Fraction(1, 3), 10: Fraction(2, 3)}
    for ws in (ws_sl2, ws_sl3, ws_so5):
        h2 = hat_trace(ws, 2)
        S = fraction_S(ws)
        mask, coeff = next(iter(S.terms.items()))
        ratio = h2.value.terms.get(mask, Fraction(0)) / coeff
        assert ratio != 0
        assert h2.value == S.scale(ratio)
        assert ratio == 2 * ws.trace_S_constant()


def test_sl2_odd_trace_power_vanishes(ws_sl2):
    assert trace_z_power(ws_sl2, 3).is_zero()
    assert hat_trace(ws_sl2, 3).value.is_zero()


def test_sl3_hat_cubic_independent_of_S_squared(ws_sl3):
    """hat(Tr z^3) and S^2 span the two-dimensional invariant space of the
    (2,2) quotient by the XX and YY families."""
    from chiralring.exactla import Echelon
    h3 = hat_trace(ws_sl3, 3).value
    s2 = power(fraction_S(ws_sl3), 2)
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
        assert sub.contains(fz.terms)


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
        total = scalar(ws.alg, 0)
        for i in range(k):
            total = total + matrix_trace(
                pows[i].matmul(A).matmul(pows[k - 1 - i]))
        out[arg] = total
    return out


def _hat_trace_by_products(ws, k):
    """Reference hat of Tr_V(w^k): k * sum_{i+j=k-2} Tr(z^i X z^j Y), every
    term its own chain of products, with no pairing of terms under the
    swap; each trace is read from the diagonal of the last product."""
    X, Y = ws.xy_matrices()
    pows = _z_powers_by_products(ws, k - 2)
    total = scalar(ws.alg, 0)
    for i in range(k - 1):
        prod = pows[i].matmul(X).matmul(pows[k - 2 - i])
        total = total + trace_product(prod, Y)
    return total.scale(k)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_d_trace_matches_sum_of_products(ws_sl3, ws_so5, k):
    for ws in (ws_sl3, ws_so5) if k <= 4 else (ws_sl3,):
        for arg, expected in _d_trace_by_products(ws, k).items():
            assert d_trace(ws, k, arg) == expected, (arg, k)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_traces_match_full_products(ws_sl3, ws_so5, ws_sp4, ws_g2, k):
    """Tr(z^k) from half powers (`trace_square_ints` at even k) and hat
    from mirrored pairs against Tr(z^(k-2) . z^2) and the
    product-by-product hat: A2 up to k = 6, B2, C2 and G2 at k = 3 and 4,
    so both the pairs T(a,b), T(b,a) and the self-paired middle term of
    even k are checked."""
    for ws in (ws_sl3, ws_so5, ws_sp4, ws_g2) if k in (3, 4) \
            else (ws_sl3, ws_so5) if k == 2 else (ws_sl3,):
        pows = _z_powers_by_products(ws, max(k - 2, 2))
        assert trace_z_power(ws, k) == trace_product(pows[k - 2], pows[2]), k
        assert hat_trace(ws, k).value == _hat_trace_by_products(ws, k), k


@pytest.mark.parametrize("fixture", ["ws_sl3", "ws_so5", "ws_sp4", "ws_g2"])
def test_y_chain_is_swapped_x_chain(request, fixture):
    """Y z^j is the swap of X z^j, entry by entry, for j <= 2: the swap
    fixes z and has the sign +1 at bidegree (j+1, j)."""
    ws = request.getfixturevalue(fixture)
    X, Y = ws.xy_matrices()
    for j, zj in enumerate(_z_powers_by_products(ws, 2)):
        xz, yz = X.matmul(zj).swap(), Y.matmul(zj)
        for a in range(X.size):
            for b in range(X.size):
                assert entry(xz, a, b) == entry(yz, a, b), (j, a, b)


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
    # Tr(z^k) does not depend on the basis of the module
    assert _digest(trace_z_power(ws, 2)) == [244, "1774be679962841d"]
    assert _digest(trace_z_power(ws, 3)) == [0, "e3b0c44298fc1c14"]
    assert _digest(trace_z_power(ws, 4)) == [12547, "7dd3c9f152de1989"]


def test_prop_hat_traces_built_once_per_workspace(sl3, monkeypatch):
    """Once the pair (2,3) has run, the pairs (2,2) and (3,3) and every
    trace of degree 2 and 3 are read from the workspace: no matrix product
    or trace is taken again."""
    ws = Workspace(sl3)
    want = {pair: check_prop_hat(Workspace(sl3), *pair)
            for pair in ((2, 2), (3, 3))}
    assert check_prop_hat(ws, 2, 3)["pass"]

    def refuse(*args):
        raise AssertionError("a trace built twice")
    for name in ("matmul", "trace_product_ints", "trace_square_ints"):
        monkeypatch.setattr(OddMatrix, name, refuse)
    for pair, report in want.items():
        assert check_prop_hat(ws, *pair) == report
    for k in (2, 3):
        hat_trace(ws, k), trace_z_power(ws, k), d_trace(ws, k, "Y")


@pytest.mark.parametrize("check, args, d", [
    (check_prop_hat, (2, 3), 4),
    (check_conj_c1, (2, [1, 2, 1]), 2),
    (check_conj_c2_c3, (), 3),
], ids=["prop-hat", "conj-c1", "conj-c23"])
def test_hat_checks_guard_before_expanding(sl3, monkeypatch, check, args, d):
    """A cap one below the largest component a check touches, (d,d) on
    sl(3), refuses before any matrix product or trace is built."""
    def refuse(self, other):
        raise AssertionError("a matrix product before the cap check")
    monkeypatch.setattr(OddMatrix, "matmul", refuse)
    ws = Workspace(sl3, cap=GrassmannAlgebra(sl3.dim).component_dim(d, d) - 1)
    with pytest.raises(ComponentTooLarge, match=r"\(%d,%d\)" % (d, d)):
        check(ws, *args)


def test_d_trace_in_ideal_not_zero(ws_sl3):
    el = d_trace(ws_sl3, 3, "X")
    assert not el.is_zero()
    assert bidegree(el) == (3, 2)


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
    monos = hat_monomials(ws_sl3, 3, trace_power_degrees(ws_sl3.lie))
    # generators of hat-degrees 1 and 2: monomials of degree 3, in
    # lexicographic order
    assert [e for e, _ in monos] == [(1, 1), (3, 0)]


def _hat_monomials_by_wedges(ws, degree, degrees):
    """Reference hat monomials over Fractions: {exponent tuple: product},
    each product of the exact hat elements wedged out from 1."""
    hats = [hat_trace(ws, k).value for k in degrees]
    out = {}

    def rec(i, remaining, expo):
        if i == len(hats):
            if remaining == 0:
                val = scalar(ws.alg, 1)
                for h, e in zip(hats, expo):
                    for _ in range(e):
                        val = val.wedge(h)
                out[tuple(expo)] = val
            return
        for e in range(remaining // (degrees[i] - 1) + 1):
            rec(i + 1, remaining - e * (degrees[i] - 1), expo + [e])

    rec(0, degree, [])
    return out


@pytest.mark.parametrize("fixture", ["ws_sl3", "ws_so5", "ws_sp4"])
def test_hat_monomials_match_fraction_products(request, fixture):
    """The int hat monomials against the products of the exact hat
    elements, for every degree d <= g: the same exponents, and each int
    product is the exact one times prod_k den_k^e_k > 0, den_k the
    denominator of the int hat trace of degree k."""
    ws = request.getfixturevalue(fixture)
    degrees = trace_power_degrees(ws.lie)
    dens = [_hat_trace_ints(ws, k)[1] for k in degrees]
    for d in range(ws.g + 1):
        want = _hat_monomials_by_wedges(ws, d, degrees)
        got = dict(hat_monomials(ws, d, degrees))
        assert set(got) == set(want), d
        for e, val in got.items():
            scale = prod(den ** x for den, x in zip(dens, e))
            assert scale > 0
            assert val == want[e].scale(scale).terms, (d, e)
            assert all(type(c) is int for c in val.values())


def test_hat_monomials_built_once_per_workspace(sp4, monkeypatch):
    """check_conj_c2_c3 on C2 reads the hat monomials of degrees 0, 1 and
    g = 3 over one degrees tuple: each of the 5 exponent tuples is built
    once, and a second run on the same workspace builds none."""
    built = Counter()
    build = exterior.even_monomial

    def counting(e, factors, memo):
        if e not in memo:
            built[e] += 1
        return build(e, factors, memo)

    # even_monomial recurses through the module global
    monkeypatch.setattr(exterior, "even_monomial", counting)
    monkeypatch.setattr(hats, "even_monomial", counting)
    ws = Workspace(sp4)
    first = check_conj_c2_c3(ws)
    assert first["pass"]
    assert len(built) == 5 and set(built.values()) == {1}
    again = dict(built)
    assert check_conj_c2_c3(ws) == first
    assert built == again


def test_g2_prop_hat_guards_every_pair_first(monkeypatch):
    """G2's pairs (2,2), (2,6), (6,6) under the default cap: (2,6) touches
    (6,6), which is over it, so the check is refused before the (2,2) pair
    builds any matrix product, with the reason of the first pair refused."""
    runner = CheckRunner(("G", 2), DEFAULT_MONOMIAL_CAP)
    runner.ws  # the workspace itself builds no product

    def refuse(self, other):
        raise AssertionError("a matrix product before the cap check")
    monkeypatch.setattr(OddMatrix, "matmul", refuse)
    rep = runner.run("prop-hat")
    assert rep["verdict"] == "skipped" and rep["cap_hit"]
    assert "component (6,6) has 9018009 monomials" in rep["reason"]


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
    primes, each report on a fresh workspace."""
    want = check_prop_hat(Workspace(ws_sl3.lie), 2, 3)
    primes = use_seed_primes(monkeypatch, 77)
    fresh = Workspace(ws_sl3.lie)
    assert check_prop_hat(fresh, 2, 3) == want
    assert eliminated_over([fresh], primes)


def test_modular_conjecture_checks_agree(monkeypatch, ws_sl2, ws_sl3):
    """The conjecture reports on A1 and A2 are the same under seed-drawn
    first primes, each set of reports on fresh workspaces."""
    def reports(workspaces):
        out = []
        for ws in workspaces:
            counts = poincare_series(enumerate_abelian_ideals(ws.lie.rs))
            out += [check_conj_c1(ws, ws.g - 1, counts),
                    check_conj_c2_c3(ws)]
        return out

    lies = [ws_sl2.lie, ws_sl3.lie]
    want = reports([Workspace(lie) for lie in lies])
    primes = use_seed_primes(monkeypatch, 99)
    fresh = [Workspace(lie) for lie in lies]
    assert reports(fresh) == want
    assert eliminated_over(fresh, primes)


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
            assert sub.quotient(v.terms for v in inv).rank == 0, (p, q)
