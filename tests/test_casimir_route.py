"""dim A^g from the Casimir on the quotient, the route that
`invariants_of_quotient` takes when the span leaves few free columns,
against the invariant kernel of the component that it replaces there."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from chiralring.rootsystem import build_root_system, chevalley_data
from chiralring.cdsw import Workspace
from chiralring.cdsw import core
from chiralring.cdsw.core import (IdealSpan, check_part_i, ideal_weight_zero,
                                  invariants_by_casimir, invariants_by_kernel,
                                  invariants_of_quotient, XX, XY, YY)
from chiralring.exterior import ExtElement
from chiralring.liemodule import form_dual, invariant_basis
from conftest import casimir

WORKSPACES = ["ws_sl2", "ws_sl3", "ws_so5", "ws_sp4", "ws_g2"]
FAMILY_SETS = [(XX, XY, YY), (XX, YY)]
# the bidegrees part (i), c1 and c2/c3 ask about, up to (3,3)
BIDEGREES = [(0, 0), (1, 1), (2, 2), (3, 3), (1, 0), (0, 2), (2, 1)]


@pytest.mark.parametrize("families", FAMILY_SETS, ids="".join)
@pytest.mark.parametrize("name", WORKSPACES)
def test_casimir_route_matches_kernel_route(request, name, families):
    ws = request.getfixturevalue(name)
    for p, q in BIDEGREES:
        sub = ideal_weight_zero(ws, families, p, q)
        assert invariants_by_casimir(ws, sub) == invariants_by_kernel(
            ws, sub), (p, q)


@pytest.mark.parametrize("name", WORKSPACES)
@pytest.mark.parametrize("p,q", [(1, 1), (2, 2), (1, 0), (1, 2), (0, 3)])
def test_casimir_route_on_a_span_with_no_rows(request, name, p, q):
    """With no ideal the quotient is the component, and the Casimir's
    kernel on its weight-zero slice is the component's invariants: with
    one part, and with the parts of the symmetries."""
    ws = request.getfixturevalue(name)
    w0 = ws.action.weight_masks(p, q, ws.action.zero_weight)
    want = len(invariant_basis(ws.action, p, q))
    symmetries = (ws.chevalley,) + ((ws.swap,) if p == q else ())
    for syms in ((), symmetries):
        assert invariants_by_casimir(
            ws, IdealSpan(w0, (p, q), [], syms)) == want


@given(st.data())
def test_int_casimir_is_D_times_fraction_casimir(ws_sl2, ws_sl3, ws_so5,
                                                 ws_g2, data):
    ws = data.draw(st.sampled_from([ws_sl2, ws_sl3, ws_so5, ws_g2]))
    p, q = data.draw(st.sampled_from([(1, 1), (2, 1), (0, 2), (2, 2)]))
    w0 = ws.action.weight_masks(p, q, ws.action.zero_weight)
    masks = data.draw(st.lists(st.sampled_from(w0), min_size=1, max_size=4,
                               unique=True))
    terms = {m: data.draw(st.integers(-5, 5).filter(bool)) for m in masks}
    _, den = form_dual(ws.lie)
    want = casimir(ws.action, ExtElement(
        ws.alg, {m: Fraction(c) for m, c in terms.items()}))
    assert ws.action.casimir(terms) == {
        m: den * v for m, v in want.terms.items()}


def test_route_rule(monkeypatch, ws_so5, ws_g2):
    """f * f <= |w0| takes the Casimir route: B2 (3,3) leaves 4 of 756
    columns free, G2 (3,3) leaves 104 of 3,922 (104**2 > 3,922)."""
    routes = []

    def recording(route):
        inner = getattr(core, route)

        def recorded(ws, sub):
            routes.append(route)
            return inner(ws, sub)
        return recorded

    for route in ("invariants_by_casimir", "invariants_by_kernel"):
        monkeypatch.setattr(core, route, recording(route))
    # (3,3) is B2's critical degree g = 3 and lies below G2's g = 4
    for ws, free, dim in ((ws_so5, 4, 0), (ws_g2, 104, 1)):
        sub = ideal_weight_zero(ws, (XX, XY, YY), 3, 3)
        assert len(sub.columns) - sub.rank == free
        assert invariants_of_quotient(ws, 3, 3) == dim
    assert routes == ["invariants_by_casimir", "invariants_by_kernel"]


def test_part_i_a3_reaches_4_4_without_its_kernel(monkeypatch):
    """A3 (g = 4) part (i) up to (4,4): the (4,4) span leaves 5 of 34,323
    columns free, so dim A^g = 0 there comes from the Casimir, and the
    (4,4) invariant kernel is never computed."""
    from chiralring import liemodule
    inner = liemodule.invariants

    def no_4_4_kernel(action, p, q):
        if (p, q) == (4, 4):
            raise AssertionError("the (4,4) invariant kernel was computed")
        return inner(action, p, q)

    monkeypatch.setattr(liemodule, "invariants", no_4_4_kernel)
    ws = Workspace(chevalley_data(build_root_system("A", 3)))
    rep = check_part_i(ws, 4)
    assert [d["dim"] for d in rep["diagonal"]] == [1, 1, 1, 1, 0]
    assert [o["dim"] for o in rep["offdiagonal"]] == [0, 0, 0]
    assert rep["pass"]
