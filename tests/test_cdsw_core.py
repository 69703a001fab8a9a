import gc
import weakref
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, strategies as st

from chiralring.rootsystem import (build_root_system, chevalley_data,
                                   LIE_DATA_TYPES)
from chiralring.cdsw import Workspace
from chiralring.exactla import addmul
from chiralring import exactla, exterior
from chiralring.cdsw.core import (IdealSpan, ideal_weight_zero, ideal_rows,
                                  invariants_of_quotient, relations,
                                  check_S_power, check_part_i, s_power,
                                  XX, XY, YY, OFFDIAGONAL_SPOT_CHECKS,
                                  _FAMILY_DEGREE, _images)
from chiralring.exterior import (ComponentTooLarge, ExtElement,
                                 GrassmannAlgebra, OddMatrix, WrongComponent)
from chiralring.abideals import enumerate_abelian_ideals, poincare_series
from chiralring.cdsw.hats import (check_conj_c1, check_conj_c2_c3,
                                  hat_monomials)
from chiralring.liemodule import invariant_basis, invariant_basis_elements
from chiralring.rootsystem.reps import trace_power_degrees
from conftest import (act_on, bidegree, canonical_ideal_span,
                      chevalley_generator_indices, chevalley_xy, component,
                      elements, eliminated_over, entry, fraction_relations,
                      fraction_S, fraction_xy_matrices, odd_matrix, power,
                      span_basis_elements, span_columns, swap_xy,
                      trace_product, use_seed_primes)


def ideal_component(ws, families, p, q):
    """Reference oracle: the span of the selected families inside the full
    (p,q) component, every product r ^ m of a relation and a monomial
    taken, whatever its weight."""
    alg = ws.alg
    products = []
    for fam in families:
        dp, dq = _FAMILY_DEGREE[fam]
        if p < dp or q < dq:
            continue
        for rel in elements(alg, ws.rels[fam]):
            for m in alg.component_masks(p - dp, q - dq):
                products.append(
                    rel.wedge(ExtElement(alg, {m: Fraction(1)})).terms)
    return IdealSpan(alg.component_masks(p, q), (p, q), products)


def reference_ideal_rows(ws, families, p, q, weight):
    """Reference for ideal_rows: every nonzero rel ^ m, built by the wedge,
    for the monomials m of the weight that completes rel's."""
    out = []
    for fam in families:
        dp, dq = _FAMILY_DEGREE[fam]
        if p < dp or q < dq:
            continue
        for rel in elements(ws.alg, ws.rels[fam]):
            if rel.is_zero():
                continue
            rw = ws.action.mask_weight(next(iter(rel.terms)))
            need = tuple(w - r for w, r in zip(weight, rw))
            for m in ws.action.weight_masks(p - dp, q - dq, need):
                row = rel.wedge(ExtElement(ws.alg, {m: Fraction(1)}))
                if not row.is_zero():
                    out.append(row)
    return out


def swap_membership_invariance(ws, k):
    """The x<->y involution maps the relation families onto themselves, so
    S-power verdicts are invariant under it; checked by recomputation."""
    direct = check_S_power(ws, k)
    sub = ideal_weight_zero(ws, (XX, XY, YY), k, k)
    sk = power(fraction_S(ws), k)
    return direct["contained"] == sub.contains(swap_xy(sk).terms)


def family_equivariance(ws, family):
    """Every act_on(a, r) for r in a relation family stays in the family span:
    the families are adjoint copies."""
    rels = [r for r in elements(ws.alg, ws.rels[family]) if not r.is_zero()]
    p, q = _FAMILY_DEGREE[family]
    sub = IdealSpan(ws.alg.component_masks(p, q), (p, q),
                    [r.terms for r in rels])
    for r in rels:
        for a in chevalley_generator_indices(ws.lie):
            img = act_on(ws.action, a, r)
            if not img.is_zero() and not sub.contains(img.terms):
                return False
    return True


def test_relation_counts_and_degrees(ws_sl2):
    xx, xy, yy = (elements(ws_sl2.alg, ws_sl2.rels[fam])
                  for fam in (XX, XY, YY))
    for rel in xx:
        assert rel.is_zero() or bidegree(rel) == (2, 0)
    for rel in xy:
        assert rel.is_zero() or bidegree(rel) == (1, 1)
    for rel in yy:
        assert rel.is_zero() or bidegree(rel) == (0, 2)


def test_sl2_relation_ranks(ws_sl2):
    assert ideal_component(ws_sl2, (XY,), 1, 1).rank == 3
    assert ideal_component(ws_sl2, (XX,), 2, 0).rank == 3
    assert ideal_component(ws_sl2, (YY,), 0, 2).rank == 3
    # (1,1) with all families is exactly the xy span
    assert ideal_component(ws_sl2, (XX, XY, YY), 1, 1).rank == 3


def test_family_spans_are_adjoint_copies(ws_sl2, ws_sl3):
    for ws in (ws_sl2, ws_sl3):
        n = ws.lie.dim
        for fam, (p, q) in ((XX, (2, 0)), (XY, (1, 1)), (YY, (0, 2))):
            sub = ideal_component(ws, (fam,), p, q)
            assert sub.rank == n
            assert family_equivariance(ws, fam)


def test_rho_image_cross_check(ws_sl2, ws_sl3):
    """Entries of the supercommutators of the matrices X, Y lie in the
    corresponding relation family span."""
    for ws in (ws_sl2, ws_sl3):
        X, Y = ws.xy_matrices()
        pairs = [(XX, X.matmul(X), (2, 0)),
                 (XY, X.matmul(Y) + Y.matmul(X), (1, 1)),
                 (YY, Y.matmul(Y), (0, 2))]
        for fam, mat, (p, q) in pairs:
            sub = ideal_component(ws, (fam,), p, q)
            for i in range(mat.size):
                for j in range(mat.size):
                    e = entry(mat, i, j)
                    if not e.is_zero():
                        assert sub.contains(e.terms)


def test_S_invariance_and_bidegree(ws_sl2, ws_sl3, ws_so5):
    for ws in (ws_sl2, ws_sl3, ws_so5):
        S = ws.s_powers[1]
        assert bidegree(S) == (1, 1)
        for a in range(ws.lie.dim):
            assert act_on(ws.action, a, S).is_zero()


def test_trace_proportionality_constants(ws_sl2, ws_sl3, ws_so5):
    # Dynkin-index factors with respect to the Killing-normalized form
    assert ws_sl2.trace_S_constant() == Fraction(1, 4)
    assert ws_sl3.trace_S_constant() == Fraction(1, 6)
    assert ws_so5.trace_S_constant() == Fraction(1, 3)


@pytest.mark.parametrize("key,label,size,constant", [
    (("A", 2), "vector", 3, Fraction(1, 6)),
    (("B", 2), "vector", 5, Fraction(1, 3)),
    (("C", 2), "vector", 4, Fraction(1, 6)),
    (("G", 2), "fundamental-7", 7, Fraction(1, 4)),
])
def test_trace_representation_fixed_by_type(key, label, size, constant):
    ws = Workspace(chevalley_data(build_root_system(*key)))
    assert ws.trace_label == label
    X, Y = ws.xy_matrices()
    assert X.size == Y.size == size
    assert ws.trace_S_constant() == constant


@pytest.mark.parametrize("key", LIE_DATA_TYPES, ids=lambda key: "%s%d" % key)
def test_xy_matrices_match_fraction_oracle(key):
    """X and Y, built on ints from `form_dual` and the scaled
    representation matrices, equal the Fraction construction entry by entry
    as rationals on every type with a trace representation, and so does
    the constant c of Tr(XY) = c S, here from the Fraction X, Y and S."""
    ws = Workspace(chevalley_data(build_root_system(*key)))
    X, Y = ws.xy_matrices()
    ref_x, ref_y = fraction_xy_matrices(ws)
    for mat, ref in ((X, ref_x), (Y, ref_y)):
        assert mat.size == len(ref)
        for i, row in enumerate(ref):
            for j, e in enumerate(row):
                assert entry(mat, i, j) == e, (i, j)
    t = trace_product(odd_matrix(ws.alg, ref_x), odd_matrix(ws.alg, ref_y))
    S = fraction_S(ws)
    mask, coeff = next(iter(S.terms.items()))
    c = t.terms[mask] / coeff
    assert t == S.scale(c)
    assert ws.trace_S_constant() == c


@pytest.mark.parametrize("perturb", ["coefficient", "monomial"])
def test_trace_S_constant_refuses_a_non_proportional_trace(sl3, monkeypatch,
                                                           perturb):
    """A Y with one entry perturbed makes Tr(XY) no multiple of S: doubling
    one coefficient keeps its monomials, adding a y generator to a
    diagonal entry adds monomials S does not have."""
    ws = Workspace(sl3)
    X, Y = ws.xy_matrices()
    entries = [[dict(t) for t in row] for row in Y.entries]
    if perturb == "coefficient":
        t = next(t for row in entries for t in row if t)
        m = next(iter(t))
        t[m] *= 2
    else:
        entries[0][0][1 << ws.alg.n] = Y.den
    bad = OddMatrix(ws.alg, entries, Y.den)
    monkeypatch.setattr(ws, "xy_matrices", lambda: (X, bad))
    with pytest.raises(AssertionError, match="not proportional"):
        ws.trace_S_constant()


def test_S_not_in_relation_span(ws_sl2):
    sub = ideal_component(ws_sl2, (XX, XY, YY), 1, 1)
    assert not sub.contains(fraction_S(ws_sl2).terms)


def test_sl2_S_powers(ws_sl2):
    assert check_S_power(ws_sl2, 2)["contained"] is True
    assert check_S_power(ws_sl2, 1)["contained"] is False


def test_sl3_S_powers(ws_sl3):
    assert check_S_power(ws_sl3, 3)["contained"] is True
    assert check_S_power(ws_sl3, 2)["contained"] is False


def test_weight_zero_slice_rejects_term_of_nonzero_weight(ws_sl3):
    """S^3 lies in I; adding a (3,3) monomial of nonzero weight leaves the
    weight-zero slice, which cannot decide membership, so it raises
    instead of answering "not in I"."""
    sub = ideal_weight_zero(ws_sl3, (XX, XY, YY), 3, 3)
    s3 = power(fraction_S(ws_sl3), 3)
    assert sub.contains(s3.terms)
    action = ws_sl3.action
    mask = next(m for m in ws_sl3.alg.component_masks(3, 3)
                if action.mask_weight(m) != action.zero_weight)
    with pytest.raises(WrongComponent):
        sub.contains((s3 + ExtElement(ws_sl3.alg, {mask: Fraction(1)})).terms)


def test_so5_S_powers(ws_so5):
    assert check_S_power(ws_so5, 3)["contained"] is True
    assert check_S_power(ws_so5, 2)["contained"] is False


def test_sp4_matches_so5():
    """sp(4) and so(5) are isomorphic: the S-power verdicts and invariant
    dimensions must coincide."""
    ws = Workspace(chevalley_data(build_root_system("C", 2)))
    assert ws.g == 3
    assert check_S_power(ws, 3)["contained"] is True
    assert check_S_power(ws, 2)["contained"] is False
    rep = check_part_i(ws, 3)
    assert [d["dim"] for d in rep["diagonal"]] == [1, 1, 1, 0]
    assert rep["pass"]


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "C2", "G2", "A3"])
def test_int_S_powers_match_fraction_powers(label):
    """The workspace's int S^k, for every k <= g, is D**k times the
    Fraction power of S = sum_a x_a y^a over the form-dual basis."""
    ws = Workspace(chevalley_data(build_root_system(label[0],
                                                    int(label[1:]))))
    S, den = fraction_S(ws), ws.s_den
    for k in range(ws.g + 1):
        sk = s_power(ws, k)
        assert all(type(c) is int and c for c in sk.terms.values())
        assert sk == power(S, k).scale(den ** k)


def test_S_powers_built_once_per_workspace(so5, monkeypatch):
    """check_part_i builds S^2 .. S^g once each from S; check_S_power on
    the same workspace then builds no product: its span and S^g are
    cached."""
    calls = []
    wedge_into = exterior.wedge_into

    def counting(out, t1, t2):
        calls.append(t2)
        return wedge_into(out, t1, t2)

    monkeypatch.setattr(exterior, "wedge_into", counting)
    ws = Workspace(so5)
    S = ws.s_powers[1]
    calls.clear()
    assert check_part_i(ws, 3)["pass"]
    assert len(ws.s_powers) == 4
    assert sum(t2 is S.terms for t2 in calls) == 2
    calls.clear()
    assert check_S_power(ws, 3)["contained"] is True
    assert calls == []


def test_component_of_S_power_is_homogeneous(ws_sl2):
    s2 = power(fraction_S(ws_sl2), 2)
    assert component(s2, 2, 2) == s2
    assert component(s2, 1, 1).is_zero()
    assert bidegree(s2) == (2, 2)


def test_regression_ideal_ranks(ws_sl2, ws_sl3):
    # pinned exact ranks of the weight-zero slices used by the S-power tests
    assert check_S_power(ws_sl2, 2)["ideal_rank"] == 3
    assert check_S_power(ws_sl3, 3)["ideal_rank"] == 244
    # the full (2,2) component of sl2 is exhausted by the ideal
    full = ideal_component(ws_sl2, (XX, XY, YY), 2, 2)
    assert full.rank == 9
    assert ws_sl2.alg.component_dim(2, 2) == 9
    # sl3 (2,2): ideal rank 636 of 784, so the quotient slice has dim 148
    full3 = ideal_component(ws_sl3, (XX, XY, YY), 2, 2)
    assert (ws_sl3.alg.component_dim(2, 2), full3.rank) == (784, 636)


def test_full_component_agrees_with_weight_zero_slice(ws_sl3):
    """Membership verdicts computed in the full component match the
    weight-zero restriction."""
    from chiralring.cdsw.core import ideal_weight_zero
    full = ideal_component(ws_sl3, (XX, XY, YY), 2, 2)
    w0 = ideal_weight_zero(ws_sl3, (XX, XY, YY), 2, 2)
    s2 = power(fraction_S(ws_sl3), 2).terms
    assert full.contains(s2) == w0.contains(s2) == False
    h = power(fraction_S(ws_sl3), 2).scale(3).terms
    assert full.contains(h) == w0.contains(h)
    # every weight-zero echelon row of each part lies in the full span
    for el in span_basis_elements(ws_sl3.alg, w0):
        assert full.contains(el.terms)


def test_part_i_sl2(ws_sl2):
    rep = check_part_i(ws_sl2, 2)
    assert [d["dim"] for d in rep["diagonal"]] == [1, 1, 0]
    assert all(d["match"] for d in rep["diagonal"])
    assert all(o["dim"] == 0 for o in rep["offdiagonal"])
    assert rep["pass"]


def test_part_i_sl3(ws_sl3):
    rep = check_part_i(ws_sl3, 3)
    assert [d["dim"] for d in rep["diagonal"]] == [1, 1, 1, 0]
    assert rep["pass"]


def test_swap_membership_invariance(ws_sl2, ws_sl3):
    for ws, k in ((ws_sl2, 1), (ws_sl2, 2), (ws_sl3, 2), (ws_sl3, 3)):
        assert swap_membership_invariance(ws, k)


def test_swap_maps_families(ws_sl3):
    """The x<->y involution sends the XX family to the YY family and fixes
    each XY relation."""
    xx, xy, yy = (elements(ws_sl3.alg, ws_sl3.rels[fam])
                  for fam in (XX, XY, YY))
    for rxx, ryy in zip(xx, yy):
        assert swap_xy(rxx) == ryy
        assert swap_xy(ryy) == rxx
    for rxy in xy:
        assert swap_xy(rxy) == rxy


@pytest.mark.parametrize("key", [("A", 1), ("A", 2), ("A", 3), ("B", 2),
                                 ("B", 3), ("C", 2), ("C", 3), ("D", 4),
                                 ("G", 2)], ids=lambda key: "%s%d" % key)
def test_int_relations_match_fraction_oracle(key):
    """Each int relation is D**2 times the Fraction contraction with
    form_inv, D the lcm of form_inv's denominators, so every family spans
    what it spanned; the x<->y swap still sends XX to YY and fixes XY."""
    lie = chevalley_data(build_root_system(*key))
    alg = GrassmannAlgebra(lie.dim)
    rels = relations(lie)
    den = lcm(*(v.denominator for row in lie.form_inv for v in row))
    assert den > 1
    got = tuple(elements(alg, rels[fam]) for fam in (XX, XY, YY))
    for fam, want in zip(got, fraction_relations(alg, lie)):
        assert len(fam) == len(want) == lie.dim
        for rel, ref in zip(fam, want):
            assert rel == ref.scale(den ** 2)
    for rxx, rxy, ryy in zip(*got):
        assert swap_xy(rxx) == ryy
        assert swap_xy(ryy) == rxx
        assert swap_xy(rxy) == rxy


@pytest.mark.parametrize("key", LIE_DATA_TYPES, ids=lambda key: "%s%d" % key)
def test_algebra_data_are_plain_ints(key):
    """Structure constants, the Killing form, the action table, act_mask
    images, relation terms and ideal_rows coefficients are all exactly
    int: no Fraction enters the invariant equations or the ideal rows."""
    def ints(values):
        return all(type(v) is int for v in values)

    lie = chevalley_data(build_root_system(*key))
    assert all(ints(comb.values()) for comb in lie.struct.values())
    assert all(ints(row) for row in lie.form)
    ws = Workspace(lie)
    action = ws.action
    assert all(ints(v for _, v in moves)
               for row in action.table for moves in row.values())
    masks = action.weight_masks(2, 1, action.zero_weight)
    assert masks
    for a in chevalley_generator_indices(lie):
        for mask in masks:
            assert ints(action.act_mask(a, mask).values())
    for fam in (XX, XY, YY):
        assert all(ints(rel.values()) for rel in ws.rels[fam])
    rows = list(ideal_rows(ws, (XX, XY, YY), 2, 2, action.zero_weight))
    assert rows
    assert all(ints(row.values()) for row in rows)


def test_modular_exact_agreement(monkeypatch, ws_sl2, ws_sl3, ws_so5):
    """Whole S power reports on A1, A2 and B2 are the same when every
    elimination first takes two seed-drawn primes: the certified RREF over
    Q does not depend on the primes.  Each report runs on fresh workspaces,
    so the second eliminates its spans again."""
    def reports(workspaces):
        return [check_S_power(ws, k) for ws in workspaces
                for k in range(1, ws.g + 1)]

    lies = [ws.lie for ws in (ws_sl2, ws_sl3, ws_so5)]
    want = reports([Workspace(lie) for lie in lies])
    assert [r["contained"] for r in want[:8]] == \
        [False, True, False, False, True, False, False, True]
    primes = use_seed_primes(monkeypatch, 123)
    fresh = [Workspace(lie) for lie in lies]
    assert reports(fresh) == want
    assert eliminated_over(fresh, primes)


def test_part_i_modular_matches_exact(monkeypatch, ws_sl3):
    """The Part I report on A2 is the same under seed-drawn first primes."""
    want = check_part_i(Workspace(ws_sl3.lie), 3)
    primes = use_seed_primes(monkeypatch, 31)
    fresh = Workspace(ws_sl3.lie)
    got = check_part_i(fresh, 3)
    assert got == want
    assert eliminated_over([fresh], primes)
    assert ([d["dim"] for d in got["diagonal"]],
            [o["dim"] for o in got["offdiagonal"]]) == ([1, 1, 1, 0], [0, 0, 0])
    assert got["pass"]


def test_component_too_large_guard(sl3):
    with pytest.raises(ComponentTooLarge):
        check_S_power(Workspace(sl3, cap=100), 3)


def test_cached_span_is_shared_and_unchanged(so5):
    """Every call hands out the cached span itself, and no query changes
    it: a quotient by every monomial of the slice (which fills it), normal
    forms and memberships leave its rank and its parts' RREFs as they
    were."""
    ws = Workspace(so5)
    first = ideal_weight_zero(ws, (XX, YY), 2, 2)
    rank, rows = first.rank, [part.basis_rows() for part in first.parts]
    assert 0 < rank < len(first.columns)
    monomials = [{m: 1} for m in first.columns]
    quot = first.quotient(monomials)
    assert rank + quot.rank == len(first.columns)
    assert quot.contains(
        first.normal_form(power(fraction_S(ws), 2).terms)[0])
    assert [first.contains(m) for m in monomials].count(False) > 0
    again = ideal_weight_zero(ws, (XX, YY), 2, 2)
    assert again is first
    assert again.rank == rank
    assert [part.basis_rows() for part in again.parts] == rows


def test_span_cache_key_ignores_family_order(so5):
    ws = Workspace(so5)
    rank = ideal_weight_zero(ws, (XX, YY), 2, 2).rank
    assert ideal_weight_zero(ws, (YY, XX), 2, 2).rank == rank
    assert list(ws.ideal_spans) == [(frozenset((XX, YY)), 2, 2)]


def test_workspace_cap_refuses_a_span_before_building_it(so5):
    """The workspace's algebra holds the cap: a span over a larger
    component is refused and nothing is cached; a smaller one is built."""
    ws = Workspace(so5, cap=GrassmannAlgebra(so5.dim).component_dim(2, 2) - 1)
    with pytest.raises(ComponentTooLarge):
        ideal_weight_zero(ws, (XX, XY, YY), 2, 2)
    assert not ws.ideal_spans
    assert ideal_weight_zero(ws, (XX, XY, YY), 2, 1).rank > 0
    assert list(ws.ideal_spans) == [(frozenset((XX, XY, YY)), 2, 1)]


@pytest.mark.parametrize("up_to_k, top", [(3, (3, 3)), (1, (2, 1))])
def test_part_i_guards_every_component_before_building(sl3, up_to_k, top):
    """A workspace capped just below the largest component part (i) builds
    over, the top (k,k) or, at up_to_k = 1, the (2,1) spot check: it is
    refused before any span or invariant kernel is built."""
    cap = GrassmannAlgebra(sl3.dim).component_dim(*top) - 1
    ws = Workspace(sl3, cap=cap)
    with pytest.raises(ComponentTooLarge, match=r"\(%d,%d\)" % top):
        check_part_i(ws, up_to_k)
    assert not ws.ideal_spans
    assert not ws.action._invariant_bases


def test_cached_spans_die_with_their_workspace(so5):
    ws = Workspace(so5)
    ideal_weight_zero(ws, (XX, YY), 2, 2)
    ref = weakref.ref(ws.ideal_spans[(frozenset((XX, YY)), 2, 2)])
    del ws
    gc.collect()
    assert ref() is None


def test_check_reports_do_not_depend_on_order(so5):
    """Part (i) and S^3 on B2 share the (k,k) spans of all three families:
    whichever runs first on a workspace, both reports are those of
    separate fresh workspaces."""
    separate = (check_part_i(Workspace(so5), 3),
                check_S_power(Workspace(so5), 3))
    ws = Workspace(so5)
    part_first = (check_part_i(ws, 3), check_S_power(ws, 3))
    ws = Workspace(so5)
    s_power = check_S_power(ws, 3)
    s_power_first = (check_part_i(ws, 3), s_power)
    assert part_first == separate
    assert s_power_first == separate


def test_equivariance_of_ideal_spans(ws_sl2):
    """Ideal component subspaces are stable under the generator actions."""
    from chiralring.exterior import ExtElement
    sub = ideal_component(ws_sl2, (XX, XY, YY), 2, 2)
    for el in span_basis_elements(ws_sl2.alg, sub):
        for a in chevalley_generator_indices(ws_sl2.lie):
            img = act_on(ws_sl2.action, a, el)
            if not img.is_zero():
                assert sub.contains(img.terms)


@pytest.fixture(scope="module", params=[("A", 2), ("B", 2), ("G", 2)],
                ids=lambda key: "%s%d" % key)
def ws_rank2(request):
    return Workspace(chevalley_data(build_root_system(*request.param)))


@pytest.mark.parametrize("p, q", [(2, 2), (3, 3), (2, 1)])
def test_ideal_rows_match_wedge_reference(ws_rank2, p, q):
    """ideal_rows against rel ^ m by the wedge, row for row and in order,
    per family and for all three, at weight zero and at a simple root.
    (2,1) has no YY row at all."""
    ws = ws_rank2
    simple = ws.lie.rs.simple_roots[0]
    for weight in (ws.action.zero_weight, simple):
        for families in ((XX,), (XY,), (YY,), (XX, XY, YY)):
            got = list(ideal_rows(ws, families, p, q, weight))
            want = reference_ideal_rows(ws, families, p, q, weight)
            assert got == [r.terms for r in want]
            assert bool(got) == (families != (YY,) or (p, q) != (2, 1))


FULL, HALF = (XX, XY, YY), (XX, YY)


def _spans(full_k, half_k, half_off):
    """(families, (p, q)) of the spans the checks build: every (k,k) with
    all three families for k in full_k, with part (i)'s off-diagonal spot
    checks, and every (k,k) with XX, YY for k in half_k, with the
    off-diagonal bidegrees of prop-hat's (b)."""
    return ([(FULL, (k, k)) for k in full_k]
            + [(FULL, pq) for pq in OFFDIAGONAL_SPOT_CHECKS]
            + [(HALF, (k, k)) for k in half_k]
            + [(HALF, pq) for pq in half_off])


# read off `Workspace.ideal_spans` after every check of the command line
# on each algebra; G2 only up to k = 2 (the command line also builds its
# (3,3) and (4,4) spans, but their full-row oracle takes minutes)
_RANK2_SPANS = _spans(range(4), [0, 1, 2, 3, 4, 5, 7],
                      [(1, 2), (2, 1), (3, 4), (4, 3)])
CHECKED_SPANS = [
    ("ws_sl2", _spans(range(3), range(4), [(1, 2), (2, 1)])),
    ("ws_sl3", _spans(range(4), range(6), [(1, 2), (2, 1), (2, 3), (3, 2)])),
    ("ws_so5", _RANK2_SPANS),
    ("ws_sp4", _RANK2_SPANS),
    ("ws_g2", _spans(range(3), range(3), [(1, 2), (2, 1)])),
]


def _hat_batches(ws, d):
    """The hat-monomial batches c1 and c2/c3 insert into the (XX,YY) span
    at (d,d): every monomial, and those with a hat of degree > 1; and
    p_hat_1^d apart from the others, whose membership c2 reads at d = g."""
    degrees = [k for k in trace_power_degrees(ws.lie) if k - 1 <= d]
    monos = dict(hat_monomials(ws, d, degrees))
    p1_power = monos.pop((d,) + (0,) * (len(degrees) - 1))
    others = list(monos.values())
    return ([others + [p1_power],
             [v for e, v in monos.items() if any(e[1:])]],
            others, p1_power)


@pytest.mark.parametrize("name, spans", CHECKED_SPANS,
                         ids=[name for name, _ in CHECKED_SPANS])
def test_count_order_matches_canonical_order(request, name, spans):
    """Each span the checks build (split into the isotypic parts of the
    Chevalley involution, and of the swap x<->y too at (k,k), in count
    order) against the same span from every row over the canonical
    columns (one part): the same rank, S^k membership,
    growth under the invariant basis, and on the (XX,YY) spans up to
    (g,g) growth under c1's and c3's hat monomials, and c2's membership of
    p_hat_1^g over the other hat monomials."""
    ws = request.getfixturevalue(name)
    for families, (p, q) in spans:
        got = ideal_weight_zero(ws, families, p, q)
        want = canonical_ideal_span(ws, families, p, q)
        why = (families, p, q)
        assert sorted(got.columns) == sorted(want.columns), why
        assert len(got.parts) == (4 if p == q else 2), why
        assert got.rank == want.rank, why
        if p == q:
            sk = power(fraction_S(ws), p).terms
            assert got.contains(sk) == want.contains(sk), why
        batches = [[e.terms for e in
                    invariant_basis_elements(ws.action, p, q)]]
        if families == HALF and p == q and 0 < p <= ws.g:
            hat_batches, others, p1_power = _hat_batches(ws, p)
            batches += hat_batches
            if p == ws.g:
                assert (got.quotient(others).contains(
                            got.normal_form(p1_power)[0])
                        == want.quotient(others).contains(
                            want.normal_form(p1_power)[0])), why
        for batch in batches:
            assert (got.quotient(batch).rank
                    == want.quotient(batch).rank), why


_ORACLES = {}


@given(data=st.data())
def test_split_membership_matches_oracle(ws_sl2, ws_sl3, ws_so5, data):
    """A split span against the one-part span of every row, on random
    weight-zero elements in the ideal or near it: random sums of ideal
    rows, plus random monomials, which the parts' columns spread across
    the parts.  At (k,k) the span has the four parts of the Chevalley
    involution and the swap x<->y; at (2,1) and (1,2) the two of the
    Chevalley involution alone.  They agree on membership; the quotient by
    a random batch E has the rank of the oracle's growth by E, whatever
    symmetry E lacks, and holds the normal form of an element exactly
    when the grown oracle holds the element; and the normal form is
    linear, once each is divided by its denominator."""
    ws = data.draw(st.sampled_from([ws_sl2, ws_sl3, ws_so5]))
    p, q = data.draw(st.sampled_from([(1, 1), (2, 2), (2, 1), (1, 2)]))
    families = data.draw(st.sampled_from([FULL, HALF]))
    key = (id(ws), families, p, q)
    if key not in _ORACLES:
        rows = list(ideal_rows(ws, families, p, q, ws.action.zero_weight))
        _ORACLES[key] = rows, canonical_ideal_span(ws, families, p, q)
    rows, oracle = _ORACLES[key]
    span = ideal_weight_zero(ws, families, p, q)
    assert len(span.parts) == (4 if p == q else 2)
    coeffs = st.integers(-3, 3).filter(bool)

    def element():
        # (1,1) has no (XX,YY) row
        picked = data.draw(st.lists(st.tuples(st.sampled_from(rows), coeffs),
                                    max_size=4)) if rows else []
        picked += data.draw(st.lists(st.tuples(
            st.sampled_from(span.columns).map(lambda m: {m: 1}), coeffs),
            max_size=3))
        terms = {}
        for row, c in picked:
            addmul(terms, row, c)
        return terms

    def normal_form(elem):
        w, den = span.normal_form(elem)
        return {j: Fraction(c, den) for j, c in w.items()}

    elem = element()
    assert span.contains(elem) == oracle.contains(elem)
    batch = [element() for _ in range(data.draw(st.integers(0, 3)))]
    grown = IdealSpan(oracle.columns, (p, q), rows + batch)
    quot = span.quotient(batch)
    assert quot.rank == grown.rank - oracle.rank
    assert quot.contains(span.normal_form(elem)[0]) == grown.contains(elem)
    other, a, b = element(), data.draw(coeffs), data.draw(coeffs)
    assert normal_form(addmul(addmul({}, elem, a), other, b)) == addmul(
        addmul({}, normal_form(elem), a), normal_form(other), b)


@given(data=st.data())
def test_span_answers_do_not_depend_on_scale(ws_sl3, data):
    """A span of random int rows over the A2 (1,1) weight-zero masks,
    closed under the Chevalley involution and the swap (four parts), gives
    the same rank, memberships and quotient ranks for the int terms, for
    the same terms as Fractions over a random denominator, and for a
    positive multiple of them, drawn per row and per element.  `split`
    hands the terms on as they are, and each part's Echelon clears them on
    its own."""
    symmetries = (ws_sl3.chevalley, ws_sl3.swap)
    columns = ws_sl3.action.weight_masks(1, 1, ws_sl3.action.zero_weight)
    terms = st.dictionaries(st.sampled_from(columns),
                            st.sampled_from([-6, -4, -3, -2, -1, 1, 2, 3,
                                             4, 6]),
                            min_size=1, max_size=4)

    def closed(row):
        images = {}
        for m, c in row.items():
            for g, image, sign in _images(symmetries, m):
                images.setdefault(g, {})[image] = sign * c
        return list(images.values())

    rows = [r for row in data.draw(st.lists(terms, max_size=3))
            for r in closed(row)]
    # some elements are combinations of others, so the quotient is not
    # generically of full rank
    elems = data.draw(st.lists(terms, min_size=1, max_size=3))
    for cs in data.draw(st.lists(st.lists(st.integers(-2, 2),
                                          min_size=len(elems),
                                          max_size=len(elems)),
                                 max_size=2)):
        combo = {}
        for c, e in zip(cs, elems):
            addmul(combo, e, c)
        elems.append(combo)

    def over(ts):
        dens = data.draw(st.lists(st.sampled_from([2, 3, 4, 6, 12, 60]),
                                  min_size=len(ts), max_size=len(ts)))
        return [{m: Fraction(c, den) for m, c in t.items()}
                for t, den in zip(ts, dens)]

    def times(ts):
        ks = data.draw(st.lists(st.integers(1, 60), min_size=len(ts),
                                max_size=len(ts)))
        return [{m: k * c for m, c in t.items()} for t, k in zip(ts, ks)]

    def answers(rows, elems):
        span = IdealSpan(columns, (1, 1), rows, symmetries)
        assert len(span.parts) == 4
        return (span.rank, [span.contains(e) for e in elems],
                span.quotient(elems).rank)

    want = answers(rows, elems)
    assert answers(over(rows), over(elems)) == want
    assert answers(times(rows), times(elems)) == want


def test_checks_leave_cached_spans_unchanged(so5):
    """Part (i), c1 and c2/c3 on B2, run twice on one workspace: after the
    second run every span cached after the first is the same object, with
    the same rank and the same certified RREF in every part."""
    ws = Workspace(so5)
    counts = poincare_series(enumerate_abelian_ideals(so5.rs))

    def run():
        return (check_part_i(ws, ws.g), check_conj_c1(ws, ws.g - 1, counts),
                check_conj_c2_c3(ws))

    def snapshot():
        return {key: (id(span), span.rank,
                      [{piv: (dict(row), den)
                        for piv, (row, den) in part._rref.items()}
                       for part in span.parts])
                for key, span in ws.ideal_spans.items()}

    first = run()
    before = snapshot()
    assert len(before) > 10
    assert run() == first
    assert snapshot() == before


def test_full_span_quotient_has_no_invariants(monkeypatch, so5):
    """The B2 (XX,YY) span at (4,4) has rank 2,028, its number of columns:
    it holds the whole weight-zero slice, so the quotient has no invariant
    there, and no invariant kernel is computed to say so."""
    from chiralring import liemodule
    calls = []
    kernel = liemodule.kernel_basis

    def counting(rows, ncols):
        calls.append(ncols)
        return kernel(rows, ncols)

    monkeypatch.setattr(liemodule, "kernel_basis", counting)
    ws = Workspace(so5)
    span = ideal_weight_zero(ws, HALF, 4, 4)
    assert span.rank == len(span.columns) == 2028
    assert invariants_of_quotient(ws, 4, 4, HALF) == 0
    assert not calls


@pytest.mark.parametrize("key", LIE_DATA_TYPES, ids=lambda key: "%s%d" % key)
def test_swap_maps_families_on_every_type(key):
    """On every type with Chevalley data, the x<->y swap sends each XX
    relation to the YY relation of the same index and fixes each XY one:
    a two-part span leaves out the YY rows and half the XY rows on this."""
    lie = chevalley_data(build_root_system(*key))
    alg = GrassmannAlgebra(lie.dim)
    rels = relations(lie)
    xx, xy, yy = (elements(alg, rels[fam]) for fam in (XX, XY, YY))
    for rxx, ryy in zip(xx, yy, strict=True):
        assert swap_xy(rxx) == ryy
    for rxy in xy:
        assert swap_xy(rxy) == rxy


@pytest.mark.parametrize("key", LIE_DATA_TYPES, ids=lambda key: "%s%d" % key)
def test_chevalley_involution_on_every_type(key):
    """On every type with Chevalley data, sigma (e_alpha <-> f_alpha, h_i
    fixed) is an involution, g_a -> -g_sigma(a) keeps the structure
    constants and the Killing form, and the Chevalley involution of the
    Grassmann algebra sends relation c of each family to minus relation
    sigma(c): a span split by it keeps half of the rows.  Its mask map
    agrees with the permutation-sign reference."""
    lie = chevalley_data(build_root_system(*key))
    sigma = lie.chevalley_involution()
    n = lie.dim
    for a in range(n):
        root = lie.signed_root(a)
        assert sigma[a] == (a if root is None else
                            lie.root_vector_index(tuple(-c for c in root)))
        assert sigma[sigma[a]] == a
    for (a, b), comb in lie.struct.items():
        assert lie.struct[sigma[a], sigma[b]] == {
            sigma[c]: -v for c, v in comb.items()}
    for a in range(n):
        for b in range(n):
            assert lie.form[sigma[a]][sigma[b]] == lie.form[a][b]
    ws = Workspace(lie)
    for fam in (XX, XY, YY):
        rels = elements(ws.alg, ws.rels[fam])
        for c, rel in enumerate(rels):
            assert chevalley_xy(rel, lie) == rels[sigma[c]].scale(-1)
    for m in ws.action.weight_masks(2, 1, ws.action.zero_weight):
        image, sign = ws.action.chevalley_image(m)
        assert (chevalley_xy(ExtElement(ws.alg, {m: 1}), lie)
                == ExtElement(ws.alg, {image: sign}))


def test_swap_unstable_batch_grows_as_oracle(ws_sl3):
    """A four-part span grows by a batch whose span the swap does not keep
    as the one-part span of every row does, and is left unchanged: the
    quotient counts the batch alone, not its images under the group.  The
    batches: v + omega(v) for an XX row v, which the Chevalley involution
    omega keeps and the swap does not (by 0); each of the two A2 (2,2)
    invariants that are not swap eigenvectors, and the pair; and the whole
    invariant basis, which both keep.  Each invariant batch grows it by 1,
    the dimension of A^g at (2,2) from part (i)."""
    span = ideal_weight_zero(ws_sl3, FULL, 2, 2)
    oracle = canonical_ideal_span(ws_sl3, FULL, 2, 2)
    inv = invariant_basis_elements(ws_sl3.action, 2, 2)
    unstable = [v for v in inv
                if swap_xy(v) != v and swap_xy(v) != v.scale(-1)]
    assert len(unstable) == 2
    row = ExtElement(ws_sl3.alg, next(
        ideal_rows(ws_sl3, (XX,), 2, 2, ws_sl3.action.zero_weight)))
    kept = row + chevalley_xy(row, ws_sl3.lie)
    assert not kept.is_zero() and chevalley_xy(kept, ws_sl3.lie) == kept
    rank = span.rank
    batches = [[v.terms for v in batch]
               for batch in [[v] for v in unstable] + [unstable, [kept], inv]]
    growth = [span.quotient(batch).rank for batch in batches]
    assert growth == [oracle.quotient(batch).rank for batch in batches]
    assert growth == [1, 1, 1, 0, 1]
    assert span.rank == rank


@pytest.mark.parametrize("families, p, q", [(FULL, 2, 1), ((XX,), 2, 2)])
def test_chevalley_unstable_batch_grows_as_oracle(ws_sl3, families, p, q):
    """A span split by the Chevalley involution alone (off the diagonal,
    or families the swap does not keep) grows by a batch whose span the
    involution does not keep as the one-part span of every row does, and
    is left unchanged: one ideal row r ^ m, whose image is another row (by
    0), a weight-zero monomial that the involution moves (by 0 or 1), and
    the whole invariant basis (by 0 at (2,1), by 2 at (2,2) over the XX
    family)."""
    lie = ws_sl3.lie
    span = ideal_weight_zero(ws_sl3, families, p, q)
    oracle = canonical_ideal_span(ws_sl3, families, p, q)
    assert len(span.parts) == 2
    row = next(r for r in (ExtElement(ws_sl3.alg, t) for t in ideal_rows(
                   ws_sl3, families, p, q, ws_sl3.action.zero_weight))
               if chevalley_xy(r, lie) not in (r, r.scale(-1)))
    monomial = next(e for e in (ExtElement(ws_sl3.alg, {m: 1})
                                for m in span.columns)
                    if chevalley_xy(e, lie) not in (e, e.scale(-1)))
    inv = invariant_basis_elements(ws_sl3.action, p, q)
    rank = span.rank
    batches = [[v.terms for v in batch]
               for batch in ([row], [monomial], [row, monomial], inv)]
    growth = [span.quotient(batch).rank for batch in batches]
    assert growth == [oracle.quotient(batch).rank for batch in batches]
    assert growth[0] == 0 and growth[3] == (0 if q == 1 else 2)
    assert span.rank == rank


def test_columns_ordered_by_row_count(ws_sl3):
    """The columns of each part of a (k,k) span are orbits of the
    weight-zero masks under the group of the Chevalley involution and the
    swap, by the number of the part's rows touching each, fewest first,
    ties in canonical order.  An orbit of size d is held by d of the four
    parts (its span has dimension d and meets each part at most once), so
    the parts' widths add up to the number of masks."""
    lie, zero = ws_sl3.lie, ws_sl3.action.zero_weight
    canonical = ws_sl3.action.weight_masks(2, 2, zero)
    place = {m: i for i, m in enumerate(canonical)}

    def mask_of(elem):
        (m,) = elem.terms
        return m

    def group_orbit(m):
        e = ExtElement(ws_sl3.alg, {m: 1})
        return {mask_of(x) for x in (e, swap_xy(e), chevalley_xy(e, lie),
                                     swap_xy(chevalley_xy(e, lie)))}

    for families in (FULL, HALF):
        span = ideal_weight_zero(ws_sl3, families, 2, 2)
        assert list(span.columns) == canonical
        assert len(span.parts) == 4
        assert sum(part.width for part in span.parts) == len(canonical)
        vecs = [span.split(row) for row in ideal_rows(
            ws_sl3, families, 2, 2, zero, span.symmetries)]
        cols = span_columns(span)
        holders = Counter()
        for i, part in enumerate(span.parts):
            orbits = {j: sorted((m for m, _ in masks), key=place.get)
                      for (pi, j), masks in cols.items() if pi == i}
            assert sorted(orbits) == list(range(part.width))
            for orbit in orbits.values():
                assert set(orbit) == group_orbit(orbit[0])
                holders[orbit[0]] += 1
            touched = Counter(j for vec in vecs for j in vec[i])
            keys = [(touched[j], place[orbits[j][0]])
                    for j in range(part.width)]
            assert keys == sorted(keys)
            assert keys[0][0] < keys[-1][0]
        assert sorted(Counter(map(len, map(group_orbit, holders)))) == \
            [1, 2, 4]
        assert all(n == len(group_orbit(m)) for m, n in holders.items())


@given(data=st.data())
def test_column_permutation_keeps_rank_and_membership(ws_sl2, ws_sl3,
                                                      ws_so5, data):
    """The rows of a span over a random permutation of its columns have
    the rank and S^k membership of the cached span."""
    ws, k = data.draw(st.sampled_from(
        [(ws_sl2, 1), (ws_sl2, 2), (ws_sl3, 2), (ws_so5, 2)]))
    families = data.draw(st.sampled_from([FULL, HALF]))
    cached = ideal_weight_zero(ws, families, k, k)
    cols = data.draw(st.permutations(cached.columns))
    sub = canonical_ideal_span(ws, families, k, k, cols)
    sk = power(fraction_S(ws), k).terms
    assert sub.rank == cached.rank
    assert sub.contains(sk) == cached.contains(sk)


def _reduce_calls_per_part(monkeypatch, build):
    """(result of build(), the number of `exactla._reduce` calls each
    Echelon made, in the order the Echelons were made)."""
    calls = []
    reduce, init = exactla._reduce, exactla.Echelon.__init__

    def counting_init(self, width=None):
        calls.append(0)
        init(self, width)

    def counting_reduce(u, rows, p):
        calls[-1] += 1
        return reduce(u, rows, p)

    monkeypatch.setattr(exactla.Echelon, "__init__", counting_init)
    monkeypatch.setattr(exactla, "_reduce", counting_reduce)
    result = build()
    monkeypatch.undo()
    return result, calls


@pytest.mark.parametrize("name, proven", [
    ("sl3", [54, 64, 86, 40]),
    ("so5", [172, 200, 146]),
    ("sp4", [172, 200, 146]),
])
def test_full_rank_parts_are_proven_by_peeling(request, monkeypatch, name,
                                               proven):
    """At (3,3) = (g,g) the ideal fills these parts; peeling their rows
    proves it, so they are built with no reduction at all: all four parts
    of A2, and on B2 and C2 the parts of width 172, 200 and 146 (the part
    of width 238 has rank 234 and is eliminated).  Rank, S^3 membership
    and quotient ranks equal those of the one-part span over canonical
    columns."""
    ws = Workspace(request.getfixturevalue(name))
    span, calls = _reduce_calls_per_part(
        monkeypatch, lambda: ideal_weight_zero(ws, FULL, 3, 3))
    assert len(calls) == len(span.parts) == 4
    assert [part.width for part, n in zip(span.parts, calls)
            if n == 0] == proven
    assert all(part.rank == part.width for part, n in zip(span.parts, calls)
               if n == 0)
    want = canonical_ideal_span(ws, FULL, 3, 3)
    assert span.rank == want.rank
    sk = s_power(ws, 3).terms
    assert span.contains(sk) == want.contains(sk) is True
    batches = [[t for t, _ in invariant_basis(ws.action, 3, 3)],
               [{m: 1} for m in want.columns]]
    for batch in batches:
        assert span.quotient(batch).rank == want.quotient(batch).rank
    assert span.quotient(batches[1]).rank == len(want.columns) - want.rank


def test_b3_span_rref_fill():
    """The split by the Chevalley involution and the swap, and count
    order, shrink the certified RREFs of the B3 (2,2) span: 13,829 entries
    off the pivots over its four parts, against 23,764 over the swap's two
    parts alone, 27,031 with each of those over canonical columns, 36,992
    unsplit in count order and 67,436 unsplit over canonical columns.  The
    count is exact, so a change that undoes the split or the order fails
    here."""
    ws = Workspace(chevalley_data(build_root_system("B", 3)))
    sub = ideal_weight_zero(ws, FULL, 2, 2)
    assert sub.rank == 514
    assert sum(len(row) - 1 for part in sub.parts
               for row in part.basis_rows()) <= 15000
