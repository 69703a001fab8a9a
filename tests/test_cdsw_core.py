from fractions import Fraction

import pytest

from chiralring.rootsystem import build_root_system, chevalley_data
from chiralring.cdsw import Workspace
from chiralring.exactla import Subspace, ComponentTooLarge, WrongComponent
from chiralring.cdsw.core import (ideal_weight_zero, ideal_rows,
                                  check_S_power, check_part_i, XX, XY, YY,
                                  _FAMILY_DEGREE)
from chiralring.exterior import ExtElement
from conftest import chevalley_generator_indices, swap_xy, use_seed_primes


def ideal_component(ws, families, p, q):
    """Reference oracle: the span of the selected families inside the full
    (p,q) component, every product r ^ m of a relation and a monomial
    taken, whatever its weight."""
    alg = ws.alg
    sub = Subspace(alg.component_masks(p, q), bidegree=(p, q))
    for fam in families:
        dp, dq = _FAMILY_DEGREE[fam]
        if p < dp or q < dq:
            continue
        for rel in ws.rels.family(fam):
            for m in alg.component_masks(p - dp, q - dq):
                sub.insert(rel.wedge(ExtElement(alg, {m: Fraction(1)})))
    return sub


def reference_ideal_rows(ws, families, p, q, weight):
    """Reference for ideal_rows: every nonzero rel ^ m, built by the wedge,
    for the monomials m of the weight that completes rel's."""
    out = []
    for fam in families:
        dp, dq = _FAMILY_DEGREE[fam]
        if p < dp or q < dq:
            continue
        for rel in ws.rels.family(fam):
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
    return direct["contained"] == sub.contains(swap_xy(ws.S.power(k)))


def family_equivariance(ws, family):
    """Every act(a, r) for r in a relation family stays in the family span:
    the families are adjoint copies."""
    rels = [r for r in ws.rels.family(family) if not r.is_zero()]
    p, q = _FAMILY_DEGREE[family]
    sub = Subspace(ws.alg.component_masks(p, q), bidegree=(p, q))
    for r in rels:
        sub.insert(r)
    for r in rels:
        for a in chevalley_generator_indices(ws.lie):
            img = ws.action.act(a, r)
            if not img.is_zero() and not sub.contains(img):
                return False
    return True


def test_relation_counts_and_degrees(ws_sl2):
    rels = ws_sl2.rels
    for rel in rels.xx_relations:
        assert rel.is_zero() or rel.bidegree() == (2, 0)
    for rel in rels.xy_relations:
        assert rel.is_zero() or rel.bidegree() == (1, 1)
    for rel in rels.yy_relations:
        assert rel.is_zero() or rel.bidegree() == (0, 2)


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
                    e = mat.entry(i, j)
                    if not e.is_zero():
                        assert sub.contains(e)


def test_S_invariance_and_bidegree(ws_sl2, ws_sl3, ws_so5):
    for ws in (ws_sl2, ws_sl3, ws_so5):
        assert ws.S.bidegree() == (1, 1)
        for a in range(ws.lie.dim):
            assert ws.action.act(a, ws.S).is_zero()


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


def test_S_not_in_relation_span(ws_sl2):
    sub = ideal_component(ws_sl2, (XX, XY, YY), 1, 1)
    assert not sub.contains(ws_sl2.S)


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
    s3 = ws_sl3.S.power(3)
    assert sub.contains(s3)
    action = ws_sl3.action
    mask = next(m for m in ws_sl3.alg.component_masks(3, 3)
                if action.mask_weight(m) != action.zero_weight)
    with pytest.raises(WrongComponent):
        sub.contains(s3 + ExtElement(ws_sl3.alg, {mask: Fraction(1)}))


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


def test_component_of_S_power_is_homogeneous(ws_sl2):
    s2 = ws_sl2.S.power(2)
    assert s2.component(2, 2) == s2
    assert s2.component(1, 1).is_zero()
    assert s2.bidegree() == (2, 2)


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
    s2 = ws_sl3.S.power(2)
    assert full.contains(s2) == w0.contains(s2) == False
    h = ws_sl3.S.power(2).scale(3)
    assert full.contains(h) == w0.contains(h)
    # every weight-zero echelon row of the slice lies in the full span
    from chiralring.exterior import ExtElement
    for row in w0.echelon.basis_rows():
        el = ExtElement(ws_sl3.alg, {w0.columns[j]: c for j, c in row.items()})
        assert full.contains(el)


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
    rels = ws_sl3.rels
    for rxx, ryy in zip(rels.xx_relations, rels.yy_relations):
        assert swap_xy(rxx) == ryy
        assert swap_xy(ryy) == rxx
    for rxy in rels.xy_relations:
        assert swap_xy(rxy) == rxy


def test_modular_exact_agreement(monkeypatch, ws_sl2, ws_sl3, ws_so5):
    """Whole S power reports on A1, A2 and B2 are the same when every
    elimination first takes two seed-drawn primes: the certified RREF over
    Q does not depend on the primes."""
    def reports():
        return [check_S_power(ws, k) for ws in (ws_sl2, ws_sl3, ws_so5)
                for k in range(1, ws.g + 1)]

    want = reports()
    assert [r["contained"] for r in want[:8]] == \
        [False, True, False, False, True, False, False, True]
    use_seed_primes(monkeypatch, 123)
    assert reports() == want


def test_part_i_modular_matches_exact(monkeypatch, ws_sl3):
    """The Part I report on A2 is the same under seed-drawn first primes."""
    want = check_part_i(ws_sl3, 3)
    use_seed_primes(monkeypatch, 31)
    got = check_part_i(ws_sl3, 3)
    assert got == want
    assert ([d["dim"] for d in got["diagonal"]],
            [o["dim"] for o in got["offdiagonal"]]) == ([1, 1, 1, 0], [0, 0, 0])
    assert got["pass"]


def test_component_too_large_guard(ws_sl3):
    with pytest.raises(ComponentTooLarge):
        check_S_power(ws_sl3, 3, cap=100)


def test_equivariance_of_ideal_spans(ws_sl2):
    """Ideal component subspaces are stable under the generator actions."""
    from chiralring.exterior import ExtElement
    sub = ideal_component(ws_sl2, (XX, XY, YY), 2, 2)
    cols = sub.columns
    for row in sub.echelon.basis_rows():
        el = ExtElement(ws_sl2.alg, {cols[j]: c for j, c in row.items()})
        for a in chevalley_generator_indices(ws_sl2.lie):
            img = ws_sl2.action.act(a, el)
            if not img.is_zero():
                assert sub.contains(img)


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
            assert [r.terms for r in got] == [r.terms for r in want]
            assert bool(got) == (families != (YY,) or (p, q) != (2, 1))
