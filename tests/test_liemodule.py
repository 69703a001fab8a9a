import random
from fractions import Fraction

import pytest

from chiralring.rootsystem import build_root_system, chevalley_data
from chiralring.exterior import GrassmannAlgebra, ExtElement
from chiralring.liemodule import (ActionTable, invariants,
                                  invariant_basis_elements)
from chiralring.exactla import kernel_basis, Subspace, WrongComponent
from conftest import (random_element, casimir, casimir_matrix,
                      chevalley_generator_indices, minimal_polynomial, span,
                      _poly_divmod)


@pytest.fixture(scope="module")
def act_sl2(ws_sl2=None):
    lie = chevalley_data(build_root_system("A", 1))
    alg = GrassmannAlgebra(lie.dim)
    return ActionTable(alg, lie)


@pytest.fixture(scope="module")
def act_sl3():
    lie = chevalley_data(build_root_system("A", 2))
    alg = GrassmannAlgebra(lie.dim)
    return ActionTable(alg, lie)


def test_cartan_weight_scaling(act_sl2):
    lie = act_sl2.lie
    alg = act_sl2.alg
    # h on a root generator scales by the pairing with the coroot
    e_idx = lie.e_index(lie.rs.simple_roots[0])
    h_idx = lie.h_index(0)
    assert act_sl2.act(h_idx, alg.x(e_idx)) == alg.x(e_idx).scale(2)
    assert act_sl2.act(h_idx, alg.y(e_idx)) == alg.y(e_idx).scale(2)


def test_scalars_killed(act_sl2):
    for a in range(act_sl2.lie.dim):
        assert act_sl2.act(a, act_sl2.alg.one()).is_zero()
        assert act_sl2.act(a, act_sl2.alg.xi()).is_zero()
        assert act_sl2.act(a, act_sl2.alg.eta()).is_zero()


def test_leibniz_random(act_sl3):
    rng = random.Random(20)
    alg = act_sl3.alg
    gens = [lie_idx for lie_idx in chevalley_generator_indices(act_sl3.lie)]
    for _ in range(25):
        u = random_element(alg, rng, nterms=3, maxdeg=2)
        v = random_element(alg, rng, nterms=3, maxdeg=2)
        for a in gens:
            lhs = act_sl3.act(a, u.wedge(v))
            rhs = act_sl3.act(a, u).wedge(v) + u.wedge(act_sl3.act(a, v))
            assert lhs == rhs


def test_bracket_compatibility_on_monomials(act_sl2):
    lie, alg = act_sl2.lie, act_sl2.alg
    masks = alg.component_masks(1, 1) + alg.component_masks(2, 0)
    for a in range(lie.dim):
        for b in range(lie.dim):
            for mask in masks:
                m = ExtElement(alg, {mask: Fraction(1)})
                lhs = act_sl2.act(a, act_sl2.act(b, m)) \
                    - act_sl2.act(b, act_sl2.act(a, m))
                rhs = alg.zero()
                for c, v in lie.bracket(a, b).items():
                    rhs = rhs + act_sl2.act(c, m).scale(v)
                assert lhs == rhs


def test_casimir_identity_on_generators(act_sl3):
    alg = act_sl3.alg
    for b in range(act_sl3.lie.dim):
        assert casimir(act_sl3, alg.x(b)) == alg.x(b)
        assert casimir(act_sl3, alg.y(b)) == alg.y(b)
    assert casimir(act_sl3, alg.one()).is_zero()


def test_casimir_commutes_with_action(act_sl2):
    rng = random.Random(21)
    for _ in range(10):
        u = random_element(act_sl2.alg, rng)
        for a in range(act_sl2.lie.dim):
            assert casimir(act_sl2, act_sl2.act(a, u)) == \
                act_sl2.act(a, casimir(act_sl2, u))


def test_invariant_dimensions_sl2(act_sl2):
    assert invariants(act_sl2, 1, 1).rank == 1
    assert invariants(act_sl2, 1, 0).rank == 0
    assert invariants(act_sl2, 0, 1).rank == 0
    assert invariants(act_sl2, 2, 2).rank == 1
    assert invariants(act_sl2, 0, 0).rank == 1


def test_invariant_dimensions_sl3(act_sl3):
    assert invariants(act_sl3, 1, 1).rank == 1
    assert invariants(act_sl3, 1, 0).rank == 0
    # wedge^2 g (x) wedge^2 g has three pairings for sl3
    assert invariants(act_sl3, 2, 2).rank == 3
    # the invariant 3-form lives at (0,3) and (3,0)
    assert invariants(act_sl3, 0, 3).rank == 1
    assert invariants(act_sl3, 3, 0).rank == 1


def _weight_groups_by_filtering(act, p, q):
    """Reference slices: the whole (p,q) component grouped by mask_weight."""
    groups = {}
    for m in act.alg.component_masks(p, q):
        groups.setdefault(act.mask_weight(m), []).append(m)
    return groups


@pytest.mark.parametrize("key,top", [(("A", 2), 3), (("B", 2), 2),
                                     (("G", 2), 2)])
def test_weight_masks_match_filtering(key, top):
    lie = chevalley_data(build_root_system(*key))
    act = ActionTable(GrassmannAlgebra(lie.dim), lie)
    unreachable = tuple(c + 100 for c in act.zero_weight)
    for p in range(top + 1):
        for q in range(top + 1):
            for w, masks in _weight_groups_by_filtering(act, p, q).items():
                assert act.weight_masks(p, q, w) == masks, (p, q, w)
            assert act.weight_masks(p, q, unreachable) == []


def test_invariants_live_on_weight_zero_slice(act_sl3):
    alg = act_sl3.alg
    sub = invariants(act_sl3, 2, 2)
    assert list(sub.columns) == act_sl3.weight_masks(2, 2,
                                                     act_sl3.zero_weight)
    # the basis is still the canonical RREF over the full component
    elems = invariant_basis_elements(act_sl3, 2, 2)
    full = span(elems, component=(2, 2))
    assert [ExtElement(alg, {full.columns[j]: c for j, c in row.items()})
            for row in full.echelon.basis_rows()] == elems


def test_invariants_reject_term_of_nonzero_weight(act_sl3):
    sub = invariants(act_sl3, 2, 2)
    mask = next(m for m in act_sl3.alg.component_masks(2, 2)
                if act_sl3.mask_weight(m) != act_sl3.zero_weight)
    with pytest.raises(WrongComponent):
        sub.contains(ExtElement(act_sl3.alg, {mask: Fraction(1)}))


def test_invariants_verified_and_killed_by_casimir(act_sl3):
    for (p, q) in [(1, 1), (2, 2), (0, 3)]:
        for v in invariant_basis_elements(act_sl3, p, q):
            for a in range(act_sl3.lie.dim):
                assert act_sl3.act(a, v).is_zero()
            assert casimir(act_sl3, v).is_zero()


@pytest.mark.parametrize("key", [("B", 2), ("G", 2)])
def test_invariants_from_raising_operators_match_both_directions(key):
    """The kernel of the e_i alone against the kernel of every e_i and f_i
    (the reference), and each basis vector killed by all of g."""
    lie = chevalley_data(build_root_system(*key))
    act = ActionTable(GrassmannAlgebra(lie.dim), lie)
    elems = invariant_basis_elements(act, 2, 2)
    w0 = act.weight_masks(2, 2, act.zero_weight)
    eqs = {}
    for simple in lie.rs.simple_roots:
        for a in (lie.e_index(simple), lie.f_index(simple)):
            for j, mask in enumerate(w0):
                for m2, v in act.act_mask(a, mask).items():
                    eqs.setdefault((a, m2), {})[j] = v
    ref = Subspace(w0, bidegree=(2, 2))
    ref.insert_all(ExtElement(act.alg, {w0[j]: c for j, c in vec.items()})
                   for vec in kernel_basis(list(eqs.values()), len(w0)))
    assert [ExtElement(act.alg, {w0[j]: c for j, c in row.items()})
            for row in ref.echelon.basis_rows()] == elems
    assert elems
    for v in elems:
        for a in range(lie.dim):
            assert act.act(a, v).is_zero()


def _casimir_eigenvalues_on_wedge(act, d):
    """All Casimir eigenvalues on the d-th wedge of the x-copy, found by
    factoring the minimal polynomial over the candidate eigenvalue list."""
    alg = act.alg
    masks = alg.component_masks(d, 0)
    cols = casimir_matrix(act, masks)

    def apply_op(vec):
        out = {}
        for j, c in vec.items():
            for i, v in cols[j].items():
                s = out.get(i, 0) + c * v
                if s:
                    out[i] = s
                else:
                    out.pop(i, None)
        return out

    basis = [{i: Fraction(1)} for i in range(len(masks))]
    poly = minimal_polynomial(apply_op, basis, len(masks))
    # extract rational roots by trial division with the candidate values
    roots = []
    candidates = [Fraction(k, 12) for k in range(-12 * d, 12 * (d + 1))]
    cur = list(poly)
    for cand in candidates:
        while len(cur) > 1:
            val = sum(c * cand ** i for i, c in enumerate(cur))
            if val != 0:
                break
            cur, rem = _poly_divmod(cur, [-cand, Fraction(1)])
            roots.append(cand)
    assert len(cur) == 1, "minimal polynomial has a non-candidate root"
    return roots


@pytest.mark.parametrize("key,dmax", [(("A", 1), 3), (("A", 2), 8)])
def test_casimir_largest_eigenvalue_is_degree(key, dmax):
    lie = chevalley_data(build_root_system(*key))
    act = ActionTable(GrassmannAlgebra(lie.dim), lie)
    for d in range(1, dmax + 1):
        roots = _casimir_eigenvalues_on_wedge(act, d)
        assert roots, d
        assert max(roots) <= d
        # equality exactly when an abelian ideal of dimension d exists
        from chiralring.abideals import enumerate_abelian_ideals
        dims = {a.dim for a in enumerate_abelian_ideals(lie.rs)}
        assert (max(roots) == d) == (d in dims)
