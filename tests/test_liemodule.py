import random
from itertools import product
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from chiralring.rootsystem import (build_root_system, chevalley_data,
                                   LIE_DATA_TYPES)
from chiralring.exterior import (ComponentTooLarge, GrassmannAlgebra,
                                 ExtElement)
from chiralring.liemodule import (ActionTable, invariants,
                                  invariant_basis_elements)
from chiralring.exactla import Echelon, _fractions
from conftest import (act_on, casimir, casimir_matrix,
                      chevalley_generator_indices, gen_eta, gen_x, gen_xi,
                      gen_y, kernel_of, minimal_polynomial, _poly_divmod,
                      random_element, scalar, sub)


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
    for gen in (gen_x, gen_y):
        assert (act_on(act_sl2, h_idx, gen(alg, e_idx))
                == gen(alg, e_idx).scale(2))


def test_scalars_killed(act_sl2):
    for a in range(act_sl2.lie.dim):
        assert act_on(act_sl2, a, scalar(act_sl2.alg, 1)).is_zero()
        assert act_on(act_sl2, a, gen_xi(act_sl2.alg)).is_zero()
        assert act_on(act_sl2, a, gen_eta(act_sl2.alg)).is_zero()


def test_leibniz_random(act_sl3):
    rng = random.Random(20)
    alg = act_sl3.alg
    gens = [lie_idx for lie_idx in chevalley_generator_indices(act_sl3.lie)]
    for _ in range(25):
        u = random_element(alg, rng, nterms=3, maxdeg=2)
        v = random_element(alg, rng, nterms=3, maxdeg=2)
        for a in gens:
            lhs = act_on(act_sl3, a, u.wedge(v))
            rhs = (act_on(act_sl3, a, u).wedge(v)
                   + u.wedge(act_on(act_sl3, a, v)))
            assert lhs == rhs


def test_bracket_compatibility_on_monomials(act_sl2):
    lie, alg = act_sl2.lie, act_sl2.alg
    masks = alg.component_masks(1, 1) + alg.component_masks(2, 0)
    for a in range(lie.dim):
        for b in range(lie.dim):
            for mask in masks:
                m = ExtElement(alg, {mask: Fraction(1)})
                lhs = sub(act_on(act_sl2, a, act_on(act_sl2, b, m)),
                          act_on(act_sl2, b, act_on(act_sl2, a, m)))
                rhs = scalar(alg, 0)
                for c, v in lie.bracket(a, b).items():
                    rhs = rhs + act_on(act_sl2, c, m).scale(v)
                assert lhs == rhs


def test_casimir_identity_on_generators(act_sl3):
    alg = act_sl3.alg
    for b in range(act_sl3.lie.dim):
        assert casimir(act_sl3, gen_x(alg, b)) == gen_x(alg, b)
        assert casimir(act_sl3, gen_y(alg, b)) == gen_y(alg, b)
    assert casimir(act_sl3, scalar(alg, 1)).is_zero()


def test_casimir_commutes_with_action(act_sl2):
    rng = random.Random(21)
    for _ in range(10):
        u = random_element(act_sl2.alg, rng)
        for a in range(act_sl2.lie.dim):
            assert casimir(act_sl2, act_on(act_sl2, a, u)) == \
                act_on(act_sl2, a, casimir(act_sl2, u))


def test_invariant_dimensions_sl2(act_sl2):
    assert len(invariants(act_sl2, 1, 1)) == 1
    assert len(invariants(act_sl2, 1, 0)) == 0
    assert len(invariants(act_sl2, 0, 1)) == 0
    assert len(invariants(act_sl2, 2, 2)) == 1
    assert len(invariants(act_sl2, 0, 0)) == 1


def test_invariant_dimensions_sl3(act_sl3):
    assert len(invariants(act_sl3, 1, 1)) == 1
    assert len(invariants(act_sl3, 1, 0)) == 0
    # wedge^2 g (x) wedge^2 g has three pairings for sl3
    assert len(invariants(act_sl3, 2, 2)) == 3
    # the invariant 3-form lives at (0,3) and (3,0)
    assert len(invariants(act_sl3, 0, 3)) == 1
    assert len(invariants(act_sl3, 3, 0)) == 1


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


@pytest.fixture(scope="module")
def rank2_tables():
    """One action table per type, shared by the examples, so later examples
    read the half-mask tables earlier ones filled."""
    out = {}
    for key in ("A", 2), ("B", 2), ("G", 2):
        lie = chevalley_data(build_root_system(*key))
        out[key] = ActionTable(GrassmannAlgebra(lie.dim), lie)
    return out


@pytest.fixture(scope="module")
def weight_tables(rank2_tables):
    lie = chevalley_data(build_root_system("D", 4))
    return {**rank2_tables, ("D", 4): ActionTable(GrassmannAlgebra(lie.dim),
                                                  lie)}


@given(key=st.sampled_from([("A", 2), ("B", 2), ("G", 2), ("D", 4)]),
       data=st.data())
@settings(max_examples=60)
def test_mask_weight_is_sum_of_generator_weights(weight_tables, key, data):
    """mask_weight against the sum over the bits of the basis element's
    weight (x_b and y_b that of basis element b, xi and eta zero), on random
    masks over every bit (x, y, xi and eta) and on the empty mask."""
    act = weight_tables[key]
    n = act.alg.n
    bits = data.draw(st.sets(st.integers(0, 2 * n + 1), max_size=8))
    for mask in (0, sum(1 << b for b in bits)):
        want = [0] * act.lie.rank
        for b in range(2 * n):
            if mask >> b & 1:
                want = [w + c for w, c in zip(want,
                                              act.lie.basis_weight(b % n))]
        assert act.mask_weight(mask) == tuple(want)


@given(key=st.sampled_from([("A", 2), ("B", 2), ("G", 2)]),
       p=st.integers(0, 3), q=st.integers(0, 3), data=st.data())
@settings(max_examples=40)
def test_weight_masks_cached_match_filtering(rank2_tables, key, p, q, data):
    """weight_masks against filtering the component by mask_weight, at a
    weight of the component or beyond it, called twice per input so both
    the table-building and the cached path are checked."""
    act = rank2_tables[key]
    component = act.alg.component_masks(p, q)
    weights = sorted({act.mask_weight(m) for m in component})
    w = data.draw(st.sampled_from(weights) | st.tuples(
        st.integers(-12, 12), st.integers(-12, 12)))
    want = [m for m in component if act.mask_weight(m) == w]
    assert act.weight_masks(p, q, w) == want
    assert act.weight_masks(p, q, w) == want


@pytest.mark.parametrize("key", LIE_DATA_TYPES,
                         ids=lambda key: "%s%d" % key)
def test_weight_masks_match_filtering_every_type(key):
    """weight_masks at every weight of a component against filtering the
    component by mask_weight, list against list so the canonical order is
    checked too: (2,2) up to rank 3, (2,1) at rank 4."""
    lie = chevalley_data(build_root_system(*key))
    act = ActionTable(GrassmannAlgebra(lie.dim), lie)
    p, q = (2, 2) if lie.rank <= 3 else (2, 1)
    groups = _weight_groups_by_filtering(act, p, q)
    assert act.zero_weight in groups
    for w, masks in groups.items():
        assert act.weight_masks(p, q, w) == masks, w


def test_weight_masks_refuses_weight_of_wrong_length(act_sl3):
    """A weight longer or shorter than the rank raises; it is not cut to
    the rank's length."""
    for weight in [(0, 0, 5), (0, 0, 0), (0,), ()]:
        with pytest.raises(ValueError):
            act_sl3.weight_masks(1, 1, weight)


def _far_coordinate(width):
    """Coordinates near and beyond the packing field's edge 2^(width-1),
    and near its multiples, where a packed target could alias a reachable
    weight."""
    return st.builds(lambda k, s, d: s * (1 << k) + d,
                     st.integers(width - 2, width + 1) | st.just(40),
                     st.sampled_from([-1, 1]), st.integers(-2, 2))


@given(key=st.sampled_from([("A", 2), ("B", 2), ("G", 2)]),
       p=st.integers(0, 2), q=st.integers(0, 2), data=st.data())
@settings(max_examples=60)
@example(key=("A", 2), p=1, q=1, data=None)
def test_weight_masks_far_weights_match_filtering(rank2_tables, key, p, q,
                                                  data):
    """weight_masks at weights with a coordinate no mask reaches, near and
    beyond the packing field's edge, against filtering the component: no
    packed target aliases a reachable weight.  The explicit example is a
    multiple of the field's size plus an offset that would carry into the
    next field, (2^width, -1), which packs like (0, 0)."""
    act = rank2_tables[key]
    width = act._width
    if data is None:
        weight = (1 << width, -1)
    else:
        small = st.integers(-3, 3)
        weight = data.draw(st.tuples(_far_coordinate(width), small)
                           | st.tuples(small, _far_coordinate(width))
                           | st.tuples(_far_coordinate(width),
                                       _far_coordinate(width)))
    want = _weight_groups_by_filtering(act, p, q).get(weight, [])
    assert act.weight_masks(p, q, weight) == want


def test_packing_one_to_one_within_three_reach(rank2_tables):
    """_reach is the largest |coordinate| of an x-half-mask's weight, and
    the weights with coordinates within 3 * _reach (a reachable target less
    an x-half's weight) pack to distinct ints."""
    for act in rank2_tables.values():
        n = act.alg.n
        assert act._reach == max(abs(c) for p in range(n + 1)
                                 for m in act.alg.component_masks(p, 0)
                                 for c in act.mask_weight(m))
        bound = 3 * act._reach
        box = list(product(range(-bound, bound + 1), repeat=act.lie.rank))
        assert len({act._pack(w) for w in box}) == len(box)


def test_invariants_live_on_weight_zero_slice(act_sl3):
    alg = act_sl3.alg
    basis = invariants(act_sl3, 2, 2)
    w0 = set(act_sl3.weight_masks(2, 2, act_sl3.zero_weight))
    assert basis and all(set(terms) <= w0 for terms, _ in basis)
    # the basis is still the canonical RREF over the full component
    elems = invariant_basis_elements(act_sl3, 2, 2)
    assert elems == [ExtElement.from_ints(alg, *v) for v in basis]
    columns = alg.component_masks(2, 2)
    index = {m: j for j, m in enumerate(columns)}
    full = Echelon()
    for v in elems:
        full.insert({index[m]: c for m, c in v.terms.items()})
    assert [ExtElement(alg, {columns[j]: c for j, c in row.items()})
            for row in full.basis_rows()] == elems


def test_invariants_verified_and_killed_by_casimir(act_sl3):
    for (p, q) in [(1, 1), (2, 2), (0, 3)]:
        for v in invariant_basis_elements(act_sl3, p, q):
            for a in range(act_sl3.lie.dim):
                assert act_on(act_sl3, a, v).is_zero()
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
    # the two-elimination path: the equations' RREF, then its kernel's
    equations, ref = Echelon(), Echelon(len(w0))
    equations.insert_all(eqs.values())
    ref.insert_all(kernel_of(equations, len(w0)))
    assert [ExtElement(act.alg, {w0[j]: c for j, c in row.items()})
            for row in ref.basis_rows()] == elems
    assert elems
    for v in elems:
        for a in range(lie.dim):
            assert act_on(act, a, v).is_zero()


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


def _invariant_basis_in_equation_order(act, p, q):
    """invariant_basis_elements with every row inserted one by one, in the
    order the equations and the kernel vectors are built."""
    lie = act.lie
    w0 = act.weight_masks(p, q, act.zero_weight)
    eqs = {}
    for simple in lie.rs.simple_roots:
        a = lie.e_index(simple)
        for j, mask in enumerate(w0):
            for m2, v in act.act_mask(a, mask).items():
                eqs.setdefault((a, m2), {})[j] = v
    equations, invariant = Echelon(), Echelon()
    for row in eqs.values():
        equations.insert(row)
    for vec in kernel_of(equations, len(w0)):
        invariant.insert(vec)
    return [ExtElement(act.alg, {w0[j]: c for j, c in row.items()})
            for row in invariant.basis_rows()]


@pytest.mark.parametrize("key, d", [
    (("A", 2), 2), (("B", 2), 2), (("G", 2), 2), (("B", 2), 3),
    (("G", 2), 3)])
def test_invariant_basis_does_not_depend_on_row_order(key, d):
    """The batches' descending leading-column order gives the canonical
    basis of the rows taken in the order they are built."""
    lie = chevalley_data(build_root_system(*key))
    act = ActionTable(GrassmannAlgebra(lie.dim), lie)
    elems = invariant_basis_elements(act, d, d)
    assert elems
    assert elems == _invariant_basis_in_equation_order(act, d, d)


@pytest.mark.parametrize("key, p, q", [
    pytest.param(key, p, q, id="%s%d-%d,%d" % (*key, p, q))
    for key in (("A", 1), ("A", 2), ("B", 2), ("C", 2), ("G", 2))
    for p, q in ((1, 0), (0, 2), (1, 1), (2, 1), (2, 2))] + [
    pytest.param(("B", 2), 3, 3, id="B2-3,3"),
    pytest.param(("G", 2), 3, 3, id="G2-3,3")])
def test_invariants_match_two_elimination_path(key, p, q, monkeypatch):
    """`invariants` (the equations eliminated once, the kernel lifted and
    certified by E.K = 0) against the equations' certified RREF followed by
    the certified RREF of its kernel vectors, empty kernels included: each
    vector is int terms over a den, den on the pivot.  Its Fraction form
    `invariant_basis_elements` is `_fractions` of the kernel's int RREF,
    column j read as the weight-zero mask w0[j]."""
    from chiralring import liemodule
    kernels = []
    kernel = liemodule.kernel_basis

    def recording(rows, ncols):
        kernels.append(kernel(rows, ncols))
        return kernels[-1]

    monkeypatch.setattr(liemodule, "kernel_basis", recording)
    lie = chevalley_data(build_root_system(*key))
    act = ActionTable(GrassmannAlgebra(lie.dim), lie)
    basis = invariants(act, p, q)
    assert all(type(c) is int for terms, _ in basis for c in terms.values())
    assert all(next(iter(terms.values())) == den for terms, den in basis)
    assert ([ExtElement.from_ints(act.alg, *v) for v in basis]
            == _invariant_basis_in_equation_order(act, p, q))
    w0 = act.weight_masks(p, q, act.zero_weight)
    assert invariant_basis_elements(act, p, q) == [
        ExtElement(act.alg, {w0[j]: c for j, c in row.items()})
        for row in _fractions(kernels[-1])]


def test_one_elimination_per_invariant_kernel(monkeypatch):
    """One `invariants` call reduces at most (equations + m) rows per prime
    tried (per kernel table mod p): the equations are eliminated once, and
    a second full-width elimination, such as a certified Echelon over the
    equations, cannot come back unnoticed."""
    from chiralring import exactla, liemodule
    calls = {"reduce": 0, "tables": 0}
    equations = []
    reduce, kernel_mod = exactla._reduce, exactla._kernel_mod
    kernel = liemodule.kernel_basis

    def counting_reduce(u, rows, p):
        calls["reduce"] += 1
        return reduce(u, rows, p)

    def counting_kernel_mod(free, p):
        calls["tables"] += 1
        return kernel_mod(free, p)

    def recording_kernel(rows, ncols):
        equations.extend(rows)
        return kernel(rows, ncols)

    monkeypatch.setattr(exactla, "_reduce", counting_reduce)
    monkeypatch.setattr(exactla, "_kernel_mod", counting_kernel_mod)
    monkeypatch.setattr(liemodule, "kernel_basis", recording_kernel)
    lie = chevalley_data(build_root_system("G", 2))
    basis = invariants(ActionTable(GrassmannAlgebra(lie.dim), lie), 3, 3)
    assert len(basis) == 5 and calls["tables"] >= 1
    assert calls["reduce"] <= (len(equations) + 5) * calls["tables"]


def test_invariant_basis_cached_per_action_table(act_sl3, monkeypatch):
    """One kernel per (p, q) and action table, and each call gets a new
    list; an action table over an algebra with a smaller cap refuses the
    basis and keeps nothing."""
    from chiralring import liemodule
    calls = []
    inner = liemodule.invariants

    def counting(action, p, q):
        calls.append((p, q))
        return inner(action, p, q)

    monkeypatch.setattr(liemodule, "invariants", counting)
    act = ActionTable(act_sl3.alg, act_sl3.lie)
    first = invariant_basis_elements(act, 2, 2)
    first.clear()
    again = invariant_basis_elements(act, 2, 2)
    assert again == _invariant_basis_in_equation_order(act, 2, 2)
    assert len(again) == 3
    assert calls == [(2, 2)]
    small = ActionTable(GrassmannAlgebra(act.lie.dim, cap=10), act.lie)
    with pytest.raises(ComponentTooLarge):
        invariant_basis_elements(small, 2, 2)
    assert not small._invariant_bases
