import os

import pytest

from chiralring.rootsystem import build_root_system, chevalley_data
from chiralring.exterior import GrassmannAlgebra
from chiralring.liemodule import ActionTable
from chiralring.abideals import (enumerate_abelian_ideals, is_ideal,
                                 is_abelian, poincare_series, product_series,
                                 check_prop_cox)
from conftest import (EmptyIdeal, casimir, enumerate_abelian_ideals_bruteforce,
                      highest_weight_vector)

PETERSON_TYPES = [("A", r) for r in range(1, 6)] + \
    [("B", r) for r in range(2, 5)] + [("C", r) for r in range(2, 5)] + \
    [("D", 4), ("D", 5), ("F", 4), ("G", 2), ("E", 6)]


@pytest.mark.parametrize("key", PETERSON_TYPES)
def test_peterson_count(key):
    rs = build_root_system(*key)
    ideals = enumerate_abelian_ideals(rs)
    assert len(ideals) == 2 ** rs.rank
    # independent re-check of both defining conditions
    for a in ideals:
        assert is_ideal(rs, a.roots)
        assert is_abelian(rs, a.roots)
    # duplicate-free
    assert len({a.indices for a in ideals}) == len(ideals)


@pytest.mark.slow
@pytest.mark.skipif(os.environ.get("CHIRALRING_E78") != "1",
                    reason="E7/E8 behind a flag for runtime")
@pytest.mark.parametrize("key", [("E", 7), ("E", 8)])
def test_peterson_count_e78(key):
    rs = build_root_system(*key)
    assert len(enumerate_abelian_ideals(rs)) == 2 ** rs.rank


@pytest.mark.parametrize("key", [("A", 1), ("A", 2), ("A", 3), ("B", 2),
                                 ("B", 3), ("C", 2), ("C", 3), ("G", 2)])
def test_bruteforce_oracle_agreement(key):
    rs = build_root_system(*key)
    assert enumerate_abelian_ideals(rs) == \
        enumerate_abelian_ideals_bruteforce(rs)


def test_a1_ideals():
    rs = build_root_system("A", 1)
    ideals = enumerate_abelian_ideals(rs)
    assert [a.dim for a in ideals] == [0, 1]
    assert poincare_series(ideals) == [1, 1]


def test_a2_ideals():
    rs = build_root_system("A", 2)
    ideals = enumerate_abelian_ideals(rs)
    assert [a.dim for a in ideals] == [0, 1, 2, 2]
    # the one-dimensional ideal is the highest root
    one = [a for a in ideals if a.dim == 1][0]
    assert one.roots == (rs.highest_root,)
    assert poincare_series(ideals) == [1, 1, 2]


def test_b2_series():
    ideals = enumerate_abelian_ideals(build_root_system("B", 2))
    pe = poincare_series(ideals)
    assert sum(pe) == 4
    assert pe == [1, 1, 1, 1]


def test_product_series():
    # 1/(1-t) and 1/((1-t)(1-t^2))
    assert product_series([2], 4) == [1, 1, 1, 1, 1]
    assert product_series([2, 3], 4) == [1, 1, 2, 2, 3]
    assert product_series([2, 6], 4) == [1, 1, 1, 1, 1]


COX_TYPES = [("A", r) for r in range(1, 5)] + \
    [("B", r) for r in range(2, 5)] + [("C", r) for r in range(2, 5)] + \
    [("D", 4), ("G", 2)]


@pytest.mark.parametrize("key", COX_TYPES)
def test_prop_cox(key):
    rep = check_prop_cox(build_root_system(*key))
    assert rep["agree_below_g"], rep
    assert rep["discrepancy_positive"], rep
    assert rep["pass"]


def test_prop_cox_values():
    rep = check_prop_cox(build_root_system("A", 1))
    assert rep["poincare_E"] == [1, 1]
    assert rep["product_series"] == [1, 1, 1]
    assert rep["discrepancy_at_g"] == 1
    rep = check_prop_cox(build_root_system("A", 2))
    assert rep["poincare_E"] == [1, 1, 2]
    assert rep["product_series"] == [1, 1, 2, 2]
    assert rep["discrepancy_at_g"] == 2
    rep = check_prop_cox(build_root_system("G", 2))
    assert rep["poincare_E"] == [1, 1, 1, 1]
    assert rep["discrepancy_at_g"] == 1


@pytest.mark.parametrize("key", [("A", 1), ("A", 2), ("B", 2)])
def test_highest_weight_vectors(key):
    lie = chevalley_data(build_root_system(*key))
    alg = GrassmannAlgebra(lie.dim)
    act = ActionTable(alg, lie)
    ideals = enumerate_abelian_ideals(lie.rs)
    for a in ideals:
        if a.dim == 0:
            with pytest.raises(EmptyIdeal):
                highest_weight_vector(alg, lie, a)
            continue
        v = highest_weight_vector(alg, lie, a)
        assert not v.is_zero()
        # annihilated by every simple raising generator
        for i in range(lie.rank):
            e_i = lie.e_index(lie.rs.simple_roots[i])
            assert act.act(e_i, v).is_zero()
        # Casimir eigenvalue equals the dimension of the ideal
        assert casimir(act, v) == v.scale(a.dim)


def test_single_root_vector():
    lie = chevalley_data(build_root_system("A", 1))
    alg = GrassmannAlgebra(lie.dim)
    ideals = enumerate_abelian_ideals(lie.rs)
    v = highest_weight_vector(alg, lie, ideals[1])
    assert v == alg.x(lie.e_index(lie.rs.highest_root))
