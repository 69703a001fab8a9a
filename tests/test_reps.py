import pytest

from chiralring.rootsystem import (build_root_system, chevalley_data,
                                   representation, UnsupportedRepresentation,
                                   LIE_DATA_TYPES)
from chiralring.rootsystem.reps import (_mul, _comm, _zeros,
                                        trace_power_degrees)
from chiralring.exactla import Echelon


def _check_bracket_compat(lie, rep):
    n = lie.dim
    for a in range(n):
        for b in range(n):
            lhs = _comm(rep.matrices[a], rep.matrices[b])
            rhs = _zeros(rep.dim_V)
            for c, v in lie.bracket(a, b).items():
                m = rep.matrices[c]
                for i in range(rep.dim_V):
                    for j in range(rep.dim_V):
                        rhs[i][j] += v * m[i][j]
            assert lhs == rhs, (a, b)


def _check_faithful(lie, rep):
    ech = Echelon()
    for m in rep.matrices:
        vec = {rep.dim_V * i + j: m[i][j] for i in range(rep.dim_V)
               for j in range(rep.dim_V) if m[i][j]}
        ech.insert(vec)
    assert ech.rank == lie.dim


@pytest.mark.parametrize("key", LIE_DATA_TYPES)
def test_defining_rep(key):
    lie = chevalley_data(build_root_system(*key))
    label = "fundamental-7" if key[0] == "G" else "vector"
    rep = representation(lie, label)
    expected_dim = {"A": key[1] + 1, "B": 2 * key[1] + 1, "C": 2 * key[1],
                    "D": 2 * key[1], "G": 7}[key[0]]
    assert rep.dim_V == expected_dim
    _check_bracket_compat(lie, rep)
    _check_faithful(lie, rep)


@pytest.mark.parametrize("key", [("A", 1), ("A", 2), ("B", 2), ("G", 2)])
def test_adjoint_rep(key):
    lie = chevalley_data(build_root_system(*key))
    rep = representation(lie, "adjoint")
    assert rep.dim_V == lie.dim
    # rho(e_a)_{cb} = f_ab^c
    for a in range(lie.dim):
        for b in range(lie.dim):
            comb = lie.bracket(a, b)
            for c in range(lie.dim):
                assert rep.matrices[a][c][b] == comb.get(c, 0)
    _check_bracket_compat(lie, rep)
    _check_faithful(lie, rep)


def test_sl2_vector_explicit():
    lie = chevalley_data(build_root_system("A", 1))
    rep = representation(lie, "vector")
    e, h, f = rep.matrices
    assert e == [[0, 1], [0, 0]]
    assert f == [[0, 0], [1, 0]]
    assert h == [[1, 0], [0, -1]]   # diagonal Cartan action


def test_cartan_matrices_diagonal():
    for key in [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2)]:
        lie = chevalley_data(build_root_system(*key))
        label = "fundamental-7" if key[0] == "G" else "vector"
        rep = representation(lie, label)
        for i in range(lie.rank):
            m = rep.matrices[lie.h_index(i)]
            for r in range(rep.dim_V):
                for c in range(rep.dim_V):
                    if r != c:
                        assert m[r][c] == 0
                assert m[r][r].denominator == 1


def test_g2_module_in_weight_basis():
    """The G2 seeds act on v1..v7 of weights 2a1+a2, a1+a2, a1, 0, -a1,
    -a1-a2, -2a1-a2 (a1 short)."""
    lie = chevalley_data(build_root_system("G", 2))
    rep = representation(lie, "fundamental-7")
    diag = [[rep.matrices[lie.h_index(i)][r][r] for r in range(7)]
            for i in range(2)]
    assert diag == [[1, -1, 2, 0, -2, 1, -1], [0, 1, -1, 0, 1, -1, 0]]


def test_g2_trace_form_proportional():
    lie = chevalley_data(build_root_system("G", 2))
    rep = representation(lie, "fundamental-7")
    ratios = set()
    for a in range(lie.dim):
        for b in range(lie.dim):
            tr = sum(_mul(rep.matrices[a], rep.matrices[b])[i][i]
                     for i in range(7))
            fv = lie.form[a][b]
            if fv:
                ratios.add(tr / fv)
            else:
                assert tr == 0
    assert len(ratios) == 1


def test_unsupported_representation():
    lie = chevalley_data(build_root_system("A", 2))
    with pytest.raises(UnsupportedRepresentation):
        representation(lie, "fundamental-7")
    g2 = chevalley_data(build_root_system("G", 2))
    with pytest.raises(UnsupportedRepresentation):
        representation(g2, "vector")


def test_trace_power_degrees():
    assert trace_power_degrees(chevalley_data(build_root_system("A", 3))) == \
        [2, 3, 4]
    assert trace_power_degrees(chevalley_data(build_root_system("B", 3))) == \
        [2, 4, 6]
    assert trace_power_degrees(chevalley_data(build_root_system("G", 2))) == \
        [2, 6]
    with pytest.raises(UnsupportedRepresentation):
        trace_power_degrees(chevalley_data(build_root_system("D", 4)))
