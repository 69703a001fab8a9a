import hashlib
import json
from fractions import Fraction

import pytest

from chiralring.rootsystem import (build_root_system, chevalley_data,
                                   representation, UnsupportedType,
                                   LIE_DATA_TYPES, lie_to_json_dict)
from chiralring.rootsystem.octonion import (derivation_basis,
                                            derivation_equations,
                                            multiplication_table)

# (type, rank) -> (#positive roots, dual Coxeter, degrees)
TABLE = {
    ("A", 1): (1, 2, [2]),
    ("A", 2): (3, 3, [2, 3]),
    ("A", 3): (6, 4, [2, 3, 4]),
    ("A", 4): (10, 5, [2, 3, 4, 5]),
    ("B", 2): (4, 3, [2, 4]),
    ("B", 3): (9, 5, [2, 4, 6]),
    ("B", 4): (16, 7, [2, 4, 6, 8]),
    ("C", 2): (4, 3, [2, 4]),
    ("C", 3): (9, 4, [2, 4, 6]),
    ("C", 4): (16, 5, [2, 4, 6, 8]),
    ("D", 4): (12, 6, [2, 4, 4, 6]),
    ("D", 5): (20, 8, [2, 4, 5, 6, 8]),
    ("G", 2): (6, 4, [2, 6]),
    ("F", 4): (24, 9, [2, 6, 8, 12]),
    ("E", 6): (36, 12, [2, 5, 6, 8, 9, 12]),
    ("E", 7): (63, 18, [2, 6, 8, 10, 12, 14, 18]),
    ("E", 8): (120, 30, [2, 8, 12, 14, 18, 20, 24, 30]),
}


@pytest.mark.parametrize("key", sorted(TABLE))
def test_root_system_table(key):
    npos, g, degrees = TABLE[key]
    rs = build_root_system(*key)
    assert len(rs.positive_roots) == npos
    assert rs.dual_coxeter() == g
    assert rs.invariant_degrees() == degrees
    # counting invariant: number of positive roots = (dim - rank)/2
    assert len(rs.positive_roots) == (rs.dim_g() - rs.rank) // 2
    # every positive root has nonnegative integer coordinates
    for r in rs.positive_roots:
        assert all(isinstance(c, int) and c >= 0 for c in r)
    # Cartan matrix entry ranges
    for i in range(rs.rank):
        for j in range(rs.rank):
            a = rs.cartan[i][j]
            assert a == 2 if i == j else a in (0, -1, -2, -3)
    # sum of exponents equals the number of positive roots
    assert sum(d - 1 for d in degrees) == npos


def test_rank_one_trivial():
    rs = build_root_system("A", 1)
    assert rs.positive_roots == [(1,)]


def test_a2_positive_roots():
    rs = build_root_system("A", 2)
    assert rs.positive_roots == [(0, 1), (1, 0), (1, 1)]


def test_deterministic_rebuild():
    for key in [("A", 3), ("G", 2), ("B", 4)]:
        a = build_root_system(*key)
        b = type(a)(*key)
        assert a.positive_roots == b.positive_roots
        assert a.cartan == b.cartan
        assert a.gram == b.gram


def test_unsupported_type():
    with pytest.raises(UnsupportedType):
        build_root_system("Q", 3)
    with pytest.raises(UnsupportedType):
        build_root_system("A", 9)
    with pytest.raises(UnsupportedType):
        build_root_system("E", 5)
    with pytest.raises(UnsupportedType):
        chevalley_data(build_root_system("E", 6))


def _jacobi_defect(lie):
    n = lie.dim
    bad = 0
    for a in range(n):
        for b in range(n):
            for c in range(n):
                acc = {}
                for (u, v) in ((b, c), (c, a), (a, b)):
                    outer = {(b, c): a, (c, a): b, (a, b): c}[(u, v)]
                    for d, coef in lie.bracket(u, v).items():
                        for e, coef2 in lie.bracket(outer, d).items():
                            acc[e] = acc.get(e, 0) + coef * coef2
                if any(acc.values()):
                    bad += 1
    return bad


@pytest.mark.parametrize("key", LIE_DATA_TYPES)
def test_chevalley_structure(key):
    lie = chevalley_data(build_root_system(*key))
    rs = lie.rs
    # integer structure constants, antisymmetry
    for (a, b), comb in lie.struct.items():
        for c, v in comb.items():
            assert v.denominator == 1
        back = lie.bracket(b, a)
        assert comb == {c: -v for c, v in back.items()}
    # Jacobi identity on every basis triple
    assert _jacobi_defect(lie) == 0
    # extraspecial pairs are positive; all |N| = p+1
    for gam, (a1, b1) in lie.extraspecial.items():
        assert lie.N(a1, b1) == rs.string_p(a1, b1) + 1
    for al in rs.positive_roots:
        for be in rs.positive_roots:
            if al == be:
                continue
            s = rs.add_roots(al, be)
            if s in rs.root_set:
                assert abs(lie.N(al, be)) == rs.string_p(al, be) + 1
    # coroot integrality
    for r in rs.positive_roots:
        assert all(isinstance(c, int) for c in lie.coroot(r))


@pytest.mark.parametrize("key", LIE_DATA_TYPES)
def test_form_invariance_and_casimir(key):
    lie = chevalley_data(build_root_system(*key))
    n = lie.dim
    # <[x,y],z> + <y,[x,z]> = 0 over all basis triples
    for x in range(n):
        for y in range(n):
            row = lie.bracket(x, y)
            for z in range(n):
                t1 = sum(v * lie.form[d][z] for d, v in row.items())
                t2 = sum(v * lie.form[y][d]
                         for d, v in lie.bracket(x, z).items())
                assert t1 + t2 == 0
    # Killing form equals 2g times the long-root-2 normalized form
    th = lie.rs.highest_root
    assert lie.form[lie.e_index(th)][lie.f_index(th)] == 2 * lie.dual_coxeter
    # adjoint Casimir is exactly the identity
    for b in range(n):
        acc = {}
        for a in range(n):
            v1 = {}
            for u, cu in enumerate(lie.form_inv[a]):
                for d, w in lie.bracket(u, b).items():
                    v1[d] = v1.get(d, 0) + cu * w
            for d, w in v1.items():
                for e2, w2 in lie.bracket(a, d).items():
                    acc[e2] = acc.get(e2, 0) + w * w2
        assert {k: v for k, v in acc.items() if v} == {b: Fraction(1)}


def test_dual_basis():
    lie = chevalley_data(build_root_system("A", 2))
    n = lie.dim
    for a in range(n):
        for b in range(n):
            val = sum(lie.form_inv[a][c] * lie.form[c][b] for c in range(n))
            assert val == (1 if a == b else 0)


def test_sl2_data():
    lie = chevalley_data(build_root_system("A", 1))
    assert lie.dim == 3
    assert lie.dual_coxeter == 2
    assert lie.degrees == [2]
    # basis e, h, f with [e,f] = h, [h,e] = 2e, [h,f] = -2f
    assert lie.bracket(0, 2) == {1: Fraction(1)}
    assert lie.bracket(1, 0) == {0: Fraction(2)}
    assert lie.bracket(1, 2) == {2: Fraction(-2)}


def test_json_export_roundtrip(tmp_path):
    lie = chevalley_data(build_root_system("A", 2))
    rep = representation(lie, "vector")
    doc = lie_to_json_dict(lie, [rep])
    text = json.dumps(doc, sort_keys=True)
    back = json.loads(text)
    assert back["dim"] == 8
    assert back["dual_coxeter"] == 3
    assert len(back["basis_labels"]) == 8
    # entries parse back as exact rationals
    for a, b, c, v in back["structure_constants"]:
        num, den = v.split("/")
        Fraction(int(num), int(den))
    mats = back["representations"]["vector"]["matrices"]
    assert len(mats) == 8 and len(mats[0]) == 3


def test_derivation_equations_carry_no_zero_coefficient():
    """Coefficients that cancel are dropped and identically zero equations
    skipped; the derivation algebra they cut out is unchanged."""
    eqs = derivation_equations(multiplication_table())
    assert len(eqs) == 356
    assert all(eq and all(eq.values()) for eq in eqs)
    text = ";".join(str(c) for m in derivation_basis() for row in m
                    for c in row)
    # digest of the 14 basis matrices as computed before zeros were dropped
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == \
        "a828de78b0e33bbd"
