import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from chiralring.exterior import (GrassmannAlgebra, ExtElement, OddMatrix,
                                 SizeMismatch, suffix_parity, term_key,
                                 wedge_into)
from conftest import random_element, swap_xy


# ---------------------------------------------------------------------------
# an independent model: monomials as index lists, signs by bubble sort

def _sort_sign(seq):
    seq = list(seq)
    sign = 1
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                sign = -sign
    return seq, sign


def _model_mul(t1, t2):
    """Multiply {tuple: coeff} dicts by concatenation + sorting."""
    out = {}
    for m1, c1 in t1.items():
        for m2, c2 in t2.items():
            cat = list(m1) + list(m2)
            if len(set(cat)) != len(cat):
                continue
            key, sign = _sort_sign(cat)
            key = tuple(key)
            out[key] = out.get(key, 0) + sign * c1 * c2
    return {k: v for k, v in out.items() if v}


def _to_model(el):
    return {term_key(m): c for m, c in el.terms.items()}


def test_generator_squares_and_anticommute():
    alg = GrassmannAlgebra(4)
    x1, x2 = alg.x(0), alg.x(1)
    assert x1.wedge(x1).is_zero()
    assert x1.wedge(x2) == x2.wedge(x1).scale(-1)


def test_spec_example_mixed_product():
    # (x1 + y1)(x1 - y1) = -2 x1^y1
    alg = GrassmannAlgebra(2)
    u = alg.x(0) + alg.y(0)
    v = alg.x(0) - alg.y(0)
    prod = u.wedge(v)
    expected = alg.x(0).wedge(alg.y(0)).scale(-2)
    assert prod == expected


def test_wedge_against_model_exhaustive_monomials():
    alg = GrassmannAlgebra(3)   # 8 odd generators with xi, eta
    gens = list(range(8))
    monos = [c for k in range(4) for c in combinations(gens, k)]
    for m1 in monos:
        for m2 in monos:
            e1 = ExtElement(alg, {sum(1 << b for b in m1): Fraction(1)})
            e2 = ExtElement(alg, {sum(1 << b for b in m2): Fraction(1)})
            assert _to_model(e1.wedge(e2)) == _model_mul(_to_model(e1),
                                                         _to_model(e2))


def test_wedge_random_against_model():
    alg = GrassmannAlgebra(4)
    rng = random.Random(1)
    for _ in range(200):
        u = random_element(alg, rng)
        v = random_element(alg, rng)
        assert _to_model(u.wedge(v)) == _model_mul(_to_model(u), _to_model(v))


def test_associativity_random():
    alg = GrassmannAlgebra(4)
    rng = random.Random(2)
    for _ in range(100):
        u, v, w = (random_element(alg, rng) for _ in range(3))
        assert u.wedge(v).wedge(w) == u.wedge(v.wedge(w))


def test_associativity_exhaustive_on_monomials():
    # every triple of monomials over 6 odd generators (x/y blocks + xi/eta)
    alg = GrassmannAlgebra(2)
    monos = [ExtElement(alg, {m: Fraction(1)}) for m in range(1 << 6)]
    for u in monos:
        for v in monos:
            uv = u.wedge(v)
            for w in monos:
                assert uv.wedge(w) == u.wedge(v.wedge(w))


@pytest.mark.parametrize("n", [1, 3, 5])
def test_component_masks_in_canonical_order(n):
    alg = GrassmannAlgebra(n)
    for p in range(n + 1):
        for q in range(n + 1):
            masks = alg.component_masks(p, q)
            assert masks == sorted(masks, key=term_key)
            assert len(masks) == alg.component_dim(p, q)


def test_graded_commutativity():
    alg = GrassmannAlgebra(3)
    rng = random.Random(3)
    monos = [m for p in range(3) for q in range(3)
             for m in alg.component_masks(p, q)]
    for _ in range(200):
        m1, m2 = rng.choice(monos), rng.choice(monos)
        u = ExtElement(alg, {m1: Fraction(rng.randint(1, 5))})
        v = ExtElement(alg, {m2: Fraction(rng.randint(1, 5))})
        d1 = sum(alg.bidegree_of_mask(m1))
        d2 = sum(alg.bidegree_of_mask(m2))
        sign = -1 if (d1 * d2) % 2 else 1
        assert u.wedge(v) == v.wedge(u).scale(sign)


def test_bidegree_additive():
    alg = GrassmannAlgebra(4)
    u = alg.x(0).wedge(alg.y(1))
    v = alg.x(2)
    assert u.bidegree() == (1, 1)
    assert u.wedge(v).bidegree() == (2, 1)
    assert alg.xi().bidegree() == (1, 0)
    assert alg.eta().bidegree() == (0, 1)
    assert alg.xi().wedge(alg.y(0)).bidegree() == (1, 1)


def test_component_extraction():
    alg = GrassmannAlgebra(3)
    u = alg.x(0).wedge(alg.y(0)) + alg.x(0).wedge(alg.x(1))
    assert u.component(1, 1) == alg.x(0).wedge(alg.y(0))
    assert u.component(2, 0) == alg.x(0).wedge(alg.x(1))
    assert u.component(0, 2).is_zero()


def test_extract_xi_eta():
    alg = GrassmannAlgebra(3)
    assert alg.xi().wedge(alg.eta()).extract_xi_eta() == alg.one()
    assert alg.eta().wedge(alg.xi()).extract_xi_eta() == alg.scalar(-1)
    assert alg.x(0).extract_xi_eta().is_zero()
    u = alg.x(0).wedge(alg.xi()).wedge(alg.eta())
    assert u.extract_xi_eta() == alg.x(0)
    # xi-only and eta-only terms are dropped
    v = alg.x(0).wedge(alg.xi()) + alg.y(1).wedge(alg.eta())
    assert v.extract_xi_eta().is_zero()


def test_serialization_golden():
    alg = GrassmannAlgebra(4)
    assert str(alg.zero()) == "0"
    assert str(alg.scalar(Fraction(-7, 3))) == "-7/3"
    el = alg.x(0).wedge(alg.y(2)).scale(-2)
    assert str(el) == "-2 x1^y3"
    el2 = alg.x(1) + alg.x(0).wedge(alg.y(2)).scale(Fraction(1, 2))
    assert str(el2) == "1/2 x1^y3 + 1 x2"
    assert str(alg.xi().wedge(alg.eta())) == "1 xi^eta"


def test_swap_involution():
    alg = GrassmannAlgebra(3)
    rng = random.Random(4)
    for _ in range(100):
        u = random_element(alg, rng)
        v = random_element(alg, rng)
        assert swap_xy(swap_xy(u)) == u
        assert swap_xy(u.wedge(v)) == swap_xy(u).wedge(swap_xy(v))
    assert swap_xy(alg.x(0)) == alg.y(0)
    assert swap_xy(alg.xi()) == alg.eta()


def test_oddmatrix_trace_identity():
    alg = GrassmannAlgebra(2)
    ident = OddMatrix.identity(alg, 3)
    assert ident.trace() == alg.scalar(3)


def test_oddmatrix_matmul_associative():
    alg = GrassmannAlgebra(3)
    rng = random.Random(5)
    for size in (2, 3):
        a, b, c = (OddMatrix(alg, [[random_element(alg, rng, nterms=2,
                                                   maxdeg=1)
                                    for _ in range(size)]
                                   for _ in range(size)])
                   for _ in range(3))
        lhs = a.matmul(b).matmul(c)
        rhs = a.matmul(b.matmul(c))
        for i in range(size):
            for j in range(size):
                assert lhs.entry(i, j) == rhs.entry(i, j)


def test_oddmatrix_trace_cyclicity_graded():
    # Tr(AB) = (-1)^{|A||B|} Tr(BA) for matrices of pure-parity entries
    alg = GrassmannAlgebra(3)
    rng = random.Random(6)
    comps = {0: [(1, 1), (2, 0)], 1: [(1, 0), (0, 1)]}
    for pa in (0, 1):
        for pb in (0, 1):
            for _ in range(10):
                def rand_entry(par):
                    p, q = rng.choice(comps[par])
                    masks = alg.component_masks(p, q)
                    return ExtElement(alg, {rng.choice(masks):
                                            Fraction(rng.randint(-3, 3) or 1)})

                def rand_mat(par):
                    return OddMatrix(alg, [[rand_entry(par) for _ in range(2)]
                                           for _ in range(2)])
                A, B = rand_mat(pa), rand_mat(pb)
                sign = -1 if pa * pb else 1
                assert A.matmul(B).trace() == B.matmul(A).trace().scale(sign)


_ALG3 = GrassmannAlgebra(3)
_ENTRIES = st.dictionaries(
    st.integers(0, (1 << (2 * _ALG3.n + 2)) - 1),
    st.integers(-3, 3).filter(bool).map(Fraction), max_size=3)


@st.composite
def _matrix_pairs(draw):
    size = draw(st.integers(1, 3))
    return [OddMatrix(_ALG3, [[ExtElement(_ALG3, draw(_ENTRIES))
                               for _ in range(size)] for _ in range(size)])
            for _ in range(2)]


def _model_entry(a, b, i, j):
    """Entry (i, j) of the product a . b by the model, over Fractions."""
    want = {}
    for k in range(a.size):
        for key, c in _model_mul(_to_model(a.entry(i, k)),
                                 _to_model(b.entry(k, j))).items():
            want[key] = want.get(key, 0) + c
    return {key: c for key, c in want.items() if c}


@settings(max_examples=80, deadline=None)
@given(_matrix_pairs())
def test_matmul_entries_match_model(pair):
    a, b = pair
    prod = a.matmul(b)
    for i in range(a.size):
        for j in range(a.size):
            assert _to_model(prod.entry(i, j)) == _model_entry(a, b, i, j)


# entries with denominators 1..6, so each matrix has its own shared
# denominator and the int numerators must be rescaled to meet
_RATIONAL_ENTRIES = st.dictionaries(
    st.integers(0, (1 << (2 * _ALG3.n + 2)) - 1),
    st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 6)),
    max_size=3)


@st.composite
def _rational_matrices(draw):
    size = draw(st.integers(1, 3))
    rows = [[[ExtElement(_ALG3, draw(_RATIONAL_ENTRIES))
              for _ in range(size)] for _ in range(size)] for _ in range(2)]
    return rows, ExtElement(_ALG3, draw(_RATIONAL_ENTRIES))


@settings(max_examples=80, deadline=None)
@given(_rational_matrices())
def test_integer_entries_match_fraction_arithmetic(case):
    """Int numerators over a shared denominator against the same products,
    sums and scalings taken entry by entry over Fractions."""
    (rows_a, rows_b), elem = case
    a, b = OddMatrix(_ALG3, rows_a), OddMatrix(_ALG3, rows_b)
    # a seventh of b has a denominator no entry drawn above shares
    b7 = OddMatrix(_ALG3, [[e.scale(Fraction(1, 7)) for e in row]
                           for row in rows_b])
    prod, total, total7 = a.matmul(b), a + b, a + b7
    left = a.scale_left(elem)
    for i in range(a.size):
        for j in range(a.size):
            assert a.entry(i, j) == rows_a[i][j]
            assert all(type(c) is int for c in prod.entries[i][j].values())
            assert _to_model(prod.entry(i, j)) == _model_entry(a, b, i, j)
            assert total.entry(i, j) == rows_a[i][j] + rows_b[i][j]
            assert total7.entry(i, j) == \
                rows_a[i][j] + rows_b[i][j].scale(Fraction(1, 7))
            assert left.entry(i, j) == elem.wedge(rows_a[i][j])
    assert a.trace_product(b) == prod.trace()
    assert b.trace_product(a) == b.matmul(a).trace()


@st.composite
def _homogeneous_elements(draw):
    """(degree, element): a random element of _ALG3 whose terms all have
    the same total degree."""
    degree = draw(st.integers(0, 4))
    masks = st.lists(st.integers(0, 2 * _ALG3.n + 1), min_size=degree,
                     max_size=degree, unique=True).map(
                         lambda bits: sum(1 << b for b in bits))
    coeffs = st.builds(Fraction, st.integers(-5, 5).filter(bool),
                       st.integers(1, 4))
    terms = draw(st.dictionaries(masks, coeffs, max_size=4))
    return degree, ExtElement(_ALG3, terms)


@settings(max_examples=80)
@given(_homogeneous_elements(), _homogeneous_elements())
def test_graded_commutativity_random_elements(a, b):
    """a ^ b = (-1)^(|a||b|) b ^ a on sums of monomials."""
    (da, a), (db, b) = a, b
    assert a.wedge(b) == b.wedge(a).scale((-1) ** (da * db))


def test_size_mismatch():
    alg = GrassmannAlgebra(2)
    with pytest.raises(SizeMismatch):
        OddMatrix.identity(alg, 2).matmul(OddMatrix.identity(alg, 3))
    # zip would silently drop the extra row or column
    with pytest.raises(SizeMismatch):
        OddMatrix.identity(alg, 2).trace_product(OddMatrix.identity(alg, 3))
    with pytest.raises(SizeMismatch):
        OddMatrix.identity(alg, 3) + OddMatrix.identity(alg, 2)


def _merge_sign(m1, m2):
    """The sign of m1 ^ m2 as wedge_into reads it."""
    return -1 if (suffix_parity(m1) & m2).bit_count() & 1 else 1


def test_merge_sign_matches_model():
    rng = random.Random(7)
    for _ in range(300):
        bits1 = rng.sample(range(10), rng.randint(0, 4))
        bits2 = [b for b in rng.sample(range(10), rng.randint(0, 4))
                 if b not in bits1]
        m1 = sum(1 << b for b in bits1)
        m2 = sum(1 << b for b in bits2)
        _, sign = _sort_sign(sorted(bits1) + sorted(bits2))
        assert _merge_sign(m1, m2) == sign


# E8: two blocks of 248 generators, then xi and eta
_E8_GENERATORS = 2 * 248 + 2


@settings(max_examples=200)
@given(st.lists(st.tuples(st.integers(0, _E8_GENERATORS - 1), st.booleans()),
                unique_by=lambda t: t[0], max_size=40))
def test_suffix_parity_sign_on_wide_masks(bits):
    """Disjoint monomials anywhere in E8's 498 generators: the mask's bits
    are suffix parities, and the sign is the bubble-sort sign."""
    bits1 = [b for b, left in bits if left]
    bits2 = [b for b, left in bits if not left]
    m1 = sum(1 << b for b in bits1)
    m2 = sum(1 << b for b in bits2)
    parity = suffix_parity(m1)
    assert parity < 1 << max(bits1, default=0)
    for b in range(_E8_GENERATORS):
        assert parity >> b & 1 == (m1 >> (b + 1)).bit_count() & 1
    _, sign = _sort_sign(sorted(bits1) + sorted(bits2))
    assert _merge_sign(m1, m2) == sign


# a few generators below bit 64 and most above, up to E8's last, so that
# products overlap, collide and cancel
_WIDE_BITS = (0, 5, 63, 64, 65, 100, 127, 128, 250, 400, 496, 497)
_WIDE_TERMS = st.dictionaries(
    st.lists(st.sampled_from(_WIDE_BITS), max_size=4, unique=True).map(
        lambda bits: sum(1 << b for b in bits)),
    st.integers(-3, 3).filter(bool).map(Fraction), max_size=4)


@settings(max_examples=150)
@given(_WIDE_TERMS, _WIDE_TERMS, _WIDE_TERMS)
def test_wedge_into_wide_masks_matches_model(t1, t2, acc):
    """out += t1 ^ t2 against concatenate-and-sort on generators above 64,
    accumulated into a dict that may already hold terms."""
    alg = GrassmannAlgebra(248)
    out = wedge_into(dict(acc), t1, t2)
    want = _to_model(ExtElement(alg, acc))
    for key, c in _model_mul(_to_model(ExtElement(alg, t1)),
                             _to_model(ExtElement(alg, t2))).items():
        want[key] = want.get(key, 0) + c
    assert _to_model(ExtElement(alg, out)) == \
        {key: c for key, c in want.items() if c}
    assert all(out.values())
