import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from chiralring.exactla import addmul
from chiralring.exterior import (GrassmannAlgebra, ExtElement, OddMatrix,
                                 SizeMismatch, suffix_parity,
                                 swap_power_trace_ints, swap_terms,
                                 term_key, wedge_into)
from conftest import (bidegree, component, entry, gen_eta, gen_x, gen_xi,
                      gen_y, mask_bidegree, matrix_trace, odd_matrix,
                      random_element, scalar, sub, swap_xy, trace_product,
                      xi_eta)


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
    x1, x2 = gen_x(alg, 0), gen_x(alg, 1)
    assert x1.wedge(x1).is_zero()
    assert x1.wedge(x2) == x2.wedge(x1).scale(-1)


def test_spec_example_mixed_product():
    # (x1 + y1)(x1 - y1) = -2 x1^y1
    alg = GrassmannAlgebra(2)
    u = gen_x(alg, 0) + gen_y(alg, 0)
    v = sub(gen_x(alg, 0), gen_y(alg, 0))
    prod = u.wedge(v)
    expected = gen_x(alg, 0).wedge(gen_y(alg, 0)).scale(-2)
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
        d1 = sum(mask_bidegree(alg, m1))
        d2 = sum(mask_bidegree(alg, m2))
        sign = -1 if (d1 * d2) % 2 else 1
        assert u.wedge(v) == v.wedge(u).scale(sign)


def test_bidegree_additive():
    alg = GrassmannAlgebra(4)
    u = gen_x(alg, 0).wedge(gen_y(alg, 1))
    v = gen_x(alg, 2)
    assert bidegree(u) == (1, 1)
    assert bidegree(u.wedge(v)) == (2, 1)
    assert bidegree(gen_xi(alg)) == (1, 0)
    assert bidegree(gen_eta(alg)) == (0, 1)
    assert bidegree(gen_xi(alg).wedge(gen_y(alg, 0))) == (1, 1)


def test_component_extraction():
    alg = GrassmannAlgebra(3)
    u = gen_x(alg, 0).wedge(gen_y(alg, 0)) + gen_x(alg, 0).wedge(gen_x(alg, 1))
    assert component(u, 1, 1) == gen_x(alg, 0).wedge(gen_y(alg, 0))
    assert component(u, 2, 0) == gen_x(alg, 0).wedge(gen_x(alg, 1))
    assert component(u, 0, 2).is_zero()


def test_extract_xi_eta():
    alg = GrassmannAlgebra(3)
    assert xi_eta(gen_xi(alg).wedge(gen_eta(alg))) == scalar(alg, 1)
    assert xi_eta(gen_eta(alg).wedge(gen_xi(alg))) == scalar(alg, -1)
    assert xi_eta(gen_x(alg, 0)).is_zero()
    u = gen_x(alg, 0).wedge(gen_xi(alg)).wedge(gen_eta(alg))
    assert xi_eta(u) == gen_x(alg, 0)
    # xi-only and eta-only terms are dropped
    v = gen_x(alg, 0).wedge(gen_xi(alg)) + gen_y(alg, 1).wedge(gen_eta(alg))
    assert xi_eta(v).is_zero()


def test_serialization_golden():
    alg = GrassmannAlgebra(4)
    assert str(scalar(alg, 0)) == "0"
    assert str(scalar(alg, Fraction(-7, 3))) == "-7/3"
    el = gen_x(alg, 0).wedge(gen_y(alg, 2)).scale(-2)
    assert str(el) == "-2 x1^y3"
    el2 = gen_x(alg, 1) + gen_x(alg, 0).wedge(gen_y(alg, 2)).scale(
        Fraction(1, 2))
    assert str(el2) == "1/2 x1^y3 + 1 x2"
    assert str(gen_xi(alg).wedge(gen_eta(alg))) == "1 xi^eta"


def test_swap_involution():
    alg = GrassmannAlgebra(3)
    rng = random.Random(4)
    for _ in range(100):
        u = random_element(alg, rng)
        v = random_element(alg, rng)
        assert swap_xy(swap_xy(u)) == u
        assert swap_xy(u.wedge(v)) == swap_xy(u).wedge(swap_xy(v))
    assert swap_xy(gen_x(alg, 0)) == gen_y(alg, 0)
    assert swap_xy(gen_xi(alg)) == gen_eta(alg)


def test_oddmatrix_trace_identity():
    alg = GrassmannAlgebra(2)
    ident = OddMatrix.identity(alg, 3)
    assert matrix_trace(ident) == scalar(alg, 3)


def test_oddmatrix_matmul_associative():
    alg = GrassmannAlgebra(3)
    rng = random.Random(5)
    for size in (2, 3):
        a, b, c = (odd_matrix(alg, [[random_element(alg, rng, nterms=2,
                                                    maxdeg=1)
                                     for _ in range(size)]
                                    for _ in range(size)])
                   for _ in range(3))
        lhs = a.matmul(b).matmul(c)
        rhs = a.matmul(b.matmul(c))
        for i in range(size):
            for j in range(size):
                assert entry(lhs, i, j) == entry(rhs, i, j)


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
                    return odd_matrix(alg, [[rand_entry(par) for _ in range(2)]
                                            for _ in range(2)])
                A, B = rand_mat(pa), rand_mat(pb)
                sign = -1 if pa * pb else 1
                assert (matrix_trace(A.matmul(B))
                        == matrix_trace(B.matmul(A)).scale(sign))


_ALG3 = GrassmannAlgebra(3)
_ENTRIES = st.dictionaries(
    st.integers(0, (1 << (2 * _ALG3.n + 2)) - 1),
    st.integers(-3, 3).filter(bool).map(Fraction), max_size=3)


@st.composite
def _matrix_pairs(draw):
    size = draw(st.integers(1, 3))
    return [odd_matrix(_ALG3, [[ExtElement(_ALG3, draw(_ENTRIES))
                                for _ in range(size)] for _ in range(size)])
            for _ in range(2)]


def _model_entry(a, b, i, j):
    """Entry (i, j) of the product a . b by the model, over Fractions."""
    want = {}
    for k in range(a.size):
        for key, c in _model_mul(_to_model(entry(a, i, k)),
                                 _to_model(entry(b, k, j))).items():
            want[key] = want.get(key, 0) + c
    return {key: c for key, c in want.items() if c}


@settings(max_examples=80, deadline=None)
@given(_matrix_pairs())
def test_matmul_entries_match_model(pair):
    a, b = pair
    prod = a.matmul(b)
    for i in range(a.size):
        for j in range(a.size):
            assert _to_model(entry(prod, i, j)) == _model_entry(a, b, i, j)


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
    a, b = odd_matrix(_ALG3, rows_a), odd_matrix(_ALG3, rows_b)
    # a seventh of b has a denominator no entry drawn above shares
    b7 = odd_matrix(_ALG3, [[e.scale(Fraction(1, 7)) for e in row]
                            for row in rows_b])
    prod, total, total7 = a.matmul(b), a + b, a + b7
    # elem is its int numerators over their denominator e.den
    e = odd_matrix(_ALG3, [[elem]])
    left = a.scale_left(e.entries[0][0])
    left = OddMatrix(_ALG3, left.entries, left.den * e.den)
    for i in range(a.size):
        for j in range(a.size):
            assert entry(a, i, j) == rows_a[i][j]
            assert all(type(c) is int for c in prod.entries[i][j].values())
            assert _to_model(entry(prod, i, j)) == _model_entry(a, b, i, j)
            assert entry(total, i, j) == rows_a[i][j] + rows_b[i][j]
            assert entry(total7, i, j) == \
                rows_a[i][j] + rows_b[i][j].scale(Fraction(1, 7))
            assert entry(left, i, j) == elem.wedge(rows_a[i][j])
    assert trace_product(a, b) == matrix_trace(prod)
    assert trace_product(b, a) == matrix_trace(b.matmul(a))


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


@st.composite
def _bihomogeneous_elements(draw):
    """(p, q, element): a random element of _ALG3 without xi/eta whose
    terms all have bidegree (p,q)."""
    n = _ALG3.n
    p, q = draw(st.integers(0, n)), draw(st.integers(0, n))

    def block(size):
        return st.frozensets(st.integers(0, n - 1), min_size=size,
                             max_size=size).map(
                                 lambda bits: sum(1 << b for b in bits))
    masks = st.tuples(block(p), block(q)).map(lambda xy: xy[0] | xy[1] << n)
    coeffs = st.builds(Fraction, st.integers(-5, 5).filter(bool),
                       st.integers(1, 4))
    return p, q, ExtElement(_ALG3, draw(st.dictionaries(masks, coeffs,
                                                         max_size=5)))


@settings(max_examples=120)
@given(_bihomogeneous_elements())
def test_swap_terms_matches_oracle(case):
    """swap_terms is the automorphism x_a <-> y_a of the conftest oracle:
    on bidegree (p,q) it relabels each monomial with the sign (-1)^(pq)."""
    p, q, u = case
    n = _ALG3.n
    swapped = ExtElement(_ALG3, swap_terms(u.terms, n))
    assert swapped == swap_xy(u)
    relabelled = {(m & ((1 << n) - 1)) << n | m >> n: c
                  for m, c in u.terms.items()}
    assert swapped == ExtElement(_ALG3, relabelled).scale((-1) ** (p * q))


def test_swap_refuses_xi_eta():
    alg = GrassmannAlgebra(2)
    for aux in (gen_xi(alg), gen_eta(alg)):
        with pytest.raises(ValueError):
            swap_terms(gen_x(alg, 0).wedge(aux).terms, alg.n)


# entries of even total degree, which commute with each other
_EVEN_ENTRIES = st.dictionaries(
    st.integers(0, (1 << (2 * _ALG3.n + 2)) - 1).filter(
        lambda m: m.bit_count() % 2 == 0),
    st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 6)),
    max_size=3)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4).flatmap(lambda size: st.lists(
    st.lists(_EVEN_ENTRIES, min_size=size, max_size=size),
    min_size=size, max_size=size)))
def test_trace_square_matches_trace_product(rows):
    """Tr(P . P) from the diagonal and the pairs i < l against the full
    trace-only product, for even entries."""
    a = odd_matrix(_ALG3, [[ExtElement(_ALG3, t) for t in row]
                           for row in rows])
    terms, den = a.trace_square_ints()
    assert den == a.den ** 2
    assert all(type(c) is int for c in terms.values())
    assert ExtElement.from_ints(_ALG3, terms, den) == trace_product(a, a)


# even elements without xi/eta, over ints
_EVEN_INT_TERMS = st.dictionaries(
    st.integers(0, (1 << (2 * _ALG3.n)) - 1).filter(
        lambda m: m.bit_count() % 2 == 0),
    st.integers(-4, 4).filter(bool), max_size=4)


def _swap_fixed(terms):
    """terms + swap(terms), an element the swap fixes."""
    return addmul(dict(terms), swap_terms(terms, _ALG3.n))


@settings(max_examples=80, deadline=None)
@given(st.lists(_EVEN_INT_TERMS, min_size=6, max_size=6),
       st.integers(1, 5))
def test_swap_power_trace_matches_full_products(elems, den):
    """For even e, f, the halved product of e + swap(e) with f + swap(f)
    (`swap_power_trace_ints` on [[0, e'], [f', 0]], whose square has the
    trace 2 e' f') is the full `wedge_into` product, and the traces of
    M^k, k <= 4, for a 2x2 matrix M of such elements are those of the full
    trace-only products."""
    e, f = _swap_fixed(elems[0]), _swap_fixed(elems[1])
    pair = OddMatrix(_ALG3, [[{}, e], [f, {}]], den)
    assert swap_power_trace_ints([None, pair], 2) == (
        addmul({}, wedge_into({}, e, f), 2), den * den)
    m = OddMatrix(_ALG3, [[_swap_fixed(t) for t in elems[2:4]],
                          [_swap_fixed(t) for t in elems[4:]]], den)
    pows = [OddMatrix.identity(_ALG3, 2), m, m.matmul(m)]
    for k in (1, 2, 3, 4):
        h = k // 2
        assert swap_power_trace_ints(pows, k) == \
            pows[h].trace_product_ints(pows[k - h]), k


def test_swap_power_trace_refuses_xi_eta():
    """An entry holding xi^eta, on which the swap is not defined, raises
    rather than being traced."""
    alg = GrassmannAlgebra(2)
    both = (1 << alg.xi_bit) | (1 << alg.eta_bit)
    m = OddMatrix(alg, [[{both: 1}]], 1)
    for k in (2, 3):
        with pytest.raises(ValueError):
            swap_power_trace_ints([OddMatrix.identity(alg, 1), m,
                                   m.matmul(m)], k)


@settings(max_examples=40, deadline=None)
@given(_rational_matrices())
def test_matrix_swap_is_entrywise(case):
    """OddMatrix.swap swaps every entry and keeps the denominator, and it
    commutes with the product (the swap is an algebra automorphism)."""
    (rows_a, rows_b), _ = case
    # the swap is defined without xi/eta
    aux = (1 << _ALG3.xi_bit) | (1 << _ALG3.eta_bit)
    rows_a, rows_b = ([[ExtElement(_ALG3, {m: c for m, c in e.terms.items()
                                           if not m & aux}) for e in row]
                       for row in rows] for rows in (rows_a, rows_b))
    a, b = odd_matrix(_ALG3, rows_a), odd_matrix(_ALG3, rows_b)
    sa = a.swap()
    assert sa.den == a.den
    prod, sprod = a.matmul(b).swap(), sa.matmul(b.swap())
    for i in range(a.size):
        for j in range(a.size):
            assert entry(sa, i, j) == swap_xy(rows_a[i][j])
            assert entry(prod, i, j) == entry(sprod, i, j)


def test_size_mismatch():
    alg = GrassmannAlgebra(2)
    with pytest.raises(SizeMismatch):
        OddMatrix.identity(alg, 2).matmul(OddMatrix.identity(alg, 3))
    # zip would silently drop the extra row or column
    with pytest.raises(SizeMismatch):
        OddMatrix.identity(alg, 2).trace_product_ints(
            OddMatrix.identity(alg, 3))
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
