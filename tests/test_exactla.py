import random
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from chiralring import exactla
from chiralring.exterior import ExtElement, GrassmannAlgebra
from chiralring.exactla import (Echelon, FieldMode, Subspace, span,
                                kernel_basis, guard_component,
                                ComponentTooLarge, InhomogeneousInput,
                                WrongComponent, random_prime, _is_prime,
                                exact_primes, rational_reconstruction,
                                CertificateFailure, CERTIFICATE_PRIMES)
from conftest import FractionRREF, dense_rref, minimal_polynomial


def _random_rows(rng, nrows, ncols, density=0.4):
    rows = []
    for _ in range(nrows):
        row = [Fraction(rng.randint(-5, 5)) if rng.random() < density
               else Fraction(0) for _ in range(ncols)]
        rows.append(row)
    return rows


def test_rref_matches_dense_oracle():
    rng = random.Random(10)
    for trial in range(40):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
        rows = _random_rows(rng, nrows, ncols)
        ech = Echelon()
        for r in rows:
            ech.insert({j: v for j, v in enumerate(r) if v})
        dense, pivots = dense_rref(rows, ncols)
        assert ech.rank == len(pivots)
        assert [min(row) for row in ech.basis_rows()] == pivots
        # row content identical (canonical RREF is unique)
        assert ech.basis_rows() == [
            {j: v for j, v in enumerate(dense_row) if v}
            for dense_row in dense]


def test_reechelonizing_is_noop():
    rng = random.Random(14)
    rows = _random_rows(rng, 8, 6)
    ech = Echelon()
    for r in rows:
        ech.insert({j: v for j, v in enumerate(r) if v})
    again = Echelon()
    for row in ech.basis_rows():
        again.insert(row)
    assert again.rows == ech.rows


def test_contains_every_input():
    rng = random.Random(15)
    alg = GrassmannAlgebra(3)
    masks = alg.component_masks(1, 1)
    from chiralring.exterior import ExtElement
    from fractions import Fraction as F
    elements = []
    for _ in range(6):
        terms = {m: F(rng.randint(-3, 3)) for m in rng.sample(masks, 3)}
        elements.append(ExtElement(alg, {m: c for m, c in terms.items() if c}))
    sub = span(elements, component=(1, 1))
    for el in elements:
        assert sub.contains(el)


def test_rank_independent_of_order():
    rng = random.Random(11)
    rows = _random_rows(rng, 10, 6)
    base = None
    for _ in range(5):
        rng.shuffle(rows)
        ech = Echelon()
        for r in rows:
            ech.insert({j: v for j, v in enumerate(r) if v})
        canon = ech.basis_rows()
        if base is None:
            base = canon
        assert canon == base


def test_span_contains_and_reconstruction():
    alg = GrassmannAlgebra(3)
    x1y1 = alg.x(0).wedge(alg.y(0))
    x2y2 = alg.x(1).wedge(alg.y(1))
    sub = span([x1y1, x1y1.scale(2)], component=(1, 1))
    assert sub.rank == 1
    assert sub.contains(x1y1)
    assert not sub.contains(x2y2)
    empty = span([], component=(1, 1), columns=alg.component_masks(1, 1))
    assert empty.rank == 0
    # reconstruction: reduce-to-zero implies an exact combination exists
    sub2 = span([x1y1 + x2y2, x2y2], component=(1, 1))
    v = x1y1.scale(3) + x2y2.scale(5)
    assert sub2.contains(v)
    rows = sub2.echelon.basis_rows()
    cols = sub2.columns
    coords = {cols.index(m): c for m, c in v.terms.items()}
    recon = {}
    for row in rows:
        piv = min(row)
        c = coords.get(piv, Fraction(0))
        for j, val in row.items():
            recon[j] = recon.get(j, 0) + c * val
    assert {j: v for j, v in recon.items() if v} == coords


def test_span_rejects_inhomogeneous():
    alg = GrassmannAlgebra(3)
    bad = alg.x(0).wedge(alg.y(0)) + alg.x(0).wedge(alg.x(1))
    with pytest.raises(InhomogeneousInput):
        span([bad], component=(1, 1), columns=alg.component_masks(1, 1))


def test_wrong_component():
    alg = GrassmannAlgebra(3)
    sub = span([alg.x(0).wedge(alg.y(0))], component=(1, 1))
    with pytest.raises(WrongComponent):
        sub.contains(alg.x(0).wedge(alg.x(1)))


def test_quotient_dim():
    alg = GrassmannAlgebra(3)
    elements = [alg.x(i).wedge(alg.y(i)) for i in range(3)]
    sub = span(elements, component=(1, 1))
    assert sub.rank == 3


def test_memory_guard():
    alg = GrassmannAlgebra(14)
    with pytest.raises(ComponentTooLarge):
        guard_component(alg, 5, 5, cap=10 ** 5)
    # the cap guards what is built in every mode
    columns = alg.component_masks(1, 1)
    elements = [alg.x(0).wedge(alg.y(0))]
    with pytest.raises(ComponentTooLarge):
        span(elements, component=(1, 1), mode=FieldMode.modular(seed=1),
             cap=len(columns) - 1)
    assert span(elements, component=(1, 1), mode=FieldMode.modular(seed=1),
                cap=len(columns)).rank == 1


def test_field_mode_primes():
    mode = FieldMode.modular(seed=42)
    assert len(mode.primes) == 2
    for p in mode.primes:
        assert p > 2 ** 30 and _is_prime(p)
    assert FieldMode.modular(seed=42).primes == mode.primes  # reproducible
    assert FieldMode.exact().label() == "exact"
    assert FieldMode.exact().primes == ()


def _mod(v, p):
    v = Fraction(v)
    return v.numerator * pow(v.denominator, -1, p) % p


def test_modular_rank_matches_exact():
    rng = random.Random(12)
    for _ in range(20):
        rows = _random_rows(rng, 8, 6)
        exact = Echelon()
        for r in rows:
            exact.insert({j: v for j, v in enumerate(r) if v})
        mode = FieldMode.modular(seed=rng.randint(0, 10 ** 6))
        ech = Echelon(mode.primes)
        for r in rows:
            ech.insert({j: v for j, v in enumerate(r) if v})
        assert ech.rank == exact.rank
        assert ech.basis_rows() == exact.basis_rows()
        # the residues read back from the certified RREF are its image
        # mod the first given prime
        p = mode.primes[0]
        assert ech.p == p
        assert ech.rows == {min(row): {j: _mod(v, p) for j, v in row.items()
                                       if j != min(row)}
                            for row in exact.basis_rows()}


def test_modular_membership_with_fractions():
    alg = GrassmannAlgebra(3)
    x1y1 = alg.x(0).wedge(alg.y(0)).scale(Fraction(2, 3))
    queries = [x1y1.scale(Fraction(7, 11)), alg.x(1).wedge(alg.y(1)),
               x1y1 + alg.x(1).wedge(alg.y(1))]
    exact = span([x1y1], component=(1, 1))
    sub = span([x1y1], component=(1, 1), mode=FieldMode.modular(seed=5))
    assert [sub.contains(q) for q in queries] == \
        [exact.contains(q) for q in queries] == [True, False, False]


def test_modular_prime_collapse_gives_exact_rank():
    """A row that collapses mod the first given prime only: modular mode
    takes a further prime and answers as exact mode does."""
    alg = GrassmannAlgebra(3)
    mode = FieldMode.modular(seed=3)
    p1 = mode.primes[0]
    x1y1 = alg.x(0).wedge(alg.y(0))
    x2y2 = alg.x(1).wedge(alg.y(1))
    rows = [x1y1 + x2y2, x1y1 + x2y2.scale(1 + p1)]
    sub = Subspace(alg.component_masks(1, 1), mode, (1, 1))
    exact = Subspace(alg.component_masks(1, 1), bidegree=(1, 1))
    assert sub.insert_all(rows) == exact.insert_all(rows) == 2
    assert sub.contains(x2y2) and exact.contains(x2y2)
    assert sub.echelon.basis_rows() == exact.echelon.basis_rows()
    assert sub.echelon.p != p1


def test_kernel_basis():
    # kernel of [[1,2,0],[0,0,1]] is spanned by (-2,1,0)
    rows = [{0: Fraction(1), 1: Fraction(2)}, {2: Fraction(1)}]
    basis = kernel_basis(rows, 3)
    assert len(basis) == 1
    vec = basis[0]
    for row in rows:
        assert sum(row.get(j, 0) * vec.get(j, 0) for j in range(3)) == 0


def test_kernel_random_dimension():
    rng = random.Random(13)
    for _ in range(20):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 7)
        rows = _random_rows(rng, nrows, ncols)
        sparse = [{j: v for j, v in enumerate(r) if v} for r in rows]
        basis = kernel_basis(sparse, ncols)
        _, pivots = dense_rref(rows, ncols)
        assert len(basis) == ncols - len(pivots)
        for vec in basis:
            for row in sparse:
                assert sum(row.get(j, 0) * vec.get(j, 0)
                           for j in range(ncols)) == 0


def test_minimal_polynomial_diagonal():
    # operator diag(1, 1, 3) has minimal polynomial (t-1)(t-3)
    def apply_op(vec):
        eig = {0: 1, 1: 1, 2: 3}
        return {j: v * eig[j] for j, v in vec.items()}
    basis = [{0: Fraction(1)}, {1: Fraction(1)}, {2: Fraction(1)}]
    poly = minimal_polynomial(apply_op, basis, 3)
    assert poly == [Fraction(3), Fraction(-4), Fraction(1)]


def test_random_prime():
    rng = random.Random(99)
    p = random_prime(rng)
    assert p > 2 ** 30 and _is_prime(p)


def test_rational_reconstruction():
    m = 2 ** 31 - 1
    for n, d in ((0, 1), (5, 1), (-1, 1), (1449, 54), (-32767, 32765)):
        f = Fraction(n, d)
        a = f.numerator * pow(f.denominator, -1, m) % m
        assert rational_reconstruction(a, m) == (f.numerator, f.denominator)
    # beyond the bound sqrt(m/2) no fraction is returned, or a wrong one
    # that the certificate rejects
    big = Fraction(10 ** 6, 7)
    a = big.numerator * pow(big.denominator, -1, m) % m
    assert rational_reconstruction(a, m) != (10 ** 6, 7)


def _primes_below(n):
    """A stand-in for exact_primes() whose sequence starts below n."""
    def primes():
        p = n
        while True:
            p -= 1
            if _is_prime(p):
                yield p
    return primes


def _oracle_kernel(rref, ncols):
    """Canonical kernel basis read off a FractionRREF."""
    basis = []
    for free in range(ncols):
        if free in rref.rows:
            continue
        vec = {free: Fraction(1)}
        for piv, row in rref.rows.items():
            if row.get(free):
                vec[piv] = -row[free]
        basis.append(vec)
    return basis


FIRST_PRIME = next(exact_primes())
GIVEN_PRIME = FieldMode.modular(seed=8).primes[0]


def _unlucky(first):
    """(rows, why) whose certificate fails over the prime first."""
    return [
        ([{0: 1, 1: 1}, {0: 1, 1: 1 + first}],
         "dependent mod the first prime only"),
        ([{0: Fraction(1, first), 1: 1}, {0: 1}],
         "a denominator divisible by the first prime"),
        ([{0: 1, 1: Fraction(10 ** 6, 7)}, {1: 1, 2: Fraction(-3, 10 ** 5)}],
         "RREF entries beyond the one-prime bound"),
    ]


@pytest.mark.parametrize("start, rows, why", [
    pytest.param((), rows, why, id="rows%d-%s" % (i, why))
    for i, (rows, why) in enumerate(_unlucky(FIRST_PRIME))] + [
    pytest.param((GIVEN_PRIME,), rows, why, id="given-prime-%s" % why)
    for rows, why in _unlucky(GIVEN_PRIME)] + [
    pytest.param((FIRST_PRIME,), rows, why,
                 id="given-prime-also-in-exact-primes-%s" % why)
    for rows, why in _unlucky(FIRST_PRIME)])
def test_exact_mode_takes_next_prime(start, rows, why):
    """Each case fails its first certificate, over the first given prime or
    else the first of exact_primes(); the answer must still be the exact
    RREF, certified with the second distinct prime.  A given prime that is
    also in exact_primes() is not taken twice (the CRT of a prime with
    itself would fail)."""
    ech = Echelon(start)
    for r in rows:
        ech.insert(r)
    oracle = FractionRREF()
    for r in rows:
        oracle.insert(r)
    assert ech.basis_rows() == oracle.basis_rows(), why
    assert ech.rank == oracle.rank
    first, second = islice(exactla._primes(start), 2)
    assert first != second
    assert ech.p == second, why


def test_certificate_gives_up_after_its_primes(monkeypatch):
    """A certificate that can never pass raises instead of taking primes
    forever."""
    monkeypatch.setattr(exactla, "_in_span", lambda u, rref: False)
    ech = Echelon()
    ech.insert({0: 1, 1: Fraction(2, 3)})
    with pytest.raises(CertificateFailure):
        ech.rank
    assert ech.p == list(islice(exact_primes(), CERTIFICATE_PRIMES))[-1]


def _entries(first):
    """Rationals with small and large parts, denominators divisible by the
    first prime, and explicit zeros."""
    return st.one_of(
        st.integers(-5, 5).map(Fraction),
        st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
        st.builds(lambda n, k: Fraction(n, first * k),
                  st.integers(-3, 3), st.integers(1, 2)),
        st.builds(Fraction, st.integers(32768, 10 ** 12) |
                  st.integers(-10 ** 12, -32768), st.integers(1, 50)))


@st.composite
def _rational_system(draw, first):
    """(ncols, rows, split, queries): rows as coordinate dicts, some of
    them copies of an earlier row that agree with it mod the first prime
    only; queries mix combinations of rows and free vectors."""
    ncols = draw(st.integers(1, 6))
    row = st.dictionaries(st.integers(0, ncols - 1), _entries(first),
                          max_size=ncols)
    rows = draw(st.lists(row, min_size=1, max_size=7))
    for _ in range(draw(st.integers(0, 2))):
        base = draw(st.sampled_from(rows))
        if base:
            j = draw(st.sampled_from(sorted(base)))
            rows.append({**base, j: base[j] * (1 + first)})
    coeffs = st.lists(st.integers(-3, 3).map(Fraction), min_size=len(rows),
                      max_size=len(rows))
    queries = []
    for cs in draw(st.lists(coeffs, max_size=3)):
        q = {}
        for c, r in zip(cs, rows):
            exactla.addmul(q, r, c)
        queries.append(q)
    queries += draw(st.lists(row, max_size=3))
    split = draw(st.integers(0, len(rows)))
    return ncols, rows, split, queries


_ALG = GrassmannAlgebra(3)
_COLUMNS = _ALG.component_masks(1, 1)
_SMALL = list(islice(_primes_below(1 << 15)(), 2))


@pytest.mark.parametrize("below, start", [
    pytest.param(1 << 31, (), id="primes-below-2^31"),
    pytest.param(1 << 15, (), id="primes-below-2^15"),
    pytest.param(1 << 31, (GIVEN_PRIME,), id="given-prime"),
    pytest.param(1 << 15, (_SMALL[1], _SMALL[0]),
                 id="given-primes-also-in-exact-primes-below-2^15")])
@settings(max_examples=60)
@given(data=st.data())
def test_certified_exact_mode_matches_fraction_oracle(below, start, data):
    """Certified exact mode against the Fraction RREF on random sparse
    rational rows: RREF, rank, kernel, membership and insert_all growth.
    The primes are those of start, then exact_primes() (a stand-in taking
    the primes below `below`); the rows are unlucky for the first prime
    taken.  Below 2**15 almost every RREF entry needs several primes."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactla, "exact_primes", _primes_below(below))
        first = next(exactla._primes(start))
        ncols, rows, split, queries = data.draw(_rational_system(first))
        oracle = FractionRREF()
        ech = Echelon(start)
        for r in rows:
            oracle.insert(r)
            ech.insert(r)
        assert ech.basis_rows() == oracle.basis_rows()
        assert ech.rank == oracle.rank
        assert kernel_basis(rows, ncols) == _oracle_kernel(oracle, ncols)
        for q in queries + rows:
            assert ech.contains(q) == oracle.contains(q)

        def elem(vec):
            return ExtElement(_ALG, {_COLUMNS[j]: c for j, c in vec.items()})

        sub = Subspace(_COLUMNS[:ncols], FieldMode(start), (1, 1))
        staged = FractionRREF()
        for batch in (rows[:split], rows[split:]):
            want = sum(1 for r in batch if staged.insert(r))
            assert sub.insert_all(elem(r) for r in batch) == want
            for q in queries:
                assert sub.contains(elem(q)) == staged.contains(q)
        assert sub.echelon.basis_rows() == oracle.basis_rows()
