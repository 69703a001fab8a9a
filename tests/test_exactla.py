import random
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from chiralring import exactla
from chiralring.exterior import GrassmannAlgebra
from chiralring.cdsw.core import IdealSpan
from chiralring.exterior import ComponentTooLarge, WrongComponent
from chiralring.exactla import (Echelon, FieldMode, kernel_basis, _is_prime,
                                _fractions, exact_primes,
                                rational_reconstruction,
                                CertificateFailure, CERTIFICATE_PRIMES,
                                PRIME_BOUND)
from conftest import (dense_rref, FractionRREF, gen_x, gen_y,
                      InhomogeneousInput, kernel_of, minimal_polynomial,
                      primes_below, seed_primes, span)


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
    assert again.basis_rows() == ech.basis_rows()
    assert again.rank == ech.rank


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
        assert sub.contains(el.terms)


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
    x1y1 = gen_x(alg, 0).wedge(gen_y(alg, 0))
    x2y2 = gen_x(alg, 1).wedge(gen_y(alg, 1))
    sub = span([x1y1, x1y1.scale(2)], component=(1, 1))
    assert sub.rank == 1
    assert sub.contains(x1y1.terms)
    assert not sub.contains(x2y2.terms)
    empty = span([], component=(1, 1), columns=alg.component_masks(1, 1))
    assert empty.rank == 0
    # reconstruction: reduce-to-zero implies an exact combination exists
    sub2 = span([x1y1 + x2y2, x2y2], component=(1, 1))
    v = x1y1.scale(3) + x2y2.scale(5)
    assert sub2.contains(v.terms)
    # the RREF is read in the span's own column order, through place
    rows = sub2.parts[0].basis_rows()
    cols = sub2.columns
    coords = {sub2.place[0][cols.index(m)]: c for m, c in v.terms.items()}
    recon = {}
    for row in rows:
        piv = min(row)
        c = coords.get(piv, Fraction(0))
        for j, val in row.items():
            recon[j] = recon.get(j, 0) + c * val
    assert {j: v for j, v in recon.items() if v} == coords


def test_span_rejects_inhomogeneous():
    alg = GrassmannAlgebra(3)
    bad = (gen_x(alg, 0).wedge(gen_y(alg, 0))
           + gen_x(alg, 0).wedge(gen_x(alg, 1)))
    with pytest.raises(InhomogeneousInput):
        span([bad], component=(1, 1), columns=alg.component_masks(1, 1))


def test_wrong_component():
    alg = GrassmannAlgebra(3)
    sub = span([gen_x(alg, 0).wedge(gen_y(alg, 0))], component=(1, 1))
    with pytest.raises(WrongComponent):
        sub.contains(gen_x(alg, 0).wedge(gen_x(alg, 1)).terms)


def test_quotient_dim():
    alg = GrassmannAlgebra(3)
    elements = [gen_x(alg, i).wedge(gen_y(alg, i)) for i in range(3)]
    sub = span(elements, component=(1, 1))
    assert sub.rank == 3


def test_memory_guard():
    with pytest.raises(ComponentTooLarge):
        GrassmannAlgebra(14, cap=10 ** 5).guard(5, 5)
    # the algebra's cap guards what is built: (1,1) has 14 * 14 monomials
    small = GrassmannAlgebra(14, 14 * 14 - 1)
    alg = GrassmannAlgebra(14, 14 * 14)
    with pytest.raises(ComponentTooLarge):
        span([gen_x(small, 0).wedge(gen_y(small, 0))], component=(1, 1))
    assert span([gen_x(alg, 0).wedge(gen_y(alg, 0))],
                component=(1, 1)).rank == 1


def test_modular_rank_matches_exact(monkeypatch):
    """Elimination over two primes drawn from a seed, then those of
    exact_primes(), gives the rank and RREF of the Fraction reference,
    certified over the first of them."""
    rng = random.Random(12)
    for _ in range(20):
        rows = _random_rows(rng, 8, 6)
        oracle = FractionRREF()
        for r in rows:
            oracle.insert({j: v for j, v in enumerate(r) if v})
        first = seed_primes(rng.randint(0, 10 ** 6), 2)
        monkeypatch.setattr(exactla, "exact_primes",
                            primes_below(PRIME_BOUND, first))
        ech = Echelon()
        for r in rows:
            ech.insert({j: v for j, v in enumerate(r) if v})
        assert ech.rank == oracle.rank
        assert ech.basis_rows() == oracle.basis_rows()
        assert ech.p == first[0]


def test_modular_membership_with_fractions():
    """Rows and queries with fractional coefficients: denominators are
    cleared before the elimination mod p, so membership is exact."""
    alg = GrassmannAlgebra(3)
    x1y1 = gen_x(alg, 0).wedge(gen_y(alg, 0)).scale(Fraction(2, 3))
    queries = [x1y1.scale(Fraction(7, 11)), gen_x(alg, 1).wedge(gen_y(alg, 1)),
               x1y1 + gen_x(alg, 1).wedge(gen_y(alg, 1))]
    sub = span([x1y1], component=(1, 1))
    assert [sub.contains(q.terms) for q in queries] == [True, False, False]


def test_modular_prime_collapse_gives_exact_rank(monkeypatch):
    """A row that collapses mod the first prime only: the subspace takes a
    further prime and gives the exact rank, growth and membership."""
    alg = GrassmannAlgebra(3)
    p1 = seed_primes(3, 1)[0]
    monkeypatch.setattr(exactla, "exact_primes",
                        primes_below(PRIME_BOUND, [p1]))
    x1y1 = gen_x(alg, 0).wedge(gen_y(alg, 0))
    x2y2 = gen_x(alg, 1).wedge(gen_y(alg, 1))
    rows = [x1y1 + x2y2, x1y1 + x2y2.scale(1 + p1)]
    sub = IdealSpan(alg.component_masks(1, 1), (1, 1), [r.terms for r in rows])
    assert sub.rank == 2
    assert sub.contains(x1y1.terms) and sub.contains(x2y2.terms)
    assert sub.parts[0].p != p1


def test_kernel_basis():
    # kernel of [[1,2,0],[0,0,1]] is spanned by (-2,1,0)
    rows = [{0: Fraction(1), 1: Fraction(2)}, {2: Fraction(1)}]
    basis = _fractions(kernel_basis(rows, 3))
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
        basis = _fractions(kernel_basis(sparse, ncols))
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
    """FieldMode.modular(seed) draws two distinct primes in [2**30, 2**31),
    the same ones for the same seed; FieldMode.exact() names none."""
    primes = FieldMode.modular(99).primes
    assert len(set(primes)) == 2
    assert all(2 ** 30 < p < 2 ** 31 and _is_prime(p) for p in primes)
    assert FieldMode.modular(99).primes == primes
    assert FieldMode.exact().primes == ()


def test_exact_primes_are_one_digit():
    """Every prime a certificate may take is below 2**30, one CPython digit,
    and they come largest first, each once."""
    primes = list(islice(exact_primes(), CERTIFICATE_PRIMES))
    assert PRIME_BOUND == 1 << 30
    assert all(_is_prime(p) and p < 1 << 30 for p in primes)
    assert primes == sorted(set(primes), reverse=True)
    assert primes == list(islice(primes_below(PRIME_BOUND)(),
                                 CERTIFICATE_PRIMES))


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


def _oracle_kernel(rref, ncols):
    """The RREF of the kernel of a FractionRREF's (or a certified Echelon's)
    rows, by the FractionRREF oracle: the free-column vectors of
    `kernel_of`, reduced once more."""
    kernel = FractionRREF()
    for vec in kernel_of(rref, ncols):
        kernel.insert(vec)
    return kernel.basis_rows()


FIRST_PRIME = next(exact_primes())
GIVEN_PRIME = seed_primes(8, 1)[0]


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


@pytest.mark.parametrize("first, rows, why", [
    pytest.param((), rows, why, id="rows%d-%s" % (i, why))
    for i, (rows, why) in enumerate(_unlucky(FIRST_PRIME))] + [
    pytest.param((GIVEN_PRIME,), rows, why, id="given-prime-%s" % why)
    for rows, why in _unlucky(GIVEN_PRIME)])
def test_exact_mode_takes_next_prime(monkeypatch, first, rows, why):
    """Each case fails its first certificate, over the first prime of
    exact_primes() (a stand-in that takes the given primes first); the
    answer must still be the exact RREF, certified with the second prime."""
    monkeypatch.setattr(exactla, "exact_primes",
                        primes_below(PRIME_BOUND, first))
    ech = Echelon()
    for r in rows:
        ech.insert(r)
    oracle = FractionRREF()
    for r in rows:
        oracle.insert(r)
    assert ech.basis_rows() == oracle.basis_rows(), why
    assert ech.rank == oracle.rank
    assert ech.p == list(islice(exactla.exact_primes(), 2))[1], why


def test_certificate_gives_up_after_its_primes(monkeypatch):
    """A certificate that can never pass raises after CERTIFICATE_PRIMES
    primes instead of taking primes forever.  p names the prime the
    certified RREF came from, so with none it is still the first prime,
    the one the rows were loaded over."""
    primes = []
    eliminations = exactla._eliminations

    def recording(batch, width, primes_):
        for table in eliminations(batch, width, primes_):
            primes.append(table[2])
            yield table

    monkeypatch.setattr(exactla, "_normal_form", lambda u, rref: ({0: 1}, 1))
    monkeypatch.setattr(exactla, "_eliminations", recording)
    ech = Echelon()
    ech.insert({0: 1, 1: Fraction(2, 3)})
    with pytest.raises(CertificateFailure):
        ech.rank
    # the first prime's table is the one loaded, the rest are eliminated
    assert primes == list(islice(exact_primes(), 1, CERTIFICATE_PRIMES))
    assert ech.p == next(exact_primes())


@pytest.mark.parametrize("tamper", ["_lift", "rational_reconstruction"])
def test_kernel_rejects_a_wrong_lift(monkeypatch, tamper):
    """A kernel lift over the first prime that has the right residues but
    is wrong over Q (each numerator moved by den times the modulus) fails
    E.K = 0; the next prime is combined with the first by CRT and the exact
    kernel is certified."""
    first = FIRST_PRIME
    moduli = []
    if tamper == "_lift":
        lift = exactla._lift

        def tampered(table, m):
            moduli.append(m)
            out = lift(table, m)
            if out and m == first:
                out = {piv: ({j: v + m * den for j, v in row.items()}, den)
                       for piv, (row, den) in out.items()}
            return out
    else:
        reconstruct = exactla.rational_reconstruction

        def tampered(a, m):
            moduli.append(m)
            n, d = reconstruct(a, m)
            return (n + m * d, d) if m == first else (n, d)
    monkeypatch.setattr(exactla, tamper, tampered)
    rows = [{0: Fraction(1), 1: Fraction(2)}, {2: Fraction(1)}]
    assert _fractions(kernel_basis(rows, 3)) == [
        {0: Fraction(1), 1: Fraction(-1, 2)}]
    second = list(islice(exact_primes(), 2))[1]
    assert sorted(set(moduli)) == [first, first * second]


def test_kernel_takes_next_prime_when_rank_drops(monkeypatch):
    """Rows dependent mod the first prime only: the kernel mod that prime
    is larger, so the lift of its RREF and the lift of its vectors both
    fail E.K = 0, and the next prime, of higher rank, replaces it and gives
    the exact kernel."""
    moduli = []
    lift = exactla._lift

    def recording(table, m):
        moduli.append(m)
        return lift(table, m)

    monkeypatch.setattr(exactla, "_lift", recording)
    rows, why = _unlucky(FIRST_PRIME)[0]
    oracle = FractionRREF()
    for r in rows:
        oracle.insert(r)
    assert _fractions(kernel_basis(rows, 3)) == _oracle_kernel(oracle, 3) == [
        {2: Fraction(1)}]
    first, second = islice(exact_primes(), 2)
    assert moduli == [first, first, second]


def test_kernel_beyond_one_prime_eliminates_once(monkeypatch):
    """A kernel whose RREF has denominators beyond the one-prime bound
    (the determinant 39,999) while the equations' RREF has small entries:
    the kernel's vectors lift over the first prime and E kills them, so
    the second prime's table is read from them, the equations are reduced
    once, and the CRT lift over both primes is the exact kernel."""
    calls = {"reduce": 0}
    moduli = []
    reduce, lift = exactla._reduce, exactla._lift

    def counting_reduce(u, rows, p):
        calls["reduce"] += 1
        return reduce(u, rows, p)

    def recording(table, m):
        moduli.append(m)
        return lift(table, m)

    monkeypatch.setattr(exactla, "_reduce", counting_reduce)
    monkeypatch.setattr(exactla, "_lift", recording)
    rows = [{0: 1, 2: 200, 3: 1}, {1: 1, 2: 1, 3: 200}]
    oracle = FractionRREF()
    for r in rows:
        oracle.insert(r)
    kernel = _oracle_kernel(oracle, 4)
    assert max(v.denominator for row in kernel for v in row.values()) == 39999
    assert _fractions(kernel_basis(rows, 4)) == kernel
    first, second = islice(exact_primes(), 2)
    assert moduli == [first, first, first * second]
    # two equations once, and two kernel vectors over each prime
    assert calls["reduce"] == 2 + 2 + 2


def test_kernel_gives_up_after_its_primes(monkeypatch):
    """Rows dependent mod each of the first CERTIFICATE_PRIMES primes: the
    kernel is never certified and kernel_basis raises; one more prime
    certifies it."""
    big = 1
    for p in islice(exact_primes(), CERTIFICATE_PRIMES):
        big *= p
    rows = [{0: 1, 1: 1}, {0: 1, 1: 1 + big}]
    with pytest.raises(CertificateFailure):
        kernel_basis(rows, 3)
    monkeypatch.setattr(exactla, "CERTIFICATE_PRIMES", CERTIFICATE_PRIMES + 1)
    assert _fractions(kernel_basis(rows, 3)) == [{2: Fraction(1)}]


def test_full_rank_stops_reducing(monkeypatch):
    """An Echelon of known width stops reducing rows once its rank mod p
    is the width, and certifies the identity RREF with no lift; a row
    dependent mod the first prime only still takes the next prime.  Once
    read, it takes no further row."""
    calls = {"reduce": 0, "lift": 0}
    reduce, lift = exactla._reduce, exactla._lift

    def counting_reduce(u, rows, p):
        calls["reduce"] += 1
        return reduce(u, rows, p)

    def counting_lift(table, m):
        calls["lift"] += 1
        return lift(table, m)

    monkeypatch.setattr(exactla, "_reduce", counting_reduce)
    monkeypatch.setattr(exactla, "_lift", counting_lift)
    rng = random.Random(17)
    rows = [{j: v for j, v in enumerate(r) if v}
            for r in _random_rows(rng, 30, 6, density=0.6)]
    ech = Echelon(6)
    ech.insert_all(rows)
    assert ech.rank == 6
    assert calls["reduce"] < len(rows) and calls["lift"] == 0
    assert ech.basis_rows() == [{j: Fraction(1)} for j in range(6)]
    assert all(ech.contains(r) for r in rows)
    with pytest.raises(ValueError):
        ech.insert({0: 1})
    assert ech.rank == 6
    oracle = FractionRREF()
    for r in rows:
        oracle.insert(r)
    assert oracle.rank == 6

    ech = Echelon(2)
    for r in _unlucky(FIRST_PRIME)[0][0]:
        ech.insert(r)
    assert ech.rank == 2
    assert ech.p == list(islice(exact_primes(), 2))[1]


def _planted(rng, width, cols, extra):
    """Rows lower-triangular over the columns cols, in that order, each
    with a nonzero entry on its own column and random ints (zeros
    included) on the columns before it, then `extra` random rows over all
    width columns; shuffled, with explicit zero entries."""
    rows = [{**{c: rng.randint(-3, 3) for c in cols[:i]},
             col: rng.choice([-2, -1, 1, 2, 5])} for i, col in enumerate(cols)]
    rows += [{j: rng.randint(-3, 3) for j in range(width)
              if rng.random() < 0.3} for _ in range(extra)]
    rng.shuffle(rows)
    return rows


@st.composite
def _peel_system(draw):
    """(width, rows, planted): random sparse rows over width columns, with
    explicit zero entries, among which rows lower-triangular over the
    first `planted` columns of a random permutation, each nonzero on its
    own column (see `_planted`)."""
    width = draw(st.integers(1, 8))
    planted = draw(st.integers(0, width))
    cols = draw(st.permutations(range(width)))[:planted]
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    rows = _planted(rng, width, cols, draw(st.integers(0, 4)))
    entry = st.one_of(st.integers(-3, 3),
                      st.builds(Fraction, st.integers(-3, 3),
                                st.integers(1, 4)))
    rows += draw(st.lists(st.dictionaries(st.integers(0, width - 1), entry,
                                          max_size=3), max_size=6))
    return width, draw(st.permutations(rows)), planted


@settings(max_examples=300)
@given(system=_peel_system())
def test_peeling_never_takes_more_than_the_rank(system):
    """The columns peeling takes, against the Fraction RREF of the rows:
    never more than the rank, and every column only at rank width.  The
    planted triangular block is always taken, whatever the other rows.
    Explicit zero entries are dropped by `cleared` first: an entry that
    is zero must not count as a column of its row."""
    width, rows, planted = system
    rows = [exactla.cleared(r) for r in rows]
    assert all(all(r.values()) for r in rows)
    oracle = FractionRREF()
    for r in rows:
        oracle.insert(r)
    taken = exactla.peel([r for r in rows if r], width)
    assert planted <= taken <= oracle.rank
    if taken == width:
        assert oracle.rank == width


def test_peeling_takes_a_planted_transversal():
    """40 rows triangular over a permutation of 40 columns, with 30
    random rows and zeros mixed in: peeling takes every column, so the
    span has rank 40 and its certified RREF is the identity, as the
    elimination finds."""
    rng = random.Random(5)
    cols = list(range(40))
    rng.shuffle(cols)
    rows = [exactla.cleared(r) for r in _planted(rng, 40, cols, 30)]
    assert exactla.peel([r for r in rows if r], 40) == 40
    ech = Echelon(40)
    ech.insert_all(rows)
    proven = Echelon.identity(40)
    assert proven.rank == ech.rank == 40
    assert proven.basis_rows() == ech.basis_rows() == \
        [{j: Fraction(1)} for j in range(40)]
    assert all(proven.contains(r) for r in rows)
    with pytest.raises(ValueError):
        proven.insert({0: 1})
    # without the one-column row, every row has two columns left: peeling
    # takes none, although the rank is 39
    stuck = [dict.fromkeys(cols[:i + 1], 1) for i in range(1, 40)]
    assert exactla.peel(stuck, 40) == 0


_READS = {
    "rank": lambda ech: ech.rank,
    "normal_form": lambda ech: ech.normal_form({3: 1}),
    "contains": lambda ech: ech.contains({0: 1}),
    "basis_rows": lambda ech: ech.basis_rows(),
}


@pytest.mark.parametrize("read", sorted(_READS))
def test_certified_echelon_never_changes(read):
    """Whichever read comes first certifies the Echelon; after it insert,
    insert_all and reduce raise ValueError and leave its rank, RREF and
    memberships as they were."""
    rows = [{0: 1, 1: 2}, {1: Fraction(1, 3), 2: 1}, {0: 2, 1: 6, 2: 6}]
    queries = rows + [{3: 1}, {0: 1}, {0: 3, 1: Fraction(16, 3), 2: -2}]
    ech = Echelon(4)
    ech.insert_all(rows)
    _READS[read](ech)

    def answers():
        return (ech.rank, ech.basis_rows(),
                [ech.contains(q) for q in queries])

    before = answers()
    assert before[0] == 2
    assert before[2] == [True, True, True, False, False, True]
    for change in (ech.insert, ech.reduce, lambda v: ech.insert_all([v])):
        with pytest.raises(ValueError):
            change({3: 1})
    assert answers() == before


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


@pytest.mark.parametrize("below, first", [
    pytest.param(1 << 31, (), id="primes-below-2^31"),
    pytest.param(1 << 30, (), id="primes-below-2^30"),
    pytest.param(1 << 15, (), id="primes-below-2^15"),
    pytest.param(PRIME_BOUND, (GIVEN_PRIME,), id="given-prime")])
@settings(max_examples=60)
@given(data=st.data())
def test_certified_exact_mode_matches_fraction_oracle(below, first, data):
    """Certified elimination against the Fraction RREF on random sparse
    rational rows: RREF, rank, kernel, membership and insert_all growth.
    exact_primes() is a stand-in taking the primes of first, then the
    primes below `below`; the rows are unlucky for the first prime taken.
    Below 2**15 almost every RREF entry needs several primes."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactla, "exact_primes", primes_below(below, first))
        ncols, rows, split, queries = data.draw(
            _rational_system(next(exactla.exact_primes())))
        oracle = FractionRREF()
        ech = Echelon()
        for r in rows:
            oracle.insert(r)
            ech.insert(r)
        assert ech.basis_rows() == oracle.basis_rows()
        assert ech.rank == oracle.rank
        assert (_fractions(kernel_basis(rows, ncols))
                == _oracle_kernel(oracle, ncols))
        for q in queries + rows:
            assert ech.contains(q) == oracle.contains(q)

        def elem(vec):
            return {_COLUMNS[j]: c for j, c in vec.items()}

        # the span of the first batch, and its quotient by the second
        first = IdealSpan(_COLUMNS[:ncols], (1, 1),
                          [elem(r) for r in rows[:split]])
        staged = FractionRREF()
        assert first.rank == sum(1 for r in rows[:split] if staged.insert(r))
        for q in queries:
            assert first.contains(elem(q)) == staged.contains(q)
        grown = first.quotient(elem(r) for r in rows[split:])
        assert grown.rank == sum(1 for r in rows[split:] if staged.insert(r))
        for q in queries:
            assert (grown.contains(first.normal_form(elem(q))[0])
                    == staged.contains(q))
        # a span's RREF is the canonical one in its own column order
        sub = IdealSpan(_COLUMNS[:ncols], (1, 1), [elem(r) for r in rows])
        order = FractionRREF()
        for r in rows:
            order.insert({sub.place[0][j]: c for j, c in r.items()})
        assert sub.parts[0].basis_rows() == order.basis_rows()


class _CountingEchelon(Echelon):
    """An Echelon counting the inserts that grew its rank over GF(p)."""

    grew = 0

    def insert(self, vec):
        grew = super().insert(vec)
        self.grew += grew
        return grew


_SMALL = (st.integers(-5, 5).filter(bool).map(Fraction)
          | st.builds(Fraction, st.integers(-9, 9).filter(bool),
                      st.integers(1, 9)))


@settings(max_examples=80)
@given(data=st.data())
def test_batch_order_changes_no_answer(data):
    """insert_all (descending leading column) against inserting the same
    random sparse rational rows one by one in their given order: the same
    RREF, rank, membership and kernel, and as many inserts that grew as the
    rank.  Two batches into one Echelon give the same RREF, and the growth
    by the second is the rank of the first's quotient by it."""
    ncols = data.draw(st.integers(1, 8))
    row = st.dictionaries(st.integers(0, ncols - 1), _SMALL, max_size=ncols)
    rows = data.draw(st.lists(row, max_size=10))
    queries = data.draw(st.lists(row, max_size=3))
    split = data.draw(st.integers(0, len(rows)))
    given_order, batched = _CountingEchelon(), _CountingEchelon()
    for r in rows:
        given_order.insert(r)
    batched.insert_all(rows)
    assert batched.basis_rows() == given_order.basis_rows()
    assert batched.rank == given_order.rank
    assert batched.grew == given_order.grew == batched.rank
    for q in queries + rows:
        assert batched.contains(q) == given_order.contains(q)
    assert (_fractions(kernel_basis(rows, ncols))
            == _oracle_kernel(given_order, ncols))

    head, staged = Echelon(), _CountingEchelon()
    for r in rows[:split]:
        head.insert(r)
    staged.insert_all(rows[:split])
    staged.insert_all(rows[split:])
    assert staged.basis_rows() == batched.basis_rows()
    assert staged.grew == staged.rank == batched.rank

    def elem(vec):
        return {_COLUMNS[j]: c for j, c in vec.items()}

    first = IdealSpan(_COLUMNS[:ncols], (1, 1), map(elem, rows[:split]))
    assert first.rank == head.rank
    grown = first.quotient(map(elem, rows[split:]))
    assert grown.rank == staged.rank - head.rank


def test_batches_enter_by_descending_leading_column(monkeypatch):
    """IdealSpan and kernel_basis, and through them the ideal spans and
    the invariant kernels, hand every elimination its rows in
    non-increasing leading column: the rows that one residue table mod p
    reduces come in that order."""
    from chiralring.cdsw import Workspace
    from chiralring.cdsw.core import XX, XY, YY, ideal_weight_zero
    from chiralring.liemodule import invariants
    from chiralring.rootsystem import build_root_system, chevalley_data

    leads = {}
    reduce = exactla._reduce

    def recording(u, rows, p):
        # the table is kept, so that no later table takes its id
        leads.setdefault(id(rows), (rows, []))[1].append(min(u, default=-1))
        return reduce(u, rows, p)

    monkeypatch.setattr(exactla, "_reduce", recording)
    rng = random.Random(16)
    rows = [{j: v for j, v in enumerate(r) if v}
            for r in _random_rows(rng, 12, 9)]
    kernel_basis(rows, 9)
    IdealSpan(_COLUMNS, (1, 1),
              [{_COLUMNS[j]: c for j, c in r.items()} for r in rows if r])
    ws = Workspace(chevalley_data(build_root_system("A", 2)))
    ideal_weight_zero(ws, (XX, XY, YY), 2, 2)
    invariants(ws.action, 2, 2)
    # the kernels and spans above, each with rows to order
    assert len(leads) >= 6
    for _, seq in leads.values():
        assert seq == sorted(seq, reverse=True)
