"""Sparse exact arithmetic in the Grassmann algebra on two blocks of odd
generators x_1..x_N, y_1..y_N, optionally extended by two auxiliary odd
variables xi and eta.

A monomial is a subset of the generators, stored as a Python int bitmask
over the fixed order: x-block (bits 0..N-1), y-block (bits N..2N-1),
xi (bit 2N), eta (bit 2N+1).  ExtElement coefficients are exact
rationals: ints where the value is integral by construction (the powers
of S), Fractions otherwise (the public traces of `cdsw.hats`,
`liemodule.invariant_basis_elements`); elements never store zero
coefficients.  The checks themselves run on int terms dicts {mask: int}:
the relation families, the entries of an OddMatrix and the rows of
`cdsw.core.IdealSpan` are such dicts, with no ExtElement.  Bidegree:
an x-generator counts (1,0), a y-generator (0,1), xi counts (1,0) and eta
(0,1).

An OddMatrix is built from int terms dicts over one shared denominator
`den`, so matrix products run on ints, and its traces hand out (int terms,
den) (the `_ints` methods); a trace becomes Fractions only where a public
function returns an ExtElement (`cdsw.hats`).

The swap x_a <-> y_a (`swap_mask`, `swap_terms`, `OddMatrix.swap`) is the
algebra automorphism exchanging the two blocks: it sends x_A y_B to
y_A x_B = (-1)**(|A| |B|) x_B y_A, so on bidegree (p,q) it relabels each
monomial with the sign (-1)**(pq).

The algebra owns the monomial cap, and `GrassmannAlgebra.guard(p, q)` is
the one check against it; everything built over the algebra shares it.

The product of disjoint monomials m1 ^ m2 is the monomial m1 | m2 times
(-1)**k, where k counts the pairs of a generator of m1 above a generator
of m2 (the inversions of the merge).  Bit b of `suffix_parity(m1)` is the
parity of the bits of m1 above b, so k is odd exactly when
`(suffix_parity(m1) & m2).bit_count()` is: one mask per left monomial,
then one `&` and one popcount per pair, at any number of generators.

Sums accumulate in place on terms dicts: `addmul` (from exactla) adds a
scaled element and `wedge_into(out, t1, t2)` adds a product, so a matrix
entry or a trace is summed into one dict rather than copied per addend.
Products of even elements (traces, hats) are built by `even_monomial`,
each from a smaller one, the powers of one even element (S^k) by
`memo_power`, each from the one before, and `power_trace_ints` takes
Tr(M^k) from two half powers of M.
"""

from fractions import Fraction
from math import lcm

from .exactla import addmul


class SizeMismatch(ValueError):
    pass


class WrongComponent(ValueError):
    pass


class ComponentTooLarge(RuntimeError):
    pass


DEFAULT_MONOMIAL_CAP = 2 * 10 ** 6


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def suffix_parity(m):
    """Bit b is the parity of the bits of m above b, so the wedge of m
    with a disjoint monomial m2 has the sign
    (-1)**(suffix_parity(m) & m2).bit_count()."""
    s = m >> 1
    shift = 1
    while s >> shift:
        s ^= s >> shift
        shift <<= 1
    return s


class GrassmannAlgebra:
    """Context object fixing N (one odd generator block size per copy) and
    the monomial cap; cap None means DEFAULT_MONOMIAL_CAP."""

    def __init__(self, n, cap=None):
        self.n = n
        self.cap = DEFAULT_MONOMIAL_CAP if cap is None else cap
        self.xi_bit = 2 * n
        self.eta_bit = 2 * n + 1

    def gen_name(self, bit):
        if bit < self.n:
            return "x%d" % (bit + 1)
        if bit < 2 * self.n:
            return "y%d" % (bit - self.n + 1)
        return "xi" if bit == self.xi_bit else "eta"

    def component_masks(self, p, q):
        """All monomial masks of bidegree (p,q) without xi/eta, in canonical
        order (lexicographic on the generator index tuple): combinations
        come out in that order and every x bit precedes every y bit."""
        from itertools import combinations
        xs = [_mask_of(c) for c in combinations(range(self.n), p)]
        ys = [_mask_of(c) << self.n for c in combinations(range(self.n), q)]
        return [mx | my for mx in xs for my in ys]

    def component_dim(self, p, q):
        from math import comb
        return comb(self.n, p) * comb(self.n, q)

    def guard(self, p, q):
        """Raise ComponentTooLarge when the (p,q) component has more
        monomials than the cap."""
        dim = self.component_dim(p, q)
        if dim > self.cap:
            raise ComponentTooLarge("component (%d,%d) has %d monomials, "
                                    "cap %d" % (p, q, dim, self.cap))


def wedge_into(out, t1, t2):
    """out += t1 ^ t2 on terms dicts, in place; entries that cancel are
    dropped.  Returns out."""
    for m1, c1 in t1.items():
        p1 = suffix_parity(m1)
        for m2, c2 in t2.items():
            if m1 & m2:
                continue
            c = c1 * c2
            if (p1 & m2).bit_count() & 1:
                c = -c
            m = m1 | m2
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def even_monomial(e, factors, memo):
    """prod_i factors[i]^e_i on terms dicts of even elements, whose order
    is immaterial.  memo maps exponent tuples to the products already
    built; a missing one is built from a smaller one (one factor of the
    highest index taken off) and kept, so each product is built once.  The
    result is shared through memo: callers must not change it."""
    val = memo.get(e)
    if val is None:
        used = [i for i, x in enumerate(e) if x]
        if not used:
            val = {0: 1}
        else:
            i = used[-1]
            smaller = e[:i] + (e[i] - 1,) + e[i + 1:]
            val = wedge_into({}, even_monomial(smaller, factors, memo),
                             factors[i])
        memo[e] = val
    return val


def memo_power(pows, k):
    """e^k for an even ExtElement e, given pows = [1, e, e^2, ...], the
    powers built so far: each missing one is `ExtElement.wedge` of the one
    before and e, appended to pows, so each power is built once.  The
    result is shared through pows: callers must not change it."""
    while len(pows) <= k:
        pows.append(pows[-1].wedge(pows[1]))
    return pows[k]


def extract_xi_eta(alg, terms):
    """The coefficient of xi^eta in a terms dict: the terms holding both,
    the two bits stripped.  Moving the trailing xi^eta pair to the front
    crosses an even number of odd generators, so no sign appears."""
    both = (1 << alg.xi_bit) | (1 << alg.eta_bit)
    return {m ^ both: c for m, c in terms.items() if m & both == both}


def swap_mask(m, n):
    """The swap x_a <-> y_a of monomial m over N = n generators per block,
    as (mask, sign): it sends x_A y_B to y_A x_B = (-1)**(|A| |B|) x_B y_A.
    Masks with xi/eta bits raise ValueError."""
    mx, my = m & ((1 << n) - 1), m >> n
    if my >> n:
        raise ValueError("the swap is not defined on xi/eta")
    return mx << n | my, -1 if mx.bit_count() * my.bit_count() & 1 else 1


def swap_terms(terms, n):
    """The swap x_a <-> y_a of a terms dict, monomial by monomial
    (`swap_mask`)."""
    out = {}
    for m, c in terms.items():
        m, s = swap_mask(m, n)
        out[m] = -c if s < 0 else c
    return out


def _mask_of(indices):
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def term_key(mask):
    """Canonical order on monomials: lexicographic on generator indices."""
    return tuple(_bits(mask))


class ExtElement:
    """A sparse exact-rational linear combination of Grassmann monomials."""

    __slots__ = ("alg", "terms")

    def __init__(self, alg, terms):
        self.alg = alg
        self.terms = terms

    @classmethod
    def from_ints(cls, alg, terms, den):
        """The element with int terms over the positive denominator den."""
        return cls(alg, {m: Fraction(c, den) for m, c in terms.items()})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, ExtElement):
            return self.terms == other.terms
        if other == 0:
            return not self.terms
        return NotImplemented

    def __ne__(self, other):
        r = self.__eq__(other)
        return NotImplemented if r is NotImplemented else (not r)

    # perfbench/tracer.py wraps __add__ by name and fails without it
    def __add__(self, other):
        return ExtElement(self.alg, addmul(dict(self.terms), other.terms))

    def __neg__(self):
        return ExtElement(self.alg, {m: -c for m, c in self.terms.items()})

    def scale(self, c):
        c = Fraction(c)
        if not c:
            return ExtElement(self.alg, {})
        return ExtElement(self.alg, {m: c * v for m, v in self.terms.items()})

    def wedge(self, other):
        return ExtElement(self.alg, wedge_into({}, self.terms, other.terms))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=term_key):
            c = self.terms[m]
            gens = "^".join(self.alg.gen_name(b) for b in _bits(m))
            parts.append(("%s %s" % (c, gens)) if gens else str(c))
        return " + ".join(parts)

    __repr__ = __str__


class OddMatrix:
    """Square matrix of Grassmann elements over one shared positive
    denominator `den`: entries is a square list of rows of int terms dicts,
    entry (i, j) being den times the matrix's entry.  Matrix products run
    on ints and keep Grassmann signs (entry multiplication is the wedge),
    and traces leave as (int terms, den) (`trace_product_ints`,
    `trace_square_ints`)."""

    def __init__(self, alg, entries, den):
        self.alg = alg
        self.size = len(entries)
        self.entries = entries
        self.den = den

    @classmethod
    def identity(cls, alg, m):
        return cls(alg, [[{0: 1} if i == j else {} for j in range(m)]
                         for i in range(m)], 1)

    def _check_size(self, other):
        if self.size != other.size:
            raise SizeMismatch("%d != %d" % (self.size, other.size))

    def __add__(self, other):
        self._check_size(other)
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        return OddMatrix(self.alg, [
            [addmul(addmul({}, s, a), t, b) for s, t in zip(ra, rb)]
            for ra, rb in zip(self.entries, other.entries)], den)

    def matmul(self, other):
        self._check_size(other)
        cols = list(zip(*other.entries))
        return OddMatrix(self.alg, [[_dot_into({}, row, col)
                                     for col in cols]
                                    for row in self.entries],
                         self.den * other.den)

    __matmul__ = matmul

    def trace_product_ints(self, other):
        """Tr(self . other) from the diagonal of the product alone,
        sum_i sum_k self[i][k] ^ other[k][i], as (int terms, den)."""
        self._check_size(other)
        acc = {}
        for row, col in zip(self.entries, zip(*other.entries)):
            _dot_into(acc, row, col)
        return acc, self.den * other.den

    def trace_square_ints(self):
        """Tr(self . self) for a matrix with even entries, as (int terms,
        den).  Even entries commute, so the trace is
        sum_i P_ii^2 + 2 sum_{i<l} P_il P_li: about half the products of
        `trace_product_ints(self)`."""
        acc, off = {}, {}
        rows = self.entries
        for i, row in enumerate(rows):
            wedge_into(acc, row[i], row[i])
            for l in range(i + 1, self.size):
                wedge_into(off, row[l], rows[l][i])
        return addmul(acc, off, 2), self.den * self.den

    def swap(self):
        """The swap x_a <-> y_a of every entry (see `swap_terms`)."""
        n = self.alg.n
        return OddMatrix(self.alg, [[swap_terms(t, n) for t in row]
                                    for row in self.entries], self.den)

    def scale_left(self, terms):
        """Left multiplication of every entry by an element given as int
        terms, over 1: the denominator stays."""
        return OddMatrix(self.alg, [[wedge_into({}, terms, t) for t in row]
                                    for row in self.entries], self.den)


def power_trace_ints(pows, k):
    """Tr(M^k) for a matrix M with even entries, as (int terms, den), from
    pows[h] = M^h for h up to ceil(k/2): by trace cyclicity Tr(M^k) =
    Tr(M^floor(k/2) . M^ceil(k/2)), and `trace_square_ints` halves the
    products when k is even."""
    h = k // 2
    if k == 2 * h:
        return pows[h].trace_square_ints()
    return pows[h].trace_product_ints(pows[k - h])


def _dot_into(acc, row, col):
    """acc += sum_k row[k] ^ col[k] on terms dicts, in place."""
    for a, b in zip(row, col):
        wedge_into(acc, a, b)
    return acc
