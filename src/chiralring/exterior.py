"""Sparse exact arithmetic in the Grassmann algebra on two blocks of odd
generators x_1..x_N, y_1..y_N, optionally extended by two auxiliary odd
variables xi and eta.

A monomial is a subset of the generators, stored as a Python int bitmask
over the fixed order: x-block (bits 0..N-1), y-block (bits N..2N-1),
xi (bit 2N), eta (bit 2N+1).  ExtElement coefficients are Fractions;
elements never store zero coefficients.  Bidegree: an x-generator counts
(1,0), a y-generator (0,1), xi counts (1,0) and eta (0,1).

An OddMatrix holds its entries as int coefficients over one shared
denominator `den`, so matrix products run on ints; an entry or a trace
becomes Fractions only when it leaves the matrix.

The product of disjoint monomials m1 ^ m2 is the monomial m1 | m2 times
(-1)**k, where k counts the pairs of a generator of m1 above a generator
of m2 (the inversions of the merge).  Bit b of `suffix_parity(m1)` is the
parity of the bits of m1 above b, so k is odd exactly when
`(suffix_parity(m1) & m2).bit_count()` is: one mask per left monomial,
then one `&` and one popcount per pair, at any number of generators.

Sums accumulate in place on terms dicts: `addmul` (from exactla) adds a
scaled element and `wedge_into(out, t1, t2)` adds a product, so a matrix
entry or a trace is summed into one dict rather than copied per addend.
"""

from fractions import Fraction
from math import lcm

from .exactla import addmul


class SizeMismatch(ValueError):
    pass


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
    """Context object fixing N (one odd generator block size per copy)."""

    def __init__(self, n):
        self.n = n
        self.xi_bit = 2 * n
        self.eta_bit = 2 * n + 1
        self._xmask = (1 << n) - 1
        self._ymask = self._xmask << n

    def zero(self):
        return ExtElement(self, {})

    def scalar(self, c):
        c = Fraction(c)
        return ExtElement(self, {0: c} if c else {})

    def one(self):
        return self.scalar(1)

    def x(self, i):
        return ExtElement(self, {1 << i: Fraction(1)})

    def y(self, i):
        return ExtElement(self, {1 << (self.n + i): Fraction(1)})

    def xi(self):
        return ExtElement(self, {1 << self.xi_bit: Fraction(1)})

    def eta(self):
        return ExtElement(self, {1 << self.eta_bit: Fraction(1)})

    def bidegree_of_mask(self, mask):
        p = (mask & self._xmask).bit_count()
        q = (mask & self._ymask).bit_count()
        if mask >> self.xi_bit & 1:
            p += 1
        if mask >> self.eta_bit & 1:
            q += 1
        return (p, q)

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

    def __add__(self, other):
        return ExtElement(self.alg, addmul(dict(self.terms), other.terms))

    def __sub__(self, other):
        return ExtElement(self.alg, addmul(dict(self.terms), other.terms, -1))

    def __neg__(self):
        return ExtElement(self.alg, {m: -c for m, c in self.terms.items()})

    def scale(self, c):
        c = Fraction(c)
        if not c:
            return ExtElement(self.alg, {})
        return ExtElement(self.alg, {m: c * v for m, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, ExtElement):
            return self.wedge(other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def wedge(self, other):
        return ExtElement(self.alg, wedge_into({}, self.terms, other.terms))

    def power(self, k):
        r = self.alg.one()
        for _ in range(k):
            r = r.wedge(self)
        return r

    def bidegree(self):
        """The common bidegree of all terms, or None if mixed or zero."""
        deg = None
        for m in self.terms:
            d = self.alg.bidegree_of_mask(m)
            if deg is None:
                deg = d
            elif d != deg:
                return None
        return deg

    def component(self, p, q):
        alg = self.alg
        return ExtElement(alg, {m: c for m, c in self.terms.items()
                                if alg.bidegree_of_mask(m) == (p, q)})

    def extract_xi_eta(self):
        """Coefficient of xi^eta: keeps monomials containing both, strips the
        two bits.  Moving the trailing xi^eta pair to the front crosses an
        even number of odd generators, so no sign appears."""
        alg = self.alg
        both = (1 << alg.xi_bit) | (1 << alg.eta_bit)
        return ExtElement(alg, {m ^ both: c for m, c in self.terms.items()
                                if m & both == both})

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
    """Square matrix of Grassmann elements, stored as int-coefficient terms
    dicts over one shared positive denominator `den`; products keep
    Grassmann signs because entry multiplication is the wedge.  Rationals
    appear only at the boundary: the constructor takes ExtElements, and
    `entry`, `trace` and `trace_product` return them."""

    def __init__(self, alg, entries):
        """From a square list of rows of ExtElements."""
        den = _common_den(e.terms for row in entries for e in row)
        self.alg = alg
        self.size = len(entries)
        self.entries = [[_over(e.terms, den) for e in row] for row in entries]
        self.den = den

    @classmethod
    def _of(cls, alg, entries, den):
        """A matrix of int terms dicts over den."""
        mat = cls.__new__(cls)
        mat.alg, mat.size, mat.entries = alg, len(entries), entries
        mat.den = den
        return mat

    @classmethod
    def identity(cls, alg, m):
        return cls._of(alg, [[{0: 1} if i == j else {} for j in range(m)]
                             for i in range(m)], 1)

    def _element(self, terms, den):
        return ExtElement(self.alg, {m: Fraction(c, den)
                                     for m, c in terms.items()})

    def entry(self, i, j):
        """Entry (i, j) as an exact ExtElement."""
        return self._element(self.entries[i][j], self.den)

    def _check_size(self, other):
        if self.size != other.size:
            raise SizeMismatch("%d != %d" % (self.size, other.size))

    def __add__(self, other):
        self._check_size(other)
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        return OddMatrix._of(self.alg, [
            [addmul(addmul({}, s, a), t, b) for s, t in zip(ra, rb)]
            for ra, rb in zip(self.entries, other.entries)], den)

    def matmul(self, other):
        self._check_size(other)
        cols = list(zip(*other.entries))
        return OddMatrix._of(self.alg, [[_dot_into({}, row, col)
                                         for col in cols]
                                        for row in self.entries],
                             self.den * other.den)

    __matmul__ = matmul

    def trace_product(self, other):
        """Tr(self . other) from the diagonal of the product alone:
        sum_i sum_k self[i][k] ^ other[k][i]."""
        self._check_size(other)
        acc = {}
        for row, col in zip(self.entries, zip(*other.entries)):
            _dot_into(acc, row, col)
        return self._element(acc, self.den * other.den)

    def scale_left(self, elem):
        """Left multiplication of every entry by a fixed element."""
        den = _common_den([elem.terms])
        e = _over(elem.terms, den)
        return OddMatrix._of(self.alg, [[wedge_into({}, e, t) for t in row]
                                        for row in self.entries],
                             self.den * den)

    def trace(self):
        acc = {}
        for i in range(self.size):
            addmul(acc, self.entries[i][i])
        return self._element(acc, self.den)


def _common_den(terms_dicts):
    """Least common denominator of the rational coefficients."""
    return lcm(*(c.denominator for t in terms_dicts for c in t.values()))


def _over(terms, den):
    """Int numerators of rational terms over den, a multiple of each of
    their denominators."""
    return {m: c.numerator * (den // c.denominator) for m, c in terms.items()}


def _dot_into(acc, row, col):
    """acc += sum_k row[k] ^ col[k] on terms dicts, in place."""
    for a, b in zip(row, col):
        wedge_into(acc, a, b)
    return acc
