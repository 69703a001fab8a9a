"""Exact linear algebra over Q, with an optional probabilistic prime-field
mode, on sparse coordinate vectors.

Vectors are dicts {column index: coefficient}.  Every sum goes through one
in-place kernel per field, `addmul(dst, src, c)` over Q and
`addmul_mod(dst, src, c, p)` over GF(p): dst += c * src, dropping entries
that cancel.  The workhorse is a reduced row echelon form maintained
incrementally; the RREF of a row space is unique, so ranks and membership
answers do not depend on input order.  Prime-field mode runs the same
elimination modulo >= 2 random primes > 2**30 and reports only when all
primes agree.
"""

from fractions import Fraction
from functools import partial
import random


class InhomogeneousInput(ValueError):
    pass


class WrongComponent(ValueError):
    pass


class ComponentTooLarge(RuntimeError):
    pass


class ModularDisagreement(RuntimeError):
    pass


DEFAULT_MONOMIAL_CAP = 2 * 10 ** 6


def _is_prime(n):
    # deterministic Miller-Rabin, valid far beyond 2**40
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def addmul(dst, src, c=1):
    """dst += c * src over Q, in place; entries that cancel are dropped.
    Returns dst."""
    for j, v in src.items():
        s = dst.get(j, 0) + c * v
        if s:
            dst[j] = s
        else:
            dst.pop(j, None)
    return dst


def addmul_mod(dst, src, c, p):
    """dst += c * src over GF(p), in place; entries that cancel are
    dropped.  Returns dst."""
    for j, v in src.items():
        s = (dst.get(j, 0) + c * v) % p
        if s:
            dst[j] = s
        else:
            dst.pop(j, None)
    return dst


def _mod_coercion(p):
    """Map a rational (Fraction or int) to its residue in GF(p)."""
    def coerce(v):
        if isinstance(v, Fraction):
            den = v.denominator % p
            if den == 0:
                raise ModularDisagreement("prime %d divides a denominator" % p)
            return v.numerator % p * pow(den, p - 2, p) % p
        return v % p
    return coerce


def random_prime(rng, lo=1 << 30):
    while True:
        c = rng.randrange(lo, lo << 1) | 1
        if _is_prime(c):
            return c


class FieldMode:
    """exact-rational arithmetic, or reduction modulo a list of primes."""

    def __init__(self, primes=()):
        self.primes = tuple(primes)

    @classmethod
    def exact(cls):
        return cls()

    @classmethod
    def modular(cls, seed=0, nprimes=2):
        if nprimes < 2:
            raise ValueError("modular mode needs >= 2 primes")
        rng = random.Random(seed)
        primes = []
        while len(primes) < nprimes:
            p = random_prime(rng)
            if p not in primes:
                primes.append(p)
        return cls(primes)

    @property
    def is_exact(self):
        return not self.primes

    def label(self):
        if self.is_exact:
            return "exact"
        return "modular(%s)" % ",".join(str(p) for p in self.primes)


class Echelon:
    """Incremental reduced row echelon form.  p=None works over Q with
    Fractions; otherwise all coefficients live in GF(p).

    rows maps each pivot column to the row's non-pivot entries; the pivot
    coefficient is an implicit 1, which basis_rows() puts back.
    """

    def __init__(self, p=None):
        self.p = p
        self.rows = {}  # pivot column -> non-pivot entries of its row
        if p is None:
            self._addmul = addmul
            self._inv = lambda c: Fraction(1) / c
            self._coerce = lambda v: v
        else:
            self._addmul = partial(addmul_mod, p=p)
            self._inv = lambda c: pow(c, p - 2, p)
            self._coerce = _mod_coercion(p)

    @property
    def rank(self):
        return len(self.rows)

    def pivots(self):
        return sorted(self.rows)

    def _normalize(self, row, piv):
        """The row scaled to pivot coefficient 1, with the pivot dropped."""
        inv = self._inv(row.pop(piv))
        return self._addmul({}, row, inv)

    def reduce(self, vec):
        """Residue of vec against the echelon rows (vec unchanged)."""
        coerce = self._coerce
        row = {}
        for j, v in vec.items():
            v = coerce(v)
            if v:
                row[j] = v
        # a base row has entries only in non-pivot columns right of its
        # pivot, so one pass in increasing column order clears every pivot
        for piv in sorted(row):
            base = self.rows.get(piv)
            if base is None or piv not in row:
                continue
            self._addmul(row, base, -row.pop(piv))
        return row

    def insert(self, vec):
        """Reduce vec and adjoin the residue if nonzero.  Returns True when
        the rank grew."""
        row = self.reduce(vec)
        if not row:
            return False
        piv = min(row)
        row = self._normalize(row, piv)
        # back-substitute into existing rows to stay fully reduced
        for base in self.rows.values():
            c = base.pop(piv, None)
            if c:
                self._addmul(base, row, -c)
        self.rows[piv] = row
        return True

    def contains(self, vec):
        return not self.reduce(vec)

    def basis_rows(self):
        """The RREF rows in pivot order, pivot coefficient included."""
        one = self._coerce(Fraction(1))
        return [{piv: one, **self.rows[piv]} for piv in sorted(self.rows)]


def kernel_basis(rows, ncols):
    """Nullspace basis of the linear system given by equation rows (each a
    dict over column indices 0..ncols-1).  Exact; returns canonical basis
    vectors as dicts, one per free column."""
    ech = Echelon()
    for r in rows:
        ech.insert(r)
    pivset = set(ech.rows)
    basis = []
    for free in range(ncols):
        if free in pivset:
            continue
        vec = {free: Fraction(1)}
        for piv, row in ech.rows.items():
            c = row.get(free)
            if c:
                vec[piv] = -c
        basis.append(vec)
    return basis


class Subspace:
    """Echelonized span inside one bigraded component.

    columns: tuple of monomial masks fixing the coordinatization (canonical
    order).  In exact mode a single Echelon is kept; in prime-field mode one
    per prime, and answers carry a probabilistic flag.
    """

    def __init__(self, columns, mode=None, bidegree=None):
        self.columns = tuple(columns)
        self.index = {m: i for i, m in enumerate(self.columns)}
        self.mode = mode or FieldMode.exact()
        self.bidegree = bidegree
        if self.mode.is_exact:
            self.echelons = [Echelon()]
        else:
            self.echelons = [Echelon(p) for p in self.mode.primes]

    @property
    def probabilistic(self):
        return not self.mode.is_exact

    @property
    def rank(self):
        ranks = {e.rank for e in self.echelons}
        if len(ranks) != 1:
            raise ModularDisagreement("ranks differ between primes: %s" %
                                      sorted(ranks))
        return ranks.pop()

    def coordinates(self, elem):
        """Coordinate vector of elem.  A term outside the columns raises
        WrongComponent, also when its bidegree is the ambient one (a
        weight slice leaves out monomials of the component)."""
        vec = {}
        for m, c in elem.terms.items():
            i = self.index.get(m)
            if i is None:
                raise WrongComponent(
                    "monomial of bidegree %s outside the %d columns of %s"
                    % (elem.alg.bidegree_of_mask(m), len(self.columns),
                       self.bidegree))
            vec[i] = c
        return vec

    def insert(self, elem):
        vec = self.coordinates(elem)
        grew = [e.insert(vec) for e in self.echelons]
        if len(set(grew)) != 1:
            raise ModularDisagreement("rank growth differs between primes")
        return grew[0]

    def insert_all(self, elems):
        """Insert each element in turn; returns how much the rank grew."""
        return sum(1 for el in elems if self.insert(el))

    def contains(self, elem):
        """Membership of elem in the span.  Exact mode: exact.  Prime-field
        mode: False is exact, True is probabilistic (all primes agreed)."""
        vec = self.coordinates(elem)
        answers = {e.contains(vec) for e in self.echelons}
        if len(answers) != 1:
            raise ModularDisagreement("membership differs between primes")
        return answers.pop()

    def copy(self):
        dup = Subspace(self.columns, self.mode, self.bidegree)
        for e_src, e_dst in zip(self.echelons, dup.echelons):
            e_dst.rows = {p: dict(r) for p, r in e_src.rows.items()}
        return dup


def span(elements, component=None, mode=None, columns=None, cap=None):
    """Echelonized span of homogeneous elements of one bidegree.

    component: (p, q); columns defaults to the full component monomial list
    of the first element's algebra.  cap guards the ambient monomial count
    (ComponentTooLarge) unless prime-field mode is on.
    """
    mode = mode or FieldMode.exact()
    if columns is None:
        if not elements:
            return Subspace((), mode, component)
        alg = elements[0].alg
        p, q = component if component is not None else elements[0].bidegree()
        guard_component(alg, p, q, mode, cap)
        columns = alg.component_masks(p, q)
        component = (p, q)
    sub = Subspace(columns, mode, component)
    for el in elements:
        if component is not None and el.terms and el.bidegree() != tuple(component):
            raise InhomogeneousInput("element of bidegree %s in component %s"
                                     % (el.bidegree(), component))
        sub.insert(el)
    return sub


def guard_component(alg, p, q, mode=None, cap=None):
    dim = alg.component_dim(p, q)
    limit = DEFAULT_MONOMIAL_CAP if cap is None else cap
    if dim > limit and (mode is None or mode.is_exact):
        raise ComponentTooLarge("component (%d,%d) has %d monomials, cap %d"
                                % (p, q, dim, limit))
    return dim
