"""Exact linear algebra over Q on sparse coordinate vectors, computed over a
prime and certified over Q.

Vectors are dicts {column index: coefficient}.  Every sum goes through one
in-place kernel per field, `addmul(dst, src, c)` over Q and
`addmul_mod(dst, src, c, p)` over GF(p): dst += c * src, dropping entries
that cancel.

All elimination runs over GF(p), in semi-echelon form (`Echelon`): a row
keeps only its entries right of its pivot and is not cleared above pivots
found after it; a reduction walks the pivots in increasing order (fill-in
can bring in new ones), and the back-substitution to the reduced row
echelon form (RREF) runs once, in decreasing pivot order, when the RREF is
read.  An input row is first scaled to integers (its span does not
change), so no prime ever has to invert a denominator.

Every answer is certified.  An `Echelon` (and so every `Subspace` and
`kernel_basis`) eliminates over one prime, lifts each RREF entry to Q by
rational reconstruction and certifies the lift R in cleared-denominator
integers: every row inserted since the last certificate, and every row of
the previous R, must equal sum over pivots of row[piv] * R_piv.  That puts
the span of the rows inside the span of R, and the rank over Q is at least
the rank mod p, so R is the canonical RREF over Q.  When reconstruction or
the check fails (an entry beyond the one-prime bound of about 2**15, or a
prime that drops the rank), the rows are eliminated over the next prime
and the residues of primes with the same pivots are combined by the
Chinese remainder theorem, until the check passes; a certificate that
still fails after CERTIFICATE_PRIMES primes raises CertificateFailure.
Rank, `Subspace.insert_all` growth, membership, `basis_rows` and kernel
vectors are read from a certified R only; the RREF of a row space is
unique, so none of them depends on input order or on the primes used.

Every elimination takes the primes of `exact_primes()` in order.  The
residues mod p and the lift are not held in full at the same time: the
lift pops each residue row as it lifts it, and the residues are read back
from R when next needed.
"""

import copy
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import islice
from math import gcd, isqrt
import random


class WrongComponent(ValueError):
    pass


class ComponentTooLarge(RuntimeError):
    pass


class CertificateFailure(RuntimeError):
    """No prime gave a certified RREF within CERTIFICATE_PRIMES tries."""


DEFAULT_MONOMIAL_CAP = 2 * 10 ** 6

# primes one certificate may take before it raises CertificateFailure; a
# correct elimination needs a few, only a defect exhausts them
CERTIFICATE_PRIMES = 64


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


def exact_primes():
    """The primes an elimination takes, in order: the primes below 2**31,
    largest first."""
    p = 1 << 31
    while True:
        p -= 1
        if _is_prime(p):
            yield p


def rational_reconstruction(a, m):
    """(n, d) with n = a*d mod m, |n| and 0 < d both at most sqrt(m/2) and
    d prime to m, or None when no such fraction exists (Wang's half
    extended Euclid); the fraction is unique when it exists.  With d prime
    to m, a is n/d mod m, so a lifted row gives its residues back."""
    bound = isqrt(m // 2)
    r0, r1, s0, s1 = m, a % m, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 < 0:
        r1, s1 = -r1, -s1
    if s1 > bound or gcd(r1, s1) != 1 or gcd(s1, m) != 1:
        return None
    return r1, s1


def _cleared(vec):
    """vec times the lcm of its denominators: an int dict without zero
    entries, spanning the same line."""
    den = 1
    for v in vec.values():
        d = v.denominator
        if den % d:
            den = den // gcd(den, d) * d
    if den == 1:
        return {j: v.numerator for j, v in vec.items() if v}
    return {j: v.numerator * (den // v.denominator)
            for j, v in vec.items() if v}


def _in_span(u, rref):
    """Whether the int row u equals the sum over pivots of u[piv] * R_piv,
    where R_piv = e_piv + row / den for rref[piv] = (row, den), row holding
    the non-pivot entries times den: membership of u in the span of R."""
    hits, rest, den = [], {}, 1
    for j, c in u.items():
        entry = rref.get(j)
        if entry is None:
            rest[j] = c
        else:
            hits.append((c, entry))
            if den % entry[1]:
                den = den // gcd(den, entry[1]) * entry[1]
    acc = {}
    for c, (row, d) in hits:
        addmul(acc, row, c * (den // d))
    addmul(acc, rest, -den)
    return not acc


def _residues(rref, m):
    """The rows of rref (as in _in_span) mod m, pivot coefficient left
    implicit; every denominator is prime to m."""
    out = {}
    for piv, (row, den) in rref.items():
        inv = pow(den, -1, m)
        out[piv] = {j: r for j, r in ((j, v * inv % m) for j, v in row.items())
                    if r}
    return out


def _lift(table, m):
    """The RREF residues mod m of table reconstructed in Q, each row as int
    entries over its own denominator (as in _in_span).  Each residue row is
    popped from table as it is lifted; when an entry has no reconstruction,
    table gets every row's residues back and the result is None."""
    lifted, cache = {}, {}
    while table:
        piv, row = table.popitem()
        den = 1
        for a in row.values():
            nd = cache.get(a)
            if nd is None:
                nd = cache[a] = rational_reconstruction(a, m)
                if nd is None:
                    table[piv] = row
                    table.update(_residues(lifted, m))
                    return None
            if den % nd[1]:
                den = den // gcd(den, nd[1]) * nd[1]
        lifted[piv] = ({j: n * (den // d) for j, (n, d) in
                        ((j, cache[a]) for j, a in row.items())}, den)
    return lifted


def _crt(table, m, rows, p):
    """Residues mod m*p of the entries that are table mod m and rows mod p
    (same pivots)."""
    inv = pow(m, -1, p)
    out = {}
    for piv, row in table.items():
        new = rows[piv]
        out[piv] = {j: a + m * ((new.get(j, 0) - a) * inv % p)
                    for j, a in {**dict.fromkeys(new, 0), **row}.items()}
    return out


def _pivot_key(rows):
    """Orders RREFs of one row space over different primes: a lucky prime
    has the highest rank and, at equal rank, the earliest pivots."""
    return len(rows), [-piv for piv in sorted(rows)]


class FieldMode:
    """What remains of the field mode, for callers that still pass one to
    `cdsw.check_S_power`: no elimination reads it.  `exact()` names no
    primes, `modular(seed)` two distinct primes in [2**30, 2**31) drawn
    from seed."""

    def __init__(self, primes):
        self.primes = tuple(primes)

    @classmethod
    def exact(cls):
        return cls(())

    @classmethod
    def modular(cls, seed):
        rng = random.Random(seed)
        primes = []
        while len(primes) < 2:
            p = rng.randrange(1 << 30, 1 << 31) | 1
            if _is_prime(p) and p not in primes:
                primes.append(p)
        return cls(primes)


class Echelon:
    """Incremental semi-echelon form over GF(p); rank, contains and
    basis_rows are answered from the certified RREF over Q.  The primes
    are those of exact_primes(), in order.

    rows maps each pivot column to the residues of the row's entries right
    of its pivot; the pivot coefficient is an implicit 1.  A row is cleared
    above the pivots found after it only when the RREF is read.  A
    certificate empties rows, and they are read back from the certified
    RREF when next needed.
    """

    def __init__(self):
        self._tries = 0  # primes given up so far
        self.p = next(exact_primes())
        self._rows = {}  # None: the certified RREF mod p, not read back yet
        self._reduced = True  # rows are the RREF mod p
        # the int rows inserted since the certified RREF, and that RREF as
        # {pivot: (non-pivot entries times den, den)}
        self._batch = []
        self._rref = {}

    @property
    def rows(self):
        if self._rows is None:
            self._rows = _residues(self._rref, self.p)
        return self._rows

    @property
    def rank(self):
        self._certify()
        return len(self._rref)

    def _reduce(self, u):
        """Residue mod p of the int row u against the rows, walking pivots
        in increasing order; it has no entry in a pivot column."""
        p, rows = self.p, self.rows
        # entries are summed as plain ints and taken mod p only where a
        # pivot is cleared and at the end, so a column never leaves the row
        # and is queued at most once
        row = dict(u)
        get = row.get
        heap = [j for j in row if j in rows]
        heapify(heap)
        while heap:
            piv = heappop(heap)
            c = row.pop(piv) % p
            if not c:
                continue
            c = p - c
            for j, v in rows[piv].items():
                s = get(j)
                if s is None:
                    row[j] = c * v
                    if j in rows:
                        heappush(heap, j)
                else:
                    row[j] = s + c * v
        return {j: v for j, v in ((j, v % p) for j, v in row.items()) if v}

    def _adjoin(self, row):
        """Adjoin a reduced residue as a new row if nonzero."""
        if not row:
            return False
        p = self.p
        piv = min(row)
        inv = pow(row.pop(piv), -1, p)
        self.rows[piv] = {j: v * inv % p for j, v in row.items()}
        self._reduced = False
        return True

    def reduce(self, vec):
        """Residue of vec mod p against the rows (vec unchanged)."""
        return self._reduce(_cleared(vec))

    def insert(self, vec):
        """Reduce vec and adjoin the residue if nonzero.  Returns True when
        the rank over GF(p) grew; the rank over Q is read from `rank`,
        which certifies it."""
        u = _cleared(vec)
        self._batch.append(u)
        return self._adjoin(self._reduce(u))

    def _back_substitute(self):
        """Clear each row above the pivots right of it, in decreasing pivot
        order, so those rows are already cleared: rows becomes the RREF."""
        if self._reduced:
            return
        rows, p = self.rows, self.p
        for piv in sorted(rows, reverse=True):
            row = rows[piv]
            for j in [j for j in row if j in rows]:
                addmul_mod(row, rows[j], p - row.pop(j), p)
        self._reduced = True

    def _certify(self):
        """Lift the RREF mod p to Q and check it against the batch and the
        previous certified RREF; until the check passes, eliminate the same
        rows over the next prime and combine residues by CRT.  Raises
        CertificateFailure after CERTIFICATE_PRIMES primes."""
        if not self._batch:
            return
        batch = self._batch + [{piv: den, **row}
                               for piv, (row, den) in self._rref.items()]
        table, m = None, 1
        for attempt in range(CERTIFICATE_PRIMES):
            if attempt:
                self._tries += 1
                self.p = next(islice(exact_primes(), self._tries, None))
                self._rows = {}
                for u in batch:
                    self._adjoin(self._reduce(u))
            self._back_substitute()
            rows, p = self.rows, self.p
            if table is None or _pivot_key(rows) > _pivot_key(table):
                table, m, good = rows, p, p
            elif rows.keys() == table.keys():
                table, m, good = _crt(table, m, rows, p), m * p, p
            lifted = _lift(table, m)
            if lifted is not None:
                if all(_in_span(u, lifted) for u in batch):
                    break
                table = _residues(lifted, m)
        else:
            raise CertificateFailure("no certified RREF after %d primes"
                                     % CERTIFICATE_PRIMES)
        # R mod good is the RREF of the rows mod good
        self._rref, self.p, self._rows = lifted, good, None
        self._batch = []

    def contains(self, vec):
        self._certify()
        return _in_span(_cleared(vec), self._rref)

    def basis_rows(self):
        """The certified RREF rows in pivot order, as Fractions, pivot
        coefficient included."""
        self._certify()
        return [{piv: Fraction(1),
                 **{j: Fraction(v, den) for j, v in row.items()}}
                for piv, (row, den) in sorted(self._rref.items())]

    def copy(self):
        # batch rows and certified rows are never changed in place
        dup = copy.copy(self)
        if self._rows is not None:
            dup._rows = {piv: dict(row) for piv, row in self._rows.items()}
        dup._batch = list(self._batch)
        return dup


def kernel_basis(rows, ncols):
    """Nullspace basis of the linear system given by equation rows (each a
    dict over column indices 0..ncols-1), read from the certified RREF;
    returns the canonical basis vectors as dicts, one per free column."""
    ech = Echelon()
    for r in rows:
        ech.insert(r)
    rref = ech.basis_rows()
    pivots = {min(row) for row in rref}
    basis = {free: {free: Fraction(1)} for free in range(ncols)
             if free not in pivots}
    for row in rref:
        piv = min(row)
        for j, c in row.items():
            if j != piv:
                basis[j][piv] = -c
    return list(basis.values())


class Subspace:
    """Certified span inside one bigraded component.

    columns: tuple of monomial masks fixing the coordinatization (canonical
    order); bidegree: the component, named in WrongComponent messages.
    The span is one certified Echelon.
    """

    def __init__(self, columns, bidegree):
        self.columns = tuple(columns)
        self.index = {m: i for i, m in enumerate(self.columns)}
        self.bidegree = bidegree
        self.echelon = Echelon()

    @property
    def rank(self):
        return self.echelon.rank

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
        """Adjoin elem to the span; the rank growth is read from rank or
        insert_all."""
        self.echelon.insert(self.coordinates(elem))

    def insert_all(self, elems):
        """Insert each element in turn; returns how much the rank grew."""
        before = self.rank
        for el in elems:
            self.insert(el)
        return self.rank - before

    def contains(self, elem):
        """Membership of elem in the span."""
        return self.echelon.contains(self.coordinates(elem))

    def copy(self):
        # columns and index are never changed in place
        dup = copy.copy(self)
        dup.echelon = self.echelon.copy()
        return dup


def guard_component(alg, p, q, cap=None):
    dim = alg.component_dim(p, q)
    limit = DEFAULT_MONOMIAL_CAP if cap is None else cap
    if dim > limit:
        raise ComponentTooLarge("component (%d,%d) has %d monomials, cap %d"
                                % (p, q, dim, limit))
    return dim
