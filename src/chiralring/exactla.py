"""Exact linear algebra over Q on sparse coordinate vectors, computed over a
prime and certified over Q.

Vectors are dicts {column index: coefficient}.  Every sum goes through one
in-place kernel per field, `addmul(dst, src, c)` over Q and
`addmul_mod(dst, src, c, p)` over GF(p): dst += c * src, dropping entries
that cancel.

All elimination runs over GF(p), in one routine (`_eliminations`), in
semi-echelon form: a row keeps only its entries right of its pivot and is
not cleared above pivots found after it; a reduction walks the pivots in
increasing order (fill-in can bring in new ones), and the
back-substitution to the reduced row echelon form (RREF) runs once, in
decreasing pivot order, at the end.  An input row is first scaled to
integers (its span does not change), so no prime ever has to invert a
denominator.

A batch (`Echelon.insert_all`, which the parts of a `cdsw.core.IdealSpan`,
up to four per span, go through, and `kernel_basis`) enters in
descending leading column, ties in input order.  Pivots are then found
from right to left, and a row never has entries left of its pivot, so
the rows stay reduced against each other: a new row's reduction rarely
meets fill-in pivots, and the back-substitution has little to clear.
The order sets only the cost, and so does the order of the columns: the
pivots and entries of the RREF depend on it, but rank and membership do
not.  `cdsw.core.IdealSpan` puts the columns that few rows touch first, so
they take the pivots and the dense ones stay free; invariant kernels keep
the canonical order, where count order multiplies their work.

An elimination that knows its width (the number of columns; every span
part and `kernel_basis` do) stops reducing rows once its rank mod p
reaches it: the rank over Q is at least the rank mod p, so the certified
RREF is then the identity, and the kernel is empty, with no lift.  Most
rows of a span the ideal fills reduce to zero before that, so a span part
is first offered to a proof of full rank that reduces nothing: `peel`
takes, while some row has exactly one column not yet taken, that column.
Every other entry of a row taken lies on a column taken before it, so the
rows taken, in the order taken, form a square lower-triangular submatrix
whose diagonal entries are nonzero ints.  Its determinant, their
product, is nonzero over Q itself, not only mod some prime, so those
rows are independent over Q: peeling reads only which entries are
nonzero, never their values, and when it takes every column the rank over
Q is the width.  The certified span is then `Echelon.identity`, with no
reduction, no prime and no lift.  The set of columns taken is the one
closure of the rows (a column a row could take stays takeable as others
are taken), so the outcome does not depend on the row order.

A certified RREF R defines the normal form nf(u) = u - sum over pivots of
u[piv] * R_piv (`Echelon.normal_form`): a linear map, supported on the
free columns, whose kernel is the span.  Membership is nf(u) = 0, and the
rank of the normal forms of a batch is its growth modulo the span, so a
certified span never has to grow to answer either.

Every answer is certified.  An elimination runs over one prime; the RREF
it reads mod p is lifted to Q by rational reconstruction and checked in
cleared-denominator integers.  An `Echelon` is certified by its first
read, and never changes after it: every row inserted equals sum over
pivots of row[piv] * R_piv for the lift R, so the rows' span lies in R's,
and the rank over Q is at least the rank mod p, so R is the canonical RREF
over Q.  `kernel_basis` eliminates its equation rows E mod p only, puts
the kernel's vectors mod p (one per free column) in RREF and checks E.K =
0 for their lift K: K's span lies in the kernel over Q, of dimension at
most the kernel's mod p, so K is the kernel's canonical RREF.  When
reconstruction or the check fails (an entry beyond the one-prime bound
sqrt(p/2), about 23,170 for the primes below 2**30, or a prime that drops
the rank), the rows are eliminated over the next prime, and residues of
primes with the same rank and pivots are combined by the Chinese
remainder theorem, until the check passes; after CERTIFICATE_PRIMES
primes it raises CertificateFailure.  When K does not lift, the kernel's
vectors are lifted: if E kills them, they span the kernel over Q, and
their residues give its RREF mod further primes with no new elimination.
Every answer is read from a certified lift; the RREF of a row space is
unique for its column order, so none depends on input order or on the
primes.  A certified RREF stays on ints, each row over its own
denominator (as in `_normal_form`): `kernel_basis` returns it so, and only
`Echelon.basis_rows` hands it out as Fractions.

Every elimination takes the primes of `exact_primes()` in order.  The
residues mod p and the lift are not held in full at the same time: the
lift pops each residue row as it lifts it, and a certified `Echelon`
keeps only its lift.
"""

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import chain, count, islice
from math import gcd, isqrt
import random


class CertificateFailure(RuntimeError):
    """No prime gave a certified RREF within CERTIFICATE_PRIMES tries."""


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


# every prime an elimination takes is below this bound
PRIME_BOUND = 1 << 30
_PRIMES = []  # the primes exact_primes() has found so far, in order


def exact_primes():
    """The primes an elimination takes, in order: the primes below
    PRIME_BOUND = 2**30, largest first, so each residue mod p is one
    30-bit CPython digit.  Each is tested once per process."""
    for i in count():
        if i == len(_PRIMES):
            p = (_PRIMES[-1] if _PRIMES else PRIME_BOUND) - 1
            while not _is_prime(p):
                p -= 1
            _PRIMES.append(p)
        yield _PRIMES[i]


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


def _den(vec):
    """The lcm of the denominators of vec's entries."""
    den = 1
    for v in vec.values():
        d = v.denominator
        if den % d:
            den = den // gcd(den, d) * d
    return den


def cleared(vec):
    """vec times the lcm of its denominators: an int dict without zero
    entries, spanning the same line.  A vec whose entries are all nonzero
    ints is that dict already, and is handed back itself, not copied."""
    if all(type(v) is int and v for v in vec.values()):
        return vec
    den = _den(vec)
    if den == 1:
        return {j: v.numerator for j, v in vec.items() if v}
    return {j: v.numerator * (den // v.denominator)
            for j, v in vec.items() if v}


def _normal_form(u, rref):
    """(w, den): the normal form u - sum over pivots of u[piv] * R_piv of
    the int row u, times den, where R_piv = e_piv + row / den_piv for
    rref[piv] = (row, den_piv), row holding the non-pivot entries times
    den_piv, and den is the lcm of the den_piv of the pivots u meets.  w is
    an int dict on the free columns, and it is empty exactly when u lies
    in the span of R; the map is linear, with that span as its kernel."""
    hits, w, den = [], {}, 1
    for j, c in u.items():
        entry = rref.get(j)
        if entry is None:
            w[j] = c
        else:
            hits.append((c, entry))
            if den % entry[1]:
                den = den // gcd(den, entry[1]) * entry[1]
    if den > 1:
        w = {j: c * den for j, c in w.items()}
    for c, (row, d) in hits:
        addmul(w, row, -c * (den // d))
    return w, den


def _residues(rref, m):
    """The rows of rref (as in _normal_form) mod m, pivot coefficient left
    implicit; every denominator is prime to m."""
    out = {}
    for piv, (row, den) in rref.items():
        inv = pow(den, -1, m)
        out[piv] = {j: r for j, r in ((j, v * inv % m) for j, v in row.items())
                    if r}
    return out


def _lift(table, m):
    """The RREF residues mod m of table reconstructed in Q, each row as int
    entries over its own denominator (as in _normal_form).  Each residue
    row is popped from table as it is lifted; when an entry has no
    reconstruction, table gets every row's residues back and the result is
    None."""
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


def _certified(tables, check):
    """The first lift R that passes check(R), and the last prime combined.
    tables yields (rank, residue table, p) over successive primes; a lucky
    prime has the highest rank and, at equal rank, the earliest pivots of
    its table.  The luckiest table is kept and tables of the same rank and
    pivots are combined with it by CRT, for CERTIFICATE_PRIMES primes."""
    best = None
    for rank, rows, p in islice(tables, CERTIFICATE_PRIMES):
        key = rank, [-piv for piv in sorted(rows)]
        if best is None or key > best:
            best, table, m, good = key, rows, p, p
        elif key == best:
            table, m, good = _crt(table, m, rows, p), m * p, p
        lifted = _lift(table, m)
        if lifted is not None:
            if check(lifted):
                return lifted, good
            table = _residues(lifted, m)
    raise CertificateFailure("no certified RREF after %d primes"
                             % CERTIFICATE_PRIMES)


def _fractions(rref):
    """The rows of rref (as in _normal_form) in pivot order, as Fractions,
    pivot coefficient included."""
    return [{piv: Fraction(1), **{j: Fraction(v, den) for j, v in row.items()}}
            for piv, (row, den) in sorted(rref.items())]


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


def _reduce(u, rows, p):
    """Residue mod p of the int row u (left unchanged) against rows, which
    maps each pivot to the residues of its row right of it, the pivot's 1
    implicit; it has no entry in a pivot column."""
    # entries are summed as plain ints and taken mod p only where a pivot
    # is cleared and at the end, so a column never leaves the row and is
    # queued at most once
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


def _adjoin(row, rows, p):
    """Adjoin the reduced residue row to rows, scaled to pivot coefficient
    1, if it is nonzero; returns whether it was."""
    if not row:
        return False
    piv = min(row)
    inv = pow(row.pop(piv), -1, p)
    rows[piv] = {j: v * inv % p for j, v in row.items()}
    return True


def _back_substitute(rows, p):
    """Clear each row above the pivots right of it, in decreasing pivot
    order, so those rows are already cleared: rows, returned, is the RREF."""
    for piv in sorted(rows, reverse=True):
        row = rows[piv]
        for j in [j for j in row if j in rows]:
            addmul_mod(row, rows[j], p - row.pop(j), p)
    return rows


def _descending(vecs):
    """vecs by descending leading column, ties in input order (see the
    module docstring)."""
    return sorted(vecs, key=lambda vec: min(vec, default=-1), reverse=True)


def peel(rows, width):
    """The number of columns that peeling the rows takes: while some row
    has exactly one column not yet taken, that column is taken.  rows:
    dicts over the columns 0..width-1 without zero entries (as `cleared`
    gives).  Peeling stops once every column is taken; otherwise it
    reaches the one closure, whatever the order of the rows.

    Each row taken has nonzero entries only on its own column and on
    columns taken before it, so the rows taken, in the order taken, form
    a lower-triangular square submatrix with a nonzero diagonal: the
    number of columns taken is at most the rank over Q, and it proves the
    rank is width when it equals it (see the module docstring)."""
    touching = [[] for _ in range(width)]
    left = []  # each row's columns not yet taken
    for r, row in enumerate(rows):
        left.append(len(row))
        for j in row:
            touching[j].append(r)
    taken = [False] * width
    ready = [r for r, n in enumerate(left) if n == 1]
    done = 0
    while ready and done < width:
        r = ready.pop()
        if left[r] != 1:  # another row took its last column
            continue
        j = next(j for j in rows[r] if not taken[j])
        taken[j] = True
        done += 1
        for s in touching[j]:
            left[s] -= 1
            if left[s] == 1:
                ready.append(s)
    return done


def _eliminations(batch, width, primes):
    """(rank, RREF, p) of the int rows of batch mod each of primes in turn,
    the RREF as in `_reduce`; the rows stop being reduced once the rank
    reaches width (None: unknown)."""
    for p in primes:
        rows = {}
        for u in batch:
            if len(rows) == width:
                break
            _adjoin(_reduce(u, rows, p), rows, p)
        yield len(rows), _back_substitute(rows, p), p


def _identity(width):
    """The identity RREF over width columns (as in _normal_form); its rows
    share one empty dict, which nothing changes."""
    return dict.fromkeys(range(width), ({}, 1))


class Echelon:
    """A span over Q, loaded by `insert`/`insert_all` and certified by its
    first read (`rank`, `normal_form`, `contains`, `free_columns`,
    `basis_rows`); after that it never changes, and `insert` and `reduce`
    raise ValueError.

    Each row inserted is reduced at once mod p, the first prime of
    exact_primes() (as in `_reduce`), and kept in the batch.  The first
    read certifies the RREF of the rows mod p, eliminating the batch again
    over further primes when it has to, and keeps only the lift; p is then
    the last prime that went into it.  After a CertificateFailure p is
    still the first prime.
    """

    def __init__(self, width=None):
        self.width = width  # the number of columns, when known
        self.p = next(exact_primes())
        self._rows = {}
        self._batch = []
        # the certified RREF as {pivot: (non-pivot entries times den, den)},
        # None until the first read
        self._rref = None

    @classmethod
    def identity(cls, width):
        """The certified span of all width columns, whose RREF is the
        identity: what a proof of full rank (`peel`) gives, with no row
        inserted."""
        ech = cls(width)
        ech._rref = _identity(width)
        ech._rows = ech._batch = None
        return ech

    def _loading(self):
        if self._rref is not None:
            raise ValueError("a certified Echelon never changes")

    @property
    def rank(self):
        self._certify()
        return len(self._rref)

    def reduce(self, vec):
        """Residue of vec mod p against the rows (vec unchanged)."""
        self._loading()
        return _reduce(cleared(vec), self._rows, self.p)

    def insert(self, vec):
        """Reduce vec and adjoin the residue if nonzero.  Returns True when
        the rank over GF(p) grew; the rank over Q is read from `rank`,
        which certifies it.  At full rank mod p, vec is in the span and is
        not even reduced.  A vec whose entries are all nonzero ints is kept
        as it is, not copied (`cleared`), so the caller leaves it alone."""
        self._loading()
        rows = self._rows
        if len(rows) == self.width:
            return False
        u = cleared(vec)
        self._batch.append(u)
        return _adjoin(_reduce(u, rows, self.p), rows, self.p)

    def insert_all(self, vecs):
        """Insert a batch, each row through `insert`, by descending leading
        column (ties in input order) so that the rows stay reduced (see
        the module docstring); no answer depends on the order."""
        for vec in _descending(vecs):
            self.insert(vec)

    def _certify(self):
        """Lift the RREF mod p to Q and check it against the batch, over
        further primes until it passes; the rows and the batch go."""
        if self._rref is not None:
            return
        rows, batch, width = self._rows, self._batch, self.width
        if len(rows) == width:
            # full rank mod p, so over Q too: R is the identity
            self._rref = _identity(width)
        else:
            tables = chain(
                [(len(rows), _back_substitute(rows, self.p), self.p)],
                _eliminations(batch, width, islice(exact_primes(), 1, None)))
            self._rref, self.p = _certified(
                tables,
                lambda rref: not any(_normal_form(u, rref)[0] for u in batch))
        self._rows = self._batch = None

    def normal_form(self, vec):
        """(w, den): the normal form of vec modulo the certified span,
        times den, w an int dict (as in `_normal_form`): vec's
        denominators are cleared, and den holds their lcm too, so the map
        is linear on rational vectors as well."""
        self._certify()
        u = cleared(vec)
        w, den = _normal_form(u, self._rref)
        return w, den if u is vec else den * _den(vec)

    def contains(self, vec):
        return not self.normal_form(vec)[0]

    def free_columns(self):
        """The columns 0..width-1 that are no pivot of the certified RREF,
        in increasing order: where every normal form lies."""
        self._certify()
        return [j for j in range(self.width) if j not in self._rref]

    def basis_rows(self):
        """The certified RREF rows in pivot order, as Fractions, pivot
        coefficient included."""
        self._certify()
        return _fractions(self._rref)


def _kills(equations, rref):
    """E.K = 0 in integers, for the int rows of equations and the rows of
    rref (as in _normal_form) times their den.  Row i of K is packed into
    one int per column at bit b*i, with every |E.k_i| below 2**(b-1), so E.K
    is zero exactly when E kills the packed vector."""
    top = max((abs(v) for row, den in rref.values()
               for v in (den, *row.values())), default=0)
    b = (top * max((sum(map(abs, u.values())) for u in equations),
                   default=0)).bit_length() + 1
    packed = {}
    for i, (piv, (row, den)) in enumerate(rref.items()):
        for j, v in ((piv, den), *row.items()):
            packed[j] = packed.get(j, 0) + (v << b * i)
    return not any(sum(c * packed.get(j, 0) for j, c in u.items())
                   for u in equations)


def _free_vectors(pivots, ncols, p):
    """The kernel's vectors mod p of an RREF mod p with the given rows, one
    per free column f: e_f minus column f, as {f: entries but the 1}."""
    free = {j: {} for j in range(ncols) if j not in pivots}
    for piv, row in pivots.items():
        for j, v in row.items():
            free[j][piv] = p - v
    return free


def _kernel_mod(free, p):
    """The RREF mod p of the vectors e_f + free[f] (free[f] gains the 1),
    entered by descending leading column."""
    for f, row in free.items():
        row[f] = 1
    return next(_eliminations(_descending(free.values()), None, (p,)))[1]


def kernel_basis(rows, ncols):
    """The canonical basis of the nullspace of the equation rows E (dicts
    over columns 0..ncols-1): the RREF of the kernel, certified by E.K = 0,
    as {pivot: (int row, den)} in pivot order (as in _normal_form)."""
    equations = _descending(map(cleared, rows))

    def tables():
        for tries, (rank, pivots, p) in enumerate(
                _eliminations(equations, ncols, exact_primes())):
            yield rank, _kernel_mod(_free_vectors(pivots, ncols, p), p), p
            # vectors that lift to Q and that E kills span the kernel over
            # Q; their residues give every further table, with no new
            # elimination (their denominators are below sqrt(p))
            basis = _lift(_free_vectors(pivots, ncols, p), p)
            if basis is not None and _kills(equations, basis):
                pivots.clear()
                for q in islice(exact_primes(), tries + 1, None):
                    yield rank, _kernel_mod(_residues(basis, q), q), q

    rref, _ = _certified(tables(), lambda rref: _kills(equations, rref))
    return {piv: rref[piv] for piv in sorted(rref)}
