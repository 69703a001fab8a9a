import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import settings

from chiralring.rootsystem import build_root_system, chevalley_data
from chiralring.cdsw import Workspace
from chiralring.abideals import AbelianIdeal, is_abelian, is_ideal
from chiralring import exactla
from chiralring.exactla import Subspace, _is_prime, addmul, guard_component
from chiralring.exterior import ExtElement, _bits

# Property tests draw the same examples on every run, and none is failed for
# its time: the suite runs on small shared hosts.
settings.register_profile("chiralring", derandomize=True, deadline=None)
settings.load_profile("chiralring")


@pytest.fixture(scope="session")
def sl2():
    return chevalley_data(build_root_system("A", 1))


@pytest.fixture(scope="session")
def sl3():
    return chevalley_data(build_root_system("A", 2))


@pytest.fixture(scope="session")
def so5():
    return chevalley_data(build_root_system("B", 2))


@pytest.fixture(scope="session")
def ws_sl2(sl2):
    return Workspace(sl2)


@pytest.fixture(scope="session")
def ws_sl3(sl3):
    return Workspace(sl3)


@pytest.fixture(scope="session")
def ws_so5(so5):
    return Workspace(so5)


def random_element(alg, rng, nterms=4, maxdeg=2):
    """Random sparse element with small integer coefficients."""
    ngens = 2 * alg.n + 2
    terms = {}
    for _ in range(nterms):
        size = rng.randint(0, maxdeg)
        bits = rng.sample(range(ngens), size)
        mask = 0
        for b in bits:
            mask |= 1 << b
        c = rng.randint(-4, 4)
        if c:
            terms[mask] = terms.get(mask, 0) + Fraction(c)
    return ExtElement(alg, {m: c for m, c in terms.items() if c})


def dense_rref(rows, ncols):
    """Textbook dense reduced row echelon form over Fractions; independent
    of the sparse implementation.  Returns (matrix, pivot columns)."""
    m = [list(r) + [Fraction(0)] * (ncols - len(r)) for r in rows]
    m = [row[:ncols] for row in m]
    pivots = []
    lead = 0
    for col in range(ncols):
        piv = None
        for r in range(lead, len(m)):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            continue
        m[lead], m[piv] = m[piv], m[lead]
        inv = Fraction(1) / m[lead][col]
        m[lead] = [v * inv for v in m[lead]]
        for r in range(len(m)):
            if r != lead and m[r][col]:
                c = m[r][col]
                m[r] = [a - c * b for a, b in zip(m[r], m[lead])]
        pivots.append(col)
        lead += 1
        if lead == len(m):
            break
    return m[:len(pivots)], pivots


class FractionRREF:
    """Incremental reduced row echelon form over Q in Fractions, kept fully
    reduced after every insert: the reference that certified exact mode is
    tested against.  rows maps each pivot column to the row's non-pivot
    entries; the pivot coefficient is an implicit 1."""

    def __init__(self):
        self.rows = {}

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, vec):
        """Residue of vec against the rows (vec unchanged)."""
        row = {j: v for j, v in vec.items() if v}
        # a base row has entries only in non-pivot columns right of its
        # pivot, so one pass in increasing column order clears every pivot
        for piv in sorted(row):
            base = self.rows.get(piv)
            if base is None or piv not in row:
                continue
            addmul(row, base, -row.pop(piv))
        return row

    def insert(self, vec):
        """Reduce vec and adjoin the residue if nonzero, back-substituting
        it into the existing rows.  Returns True when the rank grew."""
        row = self.reduce(vec)
        if not row:
            return False
        piv = min(row)
        row = addmul({}, row, Fraction(1) / row.pop(piv))
        for base in self.rows.values():
            c = base.pop(piv, None)
            if c:
                addmul(base, row, -c)
        self.rows[piv] = row
        return True

    def contains(self, vec):
        return not self.reduce(vec)

    def basis_rows(self):
        """The RREF rows in pivot order, pivot coefficient included."""
        return [{piv: Fraction(1), **self.rows[piv]}
                for piv in sorted(self.rows)]


def primes_below(n, first=()):
    """A stand-in for exactla.exact_primes(): the primes of first, then the
    primes below n, largest first."""
    def primes():
        yield from first
        p = n
        while True:
            p -= 1
            if _is_prime(p):
                yield p
    return primes


def seed_primes(seed, count):
    """count distinct primes in [2**30, 2**31) drawn from seed."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        p = rng.randrange(1 << 30, 1 << 31) | 1
        if _is_prime(p) and p not in out:
            out.append(p)
    return out


def use_seed_primes(monkeypatch, seed):
    """Make every elimination first take two primes drawn from seed."""
    first = seed_primes(seed, 2)
    monkeypatch.setattr(exactla, "exact_primes", primes_below(1 << 31, first))
    assert exactla.Echelon().p == first[0]


class InhomogeneousInput(ValueError):
    pass


def span(elements, component=None, columns=None, cap=None):
    """Certified span of homogeneous elements of one bidegree.

    component: (p, q); columns defaults to the full component monomial list
    of the first element's algebra, and cap then guards its monomial count
    (ComponentTooLarge).
    """
    if columns is None:
        if not elements:
            return Subspace((), component)
        alg = elements[0].alg
        p, q = component if component is not None else elements[0].bidegree()
        guard_component(alg, p, q, cap)
        columns = alg.component_masks(p, q)
        component = (p, q)
    sub = Subspace(columns, component)
    for el in elements:
        if (component is not None and el.terms
                and el.bidegree() != tuple(component)):
            raise InhomogeneousInput("element of bidegree %s in component %s"
                                     % (el.bidegree(), component))
        sub.insert(el)
    return sub


def casimir(action, elem):
    """sum_a act(e_a, act(e^a, -)), e^a = sum_b form_inv[a][b] e_b the
    form-dual basis; commutes with every act(b, -) and is the identity on
    the generators."""
    lie = action.lie
    out = {}
    for a in range(lie.dim):
        inner = {}
        for b, c in enumerate(lie.form_inv[a]):
            if c:
                addmul(inner, action.act(b, elem).terms, c)
        addmul(out, action.act(a, ExtElement(action.alg, inner)).terms)
    return ExtElement(action.alg, out)


def swap_xy(elem):
    """Algebra involution exchanging x_a with y_a (and xi with eta)."""
    alg = elem.alg
    n = alg.n

    def image(b):
        if b < n:
            return b + n
        if b < 2 * n:
            return b - n
        return alg.eta_bit if b == alg.xi_bit else alg.xi_bit

    out = {}
    for m, c in elem.terms.items():
        # list the image generators in source order, then count the
        # inversions needed to restore canonical order
        perm = [image(b) for b in _bits(m)]
        sign = 1
        for i in range(len(perm)):
            for j in range(i + 1, len(perm)):
                if perm[i] > perm[j]:
                    sign = -sign
        m2 = 0
        for b in perm:
            m2 |= 1 << b
        # the swap permutes monomials, so no two terms collide
        out[m2] = sign * c
    return ExtElement(alg, out)


def chevalley_generator_indices(lie):
    """Indices of e_i, f_i, h_i for simple i: they generate the algebra."""
    out = []
    for i in range(lie.rank):
        simple = lie.rs.simple_roots[i]
        out += [lie.e_index(simple), lie.f_index(simple), lie.h_index(i)]
    return out


class EmptyIdeal(ValueError):
    pass


def highest_weight_vector(alg, lie, ideal):
    """Wedge of the x-generators of the ideal's root vectors, in canonical
    order; a highest weight vector for the module it generates."""
    if ideal.dim == 0:
        raise EmptyIdeal("the empty ideal contributes the scalar 1")
    mask = 0
    for r in ideal.roots:
        mask |= 1 << lie.e_index(r)
    return ExtElement(alg, {mask: Fraction(1)})


def enumerate_abelian_ideals_bruteforce(rs):
    """Oracle: test every subset of the positive roots.  Only for small
    rank."""
    pos = rs.positive_roots
    out = []
    for size in range(len(pos) + 1):
        for comb in combinations(range(len(pos)), size):
            roots = [pos[i] for i in comb]
            if is_ideal(rs, roots) and is_abelian(rs, roots):
                out.append(AbelianIdeal(rs, comb))
    out.sort(key=lambda a: (a.dim, a.indices))
    return out


def casimir_matrix(action, masks):
    """Matrix of the Casimir on the span of the given monomials (which must
    be Casimir-stable, e.g. a full component or a weight slice)."""
    index = {m: i for i, m in enumerate(masks)}
    cols = []
    for m in masks:
        img = casimir(action, ExtElement(action.alg, {m: Fraction(1)}))
        col = {}
        for m2, v in img.terms.items():
            col[index[m2]] = v
        cols.append(col)
    return cols


def minimal_polynomial(apply_op, basis_vectors, ncols):
    """Minimal polynomial of an exact linear operator, via Krylov iteration
    from a deterministic cycling start vector.  apply_op maps a coordinate
    dict to a coordinate dict.  Returns monic coefficient list c_0..c_d
    with sum c_i t^i = 0."""
    lcm_poly = [Fraction(1)]
    for start in basis_vectors:
        # polynomial annihilating the cyclic subspace of `start`
        ech = FractionRREF()
        krylov = []
        vec = dict(start)
        while True:
            res = ech.reduce(vec)
            if not res:
                break
            krylov.append(dict(vec))
            ech.insert(vec)
            vec = apply_op(vec)
        # express vec over the krylov vectors: solve linear system
        cols = len(krylov)
        eqs = {}
        for j, kv in enumerate(krylov):
            for i, c in kv.items():
                eqs.setdefault(i, {})[j] = c
        rhs = dict(vec)
        sol = _solve(eqs, rhs, cols)
        local = [-sol.get(j, Fraction(0)) for j in range(cols)] + [Fraction(1)]
        lcm_poly = _poly_lcm(lcm_poly, local)
        if len(lcm_poly) - 1 >= ncols:
            break
    return lcm_poly


def _solve(eqs_by_row, rhs, ncols):
    """Solve an exactly-solvable system: rows are eqs_by_row[i] (dicts over
    0..ncols-1), target rhs[i]."""
    ech = FractionRREF()
    aug_col = ncols
    for i, row in eqs_by_row.items():
        vec = dict(row)
        b = rhs.get(i)
        if b:
            vec[aug_col] = b
        ech.insert(vec)
    sol = {}
    for piv in sorted(ech.rows, reverse=True):
        if piv == aug_col:
            raise ArithmeticError("inconsistent system")
        row = ech.rows[piv]
        sol[piv] = row.get(aug_col, Fraction(0))
    return sol


def _poly_lcm(a, b):
    g = _poly_gcd(a, b)
    q, _ = _poly_divmod(a, g)
    return _poly_mul(q, b)


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _poly_trim(out)


def _poly_trim(a):
    while len(a) > 1 and not a[-1]:
        a.pop()
    return a


def _poly_divmod(a, b):
    a = list(a)
    out = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    while len(a) >= len(b) and any(a):
        if not a[-1]:
            a.pop()
            continue
        shift = len(a) - len(b)
        c = a[-1] / b[-1]
        out[shift] = c
        for i, cb in enumerate(b):
            a[shift + i] -= c * cb
        a.pop()
    return _poly_trim(out), _poly_trim(a if a else [Fraction(0)])


def _poly_gcd(a, b):
    a, b = list(a), list(b)
    while any(b):
        _, r = _poly_divmod(a, b)
        a, b = b, r
        if len(b) == 1 and not b[0]:
            break
    # make monic
    lead = a[-1]
    return [c / lead for c in a]
