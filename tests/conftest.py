import random
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest
from hypothesis import settings

from chiralring.rootsystem import build_root_system, chevalley_data
from chiralring.rootsystem.reps import representation
from chiralring.cdsw import Workspace
from chiralring.cdsw.core import IdealSpan, ideal_rows
from chiralring.abideals import AbelianIdeal, is_abelian, is_ideal
from chiralring import exactla
from chiralring.exactla import _is_prime, addmul
from chiralring.exterior import (ExtElement, OddMatrix, _bits,
                                 extract_xi_eta, wedge_into)

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
def sp4():
    return chevalley_data(build_root_system("C", 2))


@pytest.fixture(scope="session")
def g2():
    return chevalley_data(build_root_system("G", 2))


@pytest.fixture(scope="session")
def ws_sl2(sl2):
    return Workspace(sl2)


@pytest.fixture(scope="session")
def ws_sl3(sl3):
    return Workspace(sl3)


@pytest.fixture(scope="session")
def ws_so5(so5):
    return Workspace(so5)


@pytest.fixture(scope="session")
def ws_sp4(sp4):
    return Workspace(sp4)


@pytest.fixture(scope="session")
def ws_g2(g2):
    return Workspace(g2)


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


def gen_x(alg, i):
    """The generator x_i as an element."""
    return ExtElement(alg, {1 << i: Fraction(1)})


def gen_y(alg, i):
    """The generator y_i as an element."""
    return ExtElement(alg, {1 << (alg.n + i): Fraction(1)})


def gen_xi(alg):
    """The auxiliary generator xi as an element."""
    return ExtElement(alg, {1 << alg.xi_bit: Fraction(1)})


def gen_eta(alg):
    """The auxiliary generator eta as an element."""
    return ExtElement(alg, {1 << alg.eta_bit: Fraction(1)})


def elements(alg, terms_dicts):
    """Int terms dicts, such as the relations of a family
    (`cdsw.core.relations`), as elements."""
    return [ExtElement(alg, t) for t in terms_dicts]


def scalar(alg, c):
    """The constant c as an element (no term when c is 0)."""
    c = Fraction(c)
    return ExtElement(alg, {0: c} if c else {})


def sub(a, b):
    """a - b of two elements."""
    return ExtElement(a.alg, addmul(dict(a.terms), b.terms, -1))


def mask_bidegree(alg, mask):
    """The bidegree of a monomial: x-generators and xi count (1,0),
    y-generators and eta (0,1)."""
    n = alg.n
    p = (mask & ((1 << n) - 1)).bit_count() + (mask >> alg.xi_bit & 1)
    q = (mask >> n & ((1 << n) - 1)).bit_count() + (mask >> alg.eta_bit & 1)
    return (p, q)


def bidegree(elem):
    """The common bidegree of all terms of elem, or None if mixed or
    zero."""
    degs = {mask_bidegree(elem.alg, m) for m in elem.terms}
    return degs.pop() if len(degs) == 1 else None


def component(elem, p, q):
    """The terms of elem of bidegree (p,q)."""
    alg = elem.alg
    return ExtElement(alg, {m: c for m, c in elem.terms.items()
                            if mask_bidegree(alg, m) == (p, q)})


def xi_eta(elem):
    """The coefficient of xi^eta in elem (`exterior.extract_xi_eta`)."""
    return ExtElement(elem.alg, extract_xi_eta(elem.alg, elem.terms))


def odd_matrix(alg, rows):
    """The OddMatrix of a square list of rows of ExtElements: their
    numerators over the least common denominator of every coefficient."""
    den = lcm(*(c.denominator
                for row in rows for e in row for c in e.terms.values()))
    return OddMatrix(alg, [[{m: c.numerator * (den // c.denominator)
                             for m, c in e.terms.items()}
                            for e in row] for row in rows], den)


def trace_product(a, b):
    """Tr(a . b) of two OddMatrices as an exact element
    (`OddMatrix.trace_product_ints`)."""
    return ExtElement.from_ints(a.alg, *a.trace_product_ints(b))


def entry(mat, i, j):
    """Entry (i, j) of an OddMatrix as an exact element."""
    return ExtElement.from_ints(mat.alg, mat.entries[i][j], mat.den)


def act_on(action, a, elem):
    """The even derivation of Lie basis element a applied to elem, term by
    term through `ActionTable.act_mask`."""
    out = {}
    for mask, coeff in elem.terms.items():
        addmul(out, action.act_mask(a, mask), coeff)
    return ExtElement(action.alg, out)


def fraction_S(ws):
    """S = sum_a x_a y^a over the form-dual basis, over Fractions from
    Binv = lie.form_inv: the reference for the workspace's int D * S."""
    lie = ws.lie
    n = lie.dim
    return ExtElement(ws.alg, {(1 << a) | (1 << (b + n)): c
                               for a in range(n)
                               for b, c in enumerate(lie.form_inv[a]) if c})


def fraction_xy_matrices(ws):
    """Reference for `Workspace.xy_matrices`, over Fractions:
    rho(e^a) = sum_b form_inv[a][b] rho(e_b) summed densely, and
    X = sum_a x_a rho(e^a), Y = sum_a y_a rho(e^a), as rows of
    ExtElements."""
    lie = ws.lie
    rep = representation(lie, ws.trace_label)
    size = range(rep.dim_V)
    dual = []
    for a in range(lie.dim):
        m = [[Fraction(0)] * rep.dim_V for _ in size]
        for b, c in enumerate(lie.form_inv[a]):
            if c:
                mb = rep.matrices[b]
                for i in size:
                    for j in size:
                        m[i][j] += c * mb[i][j]
        dual.append(m)

    def rows(shift):
        return [[ExtElement(ws.alg, {1 << (a + shift): dual[a][i][j]
                                     for a in range(lie.dim)
                                     if dual[a][i][j]})
                 for j in size] for i in size]

    return rows(0), rows(lie.dim)


def power(elem, k):
    """elem^k over Fractions, wedged out from the constant 1: the
    reference for the library's int S powers (`cdsw.core.s_power`)."""
    r = scalar(elem.alg, 1)
    for _ in range(k):
        r = r.wedge(elem)
    return r


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
    """count distinct primes in [2**30, 2**31) drawn from seed: two CPython
    digits wide, above every prime of exactla.exact_primes(), so a stand-in
    that takes them first never takes one of them twice."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        p = rng.randrange(1 << 30, 1 << 31) | 1
        if _is_prime(p) and p not in out:
            out.append(p)
    return out


def use_seed_primes(monkeypatch, seed):
    """Make every elimination first take two primes drawn from seed;
    returns those primes."""
    first = seed_primes(seed, 2)
    monkeypatch.setattr(exactla, "exact_primes",
                        primes_below(exactla.PRIME_BOUND, first))
    assert exactla.Echelon().p == first[0]
    return first


def eliminated_over(workspaces, primes):
    """Whether the workspaces cached ideal spans and every part of each was
    certified over one of primes: the spans were eliminated after the
    primes were set, not read from an earlier run."""
    parts = [part for ws in workspaces for span in ws.ideal_spans.values()
             for part in span.parts]
    return bool(parts) and all(part.p in primes for part in parts)


def span_columns(span):
    """{(part, column): [(mask, sign), ...]} of a `cdsw.core.IdealSpan`:
    column j of part i of an element is the sum of sign * coefficient over
    the listed masks."""
    out = {}
    for m, (o, signs) in span.orbit.items():
        for i, (place, sign) in enumerate(zip(span.place, signs)):
            if place[o] is not None:
                out.setdefault((i, place[o]), []).append((m, sign))
    return out


def span_basis_elements(alg, span):
    """The certified RREF rows of every part of a `cdsw.core.IdealSpan`, as
    elements over the weight-zero masks.  Column j of part i is read as
    sum sign * e_m / |O| over its masks m (`span_columns`), |O| of them:
    the element of that part whose coordinates are e_j."""
    cols = span_columns(span)
    out = []
    for i, part in enumerate(span.parts):
        for row in part.basis_rows():
            out.append(ExtElement(alg, {
                m: sign * c / len(cols[i, j])
                for j, c in row.items() for m, sign in cols[i, j]}))
    return out


def canonical_ideal_span(ws, families, p, q, columns=None):
    """Reference for cdsw.core.ideal_weight_zero: the same weight-zero
    ideal rows over the given columns, by default the weight-zero masks in
    canonical order."""
    zero = ws.action.zero_weight
    if columns is None:
        columns = ws.action.weight_masks(p, q, zero)
    return IdealSpan(columns, (p, q), ideal_rows(ws, families, p, q, zero))


class InhomogeneousInput(ValueError):
    pass


def kernel_of(ech, ncols):
    """Canonical kernel basis read off an Echelon's certified RREF, rows
    taken in whatever order they were inserted."""
    rref = {min(row): row for row in ech.basis_rows()}
    basis = []
    for free in range(ncols):
        if free in rref:
            continue
        vec = {free: Fraction(1)}
        for piv, row in rref.items():
            if row.get(free):
                vec[piv] = -row[free]
        basis.append(vec)
    return basis


def span(elements, component=None, columns=None):
    """Certified span of homogeneous elements of one bidegree.

    component: (p, q); columns defaults to the full component monomial list
    of the first element's algebra, and the algebra's cap then guards its
    monomial count (ComponentTooLarge).
    """
    if columns is None:
        if not elements:
            return IdealSpan((), component, ())
        alg = elements[0].alg
        p, q = component if component is not None else bidegree(elements[0])
        alg.guard(p, q)
        columns = alg.component_masks(p, q)
        component = (p, q)
    for el in elements:
        if (component is not None and el.terms
                and bidegree(el) != tuple(component)):
            raise InhomogeneousInput("element of bidegree %s in component %s"
                                     % (bidegree(el), component))
    return IdealSpan(columns, component, [el.terms for el in elements])


def fraction_relations(alg, lie):
    """Reference for cdsw.core.relations: the contraction
    sum_ab f_ab^c g^a g^b in the form-dual coordinates g^a = sum_b Binv_ab g_b
    with Binv's Fractions as they are, so each relation is 1/D**2 times the
    library's int one (D the lcm of Binv's denominators).  Returns the XX,
    XY and YY families as lists of ExtElements."""
    n = lie.dim
    xd = [{1 << b: v for b, v in enumerate(lie.form_inv[a]) if v}
          for a in range(n)]
    yd = [{1 << (b + n): v for b, v in enumerate(lie.form_inv[a]) if v}
          for a in range(n)]
    xx, xy, yy = ([{} for _ in range(n)] for _ in range(3))
    for (a, b), comb in lie.struct.items():
        pairs = ((xx, xd[a], xd[b]), (xy, xd[a], yd[b]), (yy, yd[a], yd[b]))
        for fam, u, v in pairs:
            uv = wedge_into({}, u, v)
            for c, coeff in comb.items():
                addmul(fam[c], uv, Fraction(coeff))
    return tuple([ExtElement(alg, t) for t in fam] for fam in (xx, xy, yy))


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
                addmul(inner, act_on(action, b, elem).terms, c)
        addmul(out, act_on(action, a, ExtElement(action.alg, inner)).terms)
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

    return _relabelled(elem, image)


def chevalley_xy(elem, lie):
    """The Chevalley involution x_a -> -x_sigma(a), y_a -> -y_sigma(a) of
    the x and y blocks, sigma = `lie.chevalley_involution()`: the
    reference for `ActionTable.chevalley_image`."""
    sigma = lie.chevalley_involution()
    n = elem.alg.n

    def image(b):
        assert b < 2 * n, "xi/eta"
        return sigma[b] if b < n else sigma[b - n] + n

    # a sign per generator
    return ExtElement(elem.alg, {
        m: -c if m.bit_count() & 1 else c
        for m, c in _relabelled(elem, image).terms.items()})


def _relabelled(elem, image):
    """The algebra map sending generator b to generator image(b), image a
    permutation of the generators."""
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
        # a permutation of generators permutes monomials, so no two terms
        # collide
        out[m2] = sign * c
    return ExtElement(elem.alg, out)


def matrix_trace(mat):
    """Sum of the diagonal entries of an OddMatrix as an ExtElement: the
    full-product reference for `trace_product` and the hat traces."""
    acc = {}
    for i in range(mat.size):
        addmul(acc, mat.entries[i][i])
    return ExtElement.from_ints(mat.alg, acc, mat.den)


def eval_poly_grassmann(poly, values, alg):
    """Reference evaluation of a polynomial {exponent tuple: coefficient}
    (such as `remark.newton_f`) at even Grassmann elements, over Fractions,
    every monomial wedged out from the constant 1."""
    total = {}
    for e, c in poly.items():
        term = scalar(alg, 1)
        for i, k in enumerate(e):
            for _ in range(k):
                term = term.wedge(values[i])
        addmul(total, term.terms, c)
    return ExtElement(alg, total)


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
