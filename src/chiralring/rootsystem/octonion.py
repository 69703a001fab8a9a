"""Split G2 from the split octonions.

The derivation algebra of the split octonions (Zorn vector matrices) is the
split form of G2; its action on trace-zero octonions is the 7-dimensional
fundamental representation.  Everything here is exact rational linear
algebra: solve the derivation equations, cut out the diagonal Cartan, and
pick root vectors as solutions of eigenvalue equations.
"""

from fractions import Fraction

from ..exactla import addmul, kernel_basis

# basis order: u, v1, v2, v3, w1, w2, w3, u'
_U, _V1, _V2, _V3, _W1, _W2, _W3, _UP = range(8)


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _zorn_mul(x, y):
    """(a, v; w, b)(a', v'; w', b') in vector-matrix form."""
    a, v, w, b = x
    a2, v2, w2, b2 = y
    cr1 = _cross(w, w2)
    cr2 = _cross(v, v2)
    return (a * a2 + _dot(v, w2),
            tuple(a * v2[i] + b2 * v[i] - cr1[i] for i in range(3)),
            tuple(a2 * w[i] + b * w2[i] + cr2[i] for i in range(3)),
            b * b2 + _dot(w, v2))


def _basis_element(k):
    z3 = (Fraction(0),) * 3
    e = [Fraction(0)] * 3
    if k == _U:
        return (Fraction(1), z3, z3, Fraction(0))
    if k == _UP:
        return (Fraction(0), z3, z3, Fraction(1))
    if _V1 <= k <= _V3:
        e[k - _V1] = Fraction(1)
        return (Fraction(0), tuple(e), z3, Fraction(0))
    e[k - _W1] = Fraction(1)
    return (Fraction(0), z3, tuple(e), Fraction(0))


def _to_coords(x):
    a, v, w, b = x
    return [a, v[0], v[1], v[2], w[0], w[1], w[2], b]


def multiplication_table():
    """m[i][j] = coordinates of b_i * b_j."""
    basis = [_basis_element(k) for k in range(8)]
    return [[_to_coords(_zorn_mul(basis[i], basis[j])) for j in range(8)]
            for i in range(8)]


def derivation_equations(mult):
    """Linear equations on a matrix D (unknowns D[r][c] flattened as 8r+c)
    expressing D(b_i b_j) = D(b_i) b_j + b_i D(b_j)."""
    rows = []
    for i in range(8):
        for j in range(8):
            prod = mult[i][j]
            for l in range(8):
                eq = {}

                def add(r, c, val):
                    if val:
                        addmul(eq, {8 * r + c: val})

                # D(b_i b_j)_l = sum_k prod_k D[l][k]
                for k in range(8):
                    add(l, k, prod[k])
                # -(D(b_i) b_j)_l = -sum_k D[k][i] (b_k b_j)_l
                for k in range(8):
                    add(k, i, -mult[k][j][l])
                # -(b_i D(b_j))_l
                for k in range(8):
                    add(k, j, -mult[i][k][l])
                if eq:
                    rows.append(eq)
    return rows


def derivation_basis():
    """Basis of the 14-dimensional derivation algebra, as 8x8 matrices."""
    mult = multiplication_table()
    vecs = kernel_basis(derivation_equations(mult), 64)
    mats = []
    for vec in vecs:
        m = [[Fraction(0)] * 8 for _ in range(8)]
        for k, c in vec.items():
            m[k // 8][k % 8] = c
        mats.append(m)
    if len(mats) != 14:
        raise AssertionError("derivation algebra has dim %d, expected 14"
                             % len(mats))
    return mats


def _mat_mul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def _mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _comm(a, b):
    return _mat_sub(_mat_mul(a, b), _mat_mul(b, a))


def _restrict_traceless(m):
    """Restrict an 8x8 derivation to the 7-space spanned by
    (u - u', v1..v3, w1..w3); derivations kill 1 = u + u'."""
    cols = []
    # source basis vectors in 8-space coordinates
    src = [[Fraction(0)] * 8 for _ in range(7)]
    src[0][_U], src[0][_UP] = Fraction(1), Fraction(-1)
    for i in range(3):
        src[1 + i][_V1 + i] = Fraction(1)
        src[4 + i][_W1 + i] = Fraction(1)
    for s in src:
        img = [sum(m[r][c] * s[c] for c in range(8)) for r in range(8)]
        # express image back: coefficient of (u-u') is img[_U]; demand
        # img[_UP] = -img[_U] (image stays traceless)
        if img[_U] + img[_UP] != 0:
            raise AssertionError("derivation does not preserve trace zero")
        cols.append([img[_U]] + img[1:7])
    return [[cols[j][i] for j in range(7)] for i in range(7)]


class SplitG2Seeds:
    """Simple-root sl2 triples of split G2 in the 7-dimensional
    representation, labelled so root 1 is short and root 2 long."""

    def __init__(self):
        ders = derivation_basis()
        # Cartan: derivations diagonal on the octonion basis.  Solve inside
        # the derivation span.
        dercoords = []
        for m in ders:
            vec = {8 * r + c: m[r][c] for r in range(8) for c in range(8)
                   if m[r][c]}
            dercoords.append(vec)
        # unknowns: coefficients t_1..t_14 with sum t_k D_k diagonal
        eqs = []
        for r in range(8):
            for c in range(8):
                if r == c:
                    continue
                eq = {k: dercoords[k].get(8 * r + c, Fraction(0))
                      for k in range(14)}
                eq = {k: v for k, v in eq.items() if v}
                if eq:
                    eqs.append(eq)
        cart = kernel_basis(eqs, 14)
        if len(cart) != 2:
            raise AssertionError("Cartan has dim %d, expected 2" % len(cart))
        h8 = []
        for vec in cart:
            m = [[Fraction(0)] * 8 for _ in range(8)]
            for k, c in vec.items():
                for r in range(8):
                    for cc in range(8):
                        if ders[k][r][cc]:
                            m[r][cc] += c * ders[k][r][cc]
            h8.append(m)
        self.h8 = h8
        self.ders = ders
        self.dercoords = dercoords
        self._adh = [[_comm(h, d) for d in ders] for h in h8]
        self._build_roots()

    def _weights(self):
        """Weight of each octonion basis line under (h1, h2): read off the
        diagonals."""
        return [(self.h8[0][k][k], self.h8[1][k][k]) for k in range(8)]

    def _root_space(self, lam):
        """Solve for derivations D with [h_i, D] = lam_i D, inside Der."""
        eqs = []
        for which in range(2):
            for r in range(8):
                for c in range(8):
                    # sum_k t_k ([h, D_k] - lam D_k)_{rc} = 0
                    eq = {}
                    for k, m in enumerate(self.ders):
                        val = self._adh[which][k][r][c] - lam[which] * m[r][c]
                        if val:
                            eq[k] = val
                    if eq:
                        eqs.append(eq)
        sols = kernel_basis(eqs, 14)
        out = []
        for vec in sols:
            m = [[Fraction(0)] * 8 for _ in range(8)]
            for k, c in vec.items():
                for r in range(8):
                    for cc in range(8):
                        if self.ders[k][r][cc]:
                            m[r][cc] += c * self.ders[k][r][cc]
            out.append(m)
        return out

    def _build_roots(self):
        weights = self._weights()
        nonzero = sorted({w for w in weights if any(w)})
        roots = set()
        for w1 in nonzero:
            for w2 in nonzero + [(Fraction(0), Fraction(0))]:
                cand = (w1[0] - w2[0], w1[1] - w2[1])
                if any(cand):
                    roots.add(cand)
        roots = {r for r in roots if len(self._root_space(r)) == 1}
        if len(roots) != 12:
            raise AssertionError("found %d roots, expected 12" % len(roots))
        pos = sorted(r for r in roots if r > (Fraction(0), Fraction(0)))
        # simple roots: positive roots that are not sums of two positive
        simples = [r for r in pos
                   if not any((r[0] - s[0], r[1] - s[1]) in roots and
                              (r[0] - s[0], r[1] - s[1]) > (0, 0) and
                              s != r for s in pos)]
        if len(simples) != 2:
            raise AssertionError("found %d simple roots" % len(simples))

        def string_q(beta, alpha):
            q = 0
            cur = (beta[0] + alpha[0], beta[1] + alpha[1])
            while cur in roots:
                q += 1
                cur = (cur[0] + alpha[0], cur[1] + alpha[1])
            return q

        a, b = simples
        # the short simple root absorbs the long one three times
        if string_q(b, a) == 3:
            short, other = a, b
        elif string_q(a, b) == 3:
            short, other = b, a
        else:
            raise AssertionError("cannot identify the short simple root")
        self.simple_roots = [short, other]
        self.triples = [self._sl2_triple(r) for r in self.simple_roots]

    def _sl2_triple(self, alpha):
        (e8,) = self._root_space(alpha)
        (f8,) = self._root_space((-alpha[0], -alpha[1]))
        t = _comm(e8, f8)
        # [t, e] = c e; rescale f so that c = 2
        c = None
        te = _comm(t, e8)
        for r in range(8):
            for s in range(8):
                if e8[r][s]:
                    c = te[r][s] / e8[r][s]
                    break
            if c is not None:
                break
        scale = Fraction(2) / c
        f8 = [[v * scale for v in row] for row in f8]
        return (_restrict_traceless(e8), _restrict_traceless(f8))


_SEEDS = None


def g2_seed_triples():
    """[(e1, f1), (e2, f2)] as 7x7 matrices, root 1 short, root 2 long."""
    global _SEEDS
    if _SEEDS is None:
        _SEEDS = SplitG2Seeds()
    return _SEEDS.triples
