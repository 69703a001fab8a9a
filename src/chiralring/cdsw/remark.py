"""The sl(n) trace identity and its Grassmann specialization.

f_n is the polynomial expressing the (n+1)-st power sum of n variables
through the first n, via Newton's identities.  For any n x n matrix with
entries in a commutative ring, Tr(M^{n+1}) = f_n(Tr M, ..., Tr M^n).
Substituting Z = XY + xi X + eta Y (even Grassmann entries, so the identity
applies verbatim) and extracting the xi-eta coefficient turns the identity
into a degree-n relation whose Tr(XY)^n term has a nonzero coefficient:
the S-power vanishing for sl(n) falls out.
"""

from fractions import Fraction
from math import factorial, lcm

from ..exactla import addmul
from ..exterior import ExtElement, OddMatrix, wedge_into
from .core import ideal_weight_zero, XX, XY, YY


class Poly:
    """Multivariate polynomial: {exponent tuple: Fraction}."""

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = dict(terms or {})

    @classmethod
    def var(cls, nvars, i, c=1):
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): Fraction(c)})

    @classmethod
    def const(cls, nvars, c):
        c = Fraction(c)
        return cls(nvars, {(0,) * nvars: c} if c else {})

    def __add__(self, other):
        return Poly(self.nvars, addmul(dict(self.terms), other.terms))

    def __sub__(self, other):
        return Poly(self.nvars, addmul(dict(self.terms), other.terms, -1))

    def scale(self, c):
        c = Fraction(c)
        if not c:
            return Poly(self.nvars)
        return Poly(self.nvars, {e: c * v for e, v in self.terms.items()})

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return Poly(self.nvars, out)

    def coefficient(self, expo):
        return self.terms.get(tuple(expo), Fraction(0))


class NewtonPolynomial:
    def __init__(self, n, poly):
        self.n = n
        self.poly = poly

    def leading_power_coefficient(self):
        """Coefficient of y_1^(n+1); absolute value 1/n!."""
        e = [0] * self.n
        e[0] = self.n + 1
        return self.poly.coefficient(e)

    def mixed_coefficient(self):
        """Coefficient of y_1^(n-1) y_2 (whenever n >= 2)."""
        e = [0] * self.n
        e[0] = self.n - 1
        e[1] = 1
        return self.poly.coefficient(e)


def newton_f(n):
    """f_n with y_{n+1} = f_n(y_1..y_n) for power sums of n variables.

    Newton's identities give the elementary symmetric polynomials in terms
    of power sums, E_k = (1/k) sum_{i=1..k} (-1)^(i-1) E_{k-i} y_i, and then
    p_{n+1} = sum_{i=1..n} (-1)^(i-1) E_i p_{n+1-i} since E_{n+1} vanishes
    on n variables."""
    if n < 1:
        raise ValueError("n >= 1")
    y = [Poly.var(n, i) for i in range(n)]
    E = [Poly.const(n, 1)]
    for k in range(1, n + 1):
        acc = Poly(n)
        for i in range(1, k + 1):
            term = E[k - i] * y[i - 1]
            acc = acc + (term if i % 2 == 1 else term.scale(-1))
        E.append(acc.scale(Fraction(1, k)))
    f = Poly(n)
    for i in range(1, n + 1):
        term = E[i] * y[n - i]   # p_{n+1-i}
        f = f + (term if i % 2 == 1 else term.scale(-1))
    for e in f.terms:
        if sum(i * x for i, x in enumerate(e, 1)) != n + 1:
            raise AssertionError("monomial %s of f_%d has weight other than "
                                 "%d" % (e, n, n + 1))
    np = NewtonPolynomial(n, f)
    lead = np.leading_power_coefficient()
    if abs(lead) != Fraction(1, factorial(n)):
        raise AssertionError("leading power coefficient %s, expected "
                             "+-1/%d!" % (lead, n))
    return np


def newton_ints(poly, traces, monomials):
    """L times poly at the traces, as (L, int terms): L is the lcm of the
    coefficients' denominators.  `monomials` maps exponent tuples to the
    int products prod_i traces[i]^e_i already built, starting from
    {(0,...,0): {0: 1}}; each missing one is built from a smaller one
    (the highest variable taken off) and kept.  The traces are even, so the
    order of the factors is immaterial."""
    L = lcm(*(c.denominator for c in poly.terms.values()))
    total = {}
    for e, c in poly.terms.items():
        addmul(total, _monomial(e, traces, monomials),
               c.numerator * (L // c.denominator))
    return L, total


def _monomial(e, traces, monomials):
    val = monomials.get(e)
    if val is None:
        i = max(j for j, x in enumerate(e) if x)
        smaller = e[:i] + (e[i] - 1,) + e[i + 1:]
        val = monomials[e] = wedge_into(
            {}, _monomial(smaller, traces, monomials), traces[i])
    return val


def z_traces(ws, n):
    """(D, [T_1, ..., T_(n+1)]) for Z = XY + xi X + eta Y: D = den(Z) and
    T_k = D^k Tr(Z^k) as int terms.  Z has even entries, so
    Tr(Z^k) = Tr(Z^floor(k/2) . Z^ceil(k/2)) by trace cyclicity, and powers
    up to Z^ceil((n+1)/2) suffice; Z^h has the denominator D^h."""
    alg = ws.alg
    X, Y = ws.xy_matrices()
    Z = X.matmul(Y) + X.scale_left(alg.xi()) + Y.scale_left(alg.eta())
    pows = [OddMatrix.identity(alg, Z.size), Z]
    while len(pows) <= (n + 2) // 2:
        pows.append(pows[-1].matmul(Z))
    traces = []
    for k in range(1, n + 2):
        h = k // 2
        terms, _ = (pows[h].trace_square_ints() if k == 2 * h
                    else pows[h].trace_product_ints(pows[k - h]))
        traces.append(terms)
    return Z.den, traces


def check_sln_remark(n, cap=None):
    """The exact trace identity for Z = XY + xi X + eta Y over sl(n), and
    the xi-eta extraction that witnesses the degree-n S-power relation.

    Everything runs on ints over D = den(Z): T_k = D^k Tr(Z^k) are int
    terms, and every monomial of f_n has weight n+1 (`newton_f`), so the
    identity reads L T_(n+1) = sum_e (L c_e) prod_i T_i^e_i, L clearing
    f_n's denominators.  Memberships do not depend on the scale."""
    from ..rootsystem import build_root_system, chevalley_data
    from .core import Workspace

    if n < 2:
        raise ValueError("n in {2, 3} at desk scale")
    lie = chevalley_data(build_root_system("A", n - 1))
    ws = Workspace(lie, cap)
    alg = ws.alg
    # the memberships below are at (n,n): guard it before any expansion
    alg.guard(n, n)
    D, traces = z_traces(ws, n)
    lhs = traces[n]  # T_(n+1)

    np_ = newton_f(n)
    monomials = {(0,) * n: {0: 1}}
    L, rhs = newton_ints(np_.poly, traces[:n], monomials)
    identity = ({m: L * c for m, c in lhs.items()} == rhs)

    q_star = np_.mixed_coefficient()
    c = -2 * q_star

    # D Tr(XY): the terms of T_1 = D Tr(Z) without xi or eta
    trxy = {m: v for m, v in traces[0].items() if not m >> alg.xi_bit}
    trxy_n = trxy
    for _ in range(n - 1):
        trxy_n = wedge_into({}, trxy_n, trxy)

    # xi-eta parts: the distinguished monomial y1^(n-1) y2 contributes
    # exactly c * Tr(XY)^n; on ints, L q_star T_1^(n-1) T_2 against
    # L c D times D^n Tr(XY)^n
    e_star = [0] * n
    e_star[0], e_star[1] = n - 1, 1
    Lq = L // q_star.denominator * q_star.numerator
    star_term = {m: Lq * v for m, v in monomials[tuple(e_star)].items()}
    star_matches = (ExtElement(alg, star_term).extract_xi_eta()
                    == ExtElement(alg, {m: -2 * Lq * D * v
                                        for m, v in trxy_n.items()}))

    rest = ExtElement(alg, addmul(dict(rhs), star_term, -1)).extract_xi_eta()
    lhs_xieta = ExtElement(alg, lhs).extract_xi_eta()

    # memberships in the full defining ideal at (n,n): every piece except
    # the Tr(XY)^n term reduces into it, which forces S^n into the ideal
    sub = ideal_weight_zero(ws, (XX, XY, YY), n, n)
    lhs_in_ideal = sub.contains(lhs_xieta)
    rest_in_ideal = sub.contains(rest)
    s_power_in_ideal = sub.contains(ExtElement(alg, trxy_n))

    report = {
        "n": n,
        "identity_holds": identity,
        "y1_power_coefficient": str(np_.leading_power_coefficient()),
        "y1n1_y2_coefficient": str(q_star),
        "trxy_coefficient": str(c),
        "star_term_is_c_trxy_n": star_matches,
        "lhs_xieta_in_ideal": lhs_in_ideal,
        "other_terms_in_ideal": rest_in_ideal,
        "s_power_in_ideal": s_power_in_ideal,
        "pass": (identity and c != 0 and star_matches and lhs_in_ideal
                 and rest_in_ideal and s_power_in_ideal),
    }
    return report
