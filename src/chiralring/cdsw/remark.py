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
from math import factorial

from ..exactla import addmul
from ..exterior import ExtElement, OddMatrix
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
    np = NewtonPolynomial(n, f)
    lead = np.leading_power_coefficient()
    if abs(lead) != Fraction(1, factorial(n)):
        raise AssertionError("leading power coefficient %s, expected "
                             "+-1/%d!" % (lead, n))
    return np


def _eval_poly_grassmann(poly, values, alg):
    """Evaluate a Poly at even Grassmann elements."""
    total = {}
    for e, c in poly.terms.items():
        term = alg.one()
        for i, k in enumerate(e):
            for _ in range(k):
                term = term.wedge(values[i])
        addmul(total, term.terms, c)
    return ExtElement(alg, total)


def check_sln_remark(n, cap=None):
    """The exact trace identity for Z = XY + xi X + eta Y over sl(n), and
    the xi-eta extraction that witnesses the degree-n S-power relation."""
    from ..rootsystem import build_root_system, chevalley_data
    from .core import Workspace

    if n < 2:
        raise ValueError("n in {2, 3} at desk scale")
    lie = chevalley_data(build_root_system("A", n - 1))
    ws = Workspace(lie)
    alg = ws.alg
    X, Y = ws.xy_matrices()
    xy = X.matmul(Y)
    Z = xy + X.scale_left(alg.xi()) + Y.scale_left(alg.eta())

    # Z has even entries, so Tr(Z^k) = Tr(Z^floor(k/2) . Z^ceil(k/2)) by
    # trace cyclicity: powers up to Z^ceil((n+1)/2) suffice
    pows = [OddMatrix.identity(alg, Z.size), Z]
    while len(pows) <= (n + 2) // 2:
        pows.append(pows[-1].matmul(Z))
    traces = [pows[k // 2].trace_product(pows[k - k // 2])
              for k in range(1, n + 2)]
    lhs = traces[n]  # Tr(Z^{n+1})

    np_ = newton_f(n)
    rhs = _eval_poly_grassmann(np_.poly, traces[:n], alg)
    identity = (lhs == rhs)

    q_star = np_.mixed_coefficient()
    c = -2 * q_star

    trxy = xy.trace()
    trxy_n = trxy.power(n)

    # xi-eta parts: the distinguished monomial y1^(n-1) y2 contributes
    # exactly c * Tr(XY)^n
    e_star = [0] * n
    e_star[0], e_star[1] = n - 1, 1
    star_term = _eval_poly_grassmann(Poly(n, {tuple(e_star): q_star}),
                                     traces[:n], alg)
    star_xieta = star_term.extract_xi_eta()
    star_matches = (star_xieta == trxy_n.scale(c))

    rest = (rhs - star_term).extract_xi_eta()
    lhs_xieta = lhs.extract_xi_eta()

    # memberships in the full defining ideal at (n,n): every piece except
    # the Tr(XY)^n term reduces into it, which forces S^n into the ideal
    sub = ideal_weight_zero(ws, (XX, XY, YY), n, n, cap)
    lhs_in_ideal = sub.contains(lhs_xieta)
    rest_in_ideal = sub.contains(rest)
    s_power_in_ideal = sub.contains(trxy_n)

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
