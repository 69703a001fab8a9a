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
from ..exterior import (OddMatrix, even_monomial, extract_xi_eta,
                        power_trace_ints)
from .core import ideal_weight_zero, XX, XY, YY


def _times_y(poly, i):
    """y_i poly, on an {exponent tuple: coefficient} dict: each exponent of
    y_i goes up by one."""
    return {e[:i] + (e[i] + 1,) + e[i + 1:]: c for e, c in poly.items()}


def newton_f(n):
    """f_n with y_{n+1} = f_n(y_1..y_n) for power sums of n variables, as
    {exponent tuple: Fraction}.

    Newton's identities give the elementary symmetric polynomials in terms
    of power sums, E_k = (1/k) sum_{i=1..k} (-1)^(i-1) E_{k-i} y_i, and then
    p_{n+1} = sum_{i=1..n} (-1)^(i-1) E_i p_{n+1-i} since E_{n+1} vanishes
    on n variables."""
    if n < 1:
        raise ValueError("n >= 1")
    E = [{(0,) * n: Fraction(1)}]
    for k in range(1, n + 1):
        acc = {}
        for i in range(1, k + 1):
            addmul(acc, _times_y(E[k - i], i - 1), (-1) ** (i - 1))
        E.append({e: c / k for e, c in acc.items()})
    f = {}
    for i in range(1, n + 1):
        addmul(f, _times_y(E[i], n - i), (-1) ** (i - 1))  # E_i p_(n+1-i)
    for e in f:
        if sum(i * x for i, x in enumerate(e, 1)) != n + 1:
            raise AssertionError("monomial %s of f_%d has weight other than "
                                 "%d" % (e, n, n + 1))
    lead = f.get(_leading(n), 0)
    if abs(lead) != Fraction(1, factorial(n)):
        raise AssertionError("leading power coefficient %s, expected "
                             "+-1/%d!" % (lead, n))
    return f


def _leading(n):
    """The exponent of y_1^(n+1), whose coefficient in f_n is +-1/n!."""
    return (n + 1,) + (0,) * (n - 1)


def newton_ints(poly, traces, monomials):
    """L times poly ({exponent tuple: Fraction}) at the traces, as
    (L, int terms): L is the lcm of the coefficients' denominators.  The
    products prod_i traces[i]^e_i are built by `even_monomial`, which keeps
    them in `monomials`."""
    L = lcm(*(c.denominator for c in poly.values()))
    total = {}
    for e, c in poly.items():
        addmul(total, even_monomial(e, traces, monomials),
               c.numerator * (L // c.denominator))
    return L, total


def z_traces(ws, n):
    """(D, [T_1, ..., T_(n+1)]) for Z = XY + xi X + eta Y: D = den(Z) and
    T_k = D^k Tr(Z^k) as int terms.  Z has even entries, so powers up to
    Z^ceil((n+1)/2) suffice (`power_trace_ints`); Z^h has the denominator
    D^h."""
    alg = ws.alg
    X, Y = ws.xy_matrices()
    Z = (X.matmul(Y) + X.scale_left({1 << alg.xi_bit: 1})
         + Y.scale_left({1 << alg.eta_bit: 1}))
    pows = [OddMatrix.identity(alg, Z.size), Z]
    while len(pows) <= (n + 2) // 2:
        pows.append(pows[-1].matmul(Z))
    return Z.den, [power_trace_ints(pows, k)[0] for k in range(1, n + 2)]


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

    f = newton_f(n)
    monomials = {}
    L, rhs = newton_ints(f, traces[:n], monomials)
    identity = ({m: L * c for m, c in lhs.items()} == rhs)

    e_star = (n - 1, 1) + (0,) * (n - 2)  # y_1^(n-1) y_2
    q_star = f[e_star]
    c = -2 * q_star

    # D Tr(XY): the terms of T_1 = D Tr(Z) without xi or eta
    trxy = {m: v for m, v in traces[0].items() if not m >> alg.xi_bit}
    trxy_n = even_monomial((n,), [trxy], {})

    # xi-eta parts: the distinguished monomial y1^(n-1) y2 contributes
    # exactly c * Tr(XY)^n; on ints, L q_star T_1^(n-1) T_2 against
    # L c D times D^n Tr(XY)^n
    Lq = L // q_star.denominator * q_star.numerator
    star_term = {m: Lq * v for m, v in monomials[e_star].items()}
    star_matches = (extract_xi_eta(alg, star_term)
                    == {m: -2 * Lq * D * v for m, v in trxy_n.items()})

    rest = extract_xi_eta(alg, addmul(dict(rhs), star_term, -1))
    lhs_xieta = extract_xi_eta(alg, lhs)

    # memberships in the full defining ideal at (n,n): every piece except
    # the Tr(XY)^n term reduces into it, which forces S^n into the ideal
    sub = ideal_weight_zero(ws, (XX, XY, YY), n, n)
    lhs_in_ideal = sub.contains(lhs_xieta)
    rest_in_ideal = sub.contains(rest)
    s_power_in_ideal = sub.contains(trxy_n)

    report = {
        "n": n,
        "identity_holds": identity,
        "y1_power_coefficient": str(f[_leading(n)]),
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
