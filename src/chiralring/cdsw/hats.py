"""The hat map and the invariant algebra of the double supercommutative
quotient.

For a trace invariant F(w) = Tr_V(w^k), differentiating twice and feeding
the supercommutator gives the closed matrix formula

    hat(F) = k * sum_{i+j=k-2} Tr(z^i X z^j Y),      z = XY + YX,

a g-invariant of bidegree (k-1, k-1).  The identities behind the product
rule (F(z), dF(z)(X), dF(z)(Y), and the hat of a product of two invariants)
vanish in the quotient by the XX and YY families; as raw Grassmann elements
they are nonzero, so they are checked as ideal memberships.
"""

from itertools import product
from math import lcm

from ..exterior import (ExtElement, OddMatrix, even_monomial,
                        power_trace_ints, swap_terms, wedge_into)
from ..exactla import addmul
from ..rootsystem.reps import trace_power_degrees
from .core import ideal_weight_zero, invariants_of_quotient, XX, XY, YY


class HatElement:
    def __init__(self, source_degree, value):
        self.source_degree = source_degree
        self.degree_pair = (source_degree - 1, source_degree - 1)
        self.value = value

    def __repr__(self):
        return "HatElement(k=%d, bidegree %s)" % (self.source_degree,
                                                  self.degree_pair)


def z_matrix(X, Y):
    return X.matmul(Y) + Y.matmul(X)


def _z_powers(ws, top):
    """ws.z_powers extended to hold z^0 .. z^top."""
    pows = ws.z_powers
    if not pows:
        X, Y = ws.xy_matrices()
        pows.append(OddMatrix.identity(ws.alg, X.size))
        pows.append(z_matrix(X, Y))
    while len(pows) <= top:
        pows.append(pows[-1].matmul(pows[1]))
    return pows


def _per_workspace(build):
    """build(ws, k) computed once per workspace and degree: the result is
    kept in ws.traces and shared, so callers must not change it."""
    def cached(ws, k):
        key = (build.__name__, k)
        val = ws.traces.get(key)
        if val is None:
            val = ws.traces[key] = build(ws, k)
        return val
    return cached


@_per_workspace
def _trace_z_power_ints(ws, k):
    """Tr(z^k) as (int terms, den), from z^floor(k/2) and z^ceil(k/2)
    (`power_trace_ints`)."""
    return power_trace_ints(_z_powers(ws, k - k // 2), k)


def trace_z_power(ws, k):
    """F({X,Y}) for F = Tr_V(w^k), as a raw element of bidegree (k,k),
    built from powers up to z^ceil(k/2)."""
    return ExtElement.from_ints(ws.alg, *_trace_z_power_ints(ws, k))


@_per_workspace
def _d_trace_ints(ws, k):
    """dF({X,Y}) applied to X, as (int terms, den).  z has even entries, so
    by trace cyclicity each term of sum_{i+j=k-1} Tr(z^i X z^j) is
    Tr(X z^(k-1)) = Tr((X z^j) . z^(k-1-j)); with j = floor((k-1)/2) the
    sum is k times one odd-by-even product and one trace-only product, and
    no power above z^ceil(k/2) is needed."""
    X, _ = ws.xy_matrices()
    j = (k - 1) // 2
    pows = _z_powers(ws, k - 1 - j)
    if j:
        X = X.matmul(pows[j])
    terms, den = X.trace_product_ints(pows[k - 1 - j])
    return {m: k * c for m, c in terms.items()}, den


def d_trace(ws, k, arg):
    """dF({X,Y}) applied to X or Y: sum_{i+j=k-1} Tr(z^i A z^j).  The swap
    x <-> y fixes z and exchanges X and Y, so dF(Y) is the swap of dF(X),
    with the sign +1 at bidegree (k, k-1)."""
    terms, den = _d_trace_ints(ws, k)
    if arg != "X":
        terms = swap_terms(terms, ws.alg.n)
    return ExtElement.from_ints(ws.alg, terms, den)


@_per_workspace
def _hat_trace_ints(ws, k):
    """hat of Tr_V(w^k) as (int terms, den).

    By trace cyclicity (z has even entries) the sum is k sum_{a+b=k-2}
    T(a,b) with T(a,b) = Tr((X z^a) . (Y z^b)).  The swap x <-> y fixes z
    and sends X z^j to Y z^j (sign +1 at bidegree (j+1, j)), and odd
    entries anticommute under the trace, so T(b,a) = -swap(T(a,b)), that
    is (-1)**k times T(a,b) relabelled at bidegree (k-1, k-1).  So only the
    chain X z^j is built, and only the pairs a <= b are traced."""
    X, _ = ws.xy_matrices()
    h = (k + 1) // 2
    pows = _z_powers(ws, min(h, k - 2))
    # X z^j = (X z^(j-s)) . z^s with s = min(j, ceil(k/2))
    xz = [X]
    for j in range(1, k - 1):
        s = min(j, h)
        xz.append(xz[j - s].matmul(pows[s]))
    # every pair has the denominator den(X)^2 den(z)^(k-2)
    half, mid = {}, {}
    for a in range(k // 2):
        b = k - 2 - a
        terms, den = xz[a].trace_product_ints(xz[b].swap())
        addmul(half if a < b else mid, terms, k)
    return addmul(addmul(half, swap_terms(half, ws.alg.n), -1), mid), den


def hat_trace(ws, k):
    """hat of Tr_V(w^k): k * sum_{i+j=k-2} Tr(z^i X z^j Y)."""
    return HatElement(k, ExtElement.from_ints(ws.alg,
                                              *_hat_trace_ints(ws, k)))


def hat_monomials(ws, degree, degrees):
    """Every product of the hats of Tr_V(w^k), k in degrees, of total
    hat-degree `degree`, as (exponent tuple, int terms) pairs with the
    exponents in lexicographic order.  Each product is built once on the
    int traces `_hat_trace_ints` (`even_monomial`), so it is the exact
    product times a positive int, the product of its factors'
    denominators; the ranks and memberships the checks read do not depend
    on that scale.  The products are kept in ws.traces, one memo per
    degrees tuple, so each is built once per workspace and shared: callers
    must not change them."""
    factors = [_hat_trace_ints(ws, k)[0] for k in degrees]
    hat_degrees = [k - 1 for k in degrees]
    memo = ws.traces.setdefault(("hat_monomials", tuple(degrees)), {})
    return [(e, even_monomial(e, factors, memo))
            for e in product(*(range(degree // h + 1) for h in hat_degrees))
            if sum(x * h for x, h in zip(e, hat_degrees)) == degree]


def guard_prop_hat(ws, k1, k2):
    """Raise ComponentTooLarge, before any trace is expanded, when a
    component `check_prop_hat(ws, k1, k2)` touches is over the cap: the
    largest are (k1,k1), (k2,k2) and (k1+k2-1, k1+k2-1)."""
    for d in (k1, k2, k1 + k2 - 1):
        ws.alg.guard(d, d)


def check_prop_hat(ws, k1, k2):
    """The three identities behind the product rule, as memberships in the
    span of the XX and YY families (their raw values are also reported):

      (a)  Tr(z^k1) lies in the ideal (k2 is covered by its own pair);
      (b)  dF(z)(X) and dF(z)(Y) lie in the ideal;
      (c)  the Leibniz expansion of hat(F H) lies in the ideal.
    """
    guard_prop_hat(ws, k1, k2)
    report = {"k1": k1, "k2": k2, "rep": ws.trace_label}
    k = k1 + k2

    # every trace as (int terms, den); memberships do not depend on scale
    alg = ws.alg
    fz = _trace_z_power_ints(ws, k1)
    hz = _trace_z_power_ints(ws, k2)
    report["a_zero_literal"] = not fz[0]
    sub = ideal_weight_zero(ws, (XX, YY), k1, k1)
    report["a_in_ideal"] = sub.contains(fz[0])

    # dF(z)(Y) is the swap of dF(z)(X), as in `d_trace`
    dfx = _d_trace_ints(ws, k1)
    dfy = swap_terms(dfx[0], alg.n), dfx[1]
    report["b_zero_literal"] = not dfx[0]
    report["b_in_ideal"] = not dfx[0] or all(
        ideal_weight_zero(ws, (XX, YY), p, q).contains(el[0])
        for el, (p, q) in ((dfx, (k1, k1 - 1)), (dfy, (k1 - 1, k1))))

    # Leibniz expansion of hat(FH) at z = {X,Y}, on ints over one
    # denominator
    dhx = _d_trace_ints(ws, k2)
    dhy = swap_terms(dhx[0], alg.n), dhx[1]
    hatf = _hat_trace_ints(ws, k1)
    hath = _hat_trace_ints(ws, k2)
    total = _wedge_sum(((hatf, hz), (fz, hath), (dfx, dhy), (dhx, dfy)))
    report["c_zero_literal"] = not total
    subc = ideal_weight_zero(ws, (XX, YY), k - 1, k - 1)
    report["c_in_ideal"] = not total or subc.contains(total)
    report["pass"] = report["a_in_ideal"] and report["b_in_ideal"] and \
        report["c_in_ideal"]
    return report


def _wedge_sum(pairs):
    """sum a ^ b over pairs of (int terms, den) factors, as int terms over
    the lcm of the products' denominators."""
    den = lcm(*(da * db for (_, da), (_, db) in pairs))
    out = {}
    for (ta, da), (tb, db) in pairs:
        s = den // (da * db)
        wedge_into(out, {m: s * c for m, c in ta.items()} if s > 1 else ta,
                   tb)
    return out


def check_conj_c1(ws, up_to_d, ideal_counts):
    """dim E_(d,d) vs the span of hat monomials vs the abelian-ideal count,
    for d <= up_to_d."""
    ws.alg.guard(up_to_d, up_to_d)
    degrees = [k for k in trace_power_degrees(ws.lie) if k - 1 <= up_to_d]
    rows = []
    ok = True
    for d in range(up_to_d + 1):
        if d == 0:
            e_dim = p_dim = 1
        else:
            e_dim = invariants_of_quotient(ws, d, d, (XX, YY))
            p_dim = ideal_weight_zero(ws, (XX, YY), d, d).quotient(
                val for _, val in hat_monomials(ws, d, degrees)).rank
        count = ideal_counts[d] if d < len(ideal_counts) else 0
        rows.append({"d": d, "dim_E": e_dim, "dim_P_span": p_dim,
                     "ideal_count": count})
        ok = ok and e_dim == p_dim == count
    return {"rep": ws.trace_label, "rows": rows, "pass": ok}


def check_conj_c2_c3(ws):
    """c3: the invariants of the supercommutator ideal match the ideal
    generated by the hat elements of degree > 1, below the critical degree;
    every such hat element lies in that ideal.  c2: at the critical degree
    g there is a relation among hat monomials with a nonzero coefficient on
    the g-th power of the quadratic one."""
    g = ws.g
    degrees = trace_power_degrees(ws.lie)
    # every component touched: (d,d) for d up to g and up to each hat degree
    top = max([g] + [k - 1 for k in degrees])
    ws.alg.guard(top, top)
    report = {"rep": ws.trace_label, "g": g, "per_degree": [],
              "hat_in_L": [], "pass": True}

    # p_hat_i in L for i >= 2: membership in the span of all three families
    # restricted to (XY) + (XX,YY)
    for k in degrees[1:]:
        sub = ideal_weight_zero(ws, (XX, XY, YY), k - 1, k - 1)
        member = sub.contains(_hat_trace_ints(ws, k)[0])
        report["hat_in_L"].append({"k": k, "in_ideal": member})
        report["pass"] = report["pass"] and member

    for d in range(g):
        # dim(Inv cap W) = dim Inv - dim (R/W)^g, so the difference of the
        # two intersections is that of the two quotients' invariants
        dim_L = (invariants_of_quotient(ws, d, d, (XX, YY))
                 - invariants_of_quotient(ws, d, d, (XX, XY, YY)))
        # ideal generated by hats of degree > 1, inside E, at degree d
        dim_gen = ideal_weight_zero(ws, (XX, YY), d, d).quotient(
            val for expo, val in hat_monomials(ws, d, degrees)
            if any(expo[1:])).rank
        row = {"d": d, "dim_L": dim_L, "dim_hat_ideal": dim_gen,
               "match": dim_L == dim_gen}
        report["per_degree"].append(row)
        report["pass"] = report["pass"] and row["match"]

    # c2 at degree g: the pure power of the quadratic hat against the span
    # of the other hat monomials
    monos = dict(hat_monomials(ws, g, degrees))
    p1_power = monos.pop((g,) + (0,) * (len(degrees) - 1))
    sub = ideal_weight_zero(ws, (XX, YY), g, g)
    relation = sub.quotient(monos.values()).contains(
        sub.normal_form(p1_power)[0])
    report["c2_relation_with_p1_power"] = relation
    report["pass"] = report["pass"] and relation
    return report
