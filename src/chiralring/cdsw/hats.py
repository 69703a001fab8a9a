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

from ..exterior import ExtElement, OddMatrix
from ..exactla import addmul, guard_component
from ..liemodule import invariant_basis_elements
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


def trace_z_power(ws, k):
    """F({X,Y}) for F = Tr_V(w^k), as a raw element of bidegree (k,k):
    Tr(z^floor(k/2) . z^ceil(k/2)), the last product diagonal-only."""
    h = k // 2
    pows = _z_powers(ws, k - h)
    return pows[h].trace_product(pows[k - h])


def d_trace(ws, k, arg):
    """dF({X,Y}) applied to X or Y: sum_{i+j=k-1} Tr(z^i A z^j).  z has
    even entries, so by trace cyclicity each term is
    Tr(A z^(k-1)) = Tr((A z^j) . z^(k-1-j)); with j = floor((k-1)/2) the
    sum is k times one odd-by-even product and one trace-only product, and
    no power above z^ceil(k/2) is needed."""
    X, Y = ws.xy_matrices()
    A = X if arg == "X" else Y
    j = (k - 1) // 2
    pows = _z_powers(ws, k - 1 - j)
    if j:
        A = A.matmul(pows[j])
    return A.trace_product(pows[k - 1 - j]).scale(k)


def _times_z_powers(ws, A, k):
    """[A z^0, ..., A z^(k-2)] for a degree-k trace, one product each:
    A z^j = (A z^(j-s)) . z^s with s = min(j, ceil(k/2)), so no power above
    z^ceil(k/2) is built."""
    h = (k + 1) // 2
    pows = _z_powers(ws, min(h, k - 2))
    out = [A]
    for j in range(1, k - 1):
        s = min(j, h)
        out.append(out[j - s].matmul(pows[s]))
    return out


def hat_trace(ws, k):
    """hat of Tr_V(w^k): k * sum_{i+j=k-2} Tr(z^i X z^j Y).  z has even
    entries, so by trace cyclicity each term is Tr((X z^j) . (Y z^i)):
    2(k-2) odd-by-even products and k-1 trace-only products."""
    X, Y = ws.xy_matrices()
    xz, yz = _times_z_powers(ws, X, k), _times_z_powers(ws, Y, k)
    total = {}
    for i in range(k - 1):
        addmul(total, xz[k - 2 - i].trace_product(yz[i]).terms, k)
    return HatElement(k, ExtElement(ws.alg, total))


def hat_generators(ws, max_degree=None):
    """One hat element per generating invariant degree of the type; only
    those of hat-degree <= max_degree when given."""
    degrees = trace_power_degrees(ws.lie)
    if max_degree is not None:
        degrees = [k for k in degrees if k - 1 <= max_degree]
    return [hat_trace(ws, k) for k in degrees]


def hat_monomials(ws, degree, hats):
    """All products of the given hat elements of total hat-degree `degree`,
    as (exponent tuple, ExtElement) pairs.  Hat elements have even total
    degree, so the product order is immaterial."""
    degs = [h.source_degree - 1 for h in hats]
    out = []

    def rec(i, remaining, expo):
        if i == len(hats):
            if remaining == 0:
                val = ws.alg.one()
                for j, e in enumerate(expo):
                    for _ in range(e):
                        val = val.wedge(hats[j].value)
                out.append((tuple(expo), val))
            return
        for e in range(remaining // degs[i] + 1):
            rec(i + 1, remaining - e * degs[i], expo + [e])

    rec(0, degree, [])
    return out


def check_prop_hat(ws, k1, k2, cap=None):
    """The three identities behind the product rule, as memberships in the
    span of the XX and YY families (their raw values are also reported):

      (a)  Tr(z^k1) lies in the ideal (k2 is covered by its own pair);
      (b)  dF(z)(X) and dF(z)(Y) lie in the ideal;
      (c)  the Leibniz expansion of hat(F H) lies in the ideal.
    """
    report = {"k1": k1, "k2": k2, "rep": ws.trace_label}
    # guard the largest components touched before any trace expansion
    k = k1 + k2
    for d in (k1, k2, k - 1):
        guard_component(ws.alg, d, d, cap)

    fz = trace_z_power(ws, k1)
    hz = trace_z_power(ws, k2)
    report["a_zero_literal"] = fz.is_zero()
    sub = ideal_weight_zero(ws, (XX, YY), k1, k1, cap)
    report["a_in_ideal"] = sub.contains(fz)

    dfx = d_trace(ws, k1, "X")
    dfy = d_trace(ws, k1, "Y")
    report["b_zero_literal"] = dfx.is_zero() and dfy.is_zero()
    report["b_in_ideal"] = all(
        el.is_zero()
        or ideal_weight_zero(ws, (XX, YY), p, q, cap).contains(el)
        for el, (p, q) in ((dfx, (k1, k1 - 1)), (dfy, (k1 - 1, k1))))

    # Leibniz expansion of hat(FH) at z = {X,Y}
    dhx = d_trace(ws, k2, "X")
    dhy = d_trace(ws, k2, "Y")
    hatf = hat_trace(ws, k1).value
    hath = hat_trace(ws, k2).value
    total = (hatf.wedge(hz) + fz.wedge(hath)
             + dfx.wedge(dhy) + dhx.wedge(dfy))
    report["c_zero_literal"] = total.is_zero()
    subc = ideal_weight_zero(ws, (XX, YY), k - 1, k - 1, cap)
    report["c_in_ideal"] = total.is_zero() or subc.contains(total)
    report["pass"] = report["a_in_ideal"] and report["b_in_ideal"] and \
        report["c_in_ideal"]
    return report


def check_conj_c1(ws, up_to_d, ideal_counts, cap=None):
    """dim E_(d,d) vs the span of hat monomials vs the abelian-ideal count,
    for d <= up_to_d."""
    guard_component(ws.alg, up_to_d, up_to_d, cap)
    hats = hat_generators(ws, max_degree=up_to_d)
    rows = []
    ok = True
    for d in range(up_to_d + 1):
        if d == 0:
            e_dim = p_dim = 1
        else:
            sub = ideal_weight_zero(ws, (XX, YY), d, d, cap)
            e_dim = invariants_of_quotient(ws, d, d, cap=cap,
                                           subspace=sub.copy())
            p_dim = sub.insert_all(val for _, val in
                                   hat_monomials(ws, d, hats))
        count = ideal_counts[d] if d < len(ideal_counts) else 0
        rows.append({"d": d, "dim_E": e_dim, "dim_P_span": p_dim,
                     "ideal_count": count})
        ok = ok and e_dim == p_dim == count
    return {"rep": ws.trace_label, "rows": rows, "pass": ok}


def check_conj_c2_c3(ws, cap=None):
    """c3: the invariants of the supercommutator ideal match the ideal
    generated by the hat elements of degree > 1, below the critical degree;
    every such hat element lies in that ideal.  c2: at the critical degree
    g there is a relation among hat monomials with a nonzero coefficient on
    the g-th power of the quadratic one."""
    g = ws.g
    # every component touched: (d,d) for d up to g and up to each hat degree
    top = max([g] + [k - 1 for k in trace_power_degrees(ws.lie)])
    guard_component(ws.alg, top, top, cap)
    hats = hat_generators(ws)
    report = {"rep": ws.trace_label, "g": g, "per_degree": [],
              "hat_in_L": [], "pass": True}

    # p_hat_i in L for i >= 2: membership in the span of all three families
    # restricted to (XY) + (XX,YY)
    for h in hats[1:]:
        d = h.source_degree - 1
        sub = ideal_weight_zero(ws, (XX, XY, YY), d, d, cap)
        member = sub.contains(h.value)
        report["hat_in_L"].append({"k": h.source_degree, "in_ideal": member})
        report["pass"] = report["pass"] and member

    for d in range(g):
        inv = invariant_basis_elements(ws.action, d, d, cap) if d else []
        sub_j = ideal_weight_zero(ws, (XX, YY), d, d, cap)
        sub_jxy = ideal_weight_zero(ws, (XX, XY, YY), d, d, cap)
        # dim(Inv cap W) = |inv| - growth, so the difference of the two
        # intersections is the difference of the two growths
        dim_L = sub_j.copy().insert_all(inv) - sub_jxy.insert_all(inv)
        # ideal generated by hats of degree > 1, inside E, at degree d
        dim_gen = sub_j.insert_all(val for expo, val in
                                   hat_monomials(ws, d, hats)
                                   if any(expo[1:]))
        row = {"d": d, "dim_L": dim_L, "dim_hat_ideal": dim_gen,
               "match": dim_L == dim_gen}
        report["per_degree"].append(row)
        report["pass"] = report["pass"] and row["match"]

    # c2 at degree g: the pure power of the quadratic hat against the span
    # of the other hat monomials
    monos = dict(hat_monomials(ws, g, hats))
    p1_power = monos.pop((g,) + (0,) * (len(hats) - 1))
    sub = ideal_weight_zero(ws, (XX, YY), g, g, cap)
    sub.insert_all(monos.values())
    relation = sub.contains(p1_power)
    report["c2_relation_with_p1_power"] = relation
    report["pass"] = report["pass"] and relation
    return report
