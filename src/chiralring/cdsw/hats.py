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
from ..exactla import FieldMode, Subspace, addmul, guard_component
from ..liemodule import invariant_basis_elements
from ..rootsystem.reps import trace_power_degrees, default_trace_label
from .core import (ideal_rows, ideal_weight_zero, invariants_of_quotient,
                   XX, XY, YY)


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


def _z_powers(ws, label, top):
    pows = ws.hat_cache.setdefault(("zpow", label), [])
    if not pows:
        X, Y = ws.xy_matrices(label)
        pows.append(OddMatrix.identity(ws.alg, X.size))
        pows.append(z_matrix(X, Y))
    while len(pows) <= top:
        pows.append(pows[-1].matmul(pows[1]))
    return pows


def trace_z_power(ws, k, label=None):
    """F({X,Y}) for F = Tr_V(w^k), as a raw element of bidegree (k,k)."""
    label = label or default_trace_label(ws.lie.rs.type_label)
    return _z_powers(ws, label, k)[k].trace()


def d_trace(ws, k, arg, label=None):
    """dF({X,Y}) applied to X or Y: sum_{i+j=k-1} Tr(z^i A z^j).  z has
    even entries, so each term equals Tr(A z^(k-1)) by trace cyclicity and
    the sum is k * Tr(A z^(k-1)): one product."""
    label = label or default_trace_label(ws.lie.rs.type_label)
    X, Y = ws.xy_matrices(label)
    A = X if arg == "X" else Y
    zk = _z_powers(ws, label, k - 1)[k - 1]
    return A.matmul(zk).trace().scale(k)


def hat_trace(ws, k, label=None):
    """hat of Tr_V(w^k): k * sum_{i+j=k-2} Tr(z^i X z^j Y)."""
    label = label or default_trace_label(ws.lie.rs.type_label)
    X, Y = ws.xy_matrices(label)
    pows = _z_powers(ws, label, k - 2)
    total = {}
    for i in range(k - 1):
        j = k - 2 - i
        prod = pows[i].matmul(X).matmul(pows[j]).matmul(Y)
        addmul(total, prod.trace().terms, k)
    return HatElement(k, ExtElement(ws.alg, total))


def hat_generators(ws, label=None, max_degree=None):
    """One hat element per generating invariant degree of the type; only
    those of hat-degree <= max_degree when given."""
    degrees = trace_power_degrees(ws.lie)
    if max_degree is not None:
        degrees = [k for k in degrees if k - 1 <= max_degree]
    return [hat_trace(ws, k, label) for k in degrees]


def hat_monomials(ws, degree, label=None, hats=None):
    """All products of hat generators of total hat-degree `degree`, as
    (exponent tuple, ExtElement) pairs.  Hat elements have even total
    degree, so the product order is immaterial."""
    hats = hats if hats is not None else hat_generators(ws, label)
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


def check_prop_hat(ws, k1, k2, label=None, mode=None, cap=None):
    """The three identities behind the product rule, as memberships in the
    span of the XX and YY families (their raw values are also reported):

      (a)  Tr(z^k1) lies in the ideal (k2 is covered by its own pair);
      (b)  dF(z)(X) and dF(z)(Y) lie in the ideal;
      (c)  the Leibniz expansion of hat(F H) lies in the ideal.
    """
    label = label or default_trace_label(ws.lie.rs.type_label)
    report = {"k1": k1, "k2": k2, "rep": label}
    # guard the largest components touched before any trace expansion
    k = k1 + k2
    for d in (k1, k2, k - 1):
        guard_component(ws.alg, d, d, mode, cap)

    fz = trace_z_power(ws, k1, label)
    hz = trace_z_power(ws, k2, label)
    report["a_zero_literal"] = fz.is_zero()
    sub = ideal_weight_zero(ws, (XX, YY), k1, k1, mode, cap)
    report["a_in_ideal"] = sub.contains(fz)

    dfx = d_trace(ws, k1, "X", label)
    dfy = d_trace(ws, k1, "Y", label)
    report["b_zero_literal"] = dfx.is_zero() and dfy.is_zero()
    okb = True
    for el, (p, q) in ((dfx, (k1, k1 - 1)), (dfy, (k1 - 1, k1))):
        if el.is_zero():
            continue
        subb = Subspace(ws.action.weight_masks(p, q, ws.action.zero_weight),
                        mode or FieldMode.exact(), (p, q))
        for row in ideal_rows(ws, (XX, YY), p, q,
                              weight=ws.action.zero_weight):
            subb.insert(row)
        okb = okb and subb.contains(el)
    report["b_in_ideal"] = okb

    # Leibniz expansion of hat(FH) at z = {X,Y}
    dhx = d_trace(ws, k2, "X", label)
    dhy = d_trace(ws, k2, "Y", label)
    hatf = hat_trace(ws, k1, label).value
    hath = hat_trace(ws, k2, label).value
    total = (hatf.wedge(hz) + fz.wedge(hath)
             + dfx.wedge(dhy) + dhx.wedge(dfy))
    report["c_zero_literal"] = total.is_zero()
    subc = ideal_weight_zero(ws, (XX, YY), k - 1, k - 1, mode, cap)
    report["c_in_ideal"] = total.is_zero() or subc.contains(total)
    report["pass"] = report["a_in_ideal"] and report["b_in_ideal"] and \
        report["c_in_ideal"]
    return report


def dim_E(ws, d, mode=None, cap=None):
    """dim of the invariants of the quotient by the XX and YY families at
    (d,d): rank growth of the ideal span when the invariant basis of the
    ambient component is adjoined."""
    if d == 0:
        return 1
    return invariants_of_quotient(ws, d, d, (XX, YY), mode, cap)["dim"]


def check_conj_c1(ws, up_to_d, label=None, mode=None, cap=None,
                  ideal_counts=None):
    """dim E_(d,d) vs the span of hat monomials vs the abelian-ideal count,
    for d <= up_to_d."""
    label = label or default_trace_label(ws.lie.rs.type_label)
    guard_component(ws.alg, up_to_d, up_to_d, mode, cap)
    hats = hat_generators(ws, label, max_degree=up_to_d)
    rows = []
    ok = True
    for d in range(up_to_d + 1):
        if d == 0:
            e_dim = p_dim = 1
        else:
            sub = ideal_weight_zero(ws, (XX, YY), d, d, mode, cap)
            e_dim = invariants_of_quotient(ws, d, d, (XX, YY), mode, cap,
                                           subspace=sub.copy())["dim"]
            base = sub.rank
            for _, val in hat_monomials(ws, d, label, hats):
                sub.insert(val)
            p_dim = sub.rank - base
        row = {"d": d, "dim_E": e_dim, "dim_P_span": p_dim}
        if ideal_counts is not None:
            row["ideal_count"] = ideal_counts[d] if d < len(ideal_counts) else 0
            ok = ok and row["ideal_count"] == e_dim
        ok = ok and e_dim == p_dim
        rows.append(row)
    return {"rep": label, "rows": rows, "pass": ok}


def check_conj_c2_c3(ws, label=None, mode=None, cap=None):
    """c3: the invariants of the supercommutator ideal match the ideal
    generated by the hat elements of degree > 1, below the critical degree;
    every such hat element lies in that ideal.  c2: at the critical degree
    g there is a relation among hat monomials with a nonzero coefficient on
    the g-th power of the quadratic one."""
    label = label or default_trace_label(ws.lie.rs.type_label)
    g = ws.g
    # every component touched: (d,d) for d up to g and up to each hat degree
    top = max([g] + [k - 1 for k in trace_power_degrees(ws.lie)])
    guard_component(ws.alg, top, top, mode, cap)
    hats = hat_generators(ws, label)
    report = {"rep": label, "g": g, "per_degree": [], "hat_in_L": [],
              "pass": True}

    # p_hat_i in L for i >= 2: membership in the span of all three families
    # restricted to (XY) + (XX,YY)
    for h in hats[1:]:
        d = h.source_degree - 1
        sub = ideal_weight_zero(ws, (XX, XY, YY), d, d, mode, cap)
        member = sub.contains(h.value)
        report["hat_in_L"].append({"k": h.source_degree, "in_ideal": member})
        report["pass"] = report["pass"] and member

    for d in range(g):
        inv = invariant_basis_elements(ws.action, d, d, cap) if d else []
        sub_j = ideal_weight_zero(ws, (XX, YY), d, d, mode, cap)
        rank_j = sub_j.rank
        sub_jinv = sub_j.copy()
        grew_j = sum(1 for v in inv if sub_jinv.insert(v))
        sub_jxy = ideal_weight_zero(ws, (XX, XY, YY), d, d, mode, cap)
        rank_jxy = sub_jxy.rank
        sub_jxyinv = sub_jxy.copy()
        grew_jxy = sum(1 for v in inv if sub_jxyinv.insert(v))
        # dim(Inv cap W) = |inv| - growth
        dim_L = (len(inv) - grew_jxy) - (len(inv) - grew_j)
        # ideal generated by hats of degree > 1, inside E, at degree d
        sub = sub_j.copy()
        base = sub.rank
        for expo, val in hat_monomials(ws, d, label, hats):
            if any(e for e in expo[1:]):
                sub.insert(val)
        dim_gen = sub.rank - base
        row = {"d": d, "dim_L": dim_L, "dim_hat_ideal": dim_gen,
               "match": dim_L == dim_gen}
        report["per_degree"].append(row)
        report["pass"] = report["pass"] and row["match"]

    # c2 at degree g
    sub = ideal_weight_zero(ws, (XX, YY), g, g, mode, cap)
    p1_power = None
    for expo, val in hat_monomials(ws, g, label, hats):
        if expo[0] == g and not any(expo[1:]):
            p1_power = val
        else:
            sub.insert(val)
    relation = sub.contains(p1_power)
    report["c2_relation_with_p1_power"] = relation
    report["pass"] = report["pass"] and relation
    return report
