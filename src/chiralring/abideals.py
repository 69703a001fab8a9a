"""Abelian ideals of a Borel subalgebra, combinatorially.

An ideal of the Borel supported on root spaces is an upward-closed set of
positive roots (adding any positive root stays inside whenever the sum is a
root); abelian means no two members sum to a root.  The enumeration walks
roots from the highest down, adding a root only when every cover (root plus
a simple root) is already in and no sum with a member is a root.  Any
prefix of a valid set along this order is valid, so the search tree has one
branch per ideal and depth |Phi+|; the count must come out 2^rank.
"""


class AbelianIdeal:
    def __init__(self, rs, indices):
        self.rs = rs
        self.indices = tuple(sorted(indices))
        self.roots = tuple(rs.positive_roots[i] for i in self.indices)
        self.dim = len(self.indices)

    def __eq__(self, other):
        return self.indices == other.indices

    def __hash__(self):
        return hash(self.indices)

    def __repr__(self):
        return "AbelianIdeal(dim %d: %s)" % (self.dim, list(self.indices))


def is_ideal(rs, roots):
    rset = set(roots)
    for a in roots:
        for b in rs.positive_roots:
            s = rs.add_roots(a, b)
            if s in rs.root_set and s not in rset:
                return False
    return True


def is_abelian(rs, roots):
    roots = list(roots)
    for i, a in enumerate(roots):
        for b in roots[i + 1:]:
            if rs.add_roots(a, b) in rs.root_set:
                return False
    return True


def enumerate_abelian_ideals(rs):
    """All abelian ideals, sorted by (dimension, root index set)."""
    order = sorted(range(len(rs.positive_roots)),
                   key=lambda i: (-rs.height(rs.positive_roots[i]),
                                  rs.positive_roots[i]))
    pos = rs.positive_roots
    covers = []
    for i in order:
        cov = []
        for s in rs.simple_roots:
            up = rs.add_roots(pos[i], s)
            if up in rs.root_set:
                cov.append(rs.root_index[up])
        covers.append(cov)

    found = []

    def walk(k, chosen, chosen_roots):
        if k == len(order):
            found.append(AbelianIdeal(rs, chosen))
            return
        i = order[k]
        walk(k + 1, chosen, chosen_roots)
        if all(c in chosen for c in covers[k]):
            r = pos[i]
            if all(rs.add_roots(r, s) not in rs.root_set
                   for s in chosen_roots):
                walk(k + 1, chosen | {i}, chosen_roots + [r])

    walk(0, frozenset(), [])
    found.sort(key=lambda a: (a.dim, a.indices))
    return found


def poincare_series(ideals):
    """Coefficient c_d = number of ideals of dimension d."""
    top = max(a.dim for a in ideals)
    coeffs = [0] * (top + 1)
    for a in ideals:
        coeffs[a.dim] += 1
    return coeffs


def product_series(degrees, order):
    """prod_i (1 - t^(d_i - 1))^(-1) truncated to degree `order`."""
    coeffs = [1] + [0] * order
    for d in degrees:
        step = d - 1
        # multiply by 1/(1 - t^step): running sums with stride `step`
        for k in range(step, order + 1):
            coeffs[k] += coeffs[k - step]
    return coeffs


def check_prop_cox(rs, ideals=None):
    """Poincare series of the invariant algebra vs the degree product:
    agreement below t^g and a strictly positive discrepancy at t^g."""
    if ideals is None:
        ideals = enumerate_abelian_ideals(rs)
    g = rs.dual_coxeter()
    degrees = rs.invariant_degrees()
    prod = product_series(degrees, g)
    pe = poincare_series(ideals)
    pe_padded = pe + [0] * (g + 1 - len(pe))
    first_mismatch = None
    for d in range(g):
        if prod[d] != pe_padded[d]:
            first_mismatch = d
            break
    discrepancy = prod[g] - pe_padded[g]
    return {
        "type": rs.type_label,
        "rank": rs.rank,
        "dual_coxeter": g,
        "degrees": degrees,
        "ideal_count": len(ideals),
        "poincare_E": pe,
        "product_series": prod,
        "agree_below_g": first_mismatch is None,
        "first_mismatch": first_mismatch,
        "discrepancy_at_g": discrepancy,
        "discrepancy_positive": discrepancy > 0,
        "pass": first_mismatch is None and discrepancy > 0,
    }

