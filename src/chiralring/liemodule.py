"""The Lie algebra action on the Grassmann algebra over two copies of the
adjoint module, extended as even derivations; weight bookkeeping and
invariant subspaces of bigraded components.

Weight slices of a component are listed one way only,
`ActionTable.weight_masks`, which joins x-halves and y-halves by weight."""

from .exterior import ExtElement, _bits
from .exactla import Subspace, addmul, kernel_basis, guard_component


class ActionTable:
    """act(a, -) for each Lie basis index a: on a generator x_b (or y_b)
    returns sum_c f_ab^c x_c (resp. y_c); xi and eta are killed."""

    def __init__(self, alg, lie):
        self.alg = alg
        self.lie = lie
        n = alg.n
        # table[a][bit] = list of (bit', coeff)
        self.table = []
        for a in range(lie.dim):
            row = {}
            for b in range(n):
                moves = [(c, v) for c, v in lie.bracket(a, b).items() if v]
                if moves:
                    row[b] = moves
                    row[b + n] = [(c + n, v) for c, v in moves]
            self.table.append(row)
        self.zero_weight = (0,) * lie.rank

    def generator_weight(self, bit):
        n = self.alg.n
        if bit >= 2 * n:
            return self.zero_weight
        return self.lie.basis_weight(bit if bit < n else bit - n)

    def mask_weight(self, mask):
        w = list(self.zero_weight)
        for b in _bits(mask):
            gw = self.generator_weight(b)
            for i, c in enumerate(gw):
                w[i] += c
        return tuple(w)

    def act_mask(self, a, mask):
        """Image of a monomial under the even derivation, as a terms dict."""
        out = {}
        row = self.table[a]
        for b in _bits(mask):
            moves = row.get(b)
            if not moves:
                continue
            rest = mask ^ (1 << b)
            for c, v in moves:
                if rest >> c & 1:
                    continue
                # replace generator b by c in place, then resort: the sign is
                # the parity of generators strictly between them
                lo, hi = (b, c) if b < c else (c, b)
                between = rest & (((1 << hi) - 1) ^ ((1 << (lo + 1)) - 1))
                sign = -1 if between.bit_count() & 1 else 1
                m2 = rest | (1 << c)
                s = out.get(m2, 0) + sign * v
                if s:
                    out[m2] = s
                else:
                    out.pop(m2, None)
        return out

    def act(self, a, elem):
        out = {}
        for mask, coeff in elem.terms.items():
            addmul(out, self.act_mask(a, mask), coeff)
        return ExtElement(self.alg, out)

    def weight_masks(self, p, q, weight):
        """Monomial masks of bidegree (p,q) and the given weight, in
        canonical order.  A mask's weight is the sum of its x-part's and its
        y-part's, so each x-part of weight w is joined with the y-parts of
        weight `weight - w`; the full component is never listed."""
        ys = {}
        for my in self.alg.component_masks(0, q):
            ys.setdefault(self.mask_weight(my), []).append(my)
        out = []
        for mx in self.alg.component_masks(p, 0):
            need = tuple(w - c for w, c in zip(weight, self.mask_weight(mx)))
            out.extend(mx | my for my in ys.get(need, ()))
        return out


def invariants(action, p, q, cap=None):
    """Invariant subspace of the (p,q) component, as an exact Subspace over
    the weight-zero monomials of the component.

    Invariant vectors have weight zero, so the kernel is computed on the
    weight-zero slice only (Cartan elements act as zero there), and the
    acting operators are the rank simple raising operators e_i alone: a
    weight-zero vector killed by every e_i is a highest-weight vector of
    weight 0 in a finite-dimensional module, so it spans a trivial
    submodule and every f_i kills it too.
    """
    alg, lie = action.alg, action.lie
    guard_component(alg, p, q, cap=cap)
    w0 = action.weight_masks(p, q, action.zero_weight)
    gens = [lie.e_index(simple) for simple in lie.rs.simple_roots]
    # rows of the stacked equation system: one per (generator, image monomial)
    eqs = {}
    for a in gens:
        for j, mask in enumerate(w0):
            for m2, v in action.act_mask(a, mask).items():
                eqs.setdefault((a, m2), {})[j] = v
    basis = kernel_basis(list(eqs.values()), len(w0))
    sub = Subspace(w0, bidegree=(p, q))
    sub.insert_all(ExtElement(alg, {w0[j]: c for j, c in vec.items()})
                   for vec in basis)
    return sub


def invariant_basis_elements(action, p, q, cap=None):
    """The canonical invariant basis as ExtElements."""
    sub = invariants(action, p, q, cap)
    columns = sub.columns
    out = []
    for row in sub.echelon.basis_rows():
        out.append(ExtElement(action.alg,
                              {columns[j]: c for j, c in row.items()}))
    return out
