"""The Lie algebra action on the Grassmann algebra over two copies of the
adjoint module, extended as even derivations; weight bookkeeping, the
Casimir on weight zero, and invariant subspaces of bigraded components.

Weight slices of a component are listed one way only,
`ActionTable.weight_masks`, which joins x-halves and y-halves by weight."""

from itertools import chain
from math import lcm

from .exterior import ExtElement, _bits
from .exactla import addmul, kernel_basis


def form_dual(lie):
    """(dual, D): the rows of D * Binv as int dicts {b: entry} without
    zeros, D the lcm of the denominators of Binv = lie.form_inv."""
    den = lcm(*(v.denominator for row in lie.form_inv for v in row))
    return [{b: v.numerator * (den // v.denominator)
             for b, v in enumerate(row) if v} for row in lie.form_inv], den


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
                moves = list(lie.bracket(a, b).items())
                if moves:
                    row[b] = moves
                    row[b + n] = [(c + n, v) for c, v in moves]
            self.table.append(row)
        self.zero_weight = (0,) * lie.rank
        # mask_weight's table: the weight of each generator bit
        self._bit_weights = [self.generator_weight(b)
                             for b in range(2 * n + 2)]
        # weight_masks' half-mask tables, each filled on first use: the
        # x-halves of (p,0) as (mask, weight) pairs in canonical order, keyed
        # by p, and the y-halves of (0,q) grouped by weight, keyed by q
        self._x_halves = {}
        self._y_halves = {}
        # invariant_basis's canonical bases, keyed by (p, q)
        self._invariant_bases = {}
        # chevalley_image's table: sigma on basis indices, and the image of
        # each half-mask seen so far as (mask, sign), filled on first use
        self._sigma = lie.chevalley_involution()
        self._chevalley_halves = {}
        # casimir's table, filled on first use: (a, [(b, entry)]) for the
        # rows a of D * Binv with an entry off the Cartan
        self._casimir = None

    def generator_weight(self, bit):
        n = self.alg.n
        if bit >= 2 * n:
            return self.zero_weight
        return self.lie.basis_weight(bit if bit < n else bit - n)

    def mask_weight(self, mask):
        w = list(self.zero_weight)
        for b in _bits(mask):
            for i, c in enumerate(self._bit_weights[b]):
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

    def casimir(self, terms):
        """D * Omega of a weight-zero int terms dict, as a new int terms
        dict: Omega = sum_ab Binv_ab act(a) act(b), the Casimir of the form
        (it commutes with the action, and acts on a nontrivial irreducible
        module by a nonzero scalar), with D * Binv on ints as in
        `form_dual`.  A Cartan element acts on weight zero as zero, so the
        inner factors b of the Cartan are skipped: the row of a root vector
        keeps its one root entry, and a Cartan row none."""
        if self._casimir is None:
            dual, _ = form_dual(self.lie)
            root = self.lie.signed_root
            pairs = [(a, [(b, v) for b, v in row.items() if root(b)])
                     for a, row in enumerate(dual)]
            self._casimir = [(a, row) for a, row in pairs if row]

        def act(a, terms):
            out = {}
            for m, c in terms.items():
                addmul(out, self.act_mask(a, m), c)
            return out

        out = {}
        for a, row in self._casimir:
            inner = {}
            for b, v in row:
                addmul(inner, act(b, terms), v)
            addmul(out, act(a, inner))
        return out

    def chevalley_image(self, mask):
        """The Chevalley involution x_a -> -x_sigma(a), y_a -> -y_sigma(a)
        of a monomial, as (mask, sign).  It keeps the x and y blocks, so the
        image of mx | my is the image of mx joined with the image of my,
        the signs multiplied; each half-mask is mapped once per action
        table.  It negates every weight, so it keeps weight zero."""
        n = self.alg.n
        if mask >> 2 * n:
            raise ValueError("the Chevalley involution is not defined on "
                             "xi/eta")
        mx, sx = self._chevalley_half(mask & ((1 << n) - 1))
        my, sy = self._chevalley_half(mask >> n)
        return mx | my << n, sx * sy

    def _chevalley_half(self, half):
        hit = self._chevalley_halves.get(half)
        if hit is None:
            images = [self._sigma[b] for b in _bits(half)]
            # a sign per generator, and the inversions that sort the images
            odd = len(images) + sum(a > b for i, a in enumerate(images)
                                    for b in images[i + 1:])
            image = sum(1 << b for b in images)
            hit = self._chevalley_halves[half] = image, -1 if odd & 1 else 1
        return hit

    def weight_masks(self, p, q, weight):
        """Monomial masks of bidegree (p,q) and the given weight, in
        canonical order.  A mask's weight is the sum of its x-part's and its
        y-part's, so each x-part of weight w is joined with the y-parts of
        weight `weight - w`; the full component is never listed.  The
        half-masks and their weights depend only on the algebra, so each
        (p,0) and (0,q) is listed and weighed once per action table."""
        xs = self._x_halves.get(p)
        if xs is None:
            xs = self._x_halves[p] = [
                (mx, self.mask_weight(mx))
                for mx in self.alg.component_masks(p, 0)]
        ys = self._y_halves.get(q)
        if ys is None:
            ys = self._y_halves[q] = {}
            for my in self.alg.component_masks(0, q):
                ys.setdefault(self.mask_weight(my), []).append(my)
        out = []
        for mx, wx in xs:
            need = tuple(w - c for w, c in zip(weight, wx))
            out.extend(mx | my for my in ys.get(need, ()))
        return out


def invariants(action, p, q):
    """The canonical invariant basis of the (p,q) component, in a new list:
    the certified RREF rows of its kernel over the weight-zero monomials in
    canonical order (`exactla.kernel_basis`), each as (int terms, den), the
    terms den times the row, so the pivot's entry is den.

    Invariant vectors have weight zero, so the kernel is computed on the
    weight-zero slice only (Cartan elements act as zero there), and the
    acting operators are the rank simple raising operators e_i alone: a
    weight-zero vector killed by every e_i is a highest-weight vector of
    weight 0 in a finite-dimensional module, so it spans a trivial
    submodule and every f_i kills it too.  An e_i moves the x-half or the
    y-half of a monomial, never both, so the image of mx | my joins the
    images of its halves, which share no monomial; a y-half moves as the
    x-half of the same indices, so each is acted on once per e_i.
    """
    alg, lie = action.alg, action.lie
    alg.guard(p, q)
    w0 = action.weight_masks(p, q, action.zero_weight)
    n = alg.n
    low = (1 << n) - 1
    halves = {half for mask in w0 for half in (mask & low, mask >> n)}
    # rows of the stacked equation system: one per (generator, image monomial)
    eqs = {}
    for a in [lie.e_index(simple) for simple in lie.rs.simple_roots]:
        images = {half: action.act_mask(a, half) for half in halves}
        for j, mask in enumerate(w0):
            mx, my = mask & low, mask >> n
            for half, shift, rest in ((mx, 0, my << n), (my, n, mx)):
                for m2, v in images[half].items():
                    eqs.setdefault((a, m2 << shift | rest), {})[j] = v
    return [({w0[j]: c for j, c in chain([(piv, den)], row.items())}, den)
            for piv, (row, den) in kernel_basis(list(eqs.values()),
                                                len(w0)).items()]


def invariant_basis(action, p, q):
    """The canonical invariant basis of `invariants`, computed once per
    action table and (p, q) and shared: callers must not change it."""
    bases = action._invariant_bases
    basis = bases.get((p, q))
    if basis is None:
        basis = bases[p, q] = invariants(action, p, q)
    return basis


def invariant_basis_elements(action, p, q):
    """The canonical invariant basis of `invariants` as ExtElements over
    Fractions, in a new list: the rational values, for callers outside the
    package.  The checks read the int terms of `invariant_basis`."""
    return [ExtElement.from_ints(action.alg, terms, den)
            for terms, den in invariant_basis(action, p, q)]
