"""The Lie algebra action on the Grassmann algebra over two copies of the
adjoint module, extended as even derivations; weight bookkeeping, the
Casimir on weight zero, and invariant subspaces of bigraded components.

Weight slices of a component are listed one way only,
`ActionTable.weight_masks`, which joins x-halves and y-halves by weight,
each weight packed into one int, each half table built by extension."""

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
        # the weight of x_b and of y_b, for mask_weight and weight_masks
        self._weights = [lie.basis_weight(b) for b in range(n)]
        # weight_masks' tables (`_pack`, `_x_table`), filled on first use;
        # the y-halves of (0,q) grouped by packed weight, keyed by q.  A
        # half-mask's largest |coordinate| is 2 rho's, the positive roots' sum
        self._reach = max(map(sum, zip(*lie.rs.positive_roots)))
        self._width = (3 * self._reach).bit_length() + 1
        self._packed = [self._pack(w) for w in self._weights]
        self._x_halves = [[(0, 0)]]
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

    def mask_weight(self, mask):
        """The sum of the weights of a monomial's generators: x_b's and
        y_b's is that of basis element b, xi's and eta's is zero."""
        n, weights = self.alg.n, self._weights
        return tuple(map(sum, zip(self.zero_weight, *(
            weights[b % n] for b in _bits(mask) if b < 2 * n))))

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
        canonical order (ValueError on a weight not of the rank's length).
        Each x-half of packed weight w is joined with the y-halves of packed
        weight `_pack(weight) - w`, so the full component is never listed;
        the half tables depend only on the algebra and are built once."""
        if len(weight) != len(self.zero_weight):
            raise ValueError("weight %r is not of rank %d"
                             % (weight, len(self.zero_weight)))
        if any(abs(c) > 2 * self._reach for c in weight):
            return []
        ys = self._y_halves.get(q)
        if ys is None:
            ys = self._y_halves[q] = {}
            for my, w in self._x_table(q):
                ys.setdefault(w, []).append(my << self.alg.n)
        target = self._pack(weight)
        return [mx | my for mx, w in self._x_table(p)
                for my in ys.get(target - w, ())]

    def _pack(self, weight):
        """One int for a weight, coordinate i in a signed field of `_width`
        bits at bit i * _width: linear, and one-to-one on coordinates within
        3 * _reach < 2^(_width - 1), where a reachable target (within
        2 * _reach) less an x-half's weight (within _reach) lies."""
        return sum(c << i * self._width for i, c in enumerate(weight))

    def _x_table(self, p):
        """The x-halves of (p,0) as (mask, packed weight), in canonical
        (lexicographic) order, kept at index p: each level from the one
        below, a half extended by every generator above its top bit in
        turn, and its packed weight by one sum."""
        xs, packed = self._x_halves, self._packed
        while len(xs) <= min(p, len(packed)):
            xs.append([(m | 1 << c, w + packed[c]) for m, w in xs[-1]
                       for c in range(m.bit_length(), len(packed))])
        return xs[p] if 0 <= p < len(xs) else []


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
    x-half of the same indices, so each is acted on once per e_i.  An
    image of e_i has weight alpha_i, and the simple roots are distinct, so
    its monomial alone keys its equation.
    """
    alg, lie = action.alg, action.lie
    alg.guard(p, q)
    w0 = action.weight_masks(p, q, action.zero_weight)
    n = alg.n
    low = (1 << n) - 1
    halves = {half for mask in w0 for half in (mask & low, mask >> n)}
    # rows of the stacked equation system: one per image monomial
    eqs = {}
    for a in [lie.e_index(simple) for simple in lie.rs.simple_roots]:
        images = {half: action.act_mask(a, half) for half in halves}
        for j, mask in enumerate(w0):
            mx, my = mask & low, mask >> n
            for half, shift, rest in ((mx, 0, my << n), (my, n, mx)):
                for m2, v in images[half].items():
                    eqs.setdefault(m2 << shift | rest, {})[j] = v
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
