"""The superscheme algebra: defining relations, the invariant element S,
graded ideal components, and the S-power membership checks.

Everything is computed inside bigraded components of the Grassmann algebra.
All spanning vectors are weight vectors, so questions about weight-zero
elements (S powers, invariants) are settled inside the weight-zero slice
of the component.  A span is eliminated once and never changes; the
quotient by it is read through its normal form (`IdealSpan.normal_form`),
a linear map whose kernel is the span: membership is a zero normal form,
and the growth of the span by a batch is the rank of the batch's normal
forms (`IdealSpan.quotient`).

Two commuting involutions permute the weight-zero monomials up to sign and
map each relation to plus or minus a relation.  The Chevalley involution
x_a -> -x_sigma(a), y_a -> -y_sigma(a) (sigma exchanges e_alpha and
f_alpha) sends relation c of each family to minus relation sigma(c) of the
same family, so it keeps every ideal span.  The swap x_a <-> y_a sends
each XX relation to the YY one of the same index and fixes each XY one, so
it keeps the spans at (k,k) whose families are closed under it.  Such a
span is the sum of its parts in the isotypic components of the group they
generate, and `IdealSpan` eliminates each part as a certified span of a
half or a quarter of the size, from a half or a quarter of the rows.
"""

from collections import Counter, namedtuple
from fractions import Fraction
from itertools import chain
from math import lcm

from ..exterior import (GrassmannAlgebra, ExtElement, OddMatrix,
                        WrongComponent, memo_power, suffix_parity,
                        swap_mask, wedge_into)
from ..exactla import Echelon, addmul, peel
from ..liemodule import ActionTable, form_dual, invariant_basis
from ..rootsystem.reps import representation, default_trace_label

XX, XY, YY = "XX", "XY", "YY"
_FAMILY_DEGREE = {XX: (2, 0), XY: (1, 1), YY: (0, 2)}
# the family the swap x_a <-> y_a sends each family to
_SWAP = {XX: YY, XY: XY, YY: XX}
# the order of the families among the rows `ideal_rows` keeps
_FAMILY_ORDER = {XX: 0, XY: 1, YY: 2}


class Symmetry(namedtuple("Symmetry", "image relation")):
    """A signed involution of the x and y blocks that permutes the
    monomials and the relations: image(m) is the image of monomial m as
    (mask, sign), and relation(family, c) is the (family, index) of the
    relation that relation c of the family is sent to, up to sign."""

    __slots__ = ()


def relations(lie):
    """The three families generating the defining ideal, as
    {XX: [...], XY: [...], YY: [...]}, one int terms dict per basis index
    c: the canonical adjoint copies in bidegrees (2,0), (1,1) and (0,2)
    (components of {X,X}, {X,Y}, {Y,Y}).

    Relation c is the structure-constant contraction sum_ab f_ab^c g_a g_b,
    taken in the form-dual coordinates g^a = sum_b Binv_ab g_b.  In dual
    coordinates the three families are the components of the
    supercommutators of the equivariant matrices X, Y, so each family
    spans the canonical adjoint copy and is stable under the action table
    (the same contraction on the plain coordinates is not, away from
    orthonormal bases).

    The dual coordinates are taken with D * Binv, D the lcm of Binv's
    denominators, so every coefficient is an int: each relation is D**2
    times the contraction with Binv, and each family spans the same
    space."""
    n = lie.dim
    dual, _ = form_dual(lie)
    xd = [{1 << b: v for b, v in row.items()} for row in dual]
    yd = [{1 << (b + n): v for b, v in row.items()} for row in dual]
    xx, xy, yy = ([{} for _ in range(n)] for _ in range(3))
    for (a, b), comb in lie.struct.items():
        pairs = ((xx, xd[a], xd[b]), (xy, xd[a], yd[b]), (yy, yd[a], yd[b]))
        for fam, u, v in pairs:
            uv = wedge_into({}, u, v)
            for c, coeff in comb.items():
                addmul(fam[c], uv, coeff)
    return {XX: xx, XY: xy, YY: yy}


def S_ints(lie):
    """S = sum_a x_a y^a over the form-dual basis, the unique invariant of
    bidegree (1,1) up to scale, as (int terms, D): the terms of D * S, D
    the lcm of the denominators of Binv."""
    n = lie.dim
    dual, den = form_dual(lie)
    return {(1 << a) | (1 << (b + n)): c
            for a, row in enumerate(dual) for b, c in row.items()}, den


class Workspace:
    """Bundles one Lie algebra with its Grassmann algebra, action table,
    relation families and S; the Grassmann algebra holds the monomial cap
    (None: the default).  The engine's inputs are int terms: the families
    of `relations` in `rels`, keyed by XX, XY and YY, S over `s_den`, and
    X and Y over one denominator (`xy_matrices`).  The trace
    representation is fixed by the type (`trace_label`).  `chevalley` and
    `swap` are the `Symmetry`s that split the ideal spans.  What the checks
    derive from the algebra alone is cached here and lives as long as the
    workspace:

    - the OddMatrices X, Y and the powers of z = XY + YX: `z_powers` holds
      z^0 .. z^ceil(k/2) for the largest degree k traced so far, and no
      trace of degree k needs a higher power (see `cdsw.hats`);
    - the traces of `cdsw.hats` (Tr(z^k), dF(z)(X) and hat of degree k) as
      (int terms, den), in `traces`, keyed by (function name, k), and the
      products of hats that `hat_monomials` built, one memo per degrees
      tuple, keyed by ("hat_monomials", degrees);
    - S as D * S on int terms over `s_den` = D, and the powers (D * S)^k
      that `s_power` built, in `s_powers` (indexed by k, from 1 and D * S):
      each S^k is built once and shared by the S-power checks and the
      CLI's witness;
    - the certified weight-zero ideal spans of `ideal_weight_zero`, in
      `ideal_spans`, keyed by (frozenset of families, p, q), each an
      `IdealSpan` of the isotypic parts of `chevalley` (two parts), and of
      `swap` too (four parts) when p == q and the families are closed
      under the swap; a part its rows are proven to fill (`IdealSpan`)
      is built with no elimination.  A span never changes once built:
      checks read the quotient through its normal form, so each call
      hands out the cached span itself;
    - the half-mask weights of `ActionTable.weight_masks`, the half-mask
      images of `ActionTable.chevalley_image`, the table of
      `ActionTable.casimir` and the invariant bases of
      `liemodule.invariant_basis` ((int terms, den) over the weight-zero
      masks), in `action`.  `invariants_of_quotient` computes an invariant
      basis only where a span leaves many free columns; where it leaves
      few, it answers from the Casimir on the quotient, with no kernel."""

    def __init__(self, lie, cap=None):
        self.lie = lie
        self.alg = GrassmannAlgebra(lie.dim, cap)
        self.action = ActionTable(self.alg, lie)
        self.rels = relations(lie)
        terms, self.s_den = S_ints(lie)
        self.s_powers = [ExtElement(self.alg, {0: 1}),
                         ExtElement(self.alg, terms)]
        self.g = lie.dual_coxeter
        self.trace_label = default_trace_label(lie.rs.type_label)
        self._xy = None
        self.z_powers = []
        self.traces = {}
        self.ideal_spans = {}
        sigma = lie.chevalley_involution()
        n = lie.dim
        self.chevalley = Symmetry(self.action.chevalley_image,
                                  lambda fam, c: (fam, sigma[c]))
        self.swap = Symmetry(lambda m: swap_mask(m, n),
                             lambda fam, c: (_SWAP[fam], c))

    def xy_matrices(self):
        """X = sum_a x_a rho(e^a) and Y likewise, e^a = sum_b Binv_ab e_b
        the form-dual basis; dual-basis matrices make the traces invariant
        under the action table.  On ints: the rows of D * Binv
        (`form_dual`) against r * rho(e_b), r the lcm of the
        representation's denominators, give OddMatrices over D * r."""
        if self._xy is not None:
            return self._xy
        rep = representation(self.lie, self.trace_label)
        dual, den = form_dual(self.lie)
        r = lcm(*(v.denominator for mat in rep.matrices
                  for row in mat for v in row))
        rho = [[[v.numerator * (r // v.denominator) for v in row]
                for row in mat] for mat in rep.matrices]
        size = range(rep.dim_V)
        # D * r * rho(e^a) for each a, as int matrices
        mats = [[[sum(c * rho[b][i][j] for b, c in row.items())
                  for j in size] for i in size] for row in dual]

        def matrix(shift):
            return OddMatrix(self.alg, [[{
                1 << (a + shift): m[i][j] for a, m in enumerate(mats)
                if m[i][j]} for j in size] for i in size], den * r)

        self._xy = (matrix(0), matrix(self.lie.dim))
        return self._xy

    def trace_S_constant(self):
        """c with Tr_V(XY) = c * S; the Dynkin-index factor.  On ints,
        Tr(XY) is t / d (`trace_product_ints`) and S is s / D: they are
        proportional when t and s have the same monomials and
        t[m] s[m0] = t[m0] s[m] on each, and then c = t[m0] D / (d s[m0])."""
        X, Y = self.xy_matrices()
        t, d = X.trace_product_ints(Y)
        s = self.s_powers[1].terms
        m0 = next(iter(s))
        if t.keys() != s.keys() or any(t[m] * s[m0] != t[m0] * c
                                       for m, c in s.items()):
            raise AssertionError("Tr(XY) is not proportional to S")
        return Fraction(t[m0] * self.s_den, d * s[m0])


def ideal_rows(ws, families, p, q, weight, symmetries=()):
    """Spanning vectors r ^ m of the selected ideal families in the (p,q)
    component that have the given total weight, as int terms dicts.
    Wedging r with one monomial m sends each term m1 of r to m1 | m or to
    nothing, one to one, so a row is r's coefficients, signed by
    `suffix_parity`, on new masks: no term ever collides or cancels.

    symmetries: commuting `Symmetry`s that keep the weight and the
    families (the Chevalley involution negates weights, so it keeps weight
    zero only).  Each sends a row to plus or minus a row, so the rows fall
    into orbits of (family, relation index, mask) under the group they
    generate, and the rows of an orbit have the same projections onto the
    group's isotypic parts, up to sign.  One row per orbit is kept, the
    least by family (XX < XY < YY), then relation index, then mask: with
    the swap alone, no YY row and the XY rows r ^ m with m <= swap(m)."""
    action = ws.action
    group = range(1, 1 << len(symmetries))
    for fam in families:
        dp, dq = _FAMILY_DEGREE[fam]
        rp, rq = p - dp, q - dq
        if rp < 0 or rq < 0:
            continue
        slices = {}
        for index, rel in enumerate(ws.rels[fam]):
            if not rel:
                continue
            label = _FAMILY_ORDER[fam], index
            images = {g: _relation_image(symmetries, g, fam, index)
                      for g in group}
            if any(image < label for image in images.values()):
                continue
            # the group elements that fix the relation order its masks
            fixing = tuple(g for g, image in images.items() if image == label)
            rw = action.mask_weight(next(iter(rel)))
            need = tuple(w - r for w, r in zip(weight, rw))
            masks = slices.get((need, fixing))
            if masks is None:
                masks = [m for m in action.weight_masks(rp, rq, need)
                         if not fixing or all(
                             m <= image for g, image, _ in
                             _images(symmetries, m) if g in fixing)]
                slices[need, fixing] = masks
            terms = [(m1, suffix_parity(m1), c, -c)
                     for m1, c in rel.items()]
            for m in masks:
                row = {m1 | m: n if (p1 & m).bit_count() & 1 else c
                       for m1, p1, c, n in terms if not m1 & m}
                if row:
                    yield row


class IdealSpan:
    """The certified span of rows over the given masks, as the sum of its
    isotypic parts under a group of signed monomial permutations, one
    `Echelon` per part.  It is eliminated once, in the constructor, and
    never changes.

    columns: the masks, in any order; bidegree: the component, named in
    WrongComponent messages; rows: terms dicts over the masks, whose span
    must be stable under the symmetries; symmetries: commuting
    `Symmetry`s, which must keep the set of columns.  Group element g (bit
    k set for each factor symmetries[k]) sends e_m to sign * e_gm, and
    part i is the isotypic part of the character chi_i(g) = (-1)**|i & g|,
    the sign that symmetries[k] takes on part i being -1 when bit k of i
    is set.  With no symmetry there is one part, with an orbit per mask.

    orbit maps each mask m to (o, signs): the number o of its orbit and
    its sign in each part, 0 in the parts that do not hold the orbit;
    place[i][o] is the column of orbit o in part i, None when part i does
    not hold it.  Column j of part i of an element sums its coefficients on
    the masks of the orbit, each times its sign in part i.  An orbit first
    met at m0 reads m = g m0 (g m0 = sign * e_m) with sign chi_i(g) * sign:
    the coordinate of the projection onto part i along the projection of
    e_m0.  Part i holds the orbit when every g that fixes m0 does so with
    the sign chi_i(g), and otherwise projects it to zero.  A span stable
    under the symmetries is the sum of its projections, so rank and
    membership are the sum and the conjunction of the parts', and the
    quotient by it is the sum of the parts' quotients.

    A part with at least as many rows as columns is first peeled
    (`exactla.peel`): when its rows take every column, its rank over Q is
    its width, and it is the certified identity `Echelon.identity` over
    the columns in the order of the masks, with no reduction.  Every other
    part is eliminated, its columns ordered by how many of its rows touch
    them, fewest first, ties in the order of the masks.  Sparse columns
    then take the pivots and dense ones stay free, which shrinks the
    certified RREFs.  Rank, membership and quotient ranks do not depend on
    the column order; each part's certified RREF is canonical for its
    own."""

    def __init__(self, columns, bidegree, rows, symmetries=()):
        self.columns = columns
        self.bidegree = bidegree
        self.symmetries = tuple(symmetries)
        self.orbit, self.place = _orbits(columns, self.symmetries)
        vecs = [self.split(row) for row in rows]
        self.parts = []
        for i, cols in enumerate(self.place):
            width = len(cols) - cols.count(None)
            batch = [vec[i] for vec in vecs if vec[i]]
            for vec in vecs:
                vec[i] = None
            if len(batch) >= width and peel(batch, width) == width:
                self.parts.append(Echelon.identity(width))
                continue
            touched = Counter(chain.from_iterable(batch))
            # a stable sort: equal counts keep the order of the masks
            order = sorted(range(width), key=touched.__getitem__)
            new = dict(zip(order, range(width)))
            self.place[i] = [None if j is None else new[j] for j in cols]
            for r, row in enumerate(batch):
                batch[r] = {new[j]: c for j, c in row.items()}
            part = Echelon(width)
            part.insert_all(batch)
            part.rank  # certifies the part, which drops its batch
            self.parts.append(part)

    @property
    def rank(self):
        return sum(part.rank for part in self.parts)

    def split(self, terms):
        """The coordinate vector of the terms dict in each part, its
        denominators left to the parts' `Echelon`s, which clear them.  A
        term outside the columns raises WrongComponent, also when its
        bidegree is the ambient one (the slice leaves out monomials of the
        component)."""
        vecs = [{} for _ in self.place]
        parts = list(zip(vecs, self.place))
        for m, c in terms.items():
            hit = self.orbit.get(m)
            if hit is None:
                raise WrongComponent(
                    "monomial mask %d outside the %d columns of %s"
                    % (m, len(self.columns), self.bidegree))
            o, signs = hit
            for (vec, place), sign in zip(parts, signs):
                if sign:
                    j = place[o]
                    vec[j] = vec.get(j, 0) + sign * c
        return [{j: c for j, c in vec.items() if c} for vec in vecs]

    def normal_form(self, terms):
        """(w, den): the normal form of the terms dict modulo the span,
        times den.  w is an int dict holding the parts' normal forms side
        by side (part i at the sum of the widths of the parts before it)
        over den, the lcm of their denominators.  The map is linear, and
        its kernel is the span: w is empty exactly when terms lies in it."""
        forms = [part.normal_form(vec)
                 for part, vec in zip(self.parts, self.split(terms))]
        den = lcm(*(d for _, d in forms))
        out, offset = {}, 0
        for part, (w, d) in zip(self.parts, forms):
            out.update((offset + j, den // d * c) for j, c in w.items())
            offset += part.width
        return out, den

    def contains(self, terms):
        """Membership of the terms dict in the span."""
        return not self.normal_form(terms)[0]

    def quotient(self, batch):
        """The span of the normal forms of a batch of terms dicts, one
        `Echelon` over the parts' columns side by side: its rank is
        dim((I + span E)/I) for the span I and any batch E, and it contains
        the normal form of t exactly when t lies in I + span E."""
        quot = Echelon(sum(part.width for part in self.parts))
        quot.insert_all(w for w, _ in map(self.normal_form, batch) if w)
        return quot

    def kernel_dim(self, op):
        """dim of the kernel of the map op induces on the quotient's
        weight slice: op maps a terms dict to a multiple of its image under
        a linear map that keeps the span and commutes with the symmetries,
        so it keeps each part.  The quotient of part i is spanned by the
        part's free columns, and free column j is the class of a mask m of
        its orbit held in part i, up to sign; op maps it to the normal form
        of op(m)'s coordinates in part i.  The kernel is the sum over the
        parts of their free columns less the rank of those images, one
        small `Echelon` over the part's free columns each."""
        frees = [{j: k for k, j in enumerate(part.free_columns())}
                 for part in self.parts]
        # one mask of each free column's orbit in each part
        reps = [{} for _ in self.parts]
        left = sum(map(len, frees))
        for m in self.columns:
            if not left:
                break
            o = self.orbit[m][0]
            for rep, free, place in zip(reps, frees, self.place):
                j = place[o]
                if j in free and j not in rep:
                    rep[j] = m
                    left -= 1
        dim = 0
        for i, (part, rep, free) in enumerate(zip(self.parts, reps, frees)):
            if not free:
                continue
            images = Echelon(len(free))
            images.insert_all(
                {free[j]: c for j, c in
                 part.normal_form(self.split(op({m: 1}))[i])[0].items()}
                for m in rep.values())
            dim += len(free) - images.rank
        return dim


def _images(symmetries, m):
    """The images of monomial m under the group the symmetries generate,
    as (g, mask, sign), the identity g = 0 first: element g is the product
    of the symmetries[k] with bit k set in g."""
    images = [(0, m, 1)]
    for k, sym in enumerate(symmetries):
        for g, m, s in list(images):
            m, s2 = sym.image(m)
            images.append((g | 1 << k, m, s * s2))
    return images


def _relation_image(symmetries, g, fam, c):
    """The order key (family, index) of the relation that group element g
    sends relation c of fam to, up to sign."""
    for k, sym in enumerate(symmetries):
        if g >> k & 1:
            fam, c = sym.relation(fam, c)
    return _FAMILY_ORDER[fam], c


def _orbits(masks, symmetries):
    """`IdealSpan` orbits of the masks under the group the symmetries
    generate, and their columns in each part in the masks' order, as
    (orbit, place)."""
    size = 1 << len(symmetries)
    # the sign of element g in each part, times +1 and times -1
    chars = [{s: tuple(s * _character(i, g) for i in range(size))
              for s in (1, -1)} for g in range(size)]
    orbit, place, widths = {}, [[] for _ in range(size)], [0] * size
    for m0 in masks:
        if m0 in orbit:
            continue
        images = _images(symmetries, m0)
        fixing = [(g, s) for g, m, s in images[1:] if m == m0]
        held = [not fixing or all(_character(i, g) == s for g, s in fixing)
                for i in range(size)]
        o = len(place[0])
        # the first g that reaches m sets its signs
        for g, m, s in reversed(images):
            signs = chars[g][s]
            if fixing:
                signs = tuple(c if h else 0 for c, h in zip(signs, held))
            orbit[m] = o, signs
        for i, cols in enumerate(place):
            cols.append(widths[i] if held[i] else None)
            widths[i] += held[i]
    return orbit, place


def _character(i, g):
    """chi_i(g) = (-1)**|i & g|, the character of part i on element g."""
    return -1 if (i & g).bit_count() & 1 else 1


def ideal_weight_zero(ws, families, p, q):
    """Weight-zero slice of the ideal span, as an `IdealSpan`.  Valid for
    membership of weight-zero elements because the spanning vectors are
    weight-homogeneous.  Its symmetries are the Chevalley involution, which
    keeps every family, and the swap x_a <-> y_a too when p == q and the
    families are closed under the swap: two parts or four, eliminated from
    the rows `ideal_rows` keeps under the same symmetries.

    The span is eliminated once per workspace and families set (in any
    order), after the algebra's cap has guarded the component, and kept
    certified in `ws.ideal_spans`; every call returns that span itself,
    which nothing changes."""
    key = (frozenset(families), p, q)
    span = ws.ideal_spans.get(key)
    if span is None:
        ws.alg.guard(p, q)
        zero = ws.action.zero_weight
        symmetries = (ws.chevalley,)
        if p == q and {_SWAP[f] for f in families} == set(families):
            symmetries += (ws.swap,)
        span = ws.ideal_spans[key] = IdealSpan(
            ws.action.weight_masks(p, q, zero), (p, q),
            ideal_rows(ws, families, p, q, zero, symmetries), symmetries)
    return span


def s_power(ws, k):
    """(D * S)^k on int terms, D = ws.s_den, so S^k is its terms over D**k;
    built by `memo_power` and shared through ws.s_powers: callers must not
    change it.  Membership does not depend on the scale D**k, and
    `IdealSpan` reads the int terms without a copy."""
    return memo_power(ws.s_powers, k)


def check_S_power(ws, k, mode=None):
    """Membership of S^k in the full defining ideal at bidegree (k,k).
    Nothing reads mode: the benchmark (perfbench/workloads.py) still passes
    a `FieldMode` third, and the parameter goes when the benchmark next
    changes."""
    sub = ideal_weight_zero(ws, (XX, XY, YY), k, k)
    return {
        "k": k,
        "contained": sub.contains(s_power(ws, k).terms),
        "ideal_rank": sub.rank,
    }


def invariants_of_quotient(ws, p, q, families=(XX, XY, YY)):
    """dim A^g for the quotient A of the (p,q) component by the selected
    ideal, from its weight-zero ideal span.  Both routes are exact, and
    one fixed rule on the span's f free columns and its width |w0| picks
    one: the Casimir's kernel on the quotient (`invariants_by_casimir`)
    when f * f <= |w0|, which takes a span with no free column to 0 at
    once, and the invariant kernel of the component
    (`invariants_by_kernel`) otherwise.  The rule is set by whole check
    runs, where c1 asks for the same (p,q) invariant basis and the
    kernel route then costs one quotient: with `--checks all` it is at
    least as fast as a linear bound f <= |w0|/20 on A3, G2 and the
    default profile.  Alone, a part (i) run of G2 or A3 pays the (3,3)
    kernel that the Casimir would answer about twice (G2) or four times
    (A3) faster."""
    sub = ideal_weight_zero(ws, families, p, q)
    free = len(sub.columns) - sub.rank
    if free * free <= len(sub.columns):
        return invariants_by_casimir(ws, sub)
    return invariants_by_kernel(ws, sub)


def invariants_by_casimir(ws, sub):
    """dim A^g as the kernel of the Casimir on the weight-zero slice of A,
    the quotient by the weight-zero ideal span sub: the ideal is a
    submodule, so the Casimir acts on A, by c_lambda = (lambda,
    lambda + 2 rho) != 0 on every nontrivial irreducible, and A^g lies in
    weight zero (Humphreys, section 6.2 and 22.3).  No invariant kernel of
    the component is computed: one Casimir image per free column."""
    return sub.kernel_dim(ws.action.casimir)


def invariants_by_kernel(ws, sub):
    """dim A^g as the invariants of the component modulo their overlap
    with the ideal (taking invariants is exact here): the rank of the
    component's invariant basis (`invariant_basis`) in the quotient by the
    weight-zero ideal span sub."""
    return sub.quotient(
        terms for terms, _ in invariant_basis(ws.action, *sub.bidegree)).rank


# off-diagonal bidegrees where part (i) spot-checks that A^g vanishes
OFFDIAGONAL_SPOT_CHECKS = ((1, 0), (0, 2), (2, 1))


def check_part_i(ws, up_to_k):
    """dim A^g at (k,k) for k <= up_to_k, its match with the image of S^k,
    and off-diagonal vanishing spot checks.  Every component it builds a
    span or kernel over is guarded before any is built, so a component
    over the cap raises ComponentTooLarge with nothing built."""
    for p, q in [(k, k) for k in range(1, up_to_k + 1)] + list(
            OFFDIAGONAL_SPOT_CHECKS):
        ws.alg.guard(p, q)
    diag = []
    for k in range(up_to_k + 1):
        if k == 0:
            diag.append({"k": 0, "dim": 1, "s_power_dim": 1, "match": True})
            continue
        sub = ideal_weight_zero(ws, (XX, XY, YY), k, k)
        s_dim = 0 if sub.contains(s_power(ws, k).terms) else 1
        dim = invariants_of_quotient(ws, k, k)
        diag.append({
            "k": k,
            "dim": dim,
            "s_power_dim": s_dim,
            "match": dim == s_dim,
        })
    off = [{"bidegree": [p, q],
            "dim": invariants_of_quotient(ws, p, q)}
           for (p, q) in OFFDIAGONAL_SPOT_CHECKS]
    expected = [1] * min(up_to_k + 1, ws.g) + [0] * max(0, up_to_k + 1 - ws.g)
    got = [d["dim"] for d in diag]
    return {
        "diagonal": diag,
        "offdiagonal": off,
        "expected_diagonal": expected,
        "pass": (got == expected and all(d["match"] for d in diag)
                 and all(o["dim"] == 0 for o in off)),
    }
