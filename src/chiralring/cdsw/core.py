"""The superscheme algebra: defining relations, the invariant element S,
graded ideal components, and the S-power membership checks.

Everything is computed inside bigraded components of the Grassmann algebra;
quotients are represented by (span, residue) pairs, never by normal forms.
All spanning vectors are weight vectors, so membership questions about
weight-zero elements (S powers, invariants) are settled inside the
weight-zero slice of the component.

The swap x_a <-> y_a commutes with the action, sends each XX relation to
the YY one of the same index and fixes each XY one.  So at (k,k) an ideal
span whose families are closed under it is the sum of its parts in the
swap's two eigenspaces, and `IdealSpan` eliminates each part as a
certified span of half the size, from half of the rows.
"""

import copy
from collections import Counter
from fractions import Fraction
from itertools import chain
from math import lcm

from ..exterior import (GrassmannAlgebra, ExtElement, OddMatrix,
                        suffix_parity, wedge_into)
from ..exactla import (Echelon, WrongComponent, addmul, cleared,
                       guard_component)
from ..liemodule import ActionTable, invariant_basis_elements
from ..rootsystem.reps import representation, default_trace_label

XX, XY, YY = "XX", "XY", "YY"
_FAMILY_DEGREE = {XX: (2, 0), XY: (1, 1), YY: (0, 2)}
# the family the swap x_a <-> y_a sends each family to
_SWAP = {XX: YY, XY: XY, YY: XX}


class RelationSet:
    """The three families generating the defining ideal, one element per
    basis index: the canonical adjoint copies in bidegrees (2,0), (1,1) and
    (0,2) (components of {X,X}, {X,Y}, {Y,Y})."""

    def __init__(self, xx, xy, yy):
        self.xx_relations = xx
        self.xy_relations = xy
        self.yy_relations = yy

    def family(self, name):
        return {XX: self.xx_relations, XY: self.xy_relations,
                YY: self.yy_relations}[name]


def relations(alg, lie):
    """The structure-constant contraction sum_ab f_ab^c g_a g_b, taken in
    the form-dual coordinates g^a = sum_b Binv_ab g_b.  In dual coordinates
    the three families are the components of the supercommutators of the
    equivariant matrices X, Y, so each family spans the canonical adjoint
    copy and is stable under the action table (the same contraction on the
    plain coordinates is not, away from orthonormal bases).

    The dual coordinates are taken with D * Binv, D the lcm of Binv's
    denominators, so every coefficient is an int: each relation is D**2
    times the contraction with Binv, and each family spans the same
    space."""
    n = lie.dim
    den = lcm(*(v.denominator for row in lie.form_inv for v in row))
    dual = [{b: v.numerator * (den // v.denominator)
             for b, v in enumerate(row) if v} for row in lie.form_inv]
    xd = [{1 << b: v for b, v in row.items()} for row in dual]
    yd = [{1 << (b + n): v for b, v in row.items()} for row in dual]
    xx, xy, yy = ([{} for _ in range(n)] for _ in range(3))
    for (a, b), comb in lie.struct.items():
        pairs = ((xx, xd[a], xd[b]), (xy, xd[a], yd[b]), (yy, yd[a], yd[b]))
        for fam, u, v in pairs:
            uv = wedge_into({}, u, v)
            for c, coeff in comb.items():
                addmul(fam[c], uv, coeff)
    xx, xy, yy = ([ExtElement(alg, t) for t in fam] for fam in (xx, xy, yy))
    return RelationSet(xx, xy, yy)


def S_element(alg, lie):
    """S = sum_a x_a y^a over the form-dual basis: the unique invariant of
    bidegree (1,1) up to scale."""
    n = lie.dim
    terms = {}
    for a in range(n):
        for b, c in enumerate(lie.form_inv[a]):
            if c:
                terms[(1 << a) | (1 << (b + n))] = c
    return ExtElement(alg, terms)


class Workspace:
    """Bundles one Lie algebra with its Grassmann algebra, action table,
    relation families and S.  The trace representation is fixed by the
    type (`trace_label`).  What the checks derive from the algebra alone is
    cached here and lives as long as the workspace:

    - the X, Y matrices and the powers of z = XY + YX: `z_powers` holds
      z^0 .. z^ceil(k/2) for the largest degree k traced so far, and no
      trace of degree k needs a higher power (see `cdsw.hats`);
    - the traces of `cdsw.hats` (Tr(z^k), dF(z)(X) and hat of degree k) as
      (int terms, den), in `traces`, keyed by (function name, k);
    - the certified weight-zero ideal spans of `ideal_weight_zero`, in
      `ideal_spans`, keyed by (frozenset of families, p, q), each an
      `IdealSpan` of one part, or of two (the eigenspaces of the swap
      x_a <-> y_a) when p == q and the families are closed under the swap.
      Checks grow the spans they are given, so each is handed out as a
      copy, which shares the certified RREFs until they grow;
    - the half-mask weights of `ActionTable.weight_masks` and the invariant
      bases of `liemodule.invariants` (ExtElements over the weight-zero
      masks, handed out by `invariant_basis_elements`), in `action`."""

    def __init__(self, lie):
        self.lie = lie
        self.alg = GrassmannAlgebra(lie.dim)
        self.action = ActionTable(self.alg, lie)
        self.rels = relations(self.alg, lie)
        self.S = S_element(self.alg, lie)
        self.g = lie.dual_coxeter
        self.trace_label = default_trace_label(lie.rs.type_label)
        self._xy = None
        self.z_powers = []
        self.traces = {}
        self.ideal_spans = {}

    def xy_matrices(self):
        """X = sum_a x_a rho(e^a) and Y likewise; dual-basis matrices make
        the traces invariant under the action table."""
        if self._xy is not None:
            return self._xy
        rep = representation(self.lie, self.trace_label)
        lie, alg = self.lie, self.alg
        dual = []
        for a in range(lie.dim):
            m = [[Fraction(0)] * rep.dim_V for _ in range(rep.dim_V)]
            for b, c in enumerate(lie.form_inv[a]):
                if c:
                    mb = rep.matrices[b]
                    for i in range(rep.dim_V):
                        for j in range(rep.dim_V):
                            m[i][j] += c * mb[i][j]
            dual.append(m)
        def matrix(shift):
            return OddMatrix(alg, [[ExtElement(alg, {
                1 << (a + shift): dual[a][i][j]
                for a in range(lie.dim) if dual[a][i][j]})
                for j in range(rep.dim_V)] for i in range(rep.dim_V)])

        X, Y = matrix(0), matrix(lie.dim)
        self._xy = (X, Y)
        return self._xy

    def trace_S_constant(self):
        """c with Tr_V(XY) = c * S; the Dynkin-index factor."""
        X, Y = self.xy_matrices()
        t = X.trace_product(Y)
        mask, coeff = next(iter(self.S.terms.items()))
        c = t.terms.get(mask, Fraction(0)) / coeff
        if t != self.S.scale(c):
            raise AssertionError("Tr(XY) is not proportional to S")
        return c


def ideal_rows(ws, families, p, q, weight, swap_half=False):
    """Spanning vectors r ^ m of the selected ideal families in the (p,q)
    component that have the given total weight.  Wedging r with one
    monomial m sends each term m1 of r to m1 | m or to nothing, one to one,
    so a row is r's coefficients, signed by `suffix_parity`, on new masks:
    no term ever collides or cancels.

    swap_half leaves out the rows that are, up to sign, swaps x_a <-> y_a
    of others: every YY row and each XY row r ^ m with swap(m) < m.  Their
    projections onto the swap's eigenspaces are those of the rows kept."""
    alg, action = ws.alg, ws.action
    for fam in families:
        dp, dq = _FAMILY_DEGREE[fam]
        rp, rq = p - dp, q - dq
        if rp < 0 or rq < 0 or swap_half and fam == YY:
            continue
        slices = {}
        for rel in ws.rels.family(fam):
            if rel.is_zero():
                continue
            rw = action.mask_weight(next(iter(rel.terms)))
            need = tuple(w - r for w, r in zip(weight, rw))
            masks = slices.get(need)
            if masks is None:
                masks = action.weight_masks(rp, rq, need)
                if swap_half and fam == XY:
                    masks = [m for m in masks if m <= _swapped(m, alg.n)]
                slices[need] = masks
            terms = [(m1, suffix_parity(m1), c, -c)
                     for m1, c in rel.terms.items()]
            for m in masks:
                row = {m1 | m: n if (p1 & m).bit_count() & 1 else c
                       for m1, p1, c, n in terms if not m1 & m}
                if row:
                    yield ExtElement(alg, row)


class IdealSpan:
    """A certified span over the given masks, in one part or in the swap's
    two eigenspaces, one `Echelon` per part; each part's certified RREF is
    canonical for its column order.

    columns: the masks, in any order; bidegree: the component, named in
    WrongComponent messages.  orbit maps each mask to the number o of its
    orbit, or to ~o for the second mask of a pair; place[i][o] is the
    column of orbit o in part i, None when the orbit is not in part i.
    Column j of part i of an element sums the coefficients of the masks of
    its orbit, the second of a pair times signs[i].  With no swap there is
    one part, with an orbit per mask: column j is columns[j].  swap = (n, s)
    gives the eigenspaces e = +1, -1 of the swap x_a <-> y_a over n
    generators per block, which sends monomial m to s * sm (s = (-1)**k at
    (k,k)): their orbits are the pairs {m, sm}, read as e_m + e*s*e_sm
    (signs (s, -s)), and the fixed masks (m == sm), in the part with
    e*s = +1 only.  A swap-stable span is the sum of its projections, so
    rank and membership are the sum and the conjunction of the parts'."""

    def __init__(self, columns, bidegree, swap=None):
        self.columns = columns
        self.bidegree = bidegree
        self.orbit, self.place, self.signs = _orbits(columns, swap)
        self.parts = [Echelon(len(cols) - cols.count(None))
                      for cols in self.place]

    @property
    def rank(self):
        return sum(part.rank for part in self.parts)

    def split(self, elem):
        """The coordinate vector of elem, with its denominators cleared, in
        each part.  A term outside the columns raises WrongComponent, also
        when its bidegree is the ambient one (the slice leaves out
        monomials of the component)."""
        vecs = [{} for _ in self.parts]
        parts = list(zip(vecs, self.place, self.signs))
        for m, c in cleared(elem.terms).items():
            o = self.orbit.get(m)
            if o is None:
                raise WrongComponent(
                    "monomial of bidegree %s outside the %d columns of %s"
                    % (elem.alg.bidegree_of_mask(m), len(self.columns),
                       self.bidegree))
            second = o < 0
            if second:
                o = ~o
            for vec, place, sign in parts:
                j = place[o]
                if j is not None:
                    vec[j] = vec.get(j, 0) + (sign * c if second else c)
        return [{j: c for j, c in vec.items() if c} for vec in vecs]

    def contains(self, elem):
        """Membership of elem in the span."""
        return all(part.contains(vec)
                   for part, vec in zip(self.parts, self.split(elem)))

    def insert_all(self, elems):
        """Insert the elements as one `Echelon.insert_all` batch per part;
        returns how much the rank grew.  Over two parts that growth is
        dim(I + E + sE) - dim I, the growth by E only when span(E) is
        stable under the swap s; a batch with some s(e) outside span(E)
        raises ValueError."""
        vecs = [self.split(el) for el in elems]
        # a batch with no element in both parts is swap-stable
        if len(self.parts) > 1 and any(all(vec) for vec in vecs):
            offset = len(self.columns)

            def joined(vec, e):
                # the coordinates of the element, or of its swap for e = -1
                return {**vec[0],
                        **{offset + j: e * c for j, c in vec[1].items()}}
            batch = Echelon()
            batch.insert_all(joined(vec, 1) for vec in vecs)
            if not all(batch.contains(joined(vec, -1)) for vec in vecs):
                raise ValueError("the span of the batch at %s is not stable "
                                 "under the swap x <-> y" % (self.bidegree,))
        before = self.rank
        for i, part in enumerate(self.parts):
            part.insert_all(vec[i] for vec in vecs if vec[i])
        return self.rank - before

    def copy(self):
        # columns, orbit and place are never changed in place
        dup = copy.copy(self)
        dup.parts = [part.copy() for part in self.parts]
        return dup


def _swapped(m, n):
    """The mask of the swap x_a <-> y_a of monomial m, over n generators
    per block."""
    return (m & ((1 << n) - 1)) << n | m >> n


def _orbits(masks, swap=None):
    """`IdealSpan` orbits of the masks, and their columns in each part in
    the masks' order, as (orbit, place, signs): one part with an orbit per
    mask when swap is None, else for swap = (n, s) the two eigenspaces of
    the swap over n generators per block, whose sign on the masks is s.
    Part 0 is e = +1 and part 1 is e = -1; a fixed mask goes to e = s."""
    n, s = swap or (None, 1)
    fixed = (1 - s) // 2
    orbit, place, widths = {}, ([], []), [0, 0]
    for m in masks:
        if m in orbit:
            continue
        o = orbit[m] = len(place[0])
        sm = _swapped(m, n) if n else m
        if sm != m:
            orbit[sm] = ~o
        for i, cols in enumerate(place):
            if sm != m or i == fixed:
                cols.append(widths[i])
                widths[i] += 1
            else:
                cols.append(None)
    return (orbit, list(place), (s, -s)) if n else (orbit, [place[0]], (1,))


def ideal_weight_zero(ws, families, p, q, cap=None):
    """Weight-zero slice of the ideal span, as an `IdealSpan`.  Valid for
    membership of weight-zero elements because the spanning vectors are
    weight-homogeneous.  At p == q, for families closed under the swap
    x_a <-> y_a, its parts are the swap's two eigenspaces, eliminated from
    the rows `ideal_rows` keeps under swap_half; otherwise it has one part.

    Each part's columns are ordered by how many of its rows touch them,
    fewest first, ties in canonical order.  Sparse columns then take the
    pivots and dense ones stay free, which shrinks the certified RREFs.
    Rank, membership and `insert_all` growth do not depend on the column
    order, only the RREFs do.

    The span is eliminated once per workspace and families set (in any
    order) and kept certified in `ws.ideal_spans`; each call returns a copy
    the caller may grow.  The cap is checked on every call, so a smaller
    cap refuses a span that is already cached."""
    guard_component(ws.alg, p, q, cap)
    key = (frozenset(families), p, q)
    span = ws.ideal_spans.get(key)
    if span is None:
        zero = ws.action.zero_weight
        split = p == q and {_SWAP[f] for f in families} == set(families)
        masks = ws.action.weight_masks(p, q, zero)
        # the swap's sign on a monomial of (k,k) is (-1)**(k*k)
        swap = (ws.alg.n, (-1) ** p) if split else None
        span = IdealSpan(masks, (p, q), swap)
        rows = [span.split(row)
                for row in ideal_rows(ws, families, p, q, zero, split)]
        for i, part in enumerate(span.parts):
            touched = Counter(chain.from_iterable(vec[i] for vec in rows))
            # a stable sort: equal counts keep the canonical order
            order = sorted(range(part.width), key=touched.__getitem__)
            new = dict(zip(order, range(part.width)))
            span.place[i] = [None if j is None else new[j]
                             for j in span.place[i]]
            for vec in rows:
                vec[i] = {new[j]: c for j, c in vec[i].items()}
            part.insert_all(vec[i] for vec in rows if vec[i])
            part.rank  # certifies the part, which drops its batch
            for vec in rows:
                vec[i] = None
        ws.ideal_spans[key] = span
    return span.copy()


def check_S_power(ws, k, mode=None, cap=None):
    """Membership of S^k in the full defining ideal at bidegree (k,k).
    Nothing reads mode: the benchmark (perfbench/workloads.py) still passes
    a `FieldMode` third, and the parameter goes when the benchmark next
    changes."""
    sub = ideal_weight_zero(ws, (XX, XY, YY), k, k, cap)
    sk = ws.S.power(k)
    return {
        "k": k,
        "contained": sub.contains(sk),
        "ideal_rank": sub.rank,
    }


def invariants_of_quotient(ws, p, q, families=(XX, XY, YY), cap=None):
    """dim of the invariants of the quotient by the selected ideal at
    (p,q), computed as invariants of the component modulo their overlap
    with the ideal (taking invariants is exact here): the rank growth of
    the ideal span when the invariant basis is adjoined."""
    sub = ideal_weight_zero(ws, families, p, q, cap)
    return sub.insert_all(invariant_basis_elements(ws.action, p, q, cap))


# off-diagonal bidegrees where part (i) spot-checks that A^g vanishes
OFFDIAGONAL_SPOT_CHECKS = ((1, 0), (0, 2), (2, 1))


def check_part_i(ws, up_to_k, cap=None):
    """dim A^g at (k,k) for k <= up_to_k, its match with the image of S^k,
    and off-diagonal vanishing spot checks."""
    diag = []
    for k in range(up_to_k + 1):
        if k == 0:
            diag.append({"k": 0, "dim": 1, "s_power_dim": 1, "match": True})
            continue
        sub = ideal_weight_zero(ws, (XX, XY, YY), k, k, cap)
        s_dim = 0 if sub.contains(ws.S.power(k)) else 1
        dim = invariants_of_quotient(ws, k, k, cap=cap)
        diag.append({
            "k": k,
            "dim": dim,
            "s_power_dim": s_dim,
            "match": dim == s_dim,
        })
    off = [{"bidegree": [p, q],
            "dim": invariants_of_quotient(ws, p, q, cap=cap)}
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
