"""Chevalley basis and exact structure constants, built abstractly from the
root system.

Basis order: e_alpha over the positive roots in root order, then h_1..h_r,
then f_alpha in the same root order.  Signs are fixed by the extraspecial
pair convention: for each non-simple positive root c, the extraspecial pair
(a1, b1) is the special pair a1 + b1 = c with a1 minimal in the root order,
and N(a1, b1) = p + 1 > 0.  Every other constant follows from

  (R1)  N(u, v) = -N(v, u)
  (R2)  N(-u, -v) = -N(u, v)
  (R3)  N(u, v)/(w, w) = N(v, w)/(u, u) = N(w, u)/(v, v)   for u+v+w = 0
  plus one Jacobi identity per remaining special pair.

The invariant form is the Killing form, which normalizes the quadratic
Casimir to act as the identity on the adjoint representation.  The
structure constants and the Killing form are ints (in a Chevalley basis
both are integral); only the inverse form `form_inv` is rational.
"""

from fractions import Fraction

from ..exactla import Echelon
from .roots import UnsupportedType, LIE_DATA_TYPES


def _neg(v):
    return tuple(-c for c in v)


def _is_pos(v):
    return all(c >= 0 for c in v)


class LieAlgebraData:
    def __init__(self, rs):
        self.rs = rs
        self.nroots = len(rs.positive_roots)
        self.rank = rs.rank
        self.dim = 2 * self.nroots + self.rank
        self.dual_coxeter = rs.dual_coxeter()
        self.degrees = rs.invariant_degrees()
        self._nmemo = {}
        self.extraspecial = self._extraspecial_pairs()
        self.struct = self._structure_constants()
        self.form = self._killing_form()
        self.form_inv = _invert(self.form)

    # ------------------------------------------------------------------
    # basis bookkeeping

    def e_index(self, root):
        return self.rs.root_index[root]

    def h_index(self, i):
        return self.nroots + i

    def f_index(self, root):
        return self.nroots + self.rank + self.rs.root_index[root]

    def basis_labels(self):
        return (["e%d" % (i + 1) for i in range(self.nroots)]
                + ["h%d" % (i + 1) for i in range(self.rank)]
                + ["f%d" % (i + 1) for i in range(self.nroots)])

    def basis_weight(self, a):
        """Weight of the basis element under the Cartan (a root tuple): its
        signed root, zero on the Cartan."""
        return self.signed_root(a) or (0,) * self.rank

    def signed_root(self, a):
        if a < self.nroots:
            return self.rs.positive_roots[a]
        if a < self.nroots + self.rank:
            return None
        return _neg(self.rs.positive_roots[a - self.nroots - self.rank])

    def root_vector_index(self, signed):
        if _is_pos(signed):
            return self.e_index(signed)
        return self.f_index(_neg(signed))

    def chevalley_involution(self):
        """sigma on basis indices, as a list: e_alpha <-> f_alpha, each h_i
        fixed.  The Chevalley involution g_a -> -g_sigma(a) is an
        automorphism: (R2) N(-u, -v) = -N(u, v) gives the brackets of two
        root vectors, [e_alpha, f_alpha] = h_alpha gives [f_alpha, e_alpha]
        = -h_alpha, and the roots of sigma(a) are those of a negated, so
        struct[(sigma a, sigma b)] is struct[(a, b)] negated, on sigma(c)."""
        nroots, rank = self.nroots, self.rank
        shift = nroots + rank
        return ([i + shift for i in range(nroots)]
                + [nroots + i for i in range(rank)]
                + list(range(nroots)))

    # ------------------------------------------------------------------
    # structure constants

    def _extraspecial_pairs(self):
        rs = self.rs
        pairs = {}
        for c in rs.positive_roots:
            if rs.height(c) == 1:
                continue
            for a in rs.positive_roots:
                b = rs.sub_roots(c, a)
                if b in rs.root_set:
                    pairs[c] = (a, b)
                    break
        return pairs

    def coroot(self, root):
        """gamma^vee in the basis of simple coroots; integer entries."""
        rs = self.rs
        n2 = rs.norm2(root)
        return [_integral(m * rs.lengths[i] / n2, "coroot entry")
                for i, m in enumerate(root)]

    def N(self, u, v):
        """Constant in [e_u, e_v] = N(u,v) e_{u+v} for signed roots with
        u + v a root."""
        key = (u, v)
        if key in self._nmemo:
            return self._nmemo[key]
        self._nmemo[key] = val = self._compute_N(u, v)
        return val

    def _compute_N(self, u, v):
        rs = self.rs
        w = rs.add_roots(u, v)
        if _is_pos(u) and _is_pos(v):
            iu, iv = rs.root_index[u], rs.root_index[v]
            if iu > iv:
                return -self.N(v, u)
            a1, b1 = self.extraspecial[w]
            if (u, v) == (a1, b1):
                return Fraction(rs.string_p(u, v) + 1)
            # Jacobi identity on (e_{-a1}, e_u, e_v); the e_{b1} components
            # must cancel
            n_w_ma1 = self.N(w, _neg(a1))
            t2 = Fraction(0)
            d2 = rs.sub_roots(v, a1)
            if d2 in rs.root_set:
                t2 = self.N(v, _neg(a1)) * self.N(d2, u)
            t3 = Fraction(0)
            d3 = rs.sub_roots(u, a1)
            if d3 in rs.root_set:
                t3 = self.N(_neg(a1), u) * self.N(d3, v)
            return -(t2 + t3) / n_w_ma1
        if not _is_pos(u) and not _is_pos(v):
            return -self.N(_neg(u), _neg(v))
        if not _is_pos(u):
            return -self.N(v, u)
        # u positive, v negative
        if _is_pos(w):
            return -Fraction(rs.norm2(w), rs.norm2(u)) * self.N(_neg(v), w)
        return -self.N(_neg(u), _neg(v))

    def _structure_constants(self):
        rs = self.rs
        struct = {}

        def put(a, b, comb):
            comb = {c: _integral(v, "structure constant")
                    for c, v in comb.items() if v}
            if comb:
                struct[(a, b)] = comb

        dimE = self.nroots
        for a in range(self.dim):
            for b in range(self.dim):
                if a == b:
                    continue
                ra, rb = self.signed_root(a), self.signed_root(b)
                if ra is None and rb is None:
                    continue
                if ra is None:          # [h_i, e_v]
                    i = a - dimE
                    put(a, b, {b: rs.pairing(rb, i)})
                    continue
                if rb is None:
                    i = b - dimE
                    put(a, b, {a: -rs.pairing(ra, i)})
                    continue
                s = rs.add_roots(ra, rb)
                if not any(s):          # [e_a, e_{-a}] = coroot
                    sign = 1 if _is_pos(ra) else -1
                    pos = ra if _is_pos(ra) else rb
                    comb = {self.h_index(i): sign * c
                            for i, c in enumerate(self.coroot(pos))}
                    put(a, b, comb)
                    continue
                if s in rs.root_set or _neg(s) in rs.root_set:
                    put(a, b, {self.root_vector_index(s): self.N(ra, rb)})
        return struct

    def bracket(self, a, b):
        """[basis_a, basis_b] as a sparse dict over basis indices."""
        return self.struct.get((a, b), {})

    # ------------------------------------------------------------------
    # invariant form

    def _killing_form(self):
        n = self.dim
        # ad[a][u] = [basis_a, basis_u], nonzero brackets only
        ad = [{} for _ in range(n)]
        for (a, u), comb in self.struct.items():
            ad[a][u] = comb
        form = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(a, n):
                back = ad[b]
                total = 0
                for u, row in ad[a].items():
                    for v, c in row.items():
                        c2 = back.get(v, {}).get(u)
                        if c2:
                            total += c * c2
                form[a][b] = form[b][a] = total
        return form


def _integral(x, what):
    """The rational x as an int; raises when x is not integral."""
    if x.denominator != 1:
        raise AssertionError("%s %s is not integral" % (what, x))
    return int(x)


def _invert(matrix):
    """Inverse of an invertible square matrix, as Fractions: the right half
    of the certified RREF of [matrix | 1], whose left half is 1."""
    n = len(matrix)
    ech = Echelon(2 * n)
    ech.insert_all({**{j: v for j, v in enumerate(row) if v}, n + i: 1}
                   for i, row in enumerate(matrix))
    return [[row.get(n + j, Fraction(0)) for j in range(n)]
            for row in ech.basis_rows()]


_CACHE = {}


def chevalley_data(rs):
    key = (rs.type_label, rs.rank)
    if key not in LIE_DATA_TYPES:
        raise UnsupportedType("no Chevalley data for %s%d" % key)
    if key not in _CACHE:
        _CACHE[key] = LieAlgebraData(rs)
    return _CACHE[key]


def lie_to_json_dict(lie, reps=()):
    """Structure constants, form and representation matrices with rational
    entries rendered as p/q strings, for external cross-checking."""
    def rat(x):
        return "%d/%d" % (x.numerator, x.denominator)

    doc = {
        "type": lie.rs.type_label,
        "rank": lie.rank,
        "dim": lie.dim,
        "dual_coxeter": lie.dual_coxeter,
        "degrees": lie.degrees,
        "basis_labels": lie.basis_labels(),
        "positive_roots": [list(r) for r in lie.rs.positive_roots],
        "structure_constants": [
            [a, b, c, rat(v)]
            for (a, b), comb in sorted(lie.struct.items())
            for c, v in sorted(comb.items())
        ],
        "form": [[rat(v) for v in row] for row in lie.form],
    }
    if reps:
        doc["representations"] = {
            rep.label: {
                "dim": rep.dim_V,
                "matrices": [[[rat(v) for v in row] for row in m]
                             for m in rep.matrices],
            }
            for rep in reps
        }
    return doc
