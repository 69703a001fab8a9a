"""Faithful representation matrices in the Chevalley basis.

Seeds for the simple-root sl2 triples come from the split matrix
realizations (elementary matrices for sl, antidiagonal-form orthogonal and
symplectic algebras, and a weight basis of the 7-dimensional module for
G2).  Root vectors for non-simple roots are produced by the same
extraspecial-pair recursion that defines the abstract basis:

    e_c = [e_a1, e_b1] / N(a1, b1),    f_c = -[f_a1, f_b1] / N(a1, b1),

so the matrices represent the abstract structure constants with no further
sign choices.
"""

from fractions import Fraction

from .roots import UnsupportedType


class UnsupportedRepresentation(ValueError):
    pass


class Representation:
    def __init__(self, label, dim_V, matrices):
        self.label = label
        self.dim_V = dim_V
        self.matrices = matrices  # one dim_V x dim_V matrix per basis index


def _zeros(n):
    return [[Fraction(0)] * n for _ in range(n)]

def _unit(n, i, j, c=1):
    m = _zeros(n)
    m[i][j] = Fraction(c)
    return m

def _add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]

def _scale(a, c):
    return [[x * c for x in row] for row in a]

def _mul(a, b):
    n = len(a)
    out = _zeros(n)
    for i in range(n):
        for k in range(n):
            if a[i][k]:
                aik = a[i][k]
                rb = b[k]
                ro = out[i]
                for j in range(n):
                    if rb[j]:
                        ro[j] += aik * rb[j]
    return out

def _comm(a, b):
    return _add(_mul(a, b), _scale(_mul(b, a), -1))


def _sl_seeds(rank):
    n = rank + 1
    es = [_unit(n, i, i + 1) for i in range(rank)]
    fs = [_unit(n, i + 1, i) for i in range(rank)]
    return n, es, fs


def _antidiag(dim, i, j):
    """E_ij - E_sig(j)sig(i), sig(i) = dim - 1 - i: a root vector of the
    algebra preserving an antidiagonal form."""
    return _add(_unit(dim, i, j),
                _scale(_unit(dim, dim - 1 - j, dim - 1 - i), -1))


def _antidiag_seeds(dim, n, e_last, f_last):
    """(dim, es, fs) for the simple roots eps_i - eps_(i+1), i < n - 1, as
    `_antidiag` root vectors, then the last simple root's pair."""
    return (dim, [_antidiag(dim, i, i + 1) for i in range(n - 1)] + [e_last],
            [_antidiag(dim, i + 1, i) for i in range(n - 1)] + [f_last])


def _so_odd_seeds(n):
    # so(2n+1) preserving the antidiagonal form; sig(i) = 2n - i
    dim = 2 * n + 1
    return _antidiag_seeds(dim, n, _antidiag(dim, n - 1, n),
                           _scale(_antidiag(dim, n, n - 1), 2))


def _sp_seeds(n):
    # sp(2n) for the antidiagonal symplectic form; sig(i) = 2n - 1 - i
    dim = 2 * n
    return _antidiag_seeds(dim, n, _unit(dim, n - 1, n), _unit(dim, n, n - 1))


def _so_even_seeds(n):
    # so(2n), antidiagonal form; last simple root is eps_{n-1} + eps_n, on
    # the columns n - 2 and sig(n - 1) = n
    dim = 2 * n
    return _antidiag_seeds(dim, n, _antidiag(dim, n - 2, n),
                           _antidiag(dim, n, n - 2))


def _g2_seeds():
    # basis v1..v7 of weights 2a1+a2, a1+a2, a1, 0, -a1, -a1-a2, -2a1-a2
    # (a1 short)
    def E(*entries):  # sum of c * E_ij, 1-based, E_ij sending v_j to v_i
        m = _zeros(7)
        for i, j, c in entries:
            m[i - 1][j - 1] = Fraction(c)
        return m
    es = [E((1, 2, 1), (3, 4, 2), (4, 5, 2), (6, 7, 1)),
          E((2, 3, 1), (5, 6, 1))]
    fs = [E((2, 1, 1), (4, 3, 1), (5, 4, 1), (7, 6, 1)),
          E((3, 2, 1), (6, 5, 1))]
    return 7, es, fs


def _vector_seeds(type_label, rank):
    if type_label == "A":
        return _sl_seeds(rank)
    if type_label == "B":
        return _so_odd_seeds(rank)
    if type_label == "C":
        return _sp_seeds(rank)
    if type_label == "D":
        return _so_even_seeds(rank)
    if type_label == "G":
        return _g2_seeds()
    raise UnsupportedType(type_label)


def _extend_by_recursion(lie, dim_V, es, fs):
    rs = lie.rs
    mat_e = {}
    mat_f = {}
    for i, simple in enumerate(rs.simple_roots):
        mat_e[simple] = es[i]
        mat_f[simple] = fs[i]
    for c in rs.positive_roots:
        if rs.height(c) == 1:
            continue
        a1, b1 = lie.extraspecial[c]
        inv = Fraction(1) / lie.N(a1, b1)
        mat_e[c] = _scale(_comm(mat_e[a1], mat_e[b1]), inv)
        mat_f[c] = _scale(_comm(mat_f[a1], mat_f[b1]), -inv)
    mats = []
    for r in rs.positive_roots:
        mats.append(mat_e[r])
    for i, simple in enumerate(rs.simple_roots):
        mats.append(_comm(mat_e[simple], mat_f[simple]))
    for r in rs.positive_roots:
        mats.append(mat_f[r])
    return mats


def _adjoint(lie):
    n = lie.dim
    mats = []
    for a in range(n):
        m = _zeros(n)
        for b in range(n):
            for c, v in lie.bracket(a, b).items():
                m[c][b] = v
        mats.append(m)
    return mats


_CACHE = {}


def representation(lie, label):
    """Representation matrices for one of the supported labels: `vector`
    (classical types), `fundamental-7` (G2), `adjoint` (always)."""
    key = (lie.rs.type_label, lie.rs.rank, label)
    if key in _CACHE:
        return _CACHE[key]
    if label not in (default_trace_label(lie.rs.type_label), "adjoint"):
        raise UnsupportedRepresentation("%s for %s%d" %
                                        (label, lie.rs.type_label, lie.rank))
    if label == "adjoint":
        rep = Representation(label, lie.dim, _adjoint(lie))
    else:
        dim_V, es, fs = _vector_seeds(lie.rs.type_label, lie.rank)
        rep = Representation(label, dim_V, _extend_by_recursion(lie, dim_V, es, fs))
    _CACHE[key] = rep
    return rep


def default_trace_label(type_label):
    return "fundamental-7" if type_label == "G" else "vector"


def trace_power_degrees(lie):
    """Exponents k such that Tr_V(z^k) realize the generating invariants.

    A_n: 2..n+1; B_n, C_n: 2, 4, .., 2n; G2: 2, 6.  D_n is excluded: the
    degree-n Pfaffian generator is not a trace power of the vector
    representation."""
    t, r = lie.rs.type_label, lie.rank
    if t == "A":
        return list(range(2, r + 2))
    if t in ("B", "C"):
        return [2 * i for i in range(1, r + 1)]
    if t == "G":
        return [2, 6]
    raise UnsupportedRepresentation(
        "no trace-power generator set for type %s" % t)
