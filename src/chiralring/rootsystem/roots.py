"""Root systems of the finite simple types, built from the Cartan matrix.

Roots are integer coefficient vectors over the simple roots (tuples), so
all arithmetic is exact.  The Euclidean structure is carried by the
symmetrized Cartan matrix, normalized so long roots have squared length 2.
The full set of roots is the closure of the simple roots under the simple
reflections; positive roots are listed by height, then lexicographically.
"""

from fractions import Fraction


class UnsupportedType(ValueError):
    pass


# chevalley_data / representation are available on these pairs
LIE_DATA_TYPES = (
    [("A", r) for r in range(1, 5)]
    + [("B", r) for r in range(2, 5)]
    + [("C", r) for r in range(2, 5)]
    + [("D", 4), ("G", 2)]
)

# the purely combinatorial operations (abelian ideals) go much further
COMBINATORIAL_TYPES = (
    [("A", r) for r in range(1, 9)]
    + [("B", r) for r in range(2, 9)]
    + [("C", r) for r in range(2, 9)]
    + [("D", r) for r in range(3, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


def cartan_matrix(type_label, rank):
    """Entries a[i][j] = <alpha_j, alpha_i^vee> = 2(a_i,a_j)/(a_i,a_i)."""
    n = rank
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def bond(i, j, aij=-1, aji=-1):
        a[i][j] = aij
        a[j][i] = aji

    if type_label == "A":
        for i in range(n - 1):
            bond(i, i + 1)
    elif type_label == "B":
        # last simple root short
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 2, n - 1, -1, -2)
    elif type_label == "C":
        # last simple root long
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 2, n - 1, -2, -1)
    elif type_label == "D":
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 3, n - 1)
    elif type_label == "E":
        # Bourbaki numbering: chain 1-3-4-5-..-n, node 2 hangs off node 4
        chain = [0] + list(range(2, n))
        for u, v in zip(chain, chain[1:]):
            bond(u, v)
        bond(1, 3)
    elif type_label == "F":
        bond(0, 1)
        bond(1, 2, -1, -2)
        bond(2, 3)
    elif type_label == "G":
        # alpha_1 short, alpha_2 long
        bond(0, 1, -3, -1)
    else:
        raise UnsupportedType(type_label)
    return a


def _root_lengths(cartan):
    """Squared lengths (a_i, a_i), long roots normalized to 2."""
    n = len(cartan)
    d = [None] * n
    d[0] = Fraction(1)
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                if i == j or not cartan[i][j]:
                    continue
                # d_i * a_ij = d_j * a_ji
                if d[i] is not None and d[j] is None:
                    d[j] = d[i] * cartan[i][j] / cartan[j][i]
                    changed = True
    top = max(d)
    return [2 * x / top for x in d]


class RootSystem:
    def __init__(self, type_label, rank):
        key = (type_label, rank)
        if key not in COMBINATORIAL_TYPES:
            raise UnsupportedType("%s%d" % (type_label, rank))
        self.type_label = type_label
        self.rank = rank
        self.cartan = cartan_matrix(type_label, rank)
        self.lengths = _root_lengths(self.cartan)
        # gram[i][j] = (a_i, a_j) = lengths[i]/2 * cartan[i][j]
        self.gram = [[self.lengths[i] * self.cartan[i][j] / 2
                      for j in range(rank)] for i in range(rank)]
        self.positive_roots = self._close()
        self.root_index = {r: i for i, r in enumerate(self.positive_roots)}
        self.root_set = set(self.positive_roots)
        # in Cartan index order, not the height-lex listing order
        self.simple_roots = [tuple(1 if j == i else 0 for j in range(rank))
                             for i in range(rank)]
        self.highest_root = self.positive_roots[-1]
        self._norm2 = {}

    def _reflect(self, root, i):
        c = sum(root[j] * self.cartan[i][j] for j in range(self.rank))
        out = list(root)
        out[i] -= c
        return tuple(out)

    def _close(self):
        rank = self.rank
        simples = [tuple(1 if j == i else 0 for j in range(rank))
                   for i in range(rank)]
        roots = set(simples)
        frontier = set(simples)
        while frontier:
            new = set()
            for r in frontier:
                for i in range(rank):
                    s = self._reflect(r, i)
                    if s not in roots:
                        roots.add(s)
                        new.add(s)
            frontier = new
        pos = [r for r in roots if all(c >= 0 for c in r)]
        pos.sort(key=lambda r: (sum(r), r))
        return pos

    def height(self, root):
        return sum(root)

    def inner(self, r1, r2):
        return sum(r1[i] * self.gram[i][j] * r2[j]
                   for i in range(self.rank) for j in range(self.rank))

    def norm2(self, root):
        n2 = self._norm2.get(root)
        if n2 is None:
            n2 = self._norm2[root] = self.inner(root, root)
        return n2

    def is_root(self, vec):
        return vec in self.root_set or tuple(-c for c in vec) in self.root_set

    def add_roots(self, r1, r2):
        return tuple(a + b for a, b in zip(r1, r2))

    def sub_roots(self, r1, r2):
        return tuple(a - b for a, b in zip(r1, r2))

    def string_p(self, alpha, beta):
        """Largest p with beta - p*alpha a root (alpha, beta roots)."""
        p = 0
        cur = self.sub_roots(beta, alpha)
        while self.is_root(cur) and any(cur):
            p += 1
            cur = self.sub_roots(cur, alpha)
        return p

    def pairing(self, beta, i):
        """<beta, alpha_i^vee> for a coefficient vector beta."""
        return sum(beta[j] * self.cartan[i][j] for j in range(self.rank))

    def dual_coxeter(self):
        """1 + sum of comarks; the comark of alpha_i rescales the mark by
        (a_i,a_i)/(theta,theta)."""
        theta2 = self.norm2(self.highest_root)
        total = Fraction(0)
        for i, m in enumerate(self.highest_root):
            total += m * self.lengths[i] / theta2
        g = 1 + total
        if g.denominator != 1:
            raise AssertionError("dual Coxeter number %s is not integral" % g)
        return int(g)

    def invariant_degrees(self):
        """Degrees of the generating Weyl invariants, from the partition of
        positive roots by height: the exponents are the conjugate partition
        of the height counts."""
        counts = {}
        for r in self.positive_roots:
            counts[self.height(r)] = counts.get(self.height(r), 0) + 1
        ks = [counts[h] for h in sorted(counts)]
        exponents = sorted(sum(1 for k in ks if k >= i)
                           for i in range(1, self.rank + 1))
        return [m + 1 for m in exponents]

    def dim_g(self):
        return 2 * len(self.positive_roots) + self.rank

    def __repr__(self):
        return "RootSystem(%s%d, %d positive roots)" % (
            self.type_label, self.rank, len(self.positive_roots))


_CACHE = {}


def build_root_system(type_label, rank):
    key = (type_label, rank)
    if key not in _CACHE:
        _CACHE[key] = RootSystem(type_label, rank)
    return _CACHE[key]
