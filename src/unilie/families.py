"""Constructive families of uniformly colored digraphs.

Every builder returns a ColoredDigraph whose uniformity report passes, with
the type (p, q, r) stated in its docstring.  Vertex and color numbering are
1-based and deterministic, so repeated calls give identical objects.
"""

from __future__ import annotations

import itertools
from math import comb

from .graphs import ColoredDigraph, SimpleGraph
from .record import Record


# ---------------------------------------------------------------------------
# finite groups, for the Cayley construction

class FiniteGroup(Record):
    """Multiplication table group on elements 0..order-1 with identity 0.

    table[a][b] is the product a*b.  Validation checks the Latin-square
    property, identity, and inverses always; associativity is checked
    exhaustively only for order <= 64.
    """

    order: int
    table: tuple[tuple[int, ...], ...]
    name: str = ""

    def __post_init__(self):
        n = self.order
        if n < 1 or len(self.table) != n or any(len(r) != n for r in self.table):
            raise ValueError("table shape does not match order")
        full = set(range(n))
        for a in range(n):
            if set(self.table[a]) != full or {self.table[b][a] for b in range(n)} != full:
                raise ValueError("table is not a Latin square")
        if any(self.table[0][b] != b or self.table[b][0] != b for b in range(n)):
            raise ValueError("element 0 is not an identity")
        for a in range(n):
            if 0 not in self.table[a]:
                raise ValueError(f"element {a} has no inverse")
        if n <= 64:
            for a in range(n):
                for b in range(n):
                    for c in range(n):
                        if self.table[self.table[a][b]][c] != self.table[a][self.table[b][c]]:
                            raise ValueError(f"not associative at ({a}, {b}, {c})")

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.table[a].index(0)

    def involutions(self) -> list[int]:
        """Non-identity elements squaring to the identity."""
        return [a for a in range(1, self.order) if self.table[a][a] == 0]


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("order must be positive")
    table = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    return FiniteGroup(n, table, name=f"C{n}")


def elementary_abelian_group(k: int) -> FiniteGroup:
    """(Z/2)^k with elements as bitmasks; every non-identity is an involution."""
    if k < 0:
        raise ValueError("exponent must be nonnegative")
    n = 1 << k
    table = tuple(tuple(a ^ b for b in range(n)) for a in range(n))
    return FiniteGroup(n, table, name=f"E{n}")


def dihedral_group(p: int) -> FiniteGroup:
    """Order 2p: indices 0..p-1 are rotations r^i, p..2p-1 are reflections s r^i."""
    if p < 1:
        raise ValueError("need p >= 1")

    def mul(a: int, b: int) -> int:
        ra, fa = a % p, a >= p
        rb, fb = b % p, b >= p
        if not fa and not fb:
            return (ra + rb) % p
        if not fa and fb:
            return p + (rb - ra) % p
        if fa and not fb:
            return p + (ra + rb) % p
        return (rb - ra) % p

    n = 2 * p
    table = tuple(tuple(mul(a, b) for b in range(n)) for a in range(n))
    return FiniteGroup(n, table, name=f"D{n}")


def symmetric_group(n: int) -> FiniteGroup:
    """S_n on lexicographically ordered permutation tuples; n <= 5 keeps the
    table small enough for the exhaustive associativity check."""
    if not (1 <= n <= 5):
        raise ValueError("supported range is 1 <= n <= 5")
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = tuple(tuple(index[tuple(pa[pb[i]] for i in range(n))] for pb in perms)
                  for pa in perms)
    return FiniteGroup(len(perms), table, name=f"S{n}")


# ---------------------------------------------------------------------------
# families

# each sized family's parameter check, as its builder makes it, and its
# vertex count from the builder's docstring, so a family can be sized
# without being built
_SIZES = {
    "heisenberg": (lambda n: n >= 1, "need n >= 1", lambda n: 2 * n),
    "free_two_step": (lambda n: n >= 2, "need n >= 2", lambda n: n),
    "ring_algebra": (lambda r: r >= 2, "need r >= 2", lambda r: 2 * r),
    "quaternionic": (lambda: True, "", lambda: 4),
    "cyclic": (lambda q: q >= 3, "need q >= 3", lambda q: q),
    "kneser": (lambda n, m: 1 <= m and n >= 2 * m + 1, "need 1 <= m and n >= 2m + 1", comb),
    "dihedral_bipartite": (lambda p: p >= 3 and p % 2 == 1, "need odd p >= 3",
                           lambda p: 2 * p),
}


def check_parameters(family: str, *params: int) -> None:
    """Raise the ValueError that the builder named `family` raises for params."""
    accepts, need, _ = _SIZES[family]
    if not accepts(*params):
        raise ValueError(need)


def vertex_count(family: str, *params: int) -> int:
    """Vertex count of the builder named `family` at params, without building.
    Every parameter it accepts is at most the count."""
    check_parameters(family, *params)
    return _SIZES[family][2](*params)


def heisenberg(n: int) -> ColoredDigraph:
    """Type (1, 2n, n): n disjoint arcs (i, n+i) all colored 1."""
    check_parameters("heisenberg", n)
    return ColoredDigraph.from_arcs(2 * n, 1, [(i, n + i, 1) for i in range(1, n + 1)])


def free_two_step(n: int) -> ColoredDigraph:
    """Free two-step algebra on n generators: K_n with every edge its own color.
    Type (n(n-1)/2, n, 1)."""
    check_parameters("free_two_step", n)
    arcs = [(i, j, k) for k, (i, j) in
            enumerate(itertools.combinations(range(1, n + 1), 2), start=1)]
    return ColoredDigraph.from_arcs(n, comb(n, 2), arcs)


def ring_algebra(r: int, primed: bool = False) -> ColoredDigraph:
    """Cycle C_{2r} alternating two colors, type (2, 2r, r).

    Color 1 takes the odd-even arcs (2i-1, 2i); color 2 takes the rest.  The
    closing arc is (1, 2r) unprimed and (2r, 1) primed; for even r the two
    variants lie in different diagonal sign classes.
    """
    check_parameters("ring_algebra", r)
    arcs = [(2 * i - 1, 2 * i, 1) for i in range(1, r + 1)]
    arcs += [(2 * i, 2 * i + 1, 2) for i in range(1, r)]
    arcs.append((2 * r, 1, 2) if primed else (1, 2 * r, 2))
    return ColoredDigraph.from_arcs(2 * r, 2, arcs)


def quaternionic(associate: bool = False) -> ColoredDigraph:
    """Type (3, 4, 2) coloring of K_4 modeled on quaternion multiplication.

    The plain variant satisfies the J_z^2 = -|z|^2 identity; the associate
    variant has the same support and colors but an inequivalent sign pattern.
    """
    if associate:
        arcs = [(1, 2, 1), (3, 4, 1), (1, 3, 2), (2, 4, 2), (1, 4, 3), (3, 2, 3)]
    else:
        arcs = [(1, 2, 1), (3, 4, 1), (1, 3, 2), (4, 2, 2), (1, 4, 3), (2, 3, 3)]
    return ColoredDigraph.from_arcs(4, 3, arcs)


def cyclic(q: int) -> ColoredDigraph:
    """Cycle C_q with every edge its own color, type (q, q, 1)."""
    check_parameters("cyclic", q)
    arcs = [(i, i + 1, i) for i in range(1, q)] + [(q, 1, q)]
    return ColoredDigraph.from_arcs(q, q, arcs)


def kneser(n: int, m: int) -> ColoredDigraph:
    """Kneser graph K(n, m) colored by complements, for m >= 1 and
    n >= 2m + 1.

    Vertices are the m-subsets of {1..n} in colexicographic order; disjoint
    subsets are adjacent and the edge color is the colex rank of the
    complement of their union, an (n - 2m)-subset.  Type
    (C(n, 2m), C(n, m), C(2m, m)/2); kneser(5, 2) is the Petersen graph
    with type (5, 10, 3), and kneser(7, 3) has type (7, 35, 10).
    """
    check_parameters("kneser", n, m)
    verts = sorted(itertools.combinations(range(1, n + 1), m), key=lambda s: s[::-1])
    # complementing reverses colex order, so the 1-based colex rank of the
    # complement of a 2m-subset u is C(n, 2m) minus the 0-based rank of u
    p = comb(n, 2 * m)
    arcs = []
    for (i, a), (j, b) in itertools.combinations(enumerate(verts, start=1), 2):
        if set(a).isdisjoint(b):
            arcs.append((i, j, p - _colex_rank(sorted(a + b))))
    return ColoredDigraph.from_arcs(len(verts), p, arcs)


def _colex_rank(subset) -> int:
    """0-based colex rank of an increasing tuple of 1-based elements among
    the subsets of its size."""
    return sum(comb(x - 1, i) for i, x in enumerate(subset, start=1))


def cayley(group: FiniteGroup, generators) -> ColoredDigraph:
    """Cayley graph colored by generator, for a set of involutions.

    Vertices are group elements g shifted to 1-based; the edge {g, t*g} for
    the c-th involution t gets color c.  The generator list must consist of
    distinct involutions; when it is closed enough to act simply the result
    is uniform of type (len(generators), order, order/2).
    """
    gens = list(generators)
    if len(set(gens)) != len(gens):
        raise ValueError("repeated generator")
    for t in gens:
        if not (1 <= t < group.order) or group.mul(t, t) != 0:
            raise ValueError(f"generator {t} is not an involution")
    arcs = []
    for c, t in enumerate(gens, start=1):
        seen = set()
        for g in range(group.order):
            h = group.mul(t, g)
            e = (min(g, h), max(g, h))
            if e in seen:
                continue
            seen.add(e)
            arcs.append((e[0] + 1, e[1] + 1, c))
    return ColoredDigraph.from_arcs(group.order, len(gens), arcs)


def dihedral_bipartite(p: int) -> ColoredDigraph:
    """Cayley coloring of K_{p,p} by the p reflections of the dihedral group
    of order 2p, for odd p >= 3; type (p, 2p, p)."""
    check_parameters("dihedral_bipartite", p)
    g = dihedral_group(p)
    return cayley(g, range(p, 2 * p))


def from_factorization(graph: SimpleGraph, factors) -> ColoredDigraph:
    """Color a simple graph by a partition of its edges into color classes.

    factors is an iterable of edge collections; class c becomes color c with
    arcs oriented small to large.  The classes must partition the edge set
    exactly; uniformity is up to the caller (each class a perfect or
    near-perfect matching gives r = floor(q / 2)).
    """
    classes = [list(cls) for cls in factors]
    if not classes:
        raise ValueError("need at least one color class")
    remaining = set(graph.edges)
    arcs = []
    for c, cls in enumerate(classes, start=1):
        for e in cls:
            i, j = min(e), max(e)
            if (i, j) not in remaining:
                raise ValueError(f"edge ({i}, {j}) missing or used twice")
            remaining.remove((i, j))
            arcs.append((i, j, c))
    if remaining:
        raise ValueError(f"edges left uncolored: {sorted(remaining)}")
    return ColoredDigraph.from_arcs(graph.q, len(classes), arcs)


def trivial_coloring(graph: SimpleGraph) -> ColoredDigraph:
    """Every edge its own color, arcs oriented small to large; type (|E|, q, 1)."""
    edges = graph.sorted_edges()
    if not edges:
        raise ValueError("graph has no edges")
    arcs = [(i, j, k) for k, (i, j) in enumerate(edges, start=1)]
    return ColoredDigraph.from_arcs(graph.q, len(edges), arcs)
