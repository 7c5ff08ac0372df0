"""Constructions of uniformly colored digraphs from other objects: Cayley
graphs of finite groups on involutions, the dihedral coloring of K_{p,p},
and colorings of a simple graph from an edge partition.

The named families are in `families`, whose table of `unilie family` names
holds the check and vertex count of `dihedral_bipartite` too.
"""

from __future__ import annotations

import itertools

from .families import check_parameters
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
# colorings

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
    check_parameters("dihedral-bipartite", p)
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
