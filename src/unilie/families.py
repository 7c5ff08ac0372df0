"""Constructive families of uniformly colored digraphs.

Every builder returns a ColoredDigraph whose uniformity report passes, with
the type (p, q, r) stated in its docstring.  Vertex and color numbering are
1-based and deterministic, so repeated calls give identical objects.  The
group and edge-partition constructions are in `constructions`.  One table
here, keyed by the names that `unilie family` takes, holds each family's
builder, variant flag, parameter check and vertex count, `constructions`'
`dihedral_bipartite` included.
"""

from __future__ import annotations

import itertools
from math import comb

from .graphs import ColoredDigraph


# `unilie family` name -> (module and name of its builder, the builder's one
# variant flag or None, its parameter check and that check's message, and
# the vertex count from its docstring, so a family is sized without building)
_FAMILIES = {
    "heisenberg": ("families", "heisenberg", None,
                   lambda n: n >= 1, "need n >= 1", lambda n: 2 * n),
    "free": ("families", "free_two_step", None, lambda n: n >= 2, "need n >= 2", lambda n: n),
    "ring": ("families", "ring_algebra", "primed",
             lambda r: r >= 2, "need r >= 2", lambda r: 2 * r),
    "quaternionic": ("families", "quaternionic", "associate", lambda: True, "", lambda: 4),
    "cyclic": ("families", "cyclic", None, lambda q: q >= 3, "need q >= 3", lambda q: q),
    "kneser": ("families", "kneser", None, lambda n, m: 1 <= m and n >= 2 * m + 1,
               "need 1 <= m and n >= 2m + 1", comb),
    "dihedral-bipartite": ("constructions", "dihedral_bipartite", None,
                           lambda p: p >= 3 and p % 2 == 1, "need odd p >= 3", lambda p: 2 * p),
}


def check_parameters(family: str, *params: int) -> None:
    """Raise the ValueError that the builder of family `family` raises."""
    *_, accepts, need, _ = _FAMILIES[family]
    if not accepts(*params):
        raise ValueError(need)


def vertex_count(family: str, *params: int) -> int:
    """Vertex count of the family named `family` at params, without building.
    Every parameter it accepts is at most the count."""
    check_parameters(family, *params)
    return _FAMILIES[family][-1](*params)


def heisenberg(n: int) -> ColoredDigraph:
    """Type (1, 2n, n): n disjoint arcs (i, n+i) all colored 1."""
    check_parameters("heisenberg", n)
    return ColoredDigraph.from_arcs(2 * n, 1, [(i, n + i, 1) for i in range(1, n + 1)])


def free_two_step(n: int) -> ColoredDigraph:
    """Free two-step algebra on n generators: K_n with every edge its own color.
    Type (n(n-1)/2, n, 1)."""
    check_parameters("free", n)
    arcs = [(i, j, k) for k, (i, j) in
            enumerate(itertools.combinations(range(1, n + 1), 2), start=1)]
    return ColoredDigraph.from_arcs(n, comb(n, 2), arcs)


def ring_algebra(r: int, primed: bool = False) -> ColoredDigraph:
    """Cycle C_{2r} alternating two colors, type (2, 2r, r).

    Color 1 takes the odd-even arcs (2i-1, 2i); color 2 takes the rest.  The
    closing arc is (1, 2r) unprimed and (2r, 1) primed; for even r the two
    variants lie in different diagonal sign classes.
    """
    check_parameters("ring", r)
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
