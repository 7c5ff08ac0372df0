"""The census: regular graphs and their uniform colorings, exhaustively.

Regular simple graphs up to isomorphism, and the uniform edge colorings of
each up to equivalence.  A simple graph is its one-color digraph, built
once per labeled graph and returned as it is.  One engine answers every
relabeling question here: the graph layer's mapping search, run on those
digraphs, both tells a new labeled graph from the classes already found
and yields generators of Aut(g).  It imports only the graph layer, so a
census loads no algebra code; the factorizations of complete graphs, which
share its matching search and the graph layer's orbit walk, are in
`factorizations`.
Everything is exact and deterministic; searches take explicit budgets and
raise BudgetExceededError instead of degrading.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence

from .graphs import (BudgetExceededError, ColoredDigraph, DEFAULT_SEARCH_BUDGET,
                     _mapping_search, _orbits, colorings_equivalent)


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


# ---------------------------------------------------------------------------
# regular graphs up to isomorphism

def _regular_graphs_qs(q: int, s: int, budget: int) -> list[ColoredDigraph]:
    """All s-regular graphs on q labeled vertices as one-color digraphs, one
    per isomorphism class: the first labeled graph met in each class, in the
    order met.  A labeled graph is new when the mapping search finds no
    match for it among the classes found so far.  The labeled search fixes
    vertex 0's neighborhood to {1..s}.

    Row i never takes a later vertex j while skipping an earlier twin u, a
    vertex u < j with the same neighbors among 0..i-1.  Swapping u and j
    keeps rows 0..i-1 and makes row i come earlier, so a skipped labeling is
    never the first member of its class the search meets."""
    visited = 0
    found: list[ColoredDigraph] = []

    def extend(i: int, edges: list[tuple[int, int]], residual: list[int]):
        nonlocal visited
        if i == q:
            if all(d == 0 for d in residual):
                g = ColoredDigraph.from_edges(q, [(a + 1, b + 1) for a, b in edges])
                if not any(colorings_equivalent(g, known, budget=budget) for known in found):
                    found.append(g)
            return
        need = residual[i]
        candidates = [j for j in range(i + 1, q) if residual[j] > 0]
        if need > len(candidates):
            return
        earlier = [0] * q
        for a, b in edges:
            earlier[b] |= 1 << a
        # twins have equal residual degree, so both or neither are candidates
        last: dict[int, int] = {}
        twin: dict[int, int] = {}
        for j in candidates:
            twin[j] = last.get(earlier[j], j)
            last[earlier[j]] = j
        for chosen in itertools.combinations(candidates, need):
            if any(twin[j] not in chosen for j in chosen):
                continue
            visited += 1
            if visited > budget:
                raise BudgetExceededError(budget, visited)
            for j in chosen:
                residual[j] -= 1
            residual[i] = 0
            if all(residual[j] <= q - i - 2 or residual[j] == 0
                   for j in range(i + 1, q)):
                extend(i + 1, edges + [(i, j) for j in chosen], residual)
            for j in chosen:
                residual[j] += 1
            residual[i] = need

    residual = [s] * q
    # normalize vertex 0's neighbors to 1..s; every class has such a labeling
    for j in range(1, s + 1):
        residual[j] -= 1
    residual[0] = 0
    extend(1, [(0, j) for j in range(1, s + 1)], residual)
    return found


def regular_graphs(q_max: int, budget: int = DEFAULT_SEARCH_BUDGET) -> list[ColoredDigraph]:
    """All regular simple graphs with degree >= 1 on 2..q_max vertices, up to
    isomorphism, each as its one-color digraph, ordered by vertex count, then
    degree.

    Each graph returned is the first labeled member of its class the labeled
    search meets, and within one (q, s) block the graphs come in the order
    the search meets them."""
    if q_max > 8:
        raise ValueError(f"the regular graph census is sized for q <= 8, got {q_max}")
    out = []
    for q in range(2, q_max + 1):
        for s in range(1, q):
            if (q * s) % 2 == 0:
                out.extend(_regular_graphs_qs(q, s, budget))
    return out


# ---------------------------------------------------------------------------
# uniform colorings of one graph

def _matching_partitions(edges: list[tuple[int, int]], p: int, r: int,
                         budget: int):
    """Yield partitions of edges into exactly p matchings of size r, each
    partition once (classes labeled by first appearance)."""
    m = len(edges)
    if p * r != m:
        return
    labels = [0] * m
    masks: list[int] = []
    sizes: list[int] = []
    visited = 0

    def place(e: int):
        nonlocal visited
        if e == m:
            if len(sizes) == p and all(sz == r for sz in sizes):
                yield tuple(labels)
            return
        a, b = edges[e]
        bit = (1 << a) | (1 << b)
        for c in range(len(sizes)):
            if sizes[c] < r and not (masks[c] & bit):
                visited += 1
                if visited > budget:
                    raise BudgetExceededError(budget, visited)
                labels[e] = c
                masks[c] |= bit
                sizes[c] += 1
                yield from place(e + 1)
                masks[c] &= ~bit
                sizes[c] -= 1
        if len(sizes) < p:
            visited += 1
            if visited > budget:
                raise BudgetExceededError(budget, visited)
            labels[e] = len(sizes)
            masks.append(bit)
            sizes.append(1)
            yield from place(e + 1)
            masks.pop()
            sizes.pop()

    yield from place(0)


def _labels_to_coloring(g: ColoredDigraph, labels) -> ColoredDigraph:
    edges = g.sorted_edges()
    arcs = [(i, j, labels[n] + 1) for n, (i, j) in enumerate(edges)]
    return ColoredDigraph.from_arcs(g.q, max(labels) + 1, arcs)


def _edge_moves(edges: list[tuple[int, int]],
                generators: Sequence[Sequence[int]]) -> list:
    """Per vertex permutation in generators (1-based image tuples, like the
    edges), its move on labeled edge partitions: each label goes to its
    edge's image, and the colors are renumbered by first appearance."""
    index = {e: k for k, e in enumerate(edges)}
    moves = []
    for sg in generators:
        # the edge whose label each position takes
        source = [0] * len(edges)
        for k, (a, b) in enumerate(edges):
            source[index[min(sg[a - 1], sg[b - 1]), max(sg[a - 1], sg[b - 1])]] = k

        def move(labels, source=source):
            renamed: dict[int, int] = {}
            return tuple(renamed.setdefault(labels[k], len(renamed)) for k in source)
        moves.append(move)
    return moves


def uniform_colorings(g: ColoredDigraph,
                      budget: int = DEFAULT_SEARCH_BUDGET) -> list[ColoredDigraph]:
    """All uniform edge colorings of g's underlying simple graph up to
    coloring equivalence, ordered by (p, sorted arcs); g's own colors and
    directions play no part.  A non-regular graph has none.

    An equivalence between two colorings of g maps g onto itself, and the
    matching search yields every labeled coloring once, colors numbered by
    first appearance, so the classes are the orbits of Aut(g) on the labeled
    colorings.  Each class keeps the first labeled coloring the matching
    search meets.  The group's generators come from the mapping search in
    generator mode on g's support; it counts its nodes, and the orbit walk
    its members, against budget."""
    g = g.support()
    degs = g.degrees()
    if not degs or len(set(degs)) != 1 or degs[0] == 0:
        return []
    s = degs[0]
    edges = g.sorted_edges()
    m = len(edges)
    # properness forces s distinct colors at each vertex
    labeled = itertools.chain.from_iterable(
        _matching_partitions(edges, p, m // p, budget) for p in _divisors(m) if p >= s)
    generators = [vi for vi, _ in _mapping_search(g, g, False, budget, generators=True)]
    orbits = _orbits(labeled, _edge_moves(edges, generators), budget)
    return sorted((_labels_to_coloring(g, labels) for labels, _ in orbits),
                  key=lambda c: (c.p, c.sorted_arcs()))
