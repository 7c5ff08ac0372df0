"""The census: regular graphs and their uniform colorings, exhaustively.

Regular simple graphs up to isomorphism, by the canonical labeling of
simple graphs kept here, and the uniform edge colorings of each up to
equivalence.  It imports only the graph layer, so a census loads no algebra
code; the factorizations of complete graphs, which share its matching
search and orbit walk, are in `factorizations`.  Everything is exact and
deterministic; searches take explicit budgets and raise BudgetExceededError
instead of degrading.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence

from .graphs import (BudgetExceededError, ColoredDigraph, DEFAULT_SEARCH_BUDGET,
                     SimpleGraph)


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


# ---------------------------------------------------------------------------
# canonical labeling of simple graphs by individualization and refinement
#
# After McKay & Piperno, "Practical graph isomorphism, II", J. Symbolic
# Comput. 60 (2014).  Refinement splits the cells of an ordered vertex
# partition by the multiset of cells of each vertex's neighbours until
# nothing splits; the search individualizes each vertex of the first
# non-singleton cell in turn.  Every leaf is a discrete partition, i.e. a
# labeling, and the canonical form is the smallest relabeled edge list over
# all leaves.  Two leaves with equal forms differ by an automorphism, which
# prunes the tree: orbit pruning on the first path, and a backjump to the
# node where the two leaves' paths part.

def _refine(cells: list[list[int]], adj: list[list[int]]) -> list[list[int]]:
    """Split cells by neighbour signatures until the partition is stable.

    New cells replace the old one in the order of their signatures, so the
    result commutes with relabeling the vertices."""
    cell_of = [0] * len(adj)
    while True:
        for ci, cell in enumerate(cells):
            for x in cell:
                cell_of[x] = ci
        out = []
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            groups: dict[tuple, list[int]] = {}
            for x in cell:
                sig = tuple(sorted([cell_of[y] for y in adj[x]]))
                groups.setdefault(sig, []).append(x)
            out.extend(groups[sig] for sig in sorted(groups))
        if len(out) == len(cells):
            return out
        cells = out


def _in_orbit(v: int, seen: list[int], gens: list[list[int]]) -> bool:
    """Whether v shares an orbit with a point of seen under the group that
    gens generate."""
    orbit, stack = {v}, [v]
    while stack:
        x = stack.pop()
        for g in gens:
            y = g[x]
            if y not in orbit:
                orbit.add(y)
                stack.append(y)
    return any(u in orbit for u in seen)


def _canonical_search(g: SimpleGraph, budget: int):
    """Canonical edge list of g, 0-based pairs a < b in sorted order, and the
    automorphisms met at pairs of leaves with equal forms, as lists of 0-based
    vertex images; these generate Aut(g).  A leaf's labeling maps each vertex
    to its position.  Each node visited counts against budget."""
    n = g.q
    edges = [(i - 1, j - 1) for i, j in g.edges]
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    autos: list[list[int]] = []
    first = best = None             # (form, labeling, path) of two leaves
    nodes = 0

    def search(cells, path) -> int:
        """Explore below a node; return the depth to resume at."""
        nonlocal first, best, nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(budget, nodes)
        cells = _refine(cells, adj)
        t = next((i for i, c in enumerate(cells) if len(c) > 1), None)
        if t is None:
            lab = [0] * n
            for pos, (x,) in enumerate(cells):
                lab[x] = pos
            form = sorted((lab[a], lab[b]) if lab[a] < lab[b] else (lab[b], lab[a])
                          for a, b in edges)
            if first is None:
                first = best = (form, lab, path)
                return len(path) - 1
            for ref_form, ref_lab, ref_path in (first, best):
                if form == ref_form:
                    at = [0] * n
                    for x, pos in enumerate(ref_lab):
                        at[pos] = x
                    autos.append([at[pos] for pos in lab])
                    d = 0
                    while path[d] == ref_path[d]:
                        d += 1
                    return d
            if form < best[0]:
                best = (form, lab, path)
            return len(path) - 1
        on_first_path = first is None
        done: list[int] = []
        for v in cells[t]:
            if on_first_path and done and _in_orbit(
                    v, done, [a for a in autos if all(a[x] == x for x in path)]):
                continue
            child = cells[:t] + [[v], [x for x in cells[t] if x != v]] + cells[t + 1:]
            resume = search(child, path + (v,))
            if resume < len(path):
                return resume
            done.append(v)
        return len(path) - 1

    search([list(range(n))], ())
    return best[0], autos


def canonical_graph(g: SimpleGraph, budget: int = DEFAULT_SEARCH_BUDGET) -> SimpleGraph:
    """Canonical relabeling of g: isomorphic graphs, and only they, give the
    same result.  Its edge list is the smallest over the search leaves."""
    form = _canonical_search(g, budget)[0]
    return SimpleGraph(g.q, frozenset((a + 1, b + 1) for a, b in form))


# ---------------------------------------------------------------------------
# regular graphs up to isomorphism

def _regular_graphs_qs(q: int, s: int, budget: int) -> list[SimpleGraph]:
    """All s-regular graphs on q labeled vertices, one per isomorphism class:
    the first labeled graph met in each class, keyed by its canonical form.
    The labeled search fixes vertex 0's neighborhood to {1..s}.

    Row i never takes a later vertex j while skipping an earlier twin u, a
    vertex u < j with the same neighbors among 0..i-1.  Swapping u and j
    keeps rows 0..i-1 and makes row i come earlier, so a skipped labeling is
    never the first member of its class the search meets."""
    visited = 0
    found: dict[SimpleGraph, SimpleGraph] = {}

    def extend(i: int, edges: list[tuple[int, int]], residual: list[int]):
        nonlocal visited
        if i == q:
            if all(d == 0 for d in residual):
                g = SimpleGraph.from_edges(q, [(a + 1, b + 1) for a, b in edges])
                found.setdefault(canonical_graph(g, budget), g)
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
    return [found[c] for c in sorted(found, key=lambda c: sorted(c.edges, reverse=True))]


def regular_graphs(q_max: int, budget: int = DEFAULT_SEARCH_BUDGET) -> list[SimpleGraph]:
    """All regular simple graphs with degree >= 1 on 2..q_max vertices, up to
    isomorphism, ordered by vertex count, then degree.

    Within one (q, s) block the graphs are ordered by their canonical forms
    (canonical_graph) read as packed adjacency words, i.e. canonical edge
    lists compared from the largest edge down.  Each graph returned is the
    first labeled member of its class the search meets, not its canonical
    relabeling."""
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


def _labels_to_coloring(g: SimpleGraph, labels) -> ColoredDigraph:
    edges = g.sorted_edges()
    arcs = [(i, j, labels[n] + 1) for n, (i, j) in enumerate(edges)]
    return ColoredDigraph.from_arcs(g.q, max(labels) + 1, arcs, undirected=True)


def _orbit_representatives(labeled, edges: list[tuple[int, int]],
                           generators: Sequence[Sequence[int]]
                           ) -> tuple[list[tuple[int, ...]], int]:
    """First member of each orbit of a set of labeled edge partitions, in the
    order they come, and the size of the set.

    labeled yields color labels per edge, colors numbered by first
    appearance, and must be closed under the vertex permutations in
    generators (0-based images).  Each orbit is walked from its first member:
    a generator carries every label to its edge's image, and the colors are
    renumbered by first appearance."""
    index = {e: k for k, e in enumerate(edges)}
    # per generator, the edge whose label each position takes
    sources = []
    for sg in generators:
        source = [0] * len(edges)
        for k, (a, b) in enumerate(edges):
            source[index[min(sg[a], sg[b]), max(sg[a], sg[b])]] = k
        sources.append(source)
    count = 0
    seen: set[tuple[int, ...]] = set()
    reps = []
    for labels in labeled:
        count += 1
        if labels in seen:
            continue
        reps.append(labels)
        seen.add(labels)
        stack = [labels]
        while stack:
            cur = stack.pop()
            for source in sources:
                renamed: dict[int, int] = {}
                image = tuple(renamed.setdefault(cur[k], len(renamed)) for k in source)
                if image not in seen:
                    seen.add(image)
                    stack.append(image)
    return reps, count


def uniform_colorings(g: SimpleGraph,
                      budget: int = DEFAULT_SEARCH_BUDGET) -> list[ColoredDigraph]:
    """All uniform edge colorings of a regular graph up to coloring
    equivalence, ordered by (p, sorted arcs).  Non-regular input has none.

    An equivalence between two colorings of g maps g onto itself, and the
    matching search yields every labeled coloring once, colors numbered by
    first appearance, so the classes are the orbits of Aut(g) on the labeled
    colorings.  Each class keeps the first labeled coloring the matching
    search meets; the group's generators come from the canonical labeling
    search on g, which counts its nodes against budget."""
    degs = g.degrees()
    if not degs or len(set(degs)) != 1 or degs[0] == 0:
        return []
    s = degs[0]
    edges = [(i - 1, j - 1) for (i, j) in g.sorted_edges()]
    m = len(edges)
    # properness forces s distinct colors at each vertex
    labeled = itertools.chain.from_iterable(
        _matching_partitions(edges, p, m // p, budget) for p in _divisors(m) if p >= s)
    reps, _ = _orbit_representatives(labeled, edges, _canonical_search(g, budget)[1])
    return sorted((_labels_to_coloring(g, labels) for labels in reps),
                  key=lambda c: (c.p, c.sorted_arcs()))
