"""Edge-colored directed graphs and their uniformity diagnostics.

Vertices are named v1..vq and colors z1..zp externally; all public data
structures carry 1-based indices to match that naming, while search internals
work 0-based.  An arc (i, j, k) means a directed edge from v_i to v_j carrying
color z_k; at most one arc may join an unordered vertex pair.

A coloring is *uniform* when the graph is s-regular for some s >= 1, the
coloring is proper (edges sharing a vertex get distinct colors), every color
is used, and every color class has the same size r.  validate_uniform reports
every violation of these conditions rather than stopping at the first.

Orbits under generators have one walk here, `_orbits`, shared by the census,
the factorizations and the sign classes, and classes one union-find, `_find`.
"""

from __future__ import annotations

from collections import Counter

from .record import Record


class BudgetExceededError(RuntimeError):
    """A bounded search exhausted its node budget before finishing."""

    def __init__(self, budget: int, visited: int):
        super().__init__(f"search budget exceeded ({visited} node visits, budget {budget})")
        self.budget = budget
        self.visited = visited


DEFAULT_SEARCH_BUDGET = 10**8


class SimpleGraph(Record):
    """Plain undirected simple graph; edges are 1-based pairs (i, j) with i < j."""

    q: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("need at least one vertex")
        for (i, j) in self.edges:
            if not (1 <= i < j <= self.q):
                raise ValueError(f"bad edge ({i}, {j})")

    @staticmethod
    def from_edges(q: int, edges) -> "SimpleGraph":
        canon = frozenset((min(i, j), max(i, j)) for i, j in edges)
        if any(i == j for i, j in edges):
            raise ValueError("loops are not allowed")
        return SimpleGraph(q, canon)

    def degree(self, v: int) -> int:
        return sum(1 for (i, j) in self.edges if v in (i, j))

    def degrees(self) -> tuple[int, ...]:
        return tuple(self.degree(v) for v in range(1, self.q + 1))

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


class ColoredDigraph(Record):
    """Directed graph with arc colors; the core combinatorial object.

    arcs holds 1-based triples (tail, head, color).  Construction rejects
    loops, repeated unordered pairs, and out-of-range indices; an unused color
    is allowed here and surfaces as a NotSurjective violation in
    validate_uniform.
    """

    q: int
    p: int
    arcs: frozenset[tuple[int, int, int]]

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("need at least one vertex")
        if self.p < 1:
            raise ValueError("need at least one color")
        seen_pairs = set()
        for (i, j, k) in self.arcs:
            if i == j:
                raise ValueError(f"loop at vertex {i}")
            if not (1 <= i <= self.q and 1 <= j <= self.q):
                raise ValueError(f"vertex out of range in arc ({i}, {j}, {k})")
            if not (1 <= k <= self.p):
                raise ValueError(f"color out of range in arc ({i}, {j}, {k})")
            pair = (min(i, j), max(i, j))
            if pair in seen_pairs:
                raise ValueError(f"more than one arc on vertex pair {pair}")
            seen_pairs.add(pair)

    @staticmethod
    def from_arcs(q: int, p: int, arcs) -> "ColoredDigraph":
        """Build from an iterable of (tail, head, color)."""
        return ColoredDigraph(q, p, frozenset(tuple(a) for a in arcs))

    def sorted_arcs(self) -> list[tuple[int, int, int]]:
        return sorted(self.arcs)

    def to_data(self) -> dict:
        """JSON-ready form mirroring the text format."""
        return {"kind": "graph", "q": self.q, "p": self.p,
                "arcs": [list(a) for a in self.sorted_arcs()]}

    def undirected_edges(self) -> frozenset[tuple[int, int]]:
        return frozenset((min(i, j), max(i, j)) for i, j, _ in self.arcs)

    def support(self) -> SimpleGraph:
        return SimpleGraph(self.q, self.undirected_edges())

    def degree(self, v: int) -> int:
        return sum(1 for (i, j, _) in self.arcs if v in (i, j))


# ---------------------------------------------------------------------------
# uniformity report

class NonProper(Record):
    vertex: int
    color: int


class ColorCountMismatch(Record):
    color: int
    count: int


class NotRegular(Record):
    vertex: int
    degree: int


class NotSurjective(Record):
    color: int


Violation = NonProper | ColorCountMismatch | NotRegular | NotSurjective


class UniformityReport(Record):
    """Outcome of the uniformity check; r and s are meaningful only when
    is_uniform holds (they are best-effort modal values otherwise)."""

    is_uniform: bool
    p: int
    q: int
    r: int
    s: int
    violations: tuple[Violation, ...]


def _mode(values) -> int:
    """Most frequent value, smallest on ties; 0 for empty input."""
    if not values:
        return 0
    counts = Counter(values)
    best = max(counts.values())
    return min(v for v, c in counts.items() if c == best)


def validate_uniform(g: ColoredDigraph) -> UniformityReport:
    """Check regularity, properness, surjectivity, and equal color counts.

    All violations are enumerated: NonProper, then ColorCountMismatch,
    NotRegular and NotSurjective, each kind in the order of its fields.
    When the report is clean the graph is a uniformly colored digraph of
    type (p, q, r) and degree s, and these numbers satisfy 2 r p = s q.
    """
    violations: list[Violation] = []
    degrees = {v: 0 for v in range(1, g.q + 1)}
    incident_colors: dict[int, list[int]] = {v: [] for v in range(1, g.q + 1)}
    color_counts = {k: 0 for k in range(1, g.p + 1)}
    for (i, j, k) in g.arcs:
        degrees[i] += 1
        degrees[j] += 1
        incident_colors[i].append(k)
        incident_colors[j].append(k)
        color_counts[k] += 1

    for v in range(1, g.q + 1):
        for k, c in sorted(Counter(incident_colors[v]).items()):
            if c > 1:
                violations.append(NonProper(vertex=v, color=k))

    used = {k: c for k, c in color_counts.items() if c > 0}
    r = _mode(list(used.values()))
    for k, c in sorted(used.items()):
        if c != r:
            violations.append(ColorCountMismatch(color=k, count=c))

    s = _mode(list(degrees.values()))
    for v in range(1, g.q + 1):
        if degrees[v] != s:
            violations.append(NotRegular(vertex=v, degree=degrees[v]))

    for k in range(1, g.p + 1):
        if color_counts[k] == 0:
            violations.append(NotSurjective(color=k))

    is_uniform = not violations and s >= 1
    return UniformityReport(is_uniform=is_uniform, p=g.p, q=g.q, r=r, s=s,
                            violations=tuple(violations))


# ---------------------------------------------------------------------------
# color-permuting automorphisms and coloring equivalence

class ColorPermAutomorphism(Record):
    """A pair of permutations (vertices, colors) preserving the coloring.

    vertex_images[i-1] is the image of v_i, color_images[k-1] the image of
    z_k, both 1-based.  strict means arc directions are preserved, not just
    underlying colored edges.
    """

    vertex_images: tuple[int, ...]
    color_images: tuple[int, ...]
    strict: bool = False

    def vertex(self, i: int) -> int:
        return self.vertex_images[i - 1]

    def color(self, k: int) -> int:
        return self.color_images[k - 1]


def _vertex_profiles(g: ColoredDigraph) -> list[tuple[int, ...]]:
    """Per-vertex invariant at index v: the sorted sizes of the color classes
    of the arcs at v, whose length is the degree of v; index 0 is empty."""
    class_size = Counter(k for _, _, k in g.arcs)
    sizes: list[list[int]] = [[] for _ in range(g.q + 1)]
    for i, j, k in g.arcs:
        sizes[i].append(class_size[k])
        sizes[j].append(class_size[k])
    return [tuple(sorted(s)) for s in sizes]


def _mapping_search(g1: ColoredDigraph, g2: ColoredDigraph, strict: bool, budget: int,
                    generators: bool = False):
    """Yield (vertex_images, color_images) mapping g1 onto g2, in lexicographic
    order of the vertex image word.

    Non-strict mappings send each colored edge to a colored edge ignoring arc
    direction.  Colors unused on either side are paired off in increasing
    order, which keeps the automorphism set a group.

    One loop places v1, v2, ... over a stack of candidate iterators.  A vertex
    with arcs back to earlier ones draws from the neighbours of the smallest
    one's image, others from all vertices, ascending.  A candidate fits when
    each back arc has its match there (colors paired alike, directions too
    when strict) and, by a count per g2 vertex, no other placed image is
    adjacent.  A draw leaves out only vertices that fail, so the order holds.

    generators=True, on g1 = g2, yields at most q - 1 generators of the group
    instead (McKay & Piperno 2014).  The identity is the first leaf; back on
    its path, the frame at v_i skips v_i's orbit under the maps found so far,
    which all fix v_1..v_{i-1}, and each other subtree ends at its first leaf.
    """
    q, p = g1.q, g1.p
    if len(g1.arcs) != len(g2.arcs):
        return
    # uniform colorings with equal (q, p) and arc count share their profiles,
    # so this prunes only the non-uniform input `iso` also accepts; equal
    # profiles also use equally many colors, so the unused ones pair off
    prof1 = _vertex_profiles(g1)
    prof2 = _vertex_profiles(g2)
    if sorted(prof1) != sorted(prof2):
        return
    used1 = {k for _, _, k in g1.arcs}
    used2 = {k for _, _, k in g2.arcs}
    unused1 = [k for k in range(1, p + 1) if k not in used1]
    unused2 = [k for k in range(1, p + 1) if k not in used2]

    # back[v]: (u, color, v is the tail) per arc joining v to an earlier u,
    # by increasing u; at2[w]: neighbour of w in g2 -> (color, w is the tail)
    back: list[list[tuple[int, int, bool]]] = [[] for _ in range(q + 1)]
    for i, j, k in sorted(g1.arcs, key=lambda a: min(a[0], a[1])):
        back[max(i, j)].append((min(i, j), k, i > j))
    at2: list[dict[int, tuple[int, bool]]] = [{} for _ in range(q + 1)]
    for i, j, k in g2.arcs:
        at2[i][j] = (k, True)
        at2[j][i] = (k, False)
    nbrs2 = [sorted(at) for at in at2]

    img = [0] * (q + 1)          # vertex image, 1-based
    taken = [False] * (q + 1)
    placed_nbrs = [0] * (q + 1)  # placed images adjacent to each g2 vertex
    cmap = dict(zip(unused1, unused2))
    cmap_inv = dict(zip(unused2, unused1))
    visited = 0
    low = q + 1                  # generators: branching identity-path frame
    orbit = list(range(q + 1))   # generators: union-find of the orbits so far
    # a frame per vertex reached: candidates, image (0 = none yet), new colors
    stack = [[iter(range(1, q + 1)), 0, []]]
    while stack:
        v = len(stack)
        cands, w, new_colors = frame = stack[-1]
        if w:
            taken[w] = False
            for x in nbrs2[w]:
                placed_nbrs[x] -= 1
            for k1 in new_colors:
                del cmap_inv[cmap.pop(k1)]
        arcs = back[v]
        for w in cands:
            if taken[w] or prof1[v] != prof2[w]:
                continue
            if v == low and _find(orbit, w) == _find(orbit, v):
                continue
            visited += 1
            if visited > budget:
                raise BudgetExceededError(budget, visited)
            if placed_nbrs[w] != len(arcs):
                continue
            new_colors = []
            at = at2[w]
            for u, k1, tail1 in arcs:
                hit = at.get(img[u])
                if hit is None:
                    break
                k2, tail2 = hit
                if strict and tail1 != tail2:
                    break
                want = cmap.get(k1)
                if want is None:
                    if k2 in cmap_inv:
                        break
                    new_colors.append(k1)
                    cmap[k1] = k2
                    cmap_inv[k2] = k1
                elif want != k2:
                    break
            else:
                break
            for k1 in new_colors:
                del cmap_inv[cmap.pop(k1)]
        else:
            if v == low:
                low -= 1
            stack.pop()
            continue
        img[v] = w
        taken[w] = True
        for x in nbrs2[w]:
            placed_nbrs[x] += 1
        frame[1:] = w, new_colors
        if v < q:
            arcs = back[v + 1]
            cands = nbrs2[img[arcs[0][0]]] if arcs else range(1, q + 1)
            stack.append([iter(cands), 0, []])
            continue
        if generators:
            if low > q:
                low = q
                continue
            for x in range(1, q + 1):
                orbit[_find(orbit, x)] = _find(orbit, img[x])
            for f in stack[low:]:  # the loop unwinds the emptied frames
                f[0] = iter(())
        yield tuple(img[1:]), tuple(cmap[k] for k in range(1, p + 1))


def _find(parent: list[int], x: int) -> int:
    """Root of x in the union-find forest parent, halving its path."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def _orbits(points, moves, budget: int):
    """Yield (first, tree) per orbit of the moves, permutations of the
    points, in the order points meets them (Seress 2003, section 4.1).

    points is read once; each one no earlier orbit holds starts a
    breadth-first walk.  tree maps each member, in the order reached, to the
    member and move index it was first reached by, and first to None.  Each
    member the walk adds, over all orbits, counts against budget."""
    seen: set = set()
    added = 0
    for first in points:
        if first in seen:
            continue
        tree, queue = {first: None}, [first]
        for x in queue:
            for n, move in enumerate(moves):
                y = move(x)
                if y not in tree:
                    added += 1
                    if added > budget:
                        raise BudgetExceededError(budget, added)
                    tree[y] = (x, n)
                    queue.append(y)
        seen.update(tree)
        yield first, tree


def automorphisms(g: ColoredDigraph, strict: bool = False,
                  budget: int = DEFAULT_SEARCH_BUDGET) -> list[ColorPermAutomorphism]:
    """All color-permuting automorphisms, lexicographically ordered: the
    mapping search yields them by vertex images, which determine the colors.

    The result always forms a group; with strict=True only direction
    preserving maps are returned.
    """
    return [ColorPermAutomorphism(vi, ci, strict)
            for vi, ci in _mapping_search(g, g, strict, budget)]


def colorings_equivalent(g1: ColoredDigraph, g2: ColoredDigraph, strict: bool = False,
                         budget: int = DEFAULT_SEARCH_BUDGET) -> ColorPermAutomorphism | None:
    """First vertex/color bijection carrying g1 onto g2, or None.

    Graphs with different q or p are never equivalent.  By default arc
    directions are ignored; strict=True compares directed arcs.
    """
    if (g1.q, g1.p) != (g2.q, g2.p):
        return None
    for vi, ci in _mapping_search(g1, g2, strict, budget):
        return ColorPermAutomorphism(vi, ci, strict)
    return None


def relabel(g: ColoredDigraph, a: ColorPermAutomorphism) -> ColoredDigraph:
    """Push the graph through a vertex/color bijection (directions kept)."""
    arcs = [(a.vertex(i), a.vertex(j), a.color(k)) for i, j, k in g.arcs]
    return ColoredDigraph.from_arcs(g.q, g.p, arcs)


def disjoint_union(g1: ColoredDigraph, g2: ColoredDigraph,
                   color_mode: str = "disjoint") -> ColoredDigraph:
    """Disjoint union on vertices; colors either stay disjoint or are shared.

    With color_mode="disjoint" the second graph's colors are shifted past the
    first's; with "shared" both must have the same p and the color sets are
    identified index-wise.
    """
    if color_mode not in ("disjoint", "shared"):
        raise ValueError(f"unknown color_mode {color_mode!r}")
    if color_mode == "shared" and g1.p != g2.p:
        raise ValueError("shared color mode needs equal color counts")
    q = g1.q + g2.q
    shift_k = g1.p if color_mode == "disjoint" else 0
    p = g1.p + g2.p if color_mode == "disjoint" else g1.p
    arcs = list(g1.arcs)
    arcs += [(i + g1.q, j + g1.q, k + shift_k) for i, j, k in g2.arcs]
    return ColoredDigraph.from_arcs(q, p, arcs)


def connected_components(g: ColoredDigraph) -> list[tuple[int, ...]]:
    """Vertex sets of the underlying undirected components, each sorted."""
    parent = list(range(g.q + 1))
    for (i, j, _) in g.arcs:
        parent[_find(parent, i)] = _find(parent, j)
    comps: dict[int, list[int]] = {}
    for v in range(1, g.q + 1):
        comps.setdefault(_find(parent, v), []).append(v)
    return sorted((tuple(sorted(vs)) for vs in comps.values()), key=lambda t: t[0])
