"""Exhaustive generation and classification at desk scale.

Pipeline: regular graphs up to isomorphism, uniform edge colorings up to
equivalence, diagonal sign orbits, signed-permutation merging, stored
general-linear identifications, and sound pairwise distinctness certificates.
Everything is exact and deterministic; searches take explicit budgets and
raise BudgetExceededError instead of degrading.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from functools import cached_property

from . import exact
from .algebra import (MAX_SIGN_ORBITS, GeneralLinearWitness, SignedPermWitness,
                      StructureTensor, _flip_space, _heisenberg_identity,
                      _signed_perm_witness, _signs_to_bits, check_witness,
                      compose_witnesses, derivation_dim,
                      diagonal_orbit_representatives, from_graph, invert_witness,
                      j_map, sign_vector, signed_perm_isomorphic, support_pairs,
                      to_graph)
from .graphs import (BudgetExceededError, ColoredDigraph, DEFAULT_SEARCH_BUDGET,
                     SimpleGraph, UniformityReport, _canonical_search,
                     automorphisms, canonical_graph, validate_uniform)
from .families import (cyclic, free_two_step, heisenberg, quaternionic,
                       ring_algebra)
from .record import Record


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


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


# ---------------------------------------------------------------------------
# factorizations of complete graphs

class FactorizationReport(Record):
    n: int
    kind: str                      # "one-factorization" | "near-one-factorization"
    labeled_count: int
    classes: tuple[ColoredDigraph, ...]


def _complete_graph(n: int) -> SimpleGraph:
    return SimpleGraph.from_edges(n, itertools.combinations(range(1, n + 1), 2))


def _factorization_report(n: int, kind: str, p: int, r: int,
                          budget: int) -> FactorizationReport:
    """Factorizations of K_n into p matchings of size r, one per class.

    The matching search yields every such partition of E(K_n) once, colors
    numbered by first appearance, so the labeled set is closed under vertex
    permutations and its equivalence classes are the orbits of S_n.  Each
    orbit is walked with the generators (1 2) and (1 2 ... n) from its first
    labeled member, which represents the class."""
    g = _complete_graph(n)
    edges = [(i - 1, j - 1) for (i, j) in g.sorted_edges()]
    reps, labeled = _orbit_representatives(
        _matching_partitions(edges, p, r, budget), edges,
        ([1, 0, *range(2, n)], [*range(1, n), 0]))
    classes = [_labels_to_coloring(g, labels) for labels in reps]
    classes.sort(key=lambda c: c.sorted_arcs())
    return FactorizationReport(n, kind, labeled, tuple(classes))


def one_factorizations(n: int, budget: int = DEFAULT_SEARCH_BUDGET) -> FactorizationReport:
    """Partitions of E(K_n) into perfect matchings, up to equivalence plus the
    raw count of distinct partitions."""
    if n < 2 or n % 2 != 0:
        raise ValueError(f"one-factorizations need an even n >= 2, got {n}")
    if n > 8:
        raise ValueError(f"one-factorizations are sized for n <= 8, got {n}")
    return _factorization_report(n, "one-factorization", n - 1, n // 2, budget)


def near_one_factorizations(n: int, budget: int = DEFAULT_SEARCH_BUDGET) -> FactorizationReport:
    """Partitions of E(K_n) into near-perfect matchings (each missing one
    vertex), up to equivalence plus the raw labeled count."""
    if n < 3 or n % 2 != 1:
        raise ValueError(f"near-one-factorizations need an odd n >= 3, got {n}")
    if n > 7:
        raise ValueError(f"near-one-factorizations are sized for n <= 7, got {n}")
    return _factorization_report(n, "near-one-factorization", n, (n - 1) // 2, budget)


# ---------------------------------------------------------------------------
# sign classes over one support

class SignClass(Record):
    members: tuple[int, ...]       # indices into orbit_representatives
    representative: StructureTensor
    heisenberg: bool
    witnesses: tuple[tuple[int, int, SignedPermWitness], ...]


class SignClassReport(Record):
    tensor: StructureTensor
    orbit_representatives: tuple[StructureTensor, ...]
    classes: tuple[SignClass, ...]


def sign_class_report(g: ColoredDigraph | StructureTensor,
                      budget: int = DEFAULT_SEARCH_BUDGET) -> SignClassReport:
    """Diagonal sign orbits of a uniform support, merged into sign classes.

    The diagonal orbits count against budget, capped at MAX_SIGN_ORBITS
    since each one is built.  Every orbit representative has the same colored
    support, so the maps a signed-permutation search could try between two of
    them are exactly the color-permuting automorphisms of that support.  They
    are enumerated once, against budget, and the sign classes are the orbits
    of this group on the diagonal orbits: an automorphism permutes a sign
    vector along the support pairs and negates each pair whose order it
    reverses.  Each class holds its orbit indices in increasing order and one
    witness (members[0], b, w) per other member b, verified by check_witness,
    from the first automorphism carrying members[0] onto b.
    """
    if isinstance(g, ColoredDigraph):
        t = from_graph(g)
    else:
        t, g = g, to_graph(g)
    if not validate_uniform(g).is_uniform:
        raise ValueError("sign class analysis needs a uniform tensor")
    reps = diagonal_orbit_representatives(t, min(budget, MAX_SIGN_ORBITS))
    # with a single orbit there is nothing to merge
    auts = automorphisms(g, budget=budget) if len(reps) > 1 else []
    pairs = support_pairs(t)
    width = len(pairs)
    flips = _flip_space(t)
    # sign bit of each pair, in the gf2 encoding of sign vectors
    bit_of = {pr: 1 << (width - 1 - n) for n, pr in enumerate(pairs)}

    # Per automorphism, the bit each pair's sign moves to, and the moved
    # bits of the pairs whose order it reverses, which change sign.
    moves = []
    for aut in auts:
        vi = aut.vertex_images
        targets, reversed_bits = [], 0
        for pr in pairs:
            x, y = vi[pr[0] - 1], vi[pr[1] - 1]
            target = bit_of[(x, y) if x < y else (y, x)]
            targets.append((bit_of[pr], target))
            if x > y:
                reversed_bits |= target
        moves.append((aut, targets, reversed_bits))

    # the representatives are exactly the reduced members of their cosets
    rep_bits = [exact.gf2_from_bits(_signs_to_bits(sign_vector(r)), width) for r in reps]
    index = {v: n for n, v in enumerate(rep_bits)}

    root = [-1] * len(reps)
    classes = []
    for a, ra in enumerate(reps):
        if root[a] >= 0:
            continue
        root[a] = a
        found: dict[int, SignedPermWitness] = {}
        for aut, targets, reversed_bits in moves:
            moved = reversed_bits
            for source, target in targets:
                if rep_bits[a] & source:
                    moved ^= target
            b = index[exact.gf2_reduce(moved, flips)]
            if root[b] >= 0:
                continue
            w = _signed_perm_witness(ra, reps[b], aut.vertex_images, aut.color_images)
            if w is None:
                raise AssertionError("automorphism image has no sign witness")
            root[b] = a
            found[b] = w
        members = (a,) + tuple(sorted(found))
        classes.append(SignClass(
            members=members,
            representative=ra,
            # every representative shares the support validated above
            heisenberg=_heisenberg_identity(ra),
            witnesses=tuple((a, b, found[b]) for b in members[1:])))
    return SignClassReport(tensor=t, orbit_representatives=tuple(reps),
                           classes=tuple(classes))


# ---------------------------------------------------------------------------
# stored general-linear identifications

def ring_sum_witness() -> tuple[StructureTensor, StructureTensor, GeneralLinearWitness]:
    """Exact basis change from the primed 4-generator ring algebra onto the
    direct sum of two 3-dimensional Heisenberg algebras, showing that the
    color-class size r is not determined by the algebra."""
    t1 = from_graph(ring_algebra(2, primed=True))
    t2 = _heisenberg_sum()
    cols = [
        (1, 0, 1, 0, 0, 0),   # u1 -> x1 + x3
        (0, 1, 0, 1, 0, 0),   # u2 -> x2 + x4
        (1, 0, -1, 0, 0, 0),  # u3 -> x1 - x3
        (0, 1, 0, -1, 0, 0),  # u4 -> x2 - x4
        (0, 0, 0, 0, 1, 1),   # w1 -> z1 + z2
        (0, 0, 0, 0, -1, 1),  # w2 -> z2 - z1
    ]
    m = exact.IntMatrix.from_rows(list(zip(*cols)))
    return t1, t2, GeneralLinearWitness(m)


def _heisenberg_sum() -> StructureTensor:
    return StructureTensor.from_entries(4, 2, [(1, 2, 1, 1), (3, 4, 2, 1)])


def near_factorization_sign_witness() -> tuple[StructureTensor, StructureTensor, SignedPermWitness]:
    """Signed permutation identifying the two sign patterns on the 5-vertex
    near-factorization support that differ in one bracket.  It seeds the proof
    that all sign choices over that support give one algebra."""
    base = [(3, 4, 1, 1), (2, 5, 1, 1), (4, 5, 2, 1), (1, 3, 2, 1),
            (1, 5, 3, 1), (2, 4, 3, 1), (1, 2, 4, 1), (3, 5, 4, 1),
            (2, 3, 5, 1)]
    n1 = StructureTensor.from_brackets(5, 5, base + [(1, 4, 5, 1)])
    n2 = StructureTensor.from_brackets(5, 5, base + [(1, 4, 5, -1)])
    w = SignedPermWitness(vertex_images=(1, 3, 5, 2, 4),
                          color_images=(1, 3, 5, 2, 4),
                          vertex_signs=(1, -1, 1, 1, 1),
                          color_signs=(-1, 1, 1, -1, -1))
    return n2, n1, w


def _gl_anchors() -> list[tuple[str, str, GeneralLinearWitness]]:
    """Stored general-linear identifications between the named presentations
    of known_presentations(): (source name, target name, witness)."""
    return [("ring(2,primed)", "heisenberg(1)+heisenberg(1)", ring_sum_witness()[2])]


# ---------------------------------------------------------------------------
# named reference presentations

class KnownPresentation(Record):
    name: str
    tensor: StructureTensor


def known_presentations() -> list[KnownPresentation]:
    """Reference presentations for every small-q class, named after the
    constructions that produce them."""
    return [KnownPresentation(name, t) for name, t in (
        ("heisenberg(1)", from_graph(heisenberg(1))),
        ("heisenberg(2)", from_graph(heisenberg(2))),
        ("heisenberg(1)+heisenberg(1)", _heisenberg_sum()),
        ("ring(2,primed)", from_graph(ring_algebra(2, primed=True))),
        ("free(3)", from_graph(free_two_step(3))),
        ("cyclic(4)", from_graph(cyclic(4))),
        ("ring(2)", from_graph(ring_algebra(2))),
        ("cyclic(5)", from_graph(cyclic(5))),
        ("quaternionic", from_graph(quaternionic())),
        ("quaternionic-associate", from_graph(quaternionic(True))),
        ("free(4)", from_graph(free_two_step(4))),
        ("k5-near-factorization", near_factorization_sign_witness()[1]),
        ("free(5)", from_graph(free_two_step(5))),
    )]


# ---------------------------------------------------------------------------
# the classification pipeline

class ClassificationRow(Record):
    case: int
    types: tuple[tuple[int, int, int], ...]   # all (p, q, r) seen in the class
    s: int
    representative: StructureTensor
    family: tuple[str, ...]                   # matching reference presentations
    merged: int                               # sign/orientation classes merged
    heisenberg: bool


class Certificate(Record):
    left: int                  # case ids
    right: int
    kind: str                  # "dimension-split" | "derivation-dimension" | "central-direction"
    detail: tuple


class UndeterminedPairError(RuntimeError):
    """Two candidate classes admit no witness and no separating certificate."""

    def __init__(self, left: StructureTensor, right: StructureTensor):
        self.left = left
        self.right = right
        super().__init__("undetermined pair of candidate classes "
                         f"at (p, q) = ({left.p}, {left.q})")


def _candidates(q_max: int, budget: int) -> list[StructureTensor]:
    """One representative per sign class of each uniform coloring of each
    regular graph on at most q_max vertices."""
    return [sc.representative
            for g in regular_graphs(q_max, budget)
            for coloring in uniform_colorings(g, budget)
            for sc in sign_class_report(coloring, budget).classes]


def _singular_central_direction(t: StructureTensor):
    """Nonzero rational central direction with singular J map, if a small one
    exists.  Existence of any real one is an isomorphism invariant.

    The search visits the box of radius 2 while it has at most 400,000
    points, else the box of radius 1 while that one does, else nothing."""
    bound = next((b for b in (2, 1) if (2 * b + 1) ** t.p <= 400_000), 0)
    for c in itertools.product(range(-bound, bound + 1), repeat=t.p):
        if all(x == 0 for x in c):
            continue
        first = next(x for x in c if x != 0)
        if first < 0:
            continue
        if exact.det(j_map(t, c).rows) == 0:
            return c
    return None


class Invariants(Record):
    """The facts about one algebra, given by one or more presentations, that
    classify_detailed and distinguish read; each is computed on first use
    and kept."""

    presentations: tuple[StructureTensor, ...]

    @cached_property
    def reports(self) -> tuple[UniformityReport, ...]:
        """The uniformity report of each presentation."""
        return tuple(validate_uniform(to_graph(t)) for t in self.presentations)

    @cached_property
    def heisenberg(self) -> bool | None:
        """Whether some presentation satisfies the square-norm J identity;
        None when a presentation is not uniform, where it is not defined."""
        if not all(rep.is_uniform for rep in self.reports):
            return None
        return any(map(_heisenberg_identity, self.presentations))

    @cached_property
    def derivation_dim(self) -> int:
        return derivation_dim(self.presentations[0])

    @cached_property
    def singular_direction(self) -> tuple[int, ...] | None:
        """A small singular central direction of some presentation, if any."""
        return next(filter(None, map(_singular_central_direction,
                                     self.presentations)), None)


def distinguish(a: Invariants, b: Invariants):
    """Sound reason that two algebras are non-isomorphic, or None.

    The result is (kind, left, right), from the first of these that applies:
    "dimension-split" with the (p, q) pairs of a and b;
    "derivation-dimension" with the derivation algebra dimensions of a and b;
    "central-direction" when one side satisfies the square-norm J identity
    (which makes J(c) invertible for every real c != 0) and the other side
    has an explicit singular central direction d, given as "square-norm
    identity" on the first side and d on the other.  The last step needs
    both flags; when either is None the answer is None.
    """
    ta, tb = a.presentations[0], b.presentations[0]
    if (ta.p, ta.q) != (tb.p, tb.q):
        return ("dimension-split", (ta.p, ta.q), (tb.p, tb.q))
    if a.derivation_dim != b.derivation_dim:
        return ("derivation-dimension", a.derivation_dim, b.derivation_dim)
    if None in (a.heisenberg, b.heisenberg) or a.heisenberg == b.heisenberg:
        return None
    d = (b if a.heisenberg else a).singular_direction
    if d is None:
        return None
    return ("central-direction", "square-norm identity" if a.heisenberg else d,
            d if a.heisenberg else "square-norm identity")


def classify_detailed(q_max: int = 5, budget: int = DEFAULT_SEARCH_BUDGET
                      ) -> tuple[list[ClassificationRow], list[Certificate]]:
    """Classification rows plus the distinctness certificates backing them.

    Raises UndeterminedPairError when two classes can neither be merged by a
    verified witness nor separated by a sound invariant.
    """
    cands = _candidates(q_max, budget)
    parent = list(range(len(cands)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    # No two candidates are signed-permutation isomorphic: such a witness
    # induces an equivalence of the underlying colorings, and candidates come
    # from inequivalent colorings or from distinct sign classes of one
    # coloring.  So each named presentation lies in at most one candidate:
    # located[name] = (candidate index, signed witness name -> candidate).
    located: dict[str, tuple[int, SignedPermWitness]] = {}
    for kp in known_presentations():
        for idx, cand in enumerate(cands):
            if (cand.p, cand.q) != (kp.tensor.p, kp.tensor.q):
                continue
            w = signed_perm_isomorphic(kp.tensor, cand, budget=budget)
            if w is not None:
                located[kp.name] = (idx, w)
                break

    # Only general-linear identifications can merge candidates: the stored
    # ones, carried over from the named presentations and re-verified.
    for src, dst, glw in _gl_anchors():
        if src not in located or dst not in located:
            continue
        (ia, wa), (ib, wb) = located[src], located[dst]
        if find(ia) == find(ib):
            continue
        full = compose_witnesses(wb, compose_witnesses(glw, invert_witness(wa)))
        res = check_witness(cands[ia], cands[ib], full)
        if not res.ok:
            raise AssertionError("stored identification failed verification")
        parent[find(ib)] = find(ia)

    groups: dict[int, list[int]] = {}
    for i in range(len(cands)):
        groups.setdefault(find(i), []).append(i)
    classes = [(Invariants(tuple(cands[i] for i in members)), members)
               for members in groups.values()]

    def order(c):
        rep = c[0].reports[0]
        return (rep.q, rep.p, rep.r, c[0].presentations[0].sorted_entries())

    classes.sort(key=order)
    rows = [ClassificationRow(
                case=case,
                types=tuple(sorted({(rep.p, rep.q, rep.r) for rep in inv.reports})),
                s=inv.reports[0].s,
                representative=inv.presentations[0],
                family=tuple(name for name, (i, _) in located.items() if i in members),
                merged=len(inv.presentations),
                heisenberg=inv.heisenberg)
            for case, (inv, members) in enumerate(classes, start=1)]

    certificates = []
    for (ia, (a, _)), (ib, (b, _)) in itertools.combinations(enumerate(classes), 2):
        cert = distinguish(a, b)
        if cert is None:
            raise UndeterminedPairError(a.presentations[0], b.presentations[0])
        kind, da, db = cert
        certificates.append(Certificate(left=ia + 1, right=ib + 1,
                                        kind=kind, detail=(da, db)))
    return rows, certificates


def classify(q_max: int = 5, budget: int = DEFAULT_SEARCH_BUDGET) -> list[ClassificationRow]:
    """Isomorphism classes of uniform algebras with at most q_max generators."""
    return classify_detailed(q_max, budget)[0]
