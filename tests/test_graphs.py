"""Colored digraphs, uniformity validation, and equivalence search."""

import functools
import random
from itertools import permutations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from unilie.constructions import trivial_coloring
from unilie.enumeration import _one_color, regular_graphs, uniform_colorings
from unilie.families import (
    cyclic,
    heisenberg,
    kneser,
    quaternionic,
    ring_algebra,
)
from unilie.graphs import (
    DEFAULT_SEARCH_BUDGET,
    BudgetExceededError,
    ColoredDigraph,
    ColorCountMismatch,
    ColorPermAutomorphism,
    NonProper,
    NotRegular,
    NotSurjective,
    SimpleGraph,
    _find,
    _mapping_search,
    _orbits,
    automorphisms,
    colorings_equivalent,
    connected_components,
    disjoint_union,
    relabel,
    validate_uniform,
)


def oracle_mappings(g1, g2, strict):
    """All (vertex_images, color_images) by exhausting q! x p! candidates."""
    arcs2 = g2.arcs
    found = set()
    for vp in permutations(range(1, g2.q + 1)):
        for cp in permutations(range(1, g2.p + 1)):
            ok = True
            for (i, j, k) in g1.arcs:
                ii, jj, kk = vp[i - 1], vp[j - 1], cp[k - 1]
                if strict:
                    hit = (ii, jj, kk) in arcs2
                else:
                    hit = (ii, jj, kk) in arcs2 or (jj, ii, kk) in arcs2
                if not hit:
                    ok = False
                    break
            if ok:
                found.add((vp, cp))
    return found


def oracle_sorted_mappings(g1, g2, strict):
    """Sorted (vertex_images, color_images) of every map carrying g1 onto g2,
    for colorings with equal q, p and arc counts: each of the q! vertex
    permutations is tried and the color map is read off the arcs.  Colors
    unused on both sides are paired off in increasing order."""
    assert (g1.q, g1.p, len(g1.arcs)) == (g2.q, g2.p, len(g2.arcs))
    arc2 = {frozenset((i, j)): (i, j, k) for i, j, k in g2.arcs}
    unused1, unused2 = ([k for k in range(1, g.p + 1) if k not in {a[2] for a in g.arcs}]
                        for g in (g1, g2))
    found = []
    for vp in permutations(range(1, g1.q + 1)):
        cmap = {}
        for i, j, k in g1.arcs:
            hit = arc2.get(frozenset((vp[i - 1], vp[j - 1])))
            if (hit is None or (strict and hit[0] != vp[i - 1])
                    or cmap.setdefault(k, hit[2]) != hit[2]):
                break
        else:
            if len(set(cmap.values())) == len(cmap) and len(unused1) == len(unused2):
                cmap.update(zip(unused1, unused2))
                found.append((vp, tuple(cmap[k] for k in range(1, g1.p + 1))))
    return sorted(found)


@functools.lru_cache(maxsize=None)
def small_colorings():
    """The 37 uniform colorings with q <= 6, up to equivalence."""
    return [c for g in regular_graphs(6) for c in uniform_colorings(g)]


class TestSimpleGraph:
    def test_from_edges_normalizes(self):
        g = SimpleGraph.from_edges(3, [(2, 1), (3, 1)])
        assert g.sorted_edges() == [(1, 2), (1, 3)]
        assert g.degrees() == (2, 1, 1)

    def test_rejects_loops(self):
        with pytest.raises(ValueError):
            SimpleGraph.from_edges(2, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SimpleGraph(2, frozenset({(1, 3)}))


class TestColoredDigraph:
    def test_rejects_double_pair(self):
        with pytest.raises(ValueError):
            ColoredDigraph.from_arcs(3, 2, [(1, 2, 1), (2, 1, 2)])

    def test_rejects_bad_color(self):
        with pytest.raises(ValueError):
            ColoredDigraph.from_arcs(3, 1, [(1, 2, 2)])

    def test_support_and_pair_color(self):
        g = quaternionic()
        assert g.support().degrees() == (3, 3, 3, 3)
        assert (1, 2, 1) in g.arcs

    def test_unused_color_allowed_at_construction(self):
        g = ColoredDigraph.from_arcs(2, 2, [(1, 2, 1)])
        report = validate_uniform(g)
        assert not report.is_uniform
        assert any(isinstance(v, NotSurjective) for v in report.violations)


class TestValidateUniform:
    def test_quaternionic_is_uniform(self):
        report = validate_uniform(quaternionic())
        assert report.is_uniform
        assert (report.p, report.q, report.r, report.s) == (3, 4, 2, 3)
        assert report.violations == ()

    def test_heisenberg_series(self):
        for n in range(1, 5):
            report = validate_uniform(heisenberg(n))
            assert report.is_uniform
            assert (report.p, report.q, report.r, report.s) == (1, 2 * n, n, 1)

    def test_counting_identity_on_uniform(self):
        for g in (heisenberg(3), quaternionic(), ring_algebra(3)):
            rep = validate_uniform(g)
            assert rep.is_uniform
            assert 2 * rep.r * rep.p == rep.s * rep.q

    def test_path_is_not_uniform(self):
        # P3 with one color: middle vertex sees the color twice
        g = ColoredDigraph.from_arcs(3, 1, [(1, 2, 1), (2, 3, 1)])
        report = validate_uniform(g)
        assert not report.is_uniform
        kinds = {type(v) for v in report.violations}
        assert NonProper in kinds
        assert NotRegular in kinds

    def test_color_count_mismatch_detected(self):
        # one triangle edge recolored: classes have sizes 2 and 1
        g = ColoredDigraph.from_arcs(3, 2, [(1, 2, 1), (2, 3, 1), (1, 3, 2)])
        report = validate_uniform(g)
        assert not report.is_uniform
        assert any(isinstance(v, ColorCountMismatch) for v in report.violations)

    def test_violations_are_sorted_and_stable(self):
        g = ColoredDigraph.from_arcs(3, 1, [(1, 2, 1), (2, 3, 1)])
        r1 = validate_uniform(g)
        r2 = validate_uniform(g)
        assert r1.violations == r2.violations

    def test_arcless_graph(self):
        # no arcs: every degree and every color count is 0
        report = validate_uniform(ColoredDigraph(3, 2, frozenset()))
        assert not report.is_uniform
        assert (report.r, report.s) == (0, 0)
        assert report.violations == (NotSurjective(1), NotSurjective(2))


class TestAutomorphisms:
    def test_quaternionic_counts(self):
        assert len(automorphisms(quaternionic())) == 24
        assert len(automorphisms(quaternionic(), strict=True)) == 3

    def test_ring_counts(self):
        assert len(automorphisms(ring_algebra(2))) == 8
        assert len(automorphisms(ring_algebra(2), strict=True)) == 1

    def test_single_edge_counts(self):
        assert len(automorphisms(heisenberg(1))) == 2
        assert len(automorphisms(heisenberg(1), strict=True)) == 1

    def test_group_orders_beyond_the_oracle(self):
        # each vertex with an earlier neighbour draws its candidates from the
        # neighbours of that neighbour's image: ring_algebra(60) takes 28,680
        # nodes, where trying every vertex at each placement takes 1,699,440
        assert len(automorphisms(ring_algebra(60), budget=50_000)) == 240
        for r in range(2, 61):
            assert len(automorphisms(ring_algebra(r))) == 4 * r, r
        for q in range(3, 61):
            assert len(automorphisms(cyclic(q))) == 2 * q, q

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize(
        "graph", [heisenberg(1), heisenberg(2), ring_algebra(2), quaternionic()]
    )
    def test_matches_exhaustive_oracle(self, graph, strict):
        got = {
            (a.vertex_images, a.color_images)
            for a in automorphisms(graph, strict=strict)
        }
        assert got == oracle_mappings(graph, graph, strict)

    @pytest.mark.parametrize("strict", [False, True])
    def test_matches_brute_force_on_small_colorings(self, strict):
        assert len(small_colorings()) == 37
        for g in small_colorings():
            got = [(a.vertex_images, a.color_images) for a in automorphisms(g, strict)]
            assert got == oracle_sorted_mappings(g, g, strict), g

    def test_group_closure(self):
        auts = automorphisms(quaternionic())
        table = {(a.vertex_images, a.color_images) for a in auts}
        for a in auts:
            for b in auts:
                vi = tuple(a.vertex_images[b.vertex_images[i] - 1] for i in range(4))
                ci = tuple(a.color_images[b.color_images[k] - 1] for k in range(3))
                assert (vi, ci) in table

    def test_identity_present(self):
        auts = automorphisms(ring_algebra(3))
        assert any(
            a.vertex_images == tuple(range(1, 7)) and a.color_images == (1, 2)
            for a in auts
        )

    def test_budget_enforced(self):
        with pytest.raises(BudgetExceededError) as exc:
            automorphisms(quaternionic(), budget=2)
        assert exc.value.budget == 2
        assert exc.value.visited > 2


class TestEquivalence:
    def test_relabeled_graphs_equivalent(self):
        g = quaternionic()
        a = ColorPermAutomorphism((2, 3, 4, 1), (3, 1, 2), strict=False)
        assert colorings_equivalent(g, relabel(g, a))

    def test_single_flip_absorbed_by_vertex_swap(self):
        g1 = ColoredDigraph.from_arcs(2, 1, [(1, 2, 1)])
        g2 = ColoredDigraph.from_arcs(2, 1, [(2, 1, 1)])
        assert colorings_equivalent(g1, g2) is not None
        strict_hit = colorings_equivalent(g1, g2, strict=True)
        assert strict_hit is not None and strict_hit.vertex_images == (2, 1)

    def test_orientation_matters_only_in_strict_mode(self):
        plain, primed = ring_algebra(2), ring_algebra(2, primed=True)
        assert colorings_equivalent(plain, primed) is not None
        assert colorings_equivalent(plain, primed, strict=True) is None

    @pytest.mark.parametrize("strict", [False, True])
    def test_first_map_matches_brute_force_on_small_colorings(self, strict):
        for g in small_colorings():
            # reverse the vertices and rotate the colors
            a = ColorPermAutomorphism(tuple(range(g.q, 0, -1)),
                                      tuple(range(2, g.p + 1)) + (1,))
            moved = relabel(g, a)
            hit = colorings_equivalent(g, moved, strict=strict)
            assert (hit.vertex_images, hit.color_images) == oracle_sorted_mappings(
                g, moved, strict)[0], g

    def test_different_shapes_inequivalent(self):
        assert not colorings_equivalent(heisenberg(2), ring_algebra(2))

    @given(
        st.permutations(list(range(1, 5))),
        st.permutations(list(range(1, 4))),
    )
    @settings(max_examples=30)
    def test_relabel_invariance_property(self, vp, cp):
        g = quaternionic()
        a = ColorPermAutomorphism(tuple(vp), tuple(cp), strict=False)
        h = relabel(g, a)
        assert validate_uniform(h).is_uniform
        assert colorings_equivalent(g, h)


@st.composite
def simple_graphs(draw, max_q=7):
    q = draw(st.integers(min_value=1, max_value=max_q))
    pairs = [(i, j) for i in range(1, q + 1) for j in range(i + 1, q + 1)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return SimpleGraph.from_edges(q, [e for e, k in zip(pairs, keep) if k])


@st.composite
def colorings(draw, max_q=6, max_p=4):
    """A colored digraph with random arc directions, and a second coloring of
    the same support."""
    q = draw(st.integers(min_value=2, max_value=max_q))
    p = draw(st.integers(min_value=1, max_value=max_p))
    pairs = [(i, j) for i in range(1, q + 1) for j in range(i + 1, q + 1)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    support = [e for e, k in zip(pairs, keep) if k]
    arc = st.tuples(st.booleans(), st.integers(min_value=1, max_value=p))

    def color(choices):
        return ColoredDigraph.from_arcs(
            q, p, [(j, i, k) if flip else (i, j, k)
                   for (i, j), (flip, k) in zip(support, choices)])

    both = st.lists(arc, min_size=len(support), max_size=len(support))
    return color(draw(both)), color(draw(both))


class TestMappingSearchOffUniform:
    """The mapping search on colorings that are not uniform: mixed degrees,
    unused colors, non-proper color classes.  These are the inputs that the
    filter on vertex degrees and incident class sizes prunes; the search must
    still find every map, in order."""

    @pytest.mark.parametrize("strict", [False, True])
    @given(pair=colorings(max_q=6, max_p=4), rnd=st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_matches_sorted_oracle(self, strict, pair, rnd):
        g, other = pair
        got = [(a.vertex_images, a.color_images) for a in automorphisms(g, strict)]
        assert got == oracle_sorted_mappings(g, g, strict)
        vp, cp = list(range(1, g.q + 1)), list(range(1, g.p + 1))
        rnd.shuffle(vp)
        rnd.shuffle(cp)
        moved = relabel(g, ColorPermAutomorphism(tuple(vp), tuple(cp)))
        hit = colorings_equivalent(g, moved, strict=strict)
        assert (hit.vertex_images, hit.color_images) == oracle_sorted_mappings(
            g, moved, strict)[0]
        first = oracle_sorted_mappings(g, other, strict)
        hit = colorings_equivalent(g, other, strict=strict)
        assert (None if hit is None else (hit.vertex_images, hit.color_images)) == (
            first[0] if first else None)

    @pytest.mark.parametrize("strict", [False, True])
    def test_degree_and_class_size_mismatches(self, strict):
        star = ColoredDigraph.from_arcs(4, 2, [(1, 2, 1), (1, 3, 1), (1, 4, 2)])
        path = ColoredDigraph.from_arcs(4, 2, [(1, 2, 1), (2, 3, 1), (3, 4, 2)])
        # same degrees and class sizes as path, but vertex 2 meets a class of
        # size 2 and one of size 1
        other = ColoredDigraph.from_arcs(4, 2, [(1, 2, 1), (2, 3, 2), (3, 4, 1)])
        unused = ColoredDigraph.from_arcs(4, 3, [(1, 2, 3), (2, 3, 3), (3, 4, 1)])
        assert colorings_equivalent(star, path, strict=strict) is None
        assert colorings_equivalent(path, other, strict=strict) is None
        assert colorings_equivalent(path, star, strict=strict) is None
        hit = colorings_equivalent(ColoredDigraph(4, 3, path.arcs), unused, strict=strict)
        assert (hit.vertex_images, hit.color_images) == oracle_sorted_mappings(
            ColoredDigraph(4, 3, path.arcs), unused, strict)[0]
        assert hit.color_images == (3, 1, 2)

    @pytest.mark.parametrize("strict", [False, True])
    def test_profile_mismatch_fails_before_the_search(self, strict):
        # a triangle on 10..12 beside 9 isolated vertices against a path
        # 1-2-3-4 beside 8: equal q, p and arc count, but the vertex degrees
        # differ, so no vertex is placed and even a budget of 1 suffices
        triangle = ColoredDigraph.from_arcs(12, 3, [(10, 11, 1), (11, 12, 2), (10, 12, 3)])
        path = ColoredDigraph.from_arcs(12, 3, [(1, 2, 1), (2, 3, 2), (3, 4, 3)])
        assert colorings_equivalent(triangle, path, strict=strict, budget=1) is None
        assert colorings_equivalent(path, triangle, strict=strict, budget=1) is None
        star = ColoredDigraph.from_arcs(8, 1, [(1, i, 1) for i in range(2, 9)])
        line = ColoredDigraph.from_arcs(8, 1, [(i, i + 1, 1) for i in range(1, 8)])
        assert colorings_equivalent(line, star, strict=strict, budget=1) is None

    def test_profiles_prune_each_placement(self):
        # equal profiles as multisets, so the root check passes; each vertex
        # is tried only against images with its profile, and the failing
        # search visits 12 nodes (28 with that test dropped)
        g = ColoredDigraph.from_arcs(8, 2, [(1, 2, 1), (2, 3, 1), (3, 4, 2),
                                            (5, 6, 1), (6, 7, 2), (7, 8, 2)])
        h = ColoredDigraph.from_arcs(8, 2, [(1, 2, 1), (2, 3, 2), (3, 4, 1),
                                            (5, 6, 2), (6, 7, 1), (7, 8, 2)])
        assert oracle_sorted_mappings(g, h, False) == []
        assert colorings_equivalent(g, h, budget=20) is None


def generated_maps(gens, q, p):
    """Every (vertex_images, color_images) composed from gens, the identity
    included."""
    group = {(tuple(range(1, q + 1)), tuple(range(1, p + 1)))}
    stack = list(group)
    while stack:
        xv, xc = stack.pop()
        for vi, ci in gens:
            y = (tuple(vi[i - 1] for i in xv), tuple(ci[k - 1] for k in xc))
            if y not in group:
                group.add(y)
                stack.append(y)
    return group


class TestGeneratorMode:
    """The mapping search on g -> g with generators=True: the maps it yields
    generate the group that automorphisms lists, without the identity and
    with at most one map per merged vertex orbit."""

    @staticmethod
    def check(g, strict):
        gens = list(_mapping_search(g, g, strict, DEFAULT_SEARCH_BUDGET, generators=True))
        group = {(a.vertex_images, a.color_images) for a in automorphisms(g, strict)}
        assert generated_maps(gens, g.q, g.p) == group
        assert (tuple(range(1, g.q + 1)), tuple(range(1, g.p + 1))) not in gens
        assert len(gens) <= g.q - 1

    @pytest.mark.parametrize("strict", [False, True])
    def test_small_colorings_and_relabelings(self, strict):
        rnd = random.Random(6)
        for g in small_colorings():
            self.check(g, strict)
            vp, cp = list(range(1, g.q + 1)), list(range(1, g.p + 1))
            rnd.shuffle(vp)
            rnd.shuffle(cp)
            self.check(relabel(g, ColorPermAutomorphism(tuple(vp), tuple(cp))), strict)

    @pytest.mark.parametrize("strict", [False, True])
    @given(pair=colorings(max_q=6, max_p=4))
    @settings(max_examples=60, deadline=None)
    def test_off_uniform(self, strict, pair):
        self.check(pair[0], strict)

    def test_far_fewer_visits_than_the_group(self):
        # ring_algebra(60): its 240 automorphisms take 28,680 node visits,
        # two generators 359
        g = ring_algebra(60)
        gens = list(_mapping_search(g, g, False, 400, generators=True))
        assert generated_maps(gens, g.q, g.p) == {
            (a.vertex_images, a.color_images) for a in automorphisms(g)}


def oracle_orbit(x, perms):
    """The orbit of x under perms, by set closure."""
    orbit, frontier = {x}, {x}
    while frontier:
        frontier = {perm[y] for y in frontier for perm in perms} - orbit
        orbit |= frontier
    return orbit


class TestOrbitWalk:
    """`_orbits` and `_find` on random permutations of at most 12 points,
    against the set closure."""

    @pytest.mark.parametrize("seed", range(40))
    def test_orbits_and_find_match_the_closure(self, seed):
        rnd = random.Random(seed)
        n = rnd.randint(1, 12)
        perms = [rnd.sample(range(n), n) for _ in range(rnd.randint(0, 3))]
        moves = [perm.__getitem__ for perm in perms]
        points = rnd.sample(range(n), n) + rnd.choices(range(n), k=3)
        walked = list(_orbits(points, moves, n))
        seen = set()
        for first, tree in walked:
            # first is the first point of `points` no earlier orbit holds
            assert first == next(x for x in points if x not in seen)
            assert set(tree) == oracle_orbit(first, perms)
            assert tree[first] is None
            order = list(tree)
            assert order[0] == first
            for child, reached in list(tree.items())[1:]:
                parent, k = reached
                assert order.index(parent) < order.index(child)
                assert moves[k](parent) == child
            seen |= set(tree)
        assert sum(len(tree) for _, tree in walked) == len(seen) == n
        # every member past each orbit's first counts against the budget
        added = n - len(walked)
        if added:
            with pytest.raises(BudgetExceededError) as exc:
                list(_orbits(points, moves, added - 1))
            assert exc.value.visited == added
        parent = list(range(n))
        for perm in perms:
            for x in range(n):
                parent[_find(parent, x)] = _find(parent, perm[x])
        for x in range(n):
            orbit = oracle_orbit(x, perms)
            assert all((_find(parent, x) == _find(parent, y)) == (y in orbit)
                       for y in range(n))


def oracle_coloring_form(g, strict):
    """Least sorted arc list over every vertex and color relabeling of g;
    without strict each arc is written from its smaller end."""
    forms = []
    for vp in permutations(range(1, g.q + 1)):
        for cp in permutations(range(1, g.p + 1)):
            arcs = [(vp[i - 1], vp[j - 1], cp[k - 1]) for i, j, k in g.arcs]
            forms.append(sorted((a, b, c) if strict or a < b else (b, a, c)
                                for a, b, c in arcs))
    return min(forms)


class TestCanonicalForms:
    @pytest.mark.parametrize("strict", [False, True])
    @given(pair=colorings(max_q=5, max_p=3))
    @settings(max_examples=60)
    def test_equal_forms_exactly_when_equivalent(self, strict, pair):
        a, b = pair
        same = oracle_coloring_form(a, strict) == oracle_coloring_form(b, strict)
        assert same == (colorings_equivalent(a, b, strict=strict) is not None)


def union_of_graphs(*parts):
    """Disjoint union of SimpleGraphs, vertices of later parts shifted up."""
    edges, q = [], 0
    for g in parts:
        edges += [(i + q, j + q) for i, j in g.edges]
        q += g.q
    return SimpleGraph.from_edges(q, edges)


def complete_graph(n):
    return SimpleGraph.from_edges(n, [(i, j) for i in range(1, n + 1)
                                      for j in range(i + 1, n + 1)])


def complete_bipartite(a, b):
    return SimpleGraph.from_edges(a + b, [(i, a + j) for i in range(1, a + 1)
                                          for j in range(1, b + 1)])


class TestAutomorphismGenerators:
    """Generator mode on a graph's one-color digraph, the generators
    `uniform_colorings` walks with, yields at most q - 1 maps that generate
    Aut(g): the group they generate is as large as the list the exhaustive
    mapping search finds on the trivial coloring, where every edge has its
    own color."""

    @staticmethod
    def generators(g, budget=DEFAULT_SEARCH_BUDGET):
        one = _one_color(g)
        return list(_mapping_search(one, one, False, budget, generators=True))

    def check(self, g):
        gens = self.generators(g)
        assert len(gens) < g.q
        assert all(sorted(vi) == list(range(1, g.q + 1)) for vi, _ in gens)
        assert len(generated_maps(gens, g.q, 1)) == len(automorphisms(trivial_coloring(g)))

    def test_regular_graphs_through_eight_vertices(self):
        for g in regular_graphs(8):
            self.check(g)

    @pytest.mark.parametrize("g", [
        pytest.param(union_of_graphs(complete_graph(4), complete_graph(4)), id="2K4"),
        pytest.param(complete_bipartite(4, 4), id="K4,4"),
        pytest.param(union_of_graphs(*[complete_graph(3)] * 3), id="3K3"),
        pytest.param(union_of_graphs(complete_bipartite(3, 3), complete_bipartite(3, 3)),
                     id="K3,3+K3,3"),
        pytest.param(kneser(5, 2).support(), id="Petersen"),
    ])
    def test_graphs_with_large_groups(self, g):
        self.check(g)

    @given(g=simple_graphs())
    @settings(max_examples=60)
    def test_random_graphs(self, g):
        assume(g.edges)
        self.check(g)

    def test_triangle_has_the_full_symmetric_group(self):
        (triangle,) = [g for g in regular_graphs(3) if g.q == 3]
        assert len(generated_maps(self.generators(triangle), 3, 1)) == 6

    def test_budget_enforced(self):
        with pytest.raises(BudgetExceededError):
            self.generators(complete_graph(5), budget=2)


class TestCompositeGraphs:
    def test_disjoint_union_disjoint_colors(self):
        u = disjoint_union(heisenberg(1), heisenberg(1))
        assert (u.q, u.p) == (4, 2)
        assert validate_uniform(u).is_uniform

    def test_disjoint_union_shared_colors(self):
        u = disjoint_union(heisenberg(1), heisenberg(1), color_mode="shared")
        assert (u.q, u.p) == (4, 1)
        assert validate_uniform(u).is_uniform

    def test_connected_components(self):
        u = disjoint_union(heisenberg(1), quaternionic())
        comps = sorted(connected_components(u))
        assert comps == [(1, 2), (3, 4, 5, 6)]
