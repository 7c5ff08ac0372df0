"""Exhaustive enumeration, factorization counting, and the classification pipeline."""

import functools
import inspect
import itertools
import math
import random
from collections import Counter

import pytest

from unilie import algebra, classification, enumeration, exact, factorizations, serialize
from unilie.algebra import (
    MAX_SIGN_ORBITS,
    StructureTensor,
    _heisenberg_identity,
    check_witness,
    diagonal_orbit_representatives,
    from_graph,
    sign_class_report,
    signed_perm_isomorphic,
    to_graph,
)
from unilie.linear import compose_witnesses, derivation_dim, invert_witness, j_map
from unilie.analysis import is_heisenberg_type
from unilie.constructions import trivial_coloring
from unilie.families import cyclic, heisenberg, kneser, quaternionic, ring_algebra
from unilie.graphs import (
    DEFAULT_SEARCH_BUDGET,
    BudgetExceededError,
    ColoredDigraph,
    _orbits,
    automorphisms,
    colorings_equivalent,
    connected_components,
    validate_uniform,
)
from unilie.classification import (
    Invariants,
    Split,
    classify,
    classify_detailed,
    known_presentations,
    near_factorization_sign_witness,
    refine,
    ring_sum_witness,
)
from unilie.enumeration import regular_graphs, uniform_colorings
from unilie.factorizations import near_one_factorizations, one_factorizations


def oracle_canonical_graph(g, budget=None):
    """Brute-force canonical form: the relabeling with the smallest packed
    adjacency word over all q! vertex permutations."""
    bit = {pr: n for n, pr in enumerate(itertools.combinations(range(1, g.q + 1), 2))}
    best = None
    g_edges = g.undirected_edges()
    for perm in itertools.permutations(range(1, g.q + 1)):
        edges = [tuple(sorted((perm[i - 1], perm[j - 1]))) for i, j in g_edges]
        code = sum(1 << bit[e] for e in edges)
        if best is None or code < best[0]:
            best = (code, edges)
    return ColoredDigraph.from_edges(g.q, best[1])


def oracle_isomorphic(g, h):
    """Plain backtracking isomorphism test: map v1, v2, ... in turn, each to
    a vertex that agrees on adjacency with every vertex already mapped."""
    g_edges, h_edges = g.undirected_edges(), h.undirected_edges()
    if g.q != h.q or len(g_edges) != len(h_edges):
        return False
    img = []

    def extend(v):
        if v > g.q:
            return True
        for w in range(1, h.q + 1):
            if w not in img and all(
                    ((u, v) in g_edges) == ((min(x, w), max(x, w)) in h_edges)
                    for u, x in enumerate(img, start=1)):
                img.append(w)
                if extend(v + 1):
                    return True
                img.pop()
        return False

    return extend(1)


def oracle_labeled_regular_graphs(q, s):
    """The labeled census search without the twin rule: every s-regular
    labeling with vertex 0 adjacent to 1..s, in the order the search meets
    them."""
    out = []

    def extend(i, edges, residual):
        if i == q:
            if all(d == 0 for d in residual):
                out.append(ColoredDigraph.from_edges(q, [(a + 1, b + 1) for a, b in edges]))
            return
        need = residual[i]
        candidates = [j for j in range(i + 1, q) if residual[j] > 0]
        if need > len(candidates):
            return
        for chosen in itertools.combinations(candidates, need):
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
    for j in range(1, s + 1):
        residual[j] -= 1
    residual[0] = 0
    extend(1, [(0, j) for j in range(1, s + 1)], residual)
    return out


def oracle_regular_graphs(q_max):
    """Every labeled graph of the unpruned search, by (q, s) block."""
    return [oracle_labeled_regular_graphs(q, s) for q in range(2, q_max + 1)
            for s in range(1, q) if q * s % 2 == 0]


def oracle_uniform_colorings(g):
    """Uniform colorings deduplicated by pairwise equivalence search, keeping
    the first labeled coloring met in each class."""
    edges = [(i - 1, j - 1) for (i, j) in g.sorted_edges()]
    s, m = g.degrees()[0], len(edges)
    reps = []
    for p in range(s, m + 1):
        if m % p:
            continue
        for labels in enumeration._matching_partitions(edges, p, m // p, 10**7):
            cand = enumeration._labels_to_coloring(g, labels)
            if not any(colorings_equivalent(cand, known)
                       for known in reps if known.p == p):
                reps.append(cand)
    return sorted(reps, key=lambda c: (c.p, c.sorted_arcs()))


def oracle_sign_class_report(g):
    """Sign classes by pairwise signed-permutation search between the
    diagonal orbits, merged with union-find."""
    t = from_graph(g)
    reps = diagonal_orbit_representatives(t)
    parent = list(range(len(reps)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    witnesses = []
    for a, b in itertools.combinations(range(len(reps)), 2):
        if find(a) == find(b):
            continue
        w = signed_perm_isomorphic(reps[a], reps[b])
        if w is not None:
            witnesses.append((a, b, w))
            parent[find(b)] = find(a)
    groups = {}
    for i in range(len(reps)):
        groups.setdefault(find(i), []).append(i)
    classes = []
    for members in sorted(groups.values()):
        classes.append((tuple(members), reps[members[0]],
                        is_heisenberg_type(reps[members[0]]),
                        tuple(w for w in witnesses if w[0] == members[0])))
    return reps, classes


def _pair_cycle_signature(n, factors):
    """Multiset, over factor pairs, of the union's component shapes as
    (edge count, is_cycle); near-perfect factors make paths, so plain cycle
    types would not be well defined.  Cheap equivalence invariant used to
    bucket factorizations before witness search."""
    sig = []
    for fa, fb in itertools.combinations(factors, 2):
        adj = {v: [] for v in range(1, n + 1)}
        for (a, b) in list(fa) + list(fb):
            adj[a].append(b)
            adj[b].append(a)
        seen = set()
        shape = []
        for v in adj:
            if v in seen or not adj[v]:
                continue
            stack, comp = [v], set()
            while stack:
                cur = stack.pop()
                if cur in comp:
                    continue
                comp.add(cur)
                stack.extend(adj[cur])
            seen |= comp
            edge_count = sum(len(adj[u]) for u in comp) // 2
            is_cycle = all(len(adj[u]) == 2 for u in comp)
            shape.append((edge_count, is_cycle))
        sig.append(tuple(sorted(shape)))
    return tuple(sorted(sig))


def oracle_factorization_report(n):
    """(labeled count, classes) of the (near-)one-factorizations of K_n,
    deduplicated by pairwise equivalence search within buckets of equal pair
    cycle signature, keeping the first labeled factorization of each class."""
    p, r = (n - 1, n // 2) if n % 2 == 0 else (n, (n - 1) // 2)
    g = factorizations._complete_graph(n)
    edges = [(i - 1, j - 1) for (i, j) in g.sorted_edges()]
    labeled = 0
    buckets = {}
    for labels in enumeration._matching_partitions(edges, p, r, 10**7):
        labeled += 1
        cand = enumeration._labels_to_coloring(g, labels)
        factors = [[] for _ in range(p)]
        for idx, (i, j) in enumerate(g.sorted_edges()):
            factors[labels[idx]].append((i, j))
        group = buckets.setdefault(_pair_cycle_signature(n, factors), [])
        if not any(colorings_equivalent(cand, known) for known in group):
            group.append(cand)
    classes = sorted((c for group in buckets.values() for c in group),
                     key=lambda c: c.sorted_arcs())
    return labeled, classes


def factorization_report(n):
    return one_factorizations(n) if n % 2 == 0 else near_one_factorizations(n)


@functools.lru_cache(maxsize=None)
def small_colorings(q_max):
    return [c for g in regular_graphs(q_max) for c in uniform_colorings(g)]


class TestRegularGraphs:
    def test_matches_brute_force_dedup(self):
        want = []
        for block in oracle_regular_graphs(6):
            first = {}
            for g in block:
                first.setdefault(oracle_canonical_graph(g), g)
            want += first.values()
        # the same labeled representatives, each block in first-met order
        assert regular_graphs(6) == want

    def test_matches_unpruned_search(self):
        want = []
        for block in oracle_regular_graphs(8):
            reps = []
            for g in block:
                if not any(oracle_isomorphic(g, h) for h in reps):
                    reps.append(g)
            want += reps
        # the same labeled representatives in the same order
        assert regular_graphs(8) == want

    def test_each_graph_is_a_single_color_digraph(self):
        # a simple graph is its one-color digraph, arcs from the smaller end
        for g in regular_graphs(8):
            assert isinstance(g, ColoredDigraph) and g.p == 1
            assert all(i < j and k == 1 for i, j, k in g.arcs)
            assert g.support() == g

    def test_census_graphs_round_trip_through_the_text_form(self):
        for g in regular_graphs(6):
            assert serialize.parse_any(serialize.write_text(g)) == g

    @pytest.mark.parametrize("q_max,labeled", [(7, 25), (8, 105)])
    def test_canonical_labelings_counted(self, monkeypatch, q_max, labeled):
        # the labeled graphs that reach the dedup, each built once as its
        # one-color digraph; the unpruned search labels 92 at q <= 7 and
        # 1,563 at q <= 8
        calls = []

        def counting(q, edges):
            calls.append(edges)
            return from_edges(q, edges)

        from_edges = ColoredDigraph.from_edges
        monkeypatch.setattr(ColoredDigraph, "from_edges", staticmethod(counting))
        regular_graphs(q_max)
        assert len(calls) == labeled

    def test_eight_vertex_census(self):
        eight = [g for g in regular_graphs(8) if g.q == 8]
        assert len(eight) == 21
        assert Counter(g.degrees()[0] for g in eight) == {
            1: 1, 2: 3, 3: 6, 4: 6, 5: 3, 6: 1, 7: 1}

    def test_census_through_five_vertices(self):
        gs = regular_graphs(5)
        shapes = sorted((g.q, g.degrees()[0], len(g.undirected_edges())) for g in gs)
        assert shapes == [
            (2, 1, 1),
            (3, 2, 3),
            (4, 1, 2),
            (4, 2, 4),
            (4, 3, 6),
            (5, 2, 5),
            (5, 4, 10),
        ]

    def test_six_vertex_census(self):
        gs = regular_graphs(6)
        assert len(gs) == 14
        by_degree = sorted(g.degrees()[0] for g in gs if g.q == 6)
        # two distinct cubic graphs on 6 vertices: K33 and the prism
        assert by_degree == [1, 2, 2, 3, 3, 4, 5]

    def test_all_regular_no_duplicates(self):
        gs = regular_graphs(6)
        for g in gs:
            assert len(set(g.degrees())) == 1
        for a in gs:
            for b in gs:
                if a is not b and a.q == b.q:
                    assert a.undirected_edges() != b.undirected_edges()

    def test_budget_enforced(self):
        with pytest.raises(BudgetExceededError):
            regular_graphs(7, budget=10)

    def test_rejects_large(self):
        with pytest.raises(ValueError):
            regular_graphs(9)


class TestUniformColorings:
    def test_counts_through_five_vertices(self):
        expected = {
            (2, 1): (1, [1]),
            (3, 2): (1, [3]),
            (4, 1): (2, [1, 2]),
            (4, 2): (2, [2, 4]),
            (4, 3): (2, [3, 6]),
            (5, 2): (1, [5]),
            (5, 4): (2, [5, 10]),
        }
        for g in regular_graphs(5):
            cols = uniform_colorings(g)
            count, ps = expected[(g.q, g.degrees()[0])]
            assert len(cols) == count
            assert sorted(validate_uniform(c).p for c in cols) == ps

    @pytest.mark.parametrize("c", [
        pytest.param(kneser(5, 2), id="kneser-5-2"),
        pytest.param(quaternionic(), id="quaternionic"),
        pytest.param(quaternionic(associate=True), id="quaternionic-associate"),
        pytest.param(ring_algebra(3), id="ring-3"),
    ])
    def test_colored_input_reads_its_support(self, c):
        # the colorings are those of the underlying simple graph
        assert uniform_colorings(c) == uniform_colorings(c.support())

    def test_all_results_uniform(self):
        for g in regular_graphs(5):
            for c in uniform_colorings(g):
                assert validate_uniform(c).is_uniform

    def test_proper_filter_on_triangle(self):
        # s=2 forces p >= 2, and matching partitions leave only p=3
        (triangle,) = [g for g in regular_graphs(3) if g.q == 3]
        cols = uniform_colorings(triangle)
        assert [validate_uniform(c).p for c in cols] == [3]

    def test_matches_pairwise_dedup(self):
        total = 0
        for g in regular_graphs(6):
            got = uniform_colorings(g)
            assert got == oracle_uniform_colorings(g)
            total += len(got)
        assert total == 37

    def test_orbit_stabilizer(self):
        # each class is an Aut(g)-orbit of |Aut(g)|/|Aut(c)| labeled colorings
        for g in regular_graphs(6):
            group = len(automorphisms(trivial_coloring(g)))
            edges = [(i - 1, j - 1) for (i, j) in g.sorted_edges()]
            classes = uniform_colorings(g)
            for p in {c.p for c in classes}:
                labeled = sum(1 for _ in enumeration._matching_partitions(
                    edges, p, len(edges) // p, 10**7))
                stabilizers = [len(automorphisms(c)) for c in classes if c.p == p]
                assert all(group % a == 0 for a in stabilizers)
                assert sum(group // a for a in stabilizers) == labeled

    def test_classes_do_not_depend_on_the_labeling(self):
        rnd = random.Random(15)
        for g in regular_graphs(6):
            classes = uniform_colorings(g)
            for _ in range(4):
                perm = list(range(1, g.q + 1))
                rnd.shuffle(perm)
                h = ColoredDigraph.from_edges(
                    g.q, [(perm[i - 1], perm[j - 1]) for i, j in g.undirected_edges()])
                moved = uniform_colorings(h)
                assert len(moved) == len(classes)
                for c in moved:
                    assert any(colorings_equivalent(c, known) for known in classes)

    def test_budget_enforced(self):
        (k4,) = [g for g in regular_graphs(4) if g.degrees()[0] == 3]
        with pytest.raises(BudgetExceededError):
            uniform_colorings(k4, budget=3)

    @pytest.mark.parametrize("n", [40, 100])
    def test_budget_bounds_the_orbit_walk(self, n):
        # the first 2-coloring of a perfect matching on n vertices has an
        # orbit of C(n/2, n/4)/2 labeled colorings
        matching = ColoredDigraph.from_edges(n, [(i, i + 1) for i in range(1, n, 2)])
        with pytest.raises(BudgetExceededError) as exc:
            uniform_colorings(matching, budget=1000)
        assert exc.value.budget == 1000

    def test_orbit_walk_counts_each_member_it_adds(self):
        # 8 disjoint edges split 4 + 4: an orbit of C(8, 4)/2 = 35 members,
        # 34 of them added by the walk from the first
        g = ColoredDigraph.from_edges(16, [(i, i + 1) for i in range(1, 16, 2)])
        one = g.support()
        gens = [vi for vi, _ in enumeration._mapping_search(
            one, one, False, DEFAULT_SEARCH_BUDGET, generators=True)]
        labels = (0, 0, 0, 0, 1, 1, 1, 1)
        moves = enumeration._edge_moves(g.sorted_edges(), gens)
        ((first, tree),) = _orbits([labels], moves, 34)
        assert first == labels and len(tree) == 35
        with pytest.raises(BudgetExceededError) as exc:
            list(_orbits([labels], moves, 33))
        assert exc.value.visited == 34

    def test_no_equivalent_duplicates(self):
        for g in regular_graphs(4):
            cols = uniform_colorings(g)
            for i, a in enumerate(cols):
                for b in cols[i + 1 :]:
                    assert colorings_equivalent(a, b) is None

    def test_single_color_gives_heisenberg(self):
        for g in regular_graphs(5):
            for c in uniform_colorings(g):
                rep = validate_uniform(c)
                if rep.p == 1:
                    assert colorings_equivalent(c, heisenberg(rep.r)) is not None

    def test_two_color_connected_gives_ring(self):
        # a connected coloring with two colors is an even cycle with
        # alternating colors, one of the two ring orientations
        for g in regular_graphs(5):
            for c in uniform_colorings(g):
                rep = validate_uniform(c)
                if rep.p == 2 and len(connected_components(c)) == 1:
                    r = rep.r
                    hit = any(
                        colorings_equivalent(c, ring_algebra(r, primed=pr))
                        is not None
                        for pr in (False, True)
                    )
                    assert hit


class TestFactorizations:
    def test_small_counts(self):
        rep = one_factorizations(4)
        assert (rep.labeled_count, len(rep.classes)) == (1, 1)
        rep = near_one_factorizations(3)
        assert (rep.labeled_count, len(rep.classes)) == (1, 1)
        rep = near_one_factorizations(5)
        assert (rep.labeled_count, len(rep.classes)) == (6, 1)
        rep = one_factorizations(6)
        assert (rep.labeled_count, len(rep.classes)) == (6, 1)

    def test_seven_vertex_count(self):
        rep = near_one_factorizations(7)
        assert (rep.labeled_count, len(rep.classes)) == (6240, 7)

    def test_eight_vertex_count(self):
        rep = one_factorizations(8)
        assert (rep.labeled_count, len(rep.classes)) == (6240, 6)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6,
                                   pytest.param(7, marks=pytest.mark.slow),
                                   pytest.param(8, marks=pytest.mark.slow)])
    def test_matches_pairwise_oracle(self, n):
        rep = factorization_report(n)
        labeled, classes = oracle_factorization_report(n)
        assert rep.labeled_count == labeled
        assert [c.sorted_arcs() for c in rep.classes] == \
            [c.sorted_arcs() for c in classes]

    @pytest.mark.parametrize("n", range(2, 9))
    def test_orbit_stabilizer(self, n):
        # each class is an S_n-orbit of n!/|Aut| labeled factorizations, and
        # no two classes are equivalent
        rep = factorization_report(n)
        stabilizers = [len(automorphisms(c)) for c in rep.classes]
        assert sum(math.factorial(n) // a for a in stabilizers) == rep.labeled_count
        assert all(math.factorial(n) % a == 0 for a in stabilizers)
        for a, b in itertools.combinations(rep.classes, 2):
            assert colorings_equivalent(a, b) is None
        expected = {7: [168, 8, 12, 2, 3, 6, 42], 8: [1344, 64, 96, 16, 24, 42]}
        if n in expected:
            assert stabilizers == expected[n]

    def test_parity_rejected(self):
        with pytest.raises(ValueError):
            one_factorizations(5)
        with pytest.raises(ValueError):
            near_one_factorizations(6)

    @pytest.mark.parametrize("build, n, message", [
        (one_factorizations, 0, "one-factorizations need an even n >= 2, got 0"),
        (one_factorizations, 5, "one-factorizations need an even n >= 2, got 5"),
        (one_factorizations, 10, "one-factorizations are sized for n <= 8, got 10"),
        (near_one_factorizations, -3, "near-one-factorizations need an odd n >= 3, got -3"),
        (near_one_factorizations, 1, "near-one-factorizations need an odd n >= 3, got 1"),
        (near_one_factorizations, 9, "near-one-factorizations are sized for n <= 7, got 9"),
    ])
    def test_rejections_state_the_condition(self, build, n, message):
        with pytest.raises(ValueError) as exc:
            build(n)
        assert str(exc.value) == message

    def test_classes_are_valid_colorings(self):
        rep = one_factorizations(6)
        for g in rep.classes:
            r = validate_uniform(g)
            assert r.is_uniform and (r.p, r.q, r.r) == (5, 6, 3)


class TestSignClassReport:
    def test_quaternionic_support(self):
        rep = sign_class_report(quaternionic())
        assert len(rep.orbit_representatives) == 4
        assert len(rep.classes) == 2
        sizes = sorted(len(c.members) for c in rep.classes)
        assert sizes == [1, 3]
        singleton = next(c for c in rep.classes if len(c.members) == 1)
        assert singleton.heisenberg
        others = next(c for c in rep.classes if len(c.members) == 3)
        assert not others.heisenberg

    def test_square_norm_flag_is_worked_out_once_when_read(self, monkeypatch):
        calls = []
        monkeypatch.setattr(algebra, "_heisenberg_identity",
                            lambda t: calls.append(t) or _heisenberg_identity(t))
        rep = sign_class_report(quaternionic())
        assert calls == []
        for sc in rep.classes:
            assert sc.heisenberg == sc.heisenberg == _heisenberg_identity(sc.representative)
        assert calls == [sc.representative for sc in rep.classes]
        for g in regular_graphs(6):
            for coloring in uniform_colorings(g):
                for sc in sign_class_report(coloring).classes:
                    assert sc.heisenberg == _heisenberg_identity(sc.representative)

    def test_five_vertex_near_support(self):
        n2, _, _ = near_factorization_sign_witness()
        rep = sign_class_report(n2)
        assert len(rep.orbit_representatives) == 2
        assert len(rep.classes) == 1

    def test_matching_supports_have_single_orbit(self):
        for n in (1, 2, 3):
            rep = sign_class_report(heisenberg(n))
            assert len(rep.orbit_representatives) == 1
            assert len(rep.classes) == 1

    def test_witnesses_verify(self):
        rep = sign_class_report(quaternionic())
        reps = rep.orbit_representatives
        merged = next(c for c in rep.classes if len(c.members) > 1)
        assert merged.witnesses
        for a, b, w in merged.witnesses:
            assert check_witness(reps[a], reps[b], w).ok

    def test_rejects_non_uniform(self):
        from unilie.graphs import ColoredDigraph

        bad = ColoredDigraph.from_arcs(3, 1, [(1, 2, 1), (2, 3, 1)])
        with pytest.raises(ValueError):
            sign_class_report(bad)

    @pytest.mark.parametrize("n", range(37))
    def test_matches_pairwise_oracle(self, n):
        # all uniform colorings with q <= 6; the K6 one-factorization takes
        # the oracle about 3 s
        coloring = small_colorings(6)[n]
        rep = sign_class_report(coloring)
        reps, want = oracle_sign_class_report(coloring)
        assert rep.orbit_representatives == tuple(reps)
        got = [(c.members, c.representative, c.heisenberg) for c in rep.classes]
        assert got == [w[:3] for w in want]
        group = {(a.vertex_images, a.color_images) for a in automorphisms(coloring)}
        for sc, (_, _, _, oracle_witnesses) in zip(rep.classes, want):
            first = sc.members[0]
            assert [(a, b) for a, b, _ in sc.witnesses] == [
                (first, b) for b in sc.members[1:]] == [
                (a, b) for a, b, _ in oracle_witnesses]
            # which automorphism carries a witness is not a reported fact,
            # only that it is one and that the signs complete it
            for a, b, w in sc.witnesses:
                assert (w.vertex_images, w.color_images) in group
                assert check_witness(reps[a], reps[b], w).ok

    def test_budget_bounds_the_automorphism_search(self):
        with pytest.raises(BudgetExceededError):
            sign_class_report(quaternionic(), budget=3)

    def test_generators_scale_past_the_whole_group(self):
        # the support's 2,000 automorphisms take over 10^6 node visits to
        # list; its generators take 2,999
        rep = sign_class_report(ring_algebra(500), budget=10_000)
        assert (len(rep.orbit_representatives), len(rep.classes)) == (2, 2)

    @pytest.mark.parametrize("budget,reported", [
        (50, 50), (DEFAULT_SEARCH_BUDGET, MAX_SIGN_ORBITS)])
    def test_budget_bounds_the_sign_orbits(self, budget, reported):
        # kneser(6, 2) has 2^21 diagonal sign orbits; each one is built, so
        # a budget above MAX_SIGN_ORBITS is capped there
        assert MAX_SIGN_ORBITS == 1 << 20
        with pytest.raises(BudgetExceededError) as exc:
            sign_class_report(kneser(6, 2), budget=budget)
        assert (exc.value.budget, exc.value.visited) == (reported, 1 << 21)


class TestStoredWitnesses:
    def test_ring_sum_witness_verifies(self):
        t1, t2, w = ring_sum_witness()
        assert check_witness(t1, t2, w).ok

    def test_ring_sum_connects_different_r(self):
        t1, t2, _ = ring_sum_witness()
        assert validate_uniform(to_graph(t1)).r == 2
        assert validate_uniform(to_graph(t2)).r == 1

    def test_near_factorization_witness_verifies(self):
        n2, n1, w = near_factorization_sign_witness()
        assert check_witness(n2, n1, w).ok

    def test_near_factorization_needs_the_permutation(self):
        from unilie.algebra import diagonal_witness

        n2, n1, _ = near_factorization_sign_witness()
        # pure sign changes cannot identify the two, a permutation is needed
        assert diagonal_witness(n2, n1) is None
        assert signed_perm_isomorphic(n2, n1) is not None


# name -> (type (p, q, r), square-norm J identity) of each named presentation
KNOWN_TYPES = {
    "heisenberg(1)": ((1, 2, 1), True),
    "heisenberg(2)": ((1, 4, 2), True),
    "heisenberg(1)+heisenberg(1)": ((2, 4, 1), False),
    "ring(2,primed)": ((2, 4, 2), False),
    "free(3)": ((3, 3, 1), False),
    "cyclic(4)": ((4, 4, 1), False),
    "ring(2)": ((2, 4, 2), True),
    "cyclic(5)": ((5, 5, 1), False),
    "quaternionic": ((3, 4, 2), True),
    "quaternionic-associate": ((3, 4, 2), False),
    "free(4)": ((6, 4, 1), False),
    "k5-near-factorization": ((5, 5, 2), False),
    "free(5)": ((10, 5, 1), False),
}


class TestKnownPresentations:
    def test_thirteen_reference_presentations(self):
        refs = known_presentations()
        assert [k.name for k in refs] == list(KNOWN_TYPES)
        for k in refs:
            rep = validate_uniform(to_graph(k.tensor))
            assert rep.is_uniform
            assert (rep.p, rep.q, rep.r) == KNOWN_TYPES[k.name][0]
            assert Invariants((k.tensor,)).reports == (rep,)

    def test_heisenberg_flags(self):
        for k in known_presentations():
            flag = KNOWN_TYPES[k.name][1]
            assert is_heisenberg_type(k.tensor) == flag, k.name
            assert Invariants((k.tensor,)).heisenberg == flag, k.name


class TestClassification:
    def test_two_generators(self):
        rows = classify(2)
        assert len(rows) == 1
        assert rows[0].types == ((1, 2, 1),)

    def test_four_generators(self):
        rows = classify(4)
        assert len(rows) == 9

    def test_count_line_gives_the_certified_range(self):
        # 92 rows, 72 of them in 12 open blocks: each block is at least one
        # class, so 92 - 72 + 12 = 32 classes are certified
        rows, _, open_blocks = classify_detailed(6)
        assert (len(rows), len(open_blocks)) == (92, 12)
        assert classification.count_line(rows, open_blocks, 6) == (
            "92 rows: 32 to 92 isomorphism classes, 12 blocks open")
        # only the number of rows is read; one open block of three rows
        block = classification.Block((2, 3, 4), ())
        assert classification.count_line(rows[:5], [block], 4) == (
            "5 rows: 3 to 5 isomorphism classes, 1 block open")
        assert classification.count_line(rows[:5], [], 4) == (
            "5 isomorphism classes with q <= 4")
        # one row is one class: `classify --qmax 2` finds only h3
        assert classification.count_line(rows[:1], [], 2) == (
            "1 isomorphism class with q <= 2")

    def test_five_generators(self):
        rows = classify(5)
        assert len(rows) == 12
        type_multiset = sorted(t for r in rows for t in r.types)
        assert type_multiset == [
            (1, 2, 1),
            (1, 4, 2),
            (2, 4, 1),
            (2, 4, 2),
            (2, 4, 2),
            (3, 3, 1),
            (3, 4, 2),
            (3, 4, 2),
            (4, 4, 1),
            (5, 5, 1),
            (5, 5, 2),
            (6, 4, 1),
            (10, 5, 1),
        ]

    def test_five_generator_families(self):
        rows = classify(5)
        families = {f for r in rows for f in r.family}
        assert families == {k.name for k in known_presentations()}
        merged_row = next(r for r in rows if r.merged == 2)
        assert set(merged_row.family) == {
            "heisenberg(1)+heisenberg(1)",
            "ring(2,primed)",
        }
        assert merged_row.types == ((2, 4, 1), (2, 4, 2))

    def test_heisenberg_type_rows(self):
        rows = classify(5)
        h_families = {f for r in rows if r.heisenberg for f in r.family}
        assert h_families == {
            "heisenberg(1)",
            "heisenberg(2)",
            "ring(2)",
            "quaternionic",
        }

    def test_representatives_are_uniform(self):
        for row in classify(5):
            rep = validate_uniform(to_graph(row.representative))
            assert rep.is_uniform
            assert (rep.p, rep.q, rep.r) in row.types
            assert rep.s == row.s

    def test_certificates_cover_all_pairs(self):
        rows, splits, open_blocks = classify_detailed(5)
        assert open_blocks == []
        cases = [r.case for r in rows]
        parted = parted_pairs(splits)
        assert set(parted) == set(itertools.combinations(cases, 2))
        # the pairs each kind separates, as the pairwise certificates counted
        assert Counter(parted.values()) == {
            "dimensions": 63, "derivation-dimension": 1, "nonsingular": 2}

    def test_certificate_kinds(self):
        _, splits, _ = classify_detailed(5)
        assert splits == [
            Split("dimensions", ((1,), (2,), (3,), (4, 5), (6, 7), (8,), (9,),
                                 (10, 11), (12,)),
                  ((1, 2), (3, 3), (1, 4), (2, 4), (3, 4), (4, 4), (6, 4),
                   (5, 5), (10, 5))),
            Split("derivation-dimension", ((10,), (11,)), (30, 26)),
            Split("nonsingular", ((4,), (5,)), (False, True)),
            Split("nonsingular", ((6,), (7,)), (True, False)),
        ]

    def test_deterministic(self):
        assert classify(5) == classify(5)

    def test_candidates_are_not_signed_perm_isomorphic(self):
        # classify_detailed does not search signed permutations between
        # candidates; this is the pairwise merge it would have run
        cands = classification._candidates(5, DEFAULT_SEARCH_BUDGET)
        tried = 0
        for ca, cb in itertools.combinations(cands, 2):
            if (ca.p, ca.q) == (cb.p, cb.q):
                tried += 1
                assert signed_perm_isomorphic(ca, cb) is None
        assert tried > 0

    def test_each_named_presentation_lies_in_one_candidate(self):
        # classify_detailed stops at the first candidate a name reaches;
        # no later candidate may be reached as well
        cands = classification._candidates(5, DEFAULT_SEARCH_BUDGET)
        known = known_presentations()
        assert len(known) == 13
        located = {}
        for kp in known:
            hits = []
            for idx, cand in enumerate(cands):
                if (cand.p, cand.q) == (kp.tensor.p, kp.tensor.q):
                    w = signed_perm_isomorphic(kp.tensor, cand)
                    if w is not None:
                        hits.append((idx, w))
            assert len(hits) == 1, kp.name
            located[kp.name] = hits[0]
        anchors = classification._gl_anchors()
        assert [(a, b) for a, b, _ in anchors] == [
            ("ring(2,primed)", "heisenberg(1)+heisenberg(1)")]
        for src, dst, glw in anchors:
            (ia, wa), (ib, wb) = located[src], located[dst]
            assert ia != ib
            full = compose_witnesses(wb, compose_witnesses(glw, invert_witness(wa)))
            assert check_witness(cands[ia], cands[ib], full).ok
        rows = classify(5)
        assert [name for row in rows for name in row.family] == [
            kp.name for kp in sorted(known, key=lambda kp: next(
                row.case for row in rows if kp.name in row.family))]

    def test_identity_skip_only_passes_over_failing_searches(self):
        # classify_detailed's lookup skips a candidate whose square-norm
        # identity differs from the named presentation's; a signed
        # permutation preserves the identity, so no skipped pair has a witness
        cands = classification._candidates(6, DEFAULT_SEARCH_BUDGET)
        skipped = [(kp.name, idx) for kp in known_presentations()
                   for idx, cand in enumerate(cands)
                   if (cand.p, cand.q) == (kp.tensor.p, kp.tensor.q)
                   and _heisenberg_identity(cand) != _heisenberg_identity(kp.tensor)]
        # the three (2, 4) candidates: ring(2) has the identity and the other
        # two lack it; quaternionic and its associate differ in it
        assert sorted(name for name, _ in skipped) == [
            "heisenberg(1)+heisenberg(1)", "quaternionic", "quaternionic-associate",
            "ring(2)", "ring(2)", "ring(2,primed)"]
        known = {kp.name: kp.tensor for kp in known_presentations()}
        for name, idx in skipped:
            assert signed_perm_isomorphic(known[name], cands[idx]) is None, (name, idx)

    @pytest.mark.slow
    def test_six_generators_hits_open_pair(self):
        rows, splits, open_blocks = classify_detailed(6)
        assert len(rows) == 92
        assert rows[:12] == classify(5)
        assert len(splits) == 8
        assert sorted(len(b.cases) for b in open_blocks) == [
            2, 2, 2, 2, 3, 3, 3, 3, 6, 8, 15, 23]
        assert sum(math.comb(len(b.cases), 2) for b in open_blocks) == 417
        assert Counter(dict(b.shared)["dimensions"] for b in open_blocks) == {
            (3, 6): 4, (4, 6): 1, (5, 6): 1, (6, 6): 6}
        for block in open_blocks:
            shared = dict(block.shared)
            for case in block.cases:
                row = rows[case - 1]
                t = row.representative
                assert (t.p, t.q) == shared["dimensions"]
                assert row.heisenberg is shared["nonsingular"] is False
            # the members really are different sign classes
            first = rows[block.cases[0] - 1].representative
            assert signed_perm_isomorphic(
                first, rows[block.cases[1] - 1].representative) is None

    def test_budget_enforced(self):
        with pytest.raises(BudgetExceededError):
            classify(5, budget=50)

    def test_default_budget_is_the_search_budget(self):
        for f in (classify, classify_detailed, regular_graphs, uniform_colorings,
                  one_factorizations, near_one_factorizations, sign_class_report):
            budget = inspect.signature(f).parameters["budget"].default
            assert budget == DEFAULT_SEARCH_BUDGET, f.__name__
        assert not hasattr(enumeration, "DEFAULT_ENUM_BUDGET")

    def test_derivation_dim_once_per_class(self, monkeypatch):
        seen = []
        real = classification.derivation_dim

        def counted(t):
            seen.append(t)
            return real(t)

        monkeypatch.setattr(classification, "derivation_dim", counted)
        classify_detailed(5)
        assert len(seen) == len(set(seen)) == 6
        seen.clear()
        classify_detailed(6)
        assert len(seen) == len(set(seen)) == 82


def _invariants(*names):
    known = {kp.name: kp.tensor for kp in known_presentations()}
    return Invariants(tuple(known[n] for n in names))


def singular_direction(t):
    """The first of the central directions e_k, then e_k - e_l and e_k + e_l
    for k < l, whose J map has rank below q, or None: the exact decision of
    `Invariants.nonsingular` checked against a search."""
    basis = [tuple(int(i == k) for i in range(t.p)) for k in range(t.p)]
    pairs = [tuple(x + sign * y for x, y in zip(basis[k], basis[l]))
             for sign in (-1, 1) for k, l in itertools.combinations(range(t.p), 2)]
    return next((c for c in basis + pairs if exact.rank(j_map(t, c).rows) < t.q),
                None)


@functools.cache
def oracle_nonsingular(a):
    """True with the square-norm identity, False with a small singular
    central direction on some presentation, None when neither is found or
    a presentation is not uniform."""
    if a.heisenberg is not False:
        return a.heisenberg
    return False if any(map(singular_direction, a.presentations)) else None


def oracle_distinguish(a, b):
    """Pairwise reason that two algebras are non-isomorphic, or None: the
    first of (p, q), the derivation algebra dimension, and the square-norm
    identity on one side against a singular central direction on the other,
    from the searched oracle."""
    ta, tb = a.presentations[0], b.presentations[0]
    if (ta.p, ta.q) != (tb.p, tb.q):
        return ("dimensions", (ta.p, ta.q), (tb.p, tb.q))
    if a.derivation_dim != b.derivation_dim:
        return ("derivation-dimension", a.derivation_dim, b.derivation_dim)
    na, nb = oracle_nonsingular(a), oracle_nonsingular(b)
    if None in (na, nb) or na == nb:
        return None
    return ("nonsingular", na, nb)


def parted_pairs(splits):
    """(a, b) with a < b -> the kind of the split that put them apart."""
    parted = {}
    for split in splits:
        for i, j in itertools.combinations(range(len(split.parts)), 2):
            for a, b in itertools.product(split.parts[i], split.parts[j]):
                assert (min(a, b), max(a, b)) not in parted
                parted[min(a, b), max(a, b)] = split.invariant
    return parted


def only_split(a, b):
    """The split that refine makes on two algebras, or None."""
    blocks, splits = refine([a, b])
    assert len(blocks) == 1 + len(splits) and len(splits) <= 1
    return splits[0] if splits else None


class TestDistinguish:
    """How `refine` tells two or more classes apart, and when it cannot."""

    def test_dimension_split(self):
        a, b = _invariants("heisenberg(1)"), _invariants("heisenberg(2)")
        assert only_split(a, b) == Split("dimensions", ((1,), (2,)), ((1, 2), (1, 4)))
        assert only_split(b, a) == Split("dimensions", ((1,), (2,)), ((1, 4), (1, 2)))

    def test_derivation_dimension(self):
        a, b = _invariants("cyclic(5)"), _invariants("k5-near-factorization")
        assert only_split(a, b) == Split("derivation-dimension", ((1,), (2,)), (30, 26))

    def test_central_direction(self):
        a, b = _invariants("quaternionic"), _invariants("quaternionic-associate")
        assert only_split(a, b) == Split("nonsingular", ((1,), (2,)), (True, False))
        assert only_split(b, a) == Split("nonsingular", ((1,), (2,)), (False, True))

    def test_central_direction_from_some_presentation(self):
        # the merged (2, 4) class: r = 1 on one presentation, 2r = q = 4
        # without the identity on the other; either decides
        ring = _invariants("ring(2)")
        for names in (("heisenberg(1)+heisenberg(1)", "ring(2,primed)"),
                      ("ring(2,primed)", "heisenberg(1)+heisenberg(1)")):
            assert only_split(_invariants(*names), ring).values == (False, True)
        for name in ("heisenberg(1)+heisenberg(1)", "ring(2,primed)"):
            assert _invariants(name).nonsingular is False

    def test_member_without_direction_keeps_the_block_whole(self):
        # a (2, 4) record whose value is undecided: it may be isomorphic to
        # a member on either side, so no value parts the block
        ring = _invariants("ring(2)")
        merged = _invariants("heisenberg(1)+heisenberg(1)", "ring(2,primed)")
        blind = _invariants("ring(2,primed)")
        vars(blind)["nonsingular"] = None
        assert [s.invariant for s in refine([ring, merged])[1]] == ["nonsingular"]
        for classes in ([ring, blind], [ring, merged, blind]):
            blocks, splits = refine(classes)
            assert [b.cases for b in blocks] == [tuple(range(1, len(classes) + 1))]
            assert blocks[0].shared == (("dimensions", (2, 4)), ("derivation_dim", 16))
            assert splits == []

    def test_isomorphic_presentations_are_undetermined(self):
        a = _invariants("heisenberg(1)+heisenberg(1)")
        b = _invariants("ring(2,primed)")
        assert only_split(a, b) is None
        assert refine([a, b])[0][0].shared == (
            ("dimensions", (2, 4)), ("derivation_dim", 16), ("nonsingular", False))

    def test_non_uniform_pair_is_undetermined(self):
        # same shape and derivation dimension; the square-norm flag is None
        a = StructureTensor.from_entries(3, 2, [(1, 2, 2, 1), (1, 3, 2, -1),
                                                (2, 3, 1, 1)])
        b = StructureTensor.from_entries(3, 2, [(1, 2, 1, 1), (2, 3, 2, 1)])
        assert derivation_dim(a) == derivation_dim(b)
        assert only_split(Invariants((a,)), Invariants((b,))) is None

    def test_one_unknown_flag_leaves_the_last_step_out(self):
        # ring(2) satisfies the square-norm identity; b is not uniform but
        # has the same shape and derivation dimension and a singular
        # central direction, which alone is no certificate: the value is
        # undefined off uniform presentations
        ring = _invariants("ring(2)")
        b = Invariants((StructureTensor.from_entries(4, 2, [
            (1, 2, 1, 1), (1, 3, 1, 1), (2, 4, 2, 1)]),))
        assert ring.heisenberg is True and b.heisenberg is None
        assert b.derivation_dim == ring.derivation_dim == 16
        assert b.nonsingular is None
        assert singular_direction(b.presentations[0]) == (1, 0)
        assert only_split(ring, b) is None
        assert only_split(b, ring) is None

    def test_single_class_is_one_block(self):
        a = _invariants("free(3)")
        assert refine([a]) == ([classification.Block((1,), ())], [])
        assert "derivation_dim" not in vars(a)

    def test_flag_is_the_square_norm_identity(self):
        flags = []
        for t in classification._candidates(5, DEFAULT_SEARCH_BUDGET):
            flags.append(Invariants((t,)).heisenberg)
            assert flags[-1] == is_heisenberg_type(t), t
        assert True in flags and False in flags

    def test_flag_is_none_unless_every_presentation_is_uniform(self):
        bad = StructureTensor.from_entries(3, 2, [(1, 2, 1, 1), (2, 3, 2, 1)])
        good = from_graph(heisenberg(1))
        assert not validate_uniform(to_graph(bad)).is_uniform
        assert Invariants((bad,)).heisenberg is None
        assert Invariants((good, bad)).heisenberg is None
        assert Invariants((bad, good)).heisenberg is None
        assert Invariants((good,)).heisenberg is True

    def test_invariants_are_computed_once(self, monkeypatch):
        calls = []
        for module, name in ((classification, "derivation_dim"),
                             (algebra, "_heisenberg_identity")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda t, real=real: calls.append(t) or real(t))
        a, b = _invariants("quaternionic"), _invariants("quaternionic-associate")
        first = only_split(a, b)
        assert only_split(a, b) == first
        assert only_split(b, a).values == first.values[::-1]
        # a derivation dimension and a square-norm test per side
        assert calls == [a.presentations[0], b.presentations[0],
                         a.presentations[0], b.presentations[0]]
        assert (vars(a)["nonsingular"], vars(b)["nonsingular"]) == (True, False)

    def test_agrees_with_the_pairwise_oracle_up_to_six_generators(self, monkeypatch):
        # the records that classify_detailed hands to refine
        seen = []
        real = classification.refine
        monkeypatch.setattr(classification, "refine",
                            lambda classes: seen.append(classes) or real(classes))
        classify_detailed(6)
        (classes,) = seen
        blocks, splits = real(classes)
        block_of = {c: n for n, b in enumerate(blocks) for c in b.cases}
        parted_by = parted_pairs(splits)
        pairs = list(itertools.combinations(range(1, len(classes) + 1), 2))
        assert len(pairs) == 4186
        open_pairs = 0
        for a, b in pairs:
            cert = oracle_distinguish(classes[a - 1], classes[b - 1])
            if cert is None:
                assert block_of[a] == block_of[b], (a, b)
                open_pairs += 1
            else:
                assert parted_by[a, b] == cert[0], (a, b)
        assert open_pairs == len(pairs) - len(parted_by) == 417

    def test_nonsingular_matches_the_direction_search_up_to_six_generators(self):
        values = Counter()
        for t in classification._candidates(6, DEFAULT_SEARCH_BUDGET):
            a = Invariants((t,))
            assert a.nonsingular is oracle_nonsingular(a), t
            assert a.nonsingular is (singular_direction(t) is None), t
            assert a.nonsingular is is_heisenberg_type(t), t
            values[a.nonsingular] += 1
        assert values == {False: 88, True: 5}

    @pytest.mark.slow
    def test_seven_generators_are_all_singular(self):
        cands = [t for t in classification._candidates(7, DEFAULT_SEARCH_BUDGET)
                 if t.q == 7]
        assert len(cands) == 1687
        assert {Invariants((t,)).nonsingular for t in cands} == {False}

    def test_eight_generators_leave_perfect_matchings_open(self):
        assert Invariants((from_graph(heisenberg(4)),)).nonsingular is True
        for primed in (False, True):
            t = from_graph(ring_algebra(4, primed=primed))
            rep = validate_uniform(to_graph(t))
            assert (rep.is_uniform, rep.q, 2 * rep.r) == (True, 8, 8)
            assert Invariants((t,)).nonsingular is None
        # a singular direction exists on the primed one, but no rule reaches it
        assert singular_direction(from_graph(ring_algebra(4, primed=True))) == (1, -1)
