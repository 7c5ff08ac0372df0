"""Constructive families: every builder yields a uniform coloring of the stated type."""

import inspect
import itertools
from itertools import combinations

import pytest

from unilie.algebra import from_graph
from unilie.analysis import is_heisenberg_type
from unilie.constructions import (
    FiniteGroup,
    cayley,
    cyclic_group,
    dihedral_bipartite,
    dihedral_group,
    elementary_abelian_group,
    from_factorization,
    symmetric_group,
    trivial_coloring,
)
from unilie.families import (
    check_parameters,
    cyclic,
    free_two_step,
    heisenberg,
    kneser,
    quaternionic,
    ring_algebra,
    vertex_count,
)
from unilie.graphs import ColoredDigraph, SimpleGraph, colorings_equivalent, validate_uniform


def uniform_type(g):
    rep = validate_uniform(g)
    assert rep.is_uniform, rep.violations
    return (rep.p, rep.q, rep.r, rep.s)


class TestHeisenberg:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_type(self, n):
        assert uniform_type(heisenberg(n)) == (1, 2 * n, n, 1)

    def test_is_perfect_matching(self):
        g = heisenberg(3)
        assert all(g.degree(v) == 1 for v in range(1, 7))


class TestFreeTwoStep:
    @pytest.mark.parametrize("n", range(2, 6))
    def test_type(self, n):
        assert uniform_type(free_two_step(n)) == (n * (n - 1) // 2, n, 1, n - 1)

    def test_every_edge_its_own_color(self):
        g = free_two_step(4)
        colors = [k for _, _, k in g.sorted_arcs()]
        assert sorted(colors) == list(range(1, 7))

    def test_support_is_complete(self):
        g = free_two_step(5)
        assert len(g.undirected_edges()) == 10


class TestRing:
    @pytest.mark.parametrize("r", range(2, 6))
    def test_type(self, r):
        assert uniform_type(ring_algebra(r)) == (2, 2 * r, r, 2)
        assert uniform_type(ring_algebra(r, primed=True)) == (2, 2 * r, r, 2)

    def test_primed_differs_only_in_orientation(self):
        plain, primed = ring_algebra(3), ring_algebra(3, primed=True)
        assert plain.undirected_edges() == primed.undirected_edges()
        assert plain.arcs != primed.arcs

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            ring_algebra(1)


class TestQuaternionic:
    def test_types(self):
        assert uniform_type(quaternionic()) == (3, 4, 2, 3)
        assert uniform_type(quaternionic(associate=True)) == (3, 4, 2, 3)

    def test_same_support_different_signs(self):
        plain, assoc = quaternionic(), quaternionic(associate=True)
        assert plain.undirected_edges() == assoc.undirected_edges()
        assert is_heisenberg_type(from_graph(plain))
        assert not is_heisenberg_type(from_graph(assoc))


class TestCyclic:
    @pytest.mark.parametrize("q", range(3, 9))
    def test_type(self, q):
        assert uniform_type(cyclic(q)) == (q, q, 1, 2)

    def test_triangle_matches_free(self):
        assert colorings_equivalent(cyclic(3), free_two_step(3)) is not None

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            cyclic(2)


class TestKneser:
    @pytest.mark.parametrize(
        "n,m,expected",
        [
            ((3), 1, (3, 3, 1, 2)),
            ((4), 1, (6, 4, 1, 3)),
            ((5), 1, (10, 5, 1, 4)),
            ((5), 2, (5, 10, 3, 3)),
            # n < 3m is allowed: any n >= 2m + 1 gives a uniform coloring
            ((7), 3, (7, 35, 10, 4)),
            ((8), 3, (28, 56, 10, 10)),
        ],
    )
    def test_types(self, n, m, expected):
        assert uniform_type(kneser(n, m)) == expected

    def test_m_one_is_complete_graph(self):
        assert colorings_equivalent(kneser(4, 1), free_two_step(4)) is not None

    def test_petersen_support(self):
        g = kneser(5, 2)
        degs = g.support().degrees()
        assert degs == (3,) * 10

    def test_rejects_touching_subsets(self):
        with pytest.raises(ValueError):
            kneser(4, 2)

    @pytest.mark.parametrize("n,m", [(n, m) for n in range(3, 10)
                                     for m in range(1, (n - 1) // 2 + 1)])
    def test_matches_complement_lookup(self, n, m):
        assert kneser(n, m) == oracle_kneser(n, m)


def oracle_kneser(n, m):
    """Kneser graph with each edge colored by looking up the complement of
    its union in the colex-sorted list of (n - 2m)-subsets."""
    universe = range(1, n + 1)
    verts = sorted(itertools.combinations(universe, m), key=lambda s: s[::-1])
    vidx = {s: i for i, s in enumerate(verts, start=1)}
    colors = sorted(itertools.combinations(universe, n - 2 * m), key=lambda s: s[::-1])
    cidx = {s: k for k, s in enumerate(colors, start=1)}
    arcs = []
    for a, b in itertools.combinations(verts, 2):
        if set(a) & set(b):
            continue
        rest = tuple(sorted(set(universe) - set(a) - set(b)))
        i, j = vidx[a], vidx[b]
        if i > j:
            i, j = j, i
        arcs.append((i, j, cidx[rest]))
    return ColoredDigraph.from_arcs(len(verts), len(colors), arcs)


class TestGroups:
    def test_cyclic_group(self):
        g = cyclic_group(6)
        assert g.order == 6
        assert g.mul(4, 5) == 3
        assert g.inv(2) == 4
        assert g.involutions() == [3]

    def test_elementary_abelian(self):
        g = elementary_abelian_group(2)
        assert g.order == 4
        assert g.mul(1, 2) == 3
        assert g.involutions() == [1, 2, 3]
        assert all(g.inv(a) == a for a in range(4))

    def test_dihedral(self):
        g = dihedral_group(5)
        assert g.order == 10
        assert sorted(g.involutions()) == list(range(5, 10))
        r, s = 1, 5
        assert g.mul(s, g.mul(r, s)) == g.inv(r)

    def test_symmetric(self):
        g = symmetric_group(3)
        assert g.order == 6
        assert len(g.involutions()) == 3
        assert symmetric_group(4).order == 24

    def test_rejects_non_associative(self):
        # swap two entries of the Klein table to break associativity
        table = [
            [0, 1, 2, 3],
            [1, 0, 3, 2],
            [2, 3, 0, 1],
            [3, 2, 1, 0],
        ]
        table[2][3], table[3][2] = 0, 0
        with pytest.raises(ValueError):
            FiniteGroup(4, tuple(tuple(r) for r in table), "broken")

    def test_rejects_bad_identity(self):
        with pytest.raises(ValueError):
            FiniteGroup(2, ((1, 0), (0, 1)), "shifted")


class TestCayley:
    def test_klein_four(self):
        # each involution contributes a perfect matching of K4
        g4 = elementary_abelian_group(2)
        g = cayley(g4, g4.involutions())
        assert uniform_type(g) == (3, 4, 2, 3)

    def test_symmetric_three_matches_bipartite(self):
        s3 = symmetric_group(3)
        g = cayley(s3, s3.involutions())
        assert uniform_type(g) == (3, 6, 3, 3)
        assert colorings_equivalent(g, dihedral_bipartite(3)) is not None

    def test_subset_of_generators(self):
        g4 = elementary_abelian_group(2)
        g = cayley(g4, [1, 2])
        assert uniform_type(g) == (2, 4, 2, 2)

    def test_rejects_non_involution(self):
        with pytest.raises(ValueError):
            cayley(cyclic_group(4), [1])

    def test_rejects_duplicates(self):
        g4 = elementary_abelian_group(2)
        with pytest.raises(ValueError):
            cayley(g4, [1, 1])


class TestDihedralBipartite:
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_type(self, p):
        assert uniform_type(dihedral_bipartite(p)) == (p, 2 * p, p, p)

    def test_support_is_complete_bipartite(self):
        g = dihedral_bipartite(3)
        for i, j in g.undirected_edges():
            assert (i <= 3) != (j <= 3)
        assert len(g.undirected_edges()) == 9

    def test_rejects_even(self):
        with pytest.raises(ValueError):
            dihedral_bipartite(4)


class TestSizing:
    """`vertex_count` sizes a family without building it, and
    `check_parameters` refuses exactly what the builder refuses."""

    @pytest.mark.parametrize("builder,name", [
        (heisenberg, "heisenberg"), (free_two_step, "free"), (ring_algebra, "ring"),
        (quaternionic, "quaternionic"), (cyclic, "cyclic"), (kneser, "kneser"),
        (dihedral_bipartite, "dihedral-bipartite")], ids=lambda b: getattr(b, "__name__", ""))
    def test_count_and_check_agree_with_the_builder(self, builder, name):
        # the builder's parameters without a default; a variant flag has one
        arity = sum(p.default is p.empty for p in inspect.signature(builder).parameters.values())
        for params in itertools.product(range(-1, 10), repeat=arity):
            try:
                g = builder(*params)
            except ValueError as exc:
                with pytest.raises(ValueError) as refused:
                    check_parameters(name, *params)
                assert str(refused.value) == str(exc)
                with pytest.raises(ValueError):
                    vertex_count(name, *params)
                continue
            check_parameters(name, *params)
            assert vertex_count(name, *params) == g.q
            assert all(x <= g.q for x in params)


class TestFactorizationInput:
    def test_round_trip_coloring(self):
        k4 = SimpleGraph.from_edges(4, combinations(range(1, 5), 2))
        factors = [
            [(1, 2), (3, 4)],
            [(1, 3), (2, 4)],
            [(1, 4), (2, 3)],
        ]
        g = from_factorization(k4, factors)
        assert uniform_type(g) == (3, 4, 2, 3)

    def test_rejects_non_partition(self):
        k4 = SimpleGraph.from_edges(4, combinations(range(1, 5), 2))
        with pytest.raises(ValueError):
            from_factorization(k4, [[(1, 2)], [(1, 2), (3, 4)]])

    def test_rejects_foreign_edge(self):
        path = SimpleGraph.from_edges(3, [(1, 2), (2, 3)])
        with pytest.raises(ValueError):
            from_factorization(path, [[(1, 3)], [(1, 2), (2, 3)]])

    def test_trivial_coloring_gives_each_edge_a_color(self):
        path = SimpleGraph.from_edges(3, [(1, 2), (2, 3)])
        g = trivial_coloring(path)
        assert g.p == 2
        assert g.sorted_arcs() == [(1, 2, 1), (2, 3, 2)]
        assert not validate_uniform(g).is_uniform

    def test_trivial_coloring_of_complete_graph_is_free(self):
        k4 = SimpleGraph.from_edges(4, combinations(range(1, 5), 2))
        g = trivial_coloring(k4)
        assert colorings_equivalent(g, free_two_step(4)) is not None
