"""One- and near-one-factorizations of complete graphs, counted and
classified up to equivalence.

The partitions of E(K_n) come from the census's matching search and their
classes from the graph layer's orbit walk; this module holds only what
`factorize` runs, so the census compiles none of it.
"""

from __future__ import annotations

import itertools

from .enumeration import _edge_moves, _labels_to_coloring, _matching_partitions
from .graphs import ColoredDigraph, DEFAULT_SEARCH_BUDGET, SimpleGraph, _orbits
from .record import Record


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
    labeled member, which represents the class, and the labeled count is
    the sum of the orbit sizes."""
    g = _complete_graph(n)
    edges = g.sorted_edges()
    moves = _edge_moves(edges, ((2, 1, *range(3, n + 1)), (*range(2, n + 1), 1)))
    labeled, classes = 0, []
    for labels, tree in _orbits(_matching_partitions(edges, p, r, budget), moves, budget):
        labeled += len(tree)
        classes.append(_labels_to_coloring(g, labels))
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
