"""Classification of uniform algebras up to isomorphism, at desk scale.

Candidates are the sign classes of every uniform coloring of every regular
graph from the census; named reference presentations locate the known
families among them, stored general-linear identifications merge candidates
after check_witness re-verifies them, and sound invariants certify every
remaining pair distinct.  Everything is exact and deterministic; searches
take explicit budgets and raise BudgetExceededError instead of degrading.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from . import exact
from .algebra import (GeneralLinearWitness, SignedPermWitness, StructureTensor,
                      _heisenberg_identity, check_witness, compose_witnesses,
                      derivation_dim, from_graph, invert_witness, j_map,
                      sign_class_report, signed_perm_isomorphic, to_graph)
from .enumeration import regular_graphs, uniform_colorings
from .families import (cyclic, free_two_step, heisenberg, quaternionic,
                       ring_algebra)
from .graphs import DEFAULT_SEARCH_BUDGET, UniformityReport, validate_uniform
from .record import Record


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
