"""Classification of uniform algebras up to isomorphism, at desk scale.

Candidates are the sign classes of every uniform coloring of every regular
graph from the census; named reference presentations locate the known
families among them, stored general-linear identifications merge candidates
after check_witness re-verifies them, and sound invariants, each decided
exactly with no search, split the rest into blocks, reporting each block of
more than one class as open.  Exact and deterministic throughout; searches
take explicit budgets and raise BudgetExceededError instead of degrading.
"""

from __future__ import annotations

from functools import cached_property

from . import exact
from .algebra import (GeneralLinearWitness, SignedPermWitness, StructureTensor,
                      _heisenberg_identity, check_witness, compose_witnesses,
                      derivation_dim, from_graph, invert_witness,
                      sign_class_report, signed_perm_isomorphic, to_graph)
from .enumeration import regular_graphs, uniform_colorings
from .families import (cyclic, free_two_step, heisenberg, quaternionic,
                       ring_algebra)
from .graphs import (DEFAULT_SEARCH_BUDGET, UniformityReport, _find,
                     validate_uniform)
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
    return t1, t2, GeneralLinearWitness(m, t1.q, t1.p)


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


def _candidates(q_max: int, budget: int) -> list[StructureTensor]:
    """One representative per sign class of each uniform coloring of each
    regular graph on at most q_max vertices."""
    return [sc.representative
            for g in regular_graphs(q_max, budget)
            for coloring in uniform_colorings(g, budget)
            for sc in sign_class_report(coloring, budget).classes]


class Invariants(Record):
    """The facts about one algebra, given by one or more presentations, that
    refine reads; each is computed on first use and kept."""

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

    @property
    def dimensions(self) -> tuple[int, int]:
        return (self.presentations[0].p, self.presentations[0].q)

    @cached_property
    def derivation_dim(self) -> int:
        return derivation_dim(self.presentations[0])

    @cached_property
    def nonsingular(self) -> bool | None:
        """Whether J(c) is invertible for every real c != 0, decided without
        search; None when a presentation is not uniform, and in the one case
        the rules below leave open.

        J(c) is the matrix of the form c.[x, y] on V = n/[n, n], and since a
        uniform coloring uses every color, c runs over every nonzero
        functional on [n, n].  So the answer is an isomorphism invariant, and
        any one presentation may decide it:
        - True when the square-norm identity holds: J(c)^2 = -|c|^2.
        - False when 2r < q: J(z_k) kills each generator that color k
          misses.  This covers every odd q.
        - False when 2r = q = 2 (mod 4): p = 1 would satisfy the identity,
          so p >= 2, and the Pfaffian of J(c), homogeneous of odd degree
          q/2, has opposite signs at c and -c, which a path avoiding 0
          joins; so it has a real zero, where det J(c) = Pf^2 vanishes.
        - False when 2r = q = 4: J_k and J_l are signed perfect matchings of
          four generators with det(J_k J_l) = 1, which forces them to
          commute or to anticommute.  Without the identity some pair
          commutes, and then (J_k + J_l)(J_k - J_l) = J_k^2 - J_l^2 = 0
          makes J(z_k + z_l) or J(z_k - z_l) singular.
        Open: q >= 8 with q = 0 (mod 4), every color a perfect matching and
        no identity."""
        if self.heisenberg is not False:
            return self.heisenberg
        if any(rep.q % 4 or rep.q == 4 or 2 * rep.r < rep.q for rep in self.reports):
            return False
        return None


class Split(Record):
    """A block of classes that one invariant divides into parts."""
    invariant: str                       # "dimensions" | "derivation-dimension" | "nonsingular"
    parts: tuple[tuple[int, ...], ...]   # the case ids in each part
    values: tuple                        # the invariant on each part, JSON-native


class Block(Record):
    """Classes that no step of refine tells apart."""
    cases: tuple[int, ...]
    shared: tuple[tuple[str, object], ...]   # (Invariants field, value) in step order


def refine(classes: list[Invariants]) -> tuple[list[Block], list[Split]]:
    """Blocks of algebras with equal invariants, and the splits that part
    them; classes[i] has case id i + 1.

    All classes are split by (p, q), then each block of more than one class
    by derivation dimension, then by whether J(c) is invertible for every
    real c != 0.  A block whose members take several values, one of them
    None (undecided), stays whole: an undecided member may be isomorphic to
    any other.  Facts are computed only for members of blocks of more than
    one class."""
    blocks, splits = [Block(tuple(range(1, len(classes) + 1)), ())], []
    # each step: (split kind, the Invariants field that keys the parts)
    for kind, field in (("dimensions", "dimensions"),
                        ("derivation-dimension", "derivation_dim"),
                        ("nonsingular", "nonsingular")):
        refined = []
        for block in blocks:
            if len(block.cases) == 1:
                refined.append(block)
                continue
            parts: dict = {}
            for case in block.cases:
                parts.setdefault(getattr(classes[case - 1], field), []).append(case)
            if len(parts) > 1:
                if None in parts:
                    refined.append(block)
                    continue
                splits.append(Split(kind, tuple(map(tuple, parts.values())), tuple(parts)))
            refined += [Block(tuple(cases), block.shared + ((field, key),))
                        for key, cases in parts.items()]
        blocks = refined
    return blocks, splits


def classify_detailed(q_max: int = 5, budget: int = DEFAULT_SEARCH_BUDGET
                      ) -> tuple[list[ClassificationRow], list[Split], list[Block]]:
    """Classification rows, the splits of refine that certify rows in
    different blocks distinct, and the open blocks: blocks of more than one
    row that no verified witness merges and no invariant splits."""
    cands = _candidates(q_max, budget)
    parent = list(range(len(cands)))
    # No two candidates are signed-permutation isomorphic: such a witness
    # induces an equivalence of the underlying colorings, and candidates come
    # from inequivalent colorings or from distinct sign classes of one
    # coloring.  So each named presentation lies in at most one candidate:
    # located[name] = (candidate index, signed witness name -> candidate).
    # A signed permutation is orthogonal on V and on Z, so it preserves the
    # square-norm identity J_z^2 = -|z|^2: a candidate that differs from the
    # presentation there is passed over without a search.
    located: dict[str, tuple[int, SignedPermWitness]] = {}
    identity: dict[int, bool] = {}   # candidate index -> its identity, on first use
    for kp in known_presentations():
        want = _heisenberg_identity(kp.tensor)
        for idx, cand in enumerate(cands):
            if (cand.p, cand.q) != (kp.tensor.p, kp.tensor.q):
                continue
            if idx not in identity:
                identity[idx] = _heisenberg_identity(cand)
            if identity[idx] != want:
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
        if _find(parent, ia) == _find(parent, ib):
            continue
        full = compose_witnesses(wb, compose_witnesses(glw, invert_witness(wa)))
        res = check_witness(cands[ia], cands[ib], full)
        if not res.ok:
            raise AssertionError("stored identification failed verification")
        parent[_find(parent, ib)] = _find(parent, ia)

    groups: dict[int, list[int]] = {}
    for i in range(len(cands)):
        groups.setdefault(_find(parent, i), []).append(i)
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
    blocks, splits = refine([inv for inv, _ in classes])
    return rows, splits, [b for b in blocks if len(b.cases) > 1]


def count_line(rows: list[ClassificationRow], open_blocks: list[Block],
               q_max: int) -> str:
    """How many isomorphism classes the rows of classify_detailed are, as the
    first line of a report.  Rows in different blocks are certified
    distinct, and an open block holds at least one class and at most one per
    row, so with open blocks the count is the range from
    rows - sum(block sizes) + blocks to rows."""
    if not open_blocks:
        return (f"{len(rows)} isomorphism class{'' if len(rows) == 1 else 'es'} "
                f"with q <= {q_max}")
    n = len(open_blocks)
    low = len(rows) - sum(len(b.cases) for b in open_blocks) + n
    return (f"{len(rows)} rows: {low} to {len(rows)} isomorphism classes, "
            f"{n} block{'s' if n > 1 else ''} open")


def classify(q_max: int = 5, budget: int = DEFAULT_SEARCH_BUDGET) -> list[ClassificationRow]:
    """Isomorphism classes of uniform algebras with at most q_max generators;
    rows in one open block of classify_detailed are not certified distinct."""
    return classify_detailed(q_max, budget)[0]
