"""Two-step nilpotent Lie algebras presented by structure tensors.

A StructureTensor fixes a basis v1..vq (generators) and z1..zp (center) with
[v_i, z_k] = [z_k, z_l] = 0 and every [v_i, v_j] equal to 0 or a single signed
center vector +-z_k.  Such a tensor is exactly the data of a colored digraph:
the arc (i, j, k) corresponds to [v_i, v_j] = z_k, and tensors whose clean
uniformity report passes correspond to uniformly colored digraphs.

Conventions used throughout:

* coordinates are ordered v1..vq, z1..zp; matrices act on coordinate columns,
  so entry (row a, col b) is the coefficient of basis vector a in the image
  of basis vector b;
* the map J_z on the generator space is defined against the basis inner
  product that makes v1..vq, z1..zp orthonormal; its matrix has entry (j, i)
  equal to the coefficient of v_j in J_z(v_i), which makes J_{z_k} the
  transpose (equivalently the negative) of the skew adjacency of color k.

A sign pattern over the support is one GF(2) word: the sorted entries from
the top bit down, each bit set for a sign -1.  Diagonal orbits are indexed
by their reduced words, and a witness reads its signs off the least
solution of its sign system.  The sign path works over GF(2) and on vertex
and color maps alone; what needs a matrix or a rational is in `linear`, and
only SignedPermWitness.to_matrix imports `exact`, inside the call.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from .gf2 import gf2_echelon, gf2_reduce, gf2_solve_min
from .graphs import (BudgetExceededError, ColoredDigraph, ColorPermAutomorphism,
                     DEFAULT_SEARCH_BUDGET, _mapping_search, _orbits,
                     disjoint_union, validate_uniform)
from .record import Record


class StructureTensor(Record):
    """Bracket data: entries (i, j, k, sign) with i < j mean [v_i, v_j] = sign * z_k.

    All indices are 1-based.  Each generator pair carries at most one entry,
    mirroring the one-arc-per-pair rule for colored digraphs.  The one view
    of the brackets in both orders is `brackets`, built once per tensor.
    """

    q: int
    p: int
    entries: frozenset[tuple[int, int, int, int]]

    def __post_init__(self):
        if self.q < 1 or self.p < 1:
            raise ValueError("need q >= 1 generators and p >= 1 center directions")
        seen = set()
        for (i, j, k, s) in self.entries:
            if not (1 <= i < j <= self.q):
                raise ValueError(f"bad generator pair ({i}, {j})")
            if not (1 <= k <= self.p):
                raise ValueError(f"center index {k} out of range")
            if s not in (1, -1):
                raise ValueError(f"sign must be +-1, got {s}")
            if (i, j) in seen:
                raise ValueError(f"two bracket values on pair ({i}, {j})")
            seen.add((i, j))

    @staticmethod
    def from_entries(q: int, p: int, entries) -> "StructureTensor":
        return StructureTensor(q, p, frozenset(tuple(e) for e in entries))

    @staticmethod
    def from_brackets(q: int, p: int, brackets) -> "StructureTensor":
        """Build from (i, j, k, sign) tuples allowing i > j, which flips the sign."""
        entries = []
        for (i, j, k, s) in brackets:
            if i < j:
                entries.append((i, j, k, s))
            else:
                entries.append((j, i, k, -s))
        return StructureTensor.from_entries(q, p, entries)

    def sorted_entries(self) -> list[tuple[int, int, int, int]]:
        return sorted(self.entries)

    @cached_property
    def brackets(self) -> dict[tuple[int, int], tuple[int, int]]:
        """(i, j) -> (k, s) and (j, i) -> (k, -s) for each [v_i, v_j] = s z_k,
        in sorted entry order; built once, ignored by equality and hashing."""
        view = {}
        for i, j, k, s in sorted(self.entries):
            view[i, j] = (k, s)
            view[j, i] = (k, -s)
        return view

    @cached_property
    def square_norm_identity(self) -> bool:
        """_heisenberg_identity(self), worked out once and kept like `brackets`."""
        return _heisenberg_identity(self)

    def dim(self) -> int:
        return self.q + self.p

    def to_data(self) -> dict:
        """JSON-ready form mirroring the text format."""
        return {"kind": "algebra", "q": self.q, "p": self.p,
                "entries": [list(e) for e in self.sorted_entries()]}


def from_graph(g: ColoredDigraph) -> StructureTensor:
    """Structure tensor of a colored digraph: arc (i, j, k) gives [v_i, v_j] = z_k."""
    return StructureTensor.from_brackets(g.q, g.p, ((i, j, k, 1) for i, j, k in g.arcs))


def to_graph(t: StructureTensor) -> ColoredDigraph:
    """Inverse of from_graph; positive entries orient i -> j, negative j -> i."""
    arcs = [(i, j, k) if s > 0 else (j, i, k) for i, j, k, s in t.entries]
    return ColoredDigraph.from_arcs(t.q, t.p, arcs)


def _heisenberg_identity(t: StructureTensor) -> bool:
    """The polarized identity of analysis.is_heisenberg_type on a uniform
    tensor, read through StructureTensor.square_norm_identity.

    Each color class is a matching, so J_k is a signed partial permutation
    of the generators: js[k][i] = (j, c) when J_k v_i = c v_j.  The identity
    is checked on one generator at a time with O(p^2 q) lookups."""
    js: list[dict[int, tuple[int, int]]] = [{} for _ in range(t.p)]
    for (i, j), (k, s) in t.brackets.items():
        js[k - 1][i] = (j, s)     # J_k v_i = s v_j
    for k in range(t.p):
        for l in range(k, t.p):
            for i in range(1, t.q + 1):
                image: dict[int, int] = {}  # (J_k J_l + J_l J_k) v_i
                for outer, inner in ((js[k], js[l]), (js[l], js[k])):
                    first = inner.get(i)
                    second = outer.get(first[0]) if first is not None else None
                    if second is not None:
                        image[second[0]] = image.get(second[0], 0) + first[1] * second[1]
                want = {i: -2} if k == l else {}
                if {v: c for v, c in image.items() if c} != want:
                    return False
    return True


# ---------------------------------------------------------------------------
# isomorphism witnesses

class SignedPermWitness(Record):
    """Signed permutation map: v_i -> vertex_signs[i-1] * v_{vertex_images[i-1]}
    and z_k -> color_signs[k-1] * z_{color_images[k-1]}."""

    vertex_images: tuple[int, ...]
    color_images: tuple[int, ...]
    vertex_signs: tuple[int, ...]
    color_signs: tuple[int, ...]

    @property
    def q(self) -> int:
        return len(self.vertex_images)

    @property
    def p(self) -> int:
        return len(self.color_images)

    def __post_init__(self):
        q, p = self.q, self.p
        if sorted(self.vertex_images) != list(range(1, q + 1)):
            raise ValueError("vertex images are not a permutation")
        if sorted(self.color_images) != list(range(1, p + 1)):
            raise ValueError("color images are not a permutation")
        if len(self.vertex_signs) != q or any(s not in (1, -1) for s in self.vertex_signs):
            raise ValueError("bad vertex signs")
        if len(self.color_signs) != p or any(s not in (1, -1) for s in self.color_signs):
            raise ValueError("bad color signs")

    def to_matrix(self) -> IntMatrix:
        from .exact import IntMatrix
        q, n = self.q, self.q + self.p
        m = [[0] * n for _ in range(n)]
        for i, (im, s) in enumerate(zip(self.vertex_images, self.vertex_signs)):
            m[im - 1][i] = s
        for k, (im, s) in enumerate(zip(self.color_images, self.color_signs)):
            m[q + im - 1][q + k] = s
        return IntMatrix.from_rows(m)

    def to_data(self) -> dict:
        """JSON-ready form mirroring the text format."""
        return {"kind": "witness", "witness_kind": "signed-perm",
                "q": self.q, "p": self.p, "vertex_images": list(self.vertex_images),
                "vertex_signs": list(self.vertex_signs),
                "color_images": list(self.color_images),
                "color_signs": list(self.color_signs)}


class WitnessCheck(Record):
    ok: bool
    failures: tuple[str, ...]


def check_witness(t1: StructureTensor, t2: StructureTensor, w: IsoWitness) -> WitnessCheck:
    """Verify that w intertwines brackets on every basis pair, exactly.

    Both tensors and the witness must share (q, p), and a general-linear
    matrix must be invertible.
    The failure list names each offending basis pair, in lexicographic order.

    A signed permutation is checked on its maps, with no matrix.  It sends
    each z_k to +-z_l, and z_l brackets to zero with everything, so both
    [w e, w z_k] and w[e, z_k] vanish for every basis vector e: no pair that
    involves a center vector can fail.  A generator pair (v_i, v_j) then
    needs one look-up in each tensor.  Any other witness is checked by
    `linear`, which is imported only then.
    """
    if (t1.q, t1.p) != (t2.q, t2.p):
        raise ValueError("witness checking needs matching q and p")
    if (w.q, w.p) != (t1.q, t1.p):
        raise ValueError("witness matrix has the wrong shape")
    if not isinstance(w, SignedPermWitness):
        from .linear import _check_general_linear
        return _check_general_linear(t1, t2, w)
    b1, b2 = t1.brackets, t2.brackets
    vi, vs = w.vertex_images, w.vertex_signs
    failures = []
    for i, j in itertools.combinations(range(t1.q), 2):
        hit = b2.get((vi[i], vi[j]))
        entry = b1.get((i + 1, j + 1))
        if entry is None:  # [v_i, v_j] = 0 in t1
            ok = hit is None
        else:  # [w v_i, w v_j] = w [v_i, v_j] = s w z_k
            k, s = entry
            ok = (hit is not None and hit[0] == w.color_images[k - 1]
                  and hit[1] * vs[i] * vs[j] == s * w.color_signs[k - 1])
        if not ok:
            failures.append(f"[v{i + 1}, v{j + 1}]")
    return WitnessCheck(ok=not failures, failures=tuple(failures))


def lift_automorphism(t: StructureTensor, a: ColorPermAutomorphism) -> SignedPermWitness:
    """Lift a direction-preserving colored-graph automorphism to the algebra
    with every sign +1.  Raises ValueError naming the first failing bracket
    when a does not actually preserve the tensor (for example when it
    reverses an arc).
    """
    w = SignedPermWitness(tuple(a.vertex_images), tuple(a.color_images),
                          (1,) * t.q, (1,) * t.p)
    res = check_witness(t, t, w)
    if not res.ok:
        raise ValueError(f"not an algebra automorphism; first failure at {res.failures[0]}")
    return w


# ---------------------------------------------------------------------------
# sign vectors and the diagonal action

def support_pairs(t: StructureTensor) -> list[tuple[int, int]]:
    """Bracketed generator pairs in lexicographic order; sign vectors follow it."""
    return sorted((i, j) for (i, j, _, _) in t.entries)


def sign_vector(t: StructureTensor) -> tuple[int, ...]:
    return tuple(s for _, _, _, s in t.sorted_entries())


def apply_signs(t: StructureTensor, signs) -> StructureTensor:
    """Same support and colors, with the given signs along support_pairs order."""
    pairs = t.sorted_entries()
    signs = tuple(signs)
    if len(signs) != len(pairs) or any(s not in (1, -1) for s in signs):
        raise ValueError("need one sign of +-1 per bracketed pair")
    return StructureTensor.from_entries(t.q, t.p, [
        (i, j, k, s) for (i, j, k, _), s in zip(pairs, signs)])


def _flip_space(t: StructureTensor, pairs) -> list[int]:
    """GF(2) basis of the sign patterns reachable by the diagonal action,
    pairs being t's sorted entries.

    Negating v_i or z_k flips the sign of every bracket touching it; the
    reachable flips form the column space of the pair/variable incidence,
    encoded over support_pairs positions.
    """
    # one vector per generator v_1..v_q, then per color z_1..z_p
    vectors = [0] * (t.q + t.p)
    for idx, (a, b, k, _) in enumerate(pairs):
        bit = 1 << (len(pairs) - 1 - idx)
        vectors[a - 1] |= bit
        vectors[b - 1] |= bit
        vectors[t.q + k - 1] |= bit
    return gf2_echelon(v for v in vectors if v)


# the most diagonal orbits built at once; each one is a tensor in memory
MAX_SIGN_ORBITS = 1 << 20


def _orbit_words(width: int, flips: list[int], budget: int) -> list[int]:
    """Reduced word of each diagonal orbit, in increasing order.

    flips is the reduced basis from _flip_space, so each coset of its span
    holds exactly one word with none of its leading bits set: one word per
    combination of the other bits.  The orbits count against budget, capped
    at MAX_SIGN_ORBITS since each one is built.
    """
    budget = min(budget, MAX_SIGN_ORBITS)
    orbits = 1 << (width - len(flips))
    if orbits > budget:
        raise BudgetExceededError(budget, orbits, f"{orbits} diagonal sign orbits "
                                                  f"with budget {budget}")
    pivots = sum(1 << (b.bit_length() - 1) for b in flips)
    words = [0]
    for n in range(width):  # lowest bit first, so the words stay increasing
        if not pivots >> n & 1:
            words += [w | 1 << n for w in words]
    return words


def _signs(word: int, width: int) -> tuple[int, ...]:
    """Sign of each coordinate of a word: -1 where its bit is set."""
    return tuple(-1 if word >> n & 1 else 1 for n in range(width - 1, -1, -1))


def _with_signs(t: StructureTensor, pairs, word: int) -> StructureTensor:
    """t's colored support, pairs being its sorted entries, with the signs of word."""
    return StructureTensor.from_entries(t.q, t.p, [
        (i, j, k, s) for (i, j, k, _), s in zip(pairs, _signs(word, len(pairs)))])


def diagonal_orbit_representatives(t: StructureTensor,
                                   budget: int = MAX_SIGN_ORBITS) -> list[StructureTensor]:
    """One canonical representative per diagonal orbit, lexicographic order;
    the orbits count against budget, capped at MAX_SIGN_ORBITS."""
    pairs = t.sorted_entries()
    return [_with_signs(t, pairs, w) for w in _orbit_words(len(pairs), _flip_space(t, pairs), budget)]


def diagonal_witness(t1: StructureTensor, t2: StructureTensor) -> SignedPermWitness | None:
    """Identity-permutation witness t1 -> t2 from basis negations, if one exists.

    Requires equal support and colors; returns None when the sign patterns lie
    in different diagonal orbits.
    """
    if (t1.q, t1.p) != (t2.q, t2.p):
        return None
    return _signed_perm_witness(t1, t2, tuple(range(1, t1.q + 1)),
                                tuple(range(1, t1.p + 1)))


def _signed_perm_witness(t1: StructureTensor, t2: StructureTensor,
                         vertex_images, color_images) -> SignedPermWitness | None:
    """Signs completing a vertex/color map t1 -> t2 to a verified witness.

    The map must carry the colored support of t1 onto that of t2, otherwise
    the answer is None.  Negating v_i or z_k flips every bracket touching it,
    so the signs solve a linear system over GF(2), one equation per bracket;
    the least solution is returned after check_witness accepts it, and None
    when the system has no solution.
    """
    if len(t1.entries) != len(t2.entries):
        return None
    b2 = t2.brackets
    q, p = t1.q, t1.p
    equations = []
    for (i, j, k, s) in t1.entries:
        hit = b2.get((vertex_images[i - 1], vertex_images[j - 1]))
        if hit is None or hit[0] != color_images[k - 1]:
            return None
        # v_i, v_j and z_k at coordinates i - 1, j - 1 and q + k - 1
        equations.append((1 << (q + p - i) | 1 << (q + p - j) | 1 << (p - k),
                          0 if s == hit[1] else 1))
    sol = gf2_solve_min(equations, q + p)
    if sol is None:
        return None
    w = SignedPermWitness(tuple(vertex_images), tuple(color_images),
                          _signs(sol >> p, q), _signs(sol, p))
    if not check_witness(t1, t2, w).ok:
        raise AssertionError("sign solve produced a bad witness")
    return w


# ---------------------------------------------------------------------------
# sign classes over one support

class SignClass(Record):
    members: tuple[int, ...]       # indices into orbit_representatives
    representative: StructureTensor
    witnesses: tuple[tuple[int, int, SignedPermWitness], ...]

    @property
    def heisenberg(self) -> bool:
        """The square-norm identity of the representative's uniform support."""
        return self.representative.square_norm_identity


class SignClassReport(Record):
    tensor: StructureTensor
    orbit_representatives: tuple[StructureTensor, ...]
    classes: tuple[SignClass, ...]


def sign_class_report(g: ColoredDigraph | StructureTensor,
                      budget: int = DEFAULT_SEARCH_BUDGET) -> SignClassReport:
    """Diagonal sign orbits of a uniform support, merged into sign classes.

    The diagonal orbits count against budget, capped at MAX_SIGN_ORBITS
    since each one is built, and are indexed by their reduced sign words.
    Every orbit representative has the same colored support, so the maps a
    signed-permutation search could try between two of them are exactly the
    color-permuting automorphisms of that support, and the sign classes are
    the orbits of this group on the diagonal orbits: an automorphism
    permutes a sign word along the support pairs and negates each pair whose
    order it reverses.  The mapping search yields at most q - 1 generators
    of the group, its node visits counting against budget, and each class
    is the orbit of its least diagonal orbit under them, walked by the graph
    layer's one orbit walk, each member it adds counting against budget.
    Each class holds its orbit indices in increasing order and one witness
    (members[0], b, w) per other member b: the signs completing the product
    of generators along the walk's tree path to b, composed in the order the
    walk reaches the members and verified by check_witness.
    """
    if isinstance(g, ColoredDigraph):
        t = from_graph(g)
    else:
        t, g = g, to_graph(g)
    if not validate_uniform(g).is_uniform:
        raise ValueError("sign class analysis needs a uniform tensor")
    pairs = t.sorted_entries()
    flips = _flip_space(t, pairs)
    words = _orbit_words(len(pairs), flips, budget)
    reps = [_with_signs(t, pairs, w) for w in words]
    index = {w: n for n, w in enumerate(words)}
    # with a single orbit there is nothing to merge
    gens = list(_mapping_search(g, g, False, budget, generators=True)) if len(reps) > 1 else []
    # sign bit of each pair in the words
    bit_of = {(i, j): 1 << (len(pairs) - 1 - n) for n, (i, j, _, _) in enumerate(pairs)}

    # Per generator, the orbit each orbit moves to: sign bits follow their
    # pairs, and the pairs whose order it reverses change sign.
    moves = []
    for vi, ci in gens:
        targets, reversed_bits = [], 0
        for (i, j), bit in bit_of.items():
            x, y = vi[i - 1], vi[j - 1]
            target = bit_of[(x, y) if x < y else (y, x)]
            targets.append((bit, target))
            if x > y:
                reversed_bits |= target

        def move(a, targets=targets, moved=reversed_bits):
            for source, target in targets:
                if words[a] & source:
                    moved ^= target
            return index[gf2_reduce(moved, flips)]
        moves.append(move)

    classes = []
    for a, tree in _orbits(range(len(reps)), moves, budget):
        ra = reps[a]
        # the vertex/color map carrying orbit a onto each member
        maps = {a: (tuple(range(1, t.q + 1)), tuple(range(1, t.p + 1)))}
        found: dict[int, SignedPermWitness] = {}
        for b, (x, n) in itertools.islice(tree.items(), 1, None):
            (xv, xc), (vi, ci) = maps[x], gens[n]
            maps[b] = bv, bc = tuple(vi[i - 1] for i in xv), tuple(ci[k - 1] for k in xc)
            found[b] = _signed_perm_witness(ra, reps[b], bv, bc)
            if found[b] is None:
                raise AssertionError("automorphism image has no sign witness")
        members = (a,) + tuple(sorted(found))
        classes.append(SignClass(
            members=members,
            representative=ra,
            witnesses=tuple((a, b, found[b]) for b in members[1:])))
    return SignClassReport(tensor=t, orbit_representatives=tuple(reps),
                           classes=tuple(classes))


# ---------------------------------------------------------------------------
# signed-permutation isomorphism search

def signed_perm_isomorphic(t1: StructureTensor, t2: StructureTensor,
                           budget: int = DEFAULT_SEARCH_BUDGET) -> SignedPermWitness | None:
    """Search the signed-permutation family for a witness t1 -> t2.

    Vertex and color permutations are enumerated lexicographically over the
    underlying colored-graph mappings; for each, the sign constraints form a
    linear system over GF(2) whose least solution gives the witness.  None
    means no witness exists in this family; it is only a non-isomorphism proof
    together with separating invariants.
    """
    if (t1.q, t1.p) != (t2.q, t2.p):
        raise ValueError("signed-permutation search needs matching q and p")
    for vimg, cimg in _mapping_search(to_graph(t1), to_graph(t2), False, budget):
        w = _signed_perm_witness(t1, t2, vimg, cimg)
        if w is not None:
            return w
    return None


def concatenate(t1: StructureTensor, t2: StructureTensor,
                color_mode: str = "disjoint") -> StructureTensor:
    """Direct sum on generators; center summed ("disjoint") or identified
    index-wise ("shared").  Matches the disjoint union of the graphs."""
    return from_graph(disjoint_union(to_graph(t1), to_graph(t2), color_mode))
