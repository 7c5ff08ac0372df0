"""The structure dossier of a two-step nilpotent algebra: vectors and
brackets, the center, commutator and centralizers, the maps J_{z_k} and their
Gram matrix, the square-norm identity test and totally geodesic subspaces.

These are what `unilie analyze` reports; the sign classes, the isomorphism
searches and the classification need none of them, so they live apart from
`algebra` and load only when asked for.  Conventions are those of `algebra`.
"""

from __future__ import annotations

from fractions import Fraction

from . import exact
from .algebra import StructureTensor, _heisenberg_identity, _radical_rows, j_map, to_graph
from .exact import IntMatrix
from .graphs import validate_uniform
from .record import Record

Scalar = int | Fraction


# ---------------------------------------------------------------------------
# vectors and brackets

class NVector(Record):
    """Element of the algebra in coordinates: v over generators, z over center."""

    v: tuple[Scalar, ...]
    z: tuple[Scalar, ...]

    @staticmethod
    def zero(q: int, p: int) -> "NVector":
        return NVector((0,) * q, (0,) * p)

    @staticmethod
    def basis_v(q: int, p: int, i: int) -> "NVector":
        return NVector(tuple(1 if a == i else 0 for a in range(1, q + 1)), (0,) * p)

    @staticmethod
    def basis_z(q: int, p: int, k: int) -> "NVector":
        return NVector((0,) * q, tuple(1 if a == k else 0 for a in range(1, p + 1)))

    @staticmethod
    def from_coords(q: int, p: int, coords) -> "NVector":
        coords = tuple(coords)
        if len(coords) != q + p:
            raise ValueError("coordinate length mismatch")
        return NVector(coords[:q], coords[q:])

    def coords(self) -> tuple[Scalar, ...]:
        return self.v + self.z

    def __add__(self, other: "NVector") -> "NVector":
        return NVector(tuple(a + b for a, b in zip(self.v, other.v)),
                       tuple(a + b for a, b in zip(self.z, other.z)))

    def __sub__(self, other: "NVector") -> "NVector":
        return self + (-other)

    def __neg__(self) -> "NVector":
        return NVector(tuple(-a for a in self.v), tuple(-a for a in self.z))

    def scale(self, c: Scalar) -> "NVector":
        return NVector(tuple(c * a for a in self.v), tuple(c * a for a in self.z))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.v) and all(a == 0 for a in self.z)


def bracket(t: StructureTensor, x: NVector, y: NVector) -> NVector:
    """[x, y]; bilinear, lands in the center, ignores the z parts of x and y."""
    if len(x.v) != t.q or len(y.v) != t.q or len(x.z) != t.p or len(y.z) != t.p:
        raise ValueError("vector shape mismatch")
    z = [0] * t.p
    for (i, j, k, s) in t.entries:
        c = x.v[i - 1] * y.v[j - 1] - x.v[j - 1] * y.v[i - 1]
        if c != 0:
            z[k - 1] += s * c
    return NVector((0,) * t.q, tuple(z))


# ---------------------------------------------------------------------------
# structural subspaces

def ad_matrix(t: StructureTensor, i: int) -> IntMatrix:
    """Matrix of ad_{v_i} restricted to generators: column j holds [v_i, v_j]."""
    if not (1 <= i <= t.q):
        raise ValueError(f"generator index {i} out of range")
    m = [[0] * t.q for _ in range(t.p)]
    for (a, b), (k, s) in t.brackets.items():
        if a == i:
            m[k - 1][b - 1] = s
    return IntMatrix.from_rows(m)


def ad_rank(t: StructureTensor, i: int) -> int:
    """Rank of ad_{v_i}; equals the degree s for a uniform tensor."""
    return ad_matrix(t, i).rank()


def center(t: StructureTensor) -> list[NVector]:
    """Basis of the center: all of the z-span plus any bracket-free generator
    combinations.  For a uniform tensor this is exactly the z-span."""
    basis = [NVector.basis_z(t.q, t.p, k) for k in range(1, t.p + 1)]
    for vec in exact.nullspace(_radical_rows(t), ncols=t.q):
        basis.append(NVector(vec, (Fraction(0),) * t.p))
    return basis


def commutator(t: StructureTensor) -> list[NVector]:
    """Echelon basis of [n, n]: z_k for each color k in use, in increasing k,
    since every nonzero bracket is +-z_k."""
    return [NVector.basis_z(t.q, t.p, k) for k in sorted({k for _, _, k, _ in t.entries})]


def centralizer(t: StructureTensor, i: int) -> list[NVector]:
    """Basis of {x : [x, v_i] = 0}; dimension p + q - s for a uniform tensor."""
    rows = ad_matrix(t, i).rows  # [v_i, x] = 0 iff [x, v_i] = 0
    basis = [NVector.basis_z(t.q, t.p, k) for k in range(1, t.p + 1)]
    for vec in exact.nullspace(rows, ncols=t.q):
        basis.append(NVector(vec, (Fraction(0),) * t.p))
    return basis


# ---------------------------------------------------------------------------
# J maps

def j_basis(t: StructureTensor, k: int) -> IntMatrix:
    """Matrix of J_{z_k} on generators: J(v_i) = v_j when [v_i, v_j] = z_k,
    -v_j when [v_i, v_j] = -z_k; equals minus the skew adjacency of color k."""
    if not (1 <= k <= t.p):
        raise ValueError(f"center index {k} out of range")
    return j_map(t, [1 if c == k else 0 for c in range(1, t.p + 1)])


def j_gram(t: StructureTensor) -> IntMatrix:
    """Gram matrix trace(J_{z_k} J_{z_l}^T); equals 2r * I for uniform tensors.

    trace(J_k J_l^T) sums J_k[a, b] J_l[a, b] over generator pairs, and each
    pair carries one color, so the matrix is diagonal with entry 2 |E_k|,
    twice the number of pairs of color k."""
    if not validate_uniform(to_graph(t)).is_uniform:
        raise ValueError("j_gram needs a uniform tensor")
    twice = [0] * t.p
    for (_, _, k, _) in t.entries:
        twice[k - 1] += 2
    return IntMatrix.from_rows([[twice[k] if k == l else 0 for l in range(t.p)]
                                for k in range(t.p)])


def is_heisenberg_type(t: StructureTensor) -> bool:
    """Whether J_z^2 = -|z|^2 id holds for the basis inner product, checked by
    polarization: J_k J_l + J_l J_k = -2 delta_kl id on all basis pairs."""
    if not validate_uniform(to_graph(t)).is_uniform:
        raise ValueError("is_heisenberg_type needs a uniform tensor")
    return _heisenberg_identity(t)


# ---------------------------------------------------------------------------
# totally geodesic subspaces

class TotallyGeodesicReport(Record):
    is_subalgebra: bool
    is_totally_geodesic: bool


def totally_geodesic(t: StructureTensor, generators, colors) -> TotallyGeodesicReport:
    """Test the span of {v_i : i in generators} + {z_k : k in colors}.

    Subalgebra: every bracket between chosen generators lands in the chosen
    center directions.  Totally geodesic additionally needs each chosen color
    class to touch either both or neither endpoint of the generator set, which
    is J-invariance of the span.
    """
    vset = set(generators)
    cset = set(colors)
    for i in vset:
        if not (1 <= i <= t.q):
            raise ValueError(f"generator index {i} out of range")
    for k in cset:
        if not (1 <= k <= t.p):
            raise ValueError(f"center index {k} out of range")
    is_sub = all(k in cset
                 for (i, j, k, _) in t.entries if i in vset and j in vset)
    j_invariant = all(len({i, j} & vset) != 1
                      for (i, j, k, _) in t.entries if k in cset)
    return TotallyGeodesicReport(is_subalgebra=is_sub,
                                 is_totally_geodesic=is_sub and j_invariant)
