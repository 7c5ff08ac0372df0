"""The structure dossier of a two-step nilpotent algebra: the dimensions of
the center and the commutator, the ad ranks, the Gram diagonal of the maps
J_{z_k}, the square-norm identity test and totally geodesic subspaces.

These are what `unilie analyze` reports; the sign classes, the isomorphism
searches and the classification need none of them, so they live apart from
`algebra` and load only when asked for.  Each rank but the radical's in
`center_dim` is a count on the colored support (ad ranks count colors, J
ranks are the Gram diagonal), so the dossier builds no dense map and loads
no rational arithmetic.  Conventions are those of `algebra`.
"""

from __future__ import annotations

from . import exact
from .algebra import StructureTensor, to_graph
from .graphs import validate_uniform
from .linear import _radical_rows
from .record import Record


# ---------------------------------------------------------------------------
# ranks and dimensions

def ad_rank(t: StructureTensor, i: int) -> int:
    """Rank of ad_{v_i}; equals the degree s for a uniform tensor.

    Each column [v_i, v_j] of ad_{v_i} is 0 or +-z_k, so the column space is
    spanned by one z_k per color met at v_i, and the rank counts them."""
    if not (1 <= i <= t.q):
        raise ValueError(f"generator index {i} out of range")
    return len({k for (a, _), (k, _) in t.brackets.items() if a == i})


def center_dim(t: StructureTensor) -> int:
    """Dimension of the center: all of the z-span plus the radical
    {x in V : [x, V] = 0}.  For a uniform tensor this is exactly p."""
    return t.p + t.q - exact.rank(_radical_rows(t))


def commutator_dim(t: StructureTensor) -> int:
    """Dimension of [n, n]: every nonzero bracket is +-z_k, so it is the
    number of colors in use."""
    return len({k for _, _, k, _ in t.entries})


# ---------------------------------------------------------------------------
# J maps

def j_gram(t: StructureTensor) -> tuple[int, ...]:
    """Diagonal of the Gram matrix trace(J_{z_k} J_{z_l}^T), all 2r for a
    uniform tensor.

    trace(J_k J_l^T) sums J_k[a, b] J_l[a, b] over generator pairs, and each
    pair carries one color, so the matrix is diagonal with entry 2 |E_k|,
    twice the number of pairs of color k; only that diagonal is returned."""
    if not validate_uniform(to_graph(t)).is_uniform:
        raise ValueError("j_gram needs a uniform tensor")
    twice = [0] * t.p
    for (_, _, k, _) in t.entries:
        twice[k - 1] += 2
    return tuple(twice)


def is_heisenberg_type(t: StructureTensor) -> bool:
    """Whether J_z^2 = -|z|^2 id holds for the basis inner product, checked by
    polarization: J_k J_l + J_l J_k = -2 delta_kl id on all basis pairs."""
    if not validate_uniform(to_graph(t)).is_uniform:
        raise ValueError("is_heisenberg_type needs a uniform tensor")
    return t.square_norm_identity


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
