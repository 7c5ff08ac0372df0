"""What needs a matrix or a rational over `algebra`'s tensors: general-linear
witnesses, the maps J(z) and the derivation dimension.  The sign path needs
none of it; `check_witness` imports this module only for a witness that is
not a signed permutation.  Conventions are those of `algebra`.
"""

from __future__ import annotations

import itertools

from . import exact
from .algebra import SignedPermWitness, StructureTensor, WitnessCheck
from .exact import IntMatrix
from .graphs import BudgetExceededError
from .record import Record


class GeneralLinearWitness(Record):
    """Invertible rational map in the v1..vq, z1..zp coordinate order, whose
    split q + p the matrix alone does not tell; column b is the image of e_b."""

    matrix: IntMatrix
    q: int
    p: int

    def __post_init__(self):
        m, n = self.matrix, self.q + self.p
        if not m.rows or m.nrows != m.ncols:
            raise ValueError("witness matrix must be square and nonempty")
        if self.q < 0 or self.p < 0:
            raise ValueError("q and p must be nonnegative")
        if m.nrows != n:
            raise ValueError(f"matrix must be {n}x{n}")

    def to_matrix(self) -> IntMatrix:
        return self.matrix

    def to_data(self) -> dict:
        """JSON-ready form mirroring the text format; entries are rational strings."""
        return {"kind": "witness", "witness_kind": "general-linear",
                "q": self.q, "p": self.p,
                "matrix": [list(map(exact.format_scalar, row)) for row in self.matrix.rows]}


IsoWitness = SignedPermWitness | GeneralLinearWitness


def _basis_name(t: StructureTensor, idx: int) -> str:
    return f"v{idx + 1}" if idx < t.q else f"z{idx - t.q + 1}"


def _check_general_linear(t1: StructureTensor, t2: StructureTensor,
                          w: GeneralLinearWitness) -> WitnessCheck:
    """check_witness past its shape checks, on sparse data: w[e_a, e_b] is s
    times the image column of z_k when [e_a, e_b] = s z_k in t1."""
    q, p, n = t1.q, t1.p, t1.dim()
    m = w.to_matrix()
    if m.rank() < n:
        raise ValueError("witness matrix is singular")
    b1, b2 = t1.brackets, t2.brackets
    failures = []
    cols = list(zip(*m.rows))  # column b = image of basis b
    gens = [[(i, x) for i, x in enumerate(col[:q]) if x] for col in cols]
    for a in range(n):
        for b in range(a + 1, n):
            rhs = [0] * p  # [w e_a, w e_b] in t2, a central vector
            for i, x in gens[a]:
                for j, y in gens[b]:
                    hit = b2.get((i + 1, j + 1))
                    if hit is not None:
                        rhs[hit[0] - 1] += hit[1] * x * y
            entry = b1.get((a + 1, b + 1)) if b < q else None
            if entry is None:  # [e_a, e_b] = 0 in t1
                ok = not any(rhs)
            else:  # w [e_a, e_b] = s w z_k
                k, s = entry
                ok = (not gens[q + k - 1]
                      and all(s * x == y for x, y in zip(cols[q + k - 1][q:], rhs)))
            if not ok:
                failures.append(f"[{_basis_name(t1, a)}, {_basis_name(t1, b)}]")
    return WitnessCheck(ok=not failures, failures=tuple(failures))


def compose_witnesses(second: IsoWitness, first: IsoWitness) -> GeneralLinearWitness:
    """Witness for the composition second after first; both must share (q, p)."""
    if (second.q, second.p) != (first.q, first.p):
        raise ValueError("composing witnesses needs matching q and p")
    return GeneralLinearWitness(second.to_matrix() @ first.to_matrix(), first.q, first.p)


def invert_witness(w: IsoWitness) -> GeneralLinearWitness:
    inv = exact.inverse(w.to_matrix())
    if inv is None:
        raise ValueError("witness matrix is singular")
    return GeneralLinearWitness(inv, w.q, w.p)


def j_map(t: StructureTensor, coeffs) -> IntMatrix:
    """J map of the center element sum(coeffs[k-1] * z_k): each bracket
    [v_i, v_j] = s z_k, in either order, puts s c_k at (j, i)."""
    coeffs = tuple(coeffs)
    if len(coeffs) != t.p:
        raise ValueError("need one coefficient per center direction")
    m = [[0] * t.q for _ in range(t.q)]
    for (i, j), (k, s) in t.brackets.items():
        m[j - 1][i - 1] = s * coeffs[k - 1]     # coeff of v_j in J(v_i)
    return IntMatrix.from_rows(m)


# the most cells, rows times q^2 columns, that derivation_dim eliminates;
# its rows are sparse, so this bounds the elimination's work, not memory
MAX_DERIVATION_CELLS = 10**6


def _radical_rows(t: StructureTensor) -> list[dict[int, int]]:
    """Matrix of x -> ([x, v_j])_j on generator coordinates, one sparse
    {column: entry} row for each (j, k) that carries a bracket: row (j, k)
    holds at column i - 1 the z_k coordinate of [v_i, v_j].  Its kernel is
    the radical {x in V : [x, V] = 0}."""
    rows = {}
    for (i, j), (k, s) in t.brackets.items():
        rows.setdefault((j, k), {})[i - 1] = s   # [v_i, v_j] = s z_k
    return list(rows.values())


def derivation_dim(t: StructureTensor) -> int:
    """Dimension of the derivation algebra {D : D[x,y] = [Dx,y] + [x,Dy]}.

    A true isomorphism invariant, computed exactly from the block form of D
    on n = V + Z, where V is spanned by the generators v_i and Z by the z_k:
    D = [[A, E], [C, B]] with A: V -> V, E: Z -> V, C: V -> Z and B: Z -> Z.
    Only [v_i, v_j] = beta(v_i ^ v_j) can be nonzero, so the derivation rule
    on basis pairs says exactly this.  On (z_k, z_l) it is empty.  On
    (v_i, z_k) it says [v_i, E z_k] = 0, so E maps Z into the radical
    rad = {x in V : [x, V] = 0}.  On (v_i, v_j) its V part says E vanishes on
    [V, V], and its Z part says B beta(w) = gamma_A(w) for every w in
    Lambda^2 V, where gamma_A(x ^ y) = [Ax, y] + [x, Ay].  So C is free (p*q);
    E is any map from Z / [V, V] into rad ((p - u) * dim rad, where u is the
    number of colors used and [V, V] is spanned by their z_k); B is forced on
    [V, V] and free on the other p - u directions ((p - u) * p); and A is any
    map for which gamma_A vanishes on ker beta, which is what makes B well
    defined.  None of this assumes uniformity: on a non-uniform tensor rad may
    be nonzero, which E absorbs, and Z may exceed [V, V], where B is free.

    Each generator pair carries at most one signed color, so ker beta has a
    sparse basis: e_a ^ e_b for every bracket-free pair, and for each color
    with pairs (a_t, b_t, s_t), t = 1, 2, ..., the differences
    s_1 e_{a_1} ^ e_{b_1} - s_t e_{a_t} ^ e_{b_t}.  Each basis element gives
    p rows in the q^2 unknowns of A, and

        dim Der = p*q + (p - u) * (dim rad + p) + q^2 - rank(rows).

    The radical costs a rank of its own only when u < p.  Each row is built
    sparse, as the {column: coefficient} dict the elimination holds.  There
    are at most p * (C(q, 2) - u) rows of q^2 columns; above
    MAX_DERIVATION_CELLS cells the call raises BudgetExceededError before
    building any.
    """
    q, p = t.q, t.p
    cells = p * (q * (q - 1) // 2 - len({k for _, _, k, _ in t.entries})) * q * q
    if cells > MAX_DERIVATION_CELLS:
        raise BudgetExceededError(MAX_DERIVATION_CELLS, cells, f"{cells} derivation-matrix "
                                  f"cells above the fixed limit {MAX_DERIVATION_CELLS}")
    # touching[b]: (c, k, s) for each [v_c, v_b] = s z_k, 0-based c and k
    touching = [[] for _ in range(q)]
    for (c, b), (k, s) in t.brackets.items():
        touching[b - 1].append((c - 1, k - 1, s))
    by_color = {}  # used colors only
    for (i, j, k, s) in t.sorted_entries():
        by_color.setdefault(k, []).append((i - 1, j - 1, s))

    def gamma_rows(terms) -> list[dict[int, int]]:
        # z_k coordinate of gamma_A(sum coef e_a ^ e_b) in the unknowns
        # A[c, a] at column c*q + a, as {column: coefficient}: A e_a
        # contributes [v_c, e_b] and A e_b contributes [e_a, v_c] = -[v_c, e_a]
        rows = [{} for _ in range(p)]
        for coef, a, b in terms:
            for c, k, s in touching[b]:
                rows[k][c * q + a] = rows[k].get(c * q + a, 0) + coef * s
            for c, k, s in touching[a]:
                rows[k][c * q + b] = rows[k].get(c * q + b, 0) - coef * s
        return [row for row in rows if any(row.values())]

    rows = []
    for a, b in itertools.combinations(range(q), 2):
        if (a + 1, b + 1) not in t.brackets:
            rows += gamma_rows([(1, a, b)])
    for (a1, b1, s1), *rest in by_color.values():
        for a, b, s in rest:
            rows += gamma_rows([(s1, a1, b1), (-s, a, b)])
    dim = p * q + q * q - exact.rank(rows)
    unused = p - len(by_color)
    if unused:
        dim += unused * (q - exact.rank(_radical_rows(t)) + p)
    return dim
