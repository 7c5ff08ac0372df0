"""Structure tensors, bracket operations, invariants, and isomorphism witnesses."""

import functools
import random
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from unilie.algebra import (
    SignedPermWitness,
    StructureTensor,
    apply_signs,
    check_witness,
    concatenate,
    diagonal_orbit_representatives,
    diagonal_witness,
    from_graph,
    lift_automorphism,
    sign_class_report,
    sign_vector,
    signed_perm_isomorphic,
    support_pairs,
    to_graph,
    WitnessCheck,
    _flip_space,
)
from unilie.linear import (
    MAX_DERIVATION_CELLS,
    GeneralLinearWitness,
    compose_witnesses,
    derivation_dim,
    invert_witness,
    j_map,
)
from unilie.analysis import (
    ad_rank,
    center_dim,
    commutator_dim,
    is_heisenberg_type,
    j_gram,
    totally_geodesic,
)
from unilie import algebra, classification, enumeration
from unilie.exact import IntMatrix, nullspace
from unilie.exact import rank as exact_rank
from unilie.gf2 import gf2_reduce
from unilie.families import (
    cyclic,
    free_two_step,
    heisenberg,
    kneser,
    quaternionic,
    ring_algebra,
)
from unilie.graphs import (
    DEFAULT_SEARCH_BUDGET,
    BudgetExceededError,
    ColorCountMismatch,
    NonProper,
    NotRegular,
    NotSurjective,
    UniformityReport,
    _mode,
    automorphisms,
    validate_uniform,
)

from test_exact import fraction_rref

H3 = from_graph(heisenberg(1))
QUAT = from_graph(quaternionic())


def alpha(t, i, j, k):
    """Structure constant of z_k in [v_i, v_j], any order of i, j."""
    if i > j:
        return -alpha(t, j, i, k)
    hit = t.brackets.get((i, j))
    return hit[1] if hit is not None and hit[0] == k else 0
ASSOC = from_graph(quaternionic(associate=True))
RING2 = from_graph(ring_algebra(2))
RING2P = from_graph(ring_algebra(2, primed=True))
H33 = concatenate(H3, H3)

def verify_uniform_basis(t):
    """Uniformity check stated directly on the bracket data: the oracle that
    validate_uniform(to_graph(t)) is compared against."""
    violations = []
    partner_colors = {i: [] for i in range(1, t.q + 1)}
    color_counts = {k: 0 for k in range(1, t.p + 1)}
    for (i, j, k, _) in t.entries:
        partner_colors[i].append(k)
        partner_colors[j].append(k)
        color_counts[k] += 1

    degrees = {i: len(partner_colors[i]) for i in partner_colors}
    s = _mode(list(degrees.values()))
    for i in range(1, t.q + 1):
        if degrees[i] != s:
            violations.append(NotRegular(vertex=i, degree=degrees[i]))

    used = {k: c for k, c in color_counts.items() if c > 0}
    for k in range(1, t.p + 1):
        if color_counts[k] == 0:
            violations.append(NotSurjective(color=k))
    r = _mode(list(used.values()))
    for k, c in sorted(used.items()):
        if c != r:
            violations.append(ColorCountMismatch(color=k, count=c))

    for i in range(1, t.q + 1):
        seen = {}
        for k in partner_colors[i]:
            seen[k] = seen.get(k, 0) + 1
        for k, c in sorted(seen.items()):
            if c > 1:
                violations.append(NonProper(vertex=i, color=k))

    if not t.entries:
        s = 0
        r = 0
    report_order = (NonProper, ColorCountMismatch, NotRegular, NotSurjective)
    ordered = tuple(sorted(violations, key=lambda v: (report_order.index(type(v)),)
                           + tuple(vars(v).values())))
    return UniformityReport(is_uniform=not ordered and s >= 1,
                            p=t.p, q=t.q, r=r, s=s, violations=ordered)


UNIFORM_SAMPLES = [
    (H3, 1, 2, 1, 1),
    (from_graph(heisenberg(2)), 1, 4, 2, 1),
    (QUAT, 3, 4, 2, 3),
    (ASSOC, 3, 4, 2, 3),
    (RING2, 2, 4, 2, 2),
    (from_graph(free_two_step(3)), 3, 3, 1, 2),
    (from_graph(cyclic(4)), 4, 4, 1, 2),
    (from_graph(kneser(5, 2)), 5, 10, 3, 3),
]


class TestStructureTensor:
    def test_graph_roundtrip(self):
        for g in (heisenberg(2), quaternionic(), ring_algebra(3)):
            assert to_graph(from_graph(g)) == g

    def test_from_brackets_flips_reversed_pairs(self):
        t = StructureTensor.from_brackets(2, 1, [(2, 1, 1, 1)])
        assert t.sorted_entries() == [(1, 2, 1, -1)]

    def test_alpha_antisymmetry(self):
        for (i, j, k, s) in QUAT.sorted_entries():
            assert alpha(QUAT, i, j, k) == s
            assert alpha(QUAT, j, i, k) == -s
        assert alpha(QUAT, 1, 2, 3) == 0
        assert alpha(QUAT, 2, 2, 1) == 0

    def test_rejects_double_pair(self):
        with pytest.raises(ValueError):
            StructureTensor.from_entries(3, 2, [(1, 2, 1, 1), (1, 2, 2, 1)])

    def test_dim(self):
        assert QUAT.dim() == 7
        assert H3.dim() == 3

    def test_verify_uniform_basis_matches_graph_validation(self):
        for t, *_ in UNIFORM_SAMPLES:
            rep_t = verify_uniform_basis(t)
            rep_g = validate_uniform(to_graph(t))
            assert rep_t.is_uniform and rep_g.is_uniform
            assert rep_t == rep_g

    def test_verify_uniform_basis_flags_bad_tensor(self):
        t = StructureTensor.from_entries(3, 1, [(1, 2, 1, 1), (2, 3, 1, 1)])
        assert not verify_uniform_basis(t).is_uniform
        assert verify_uniform_basis(t) == validate_uniform(to_graph(t))


class TestStructuralInvariants:
    @pytest.mark.parametrize("t,p,q,r,s", UNIFORM_SAMPLES)
    def test_center_dimension(self, t, p, q, r, s):
        assert center_dim(t) == p

    @pytest.mark.parametrize("t,p,q,r,s", UNIFORM_SAMPLES)
    def test_commutator_equals_center(self, t, p, q, r, s):
        # [n, n] lies in the center, so equal dimensions make them equal
        assert commutator_dim(t) == center_dim(t) == p

    @pytest.mark.parametrize("t,p,q,r,s", UNIFORM_SAMPLES)
    def test_centralizer_dimension(self, t, p, q, r, s):
        # the z-span plus the kernel of ad_{v_i} on the generators
        for i in range(1, q + 1):
            kernel = nullspace(dense_ad(t, i), ncols=q)
            assert p + len(kernel) == p + q - ad_rank(t, i) == p + q - s

    @pytest.mark.parametrize("t,p,q,r,s", UNIFORM_SAMPLES)
    def test_ad_rank(self, t, p, q, r, s):
        for i in range(1, q + 1):
            assert ad_rank(t, i) == s

    @pytest.mark.parametrize("t,p,q,r,s", UNIFORM_SAMPLES)
    def test_j_rank(self, t, p, q, r, s):
        gram = j_gram(t)
        for k in range(1, p + 1):
            assert exact_rank(j_map(t, unit(p, k - 1)).rows) == 2 * r == gram[k - 1]

    @pytest.mark.parametrize("t,p,q,r,s", UNIFORM_SAMPLES)
    def test_j_gram_is_scaled_identity(self, t, p, q, r, s):
        assert j_gram(t) == (2 * r,) * p
        check_gram_against_oracle(t)

    def test_j_gram_rejects_non_uniform(self):
        t = StructureTensor.from_entries(3, 1, [(1, 2, 1, 1), (2, 3, 1, 1)])
        with pytest.raises(ValueError):
            j_gram(t)

    @pytest.mark.parametrize("i", [0, QUAT.q + 1])
    def test_ad_rank_refuses_generator_out_of_range(self, i):
        with pytest.raises(ValueError, match=f"generator index {i} out of range"):
            ad_rank(QUAT, i)


def skew_adjacency(g, k):
    """Skew-symmetric adjacency of color class k: entry (i, j) is +1 when the
    arc (v_i, v_j, z_k) is present, -1 for the reverse arc, else 0."""
    m = [[0] * g.q for _ in range(g.q)]
    for (i, j, c) in g.arcs:
        if c == k:
            m[i - 1][j - 1] = 1
            m[j - 1][i - 1] = -1
    return IntMatrix.from_rows(m)


class TestJMaps:
    def test_single_edge_convention(self):
        # the rank-one building block acts as a quarter rotation
        assert j_map(H3, (1,)).rows == ((0, -1), (1, 0))

    def test_j_basis_skew(self):
        for t, p, *_ in UNIFORM_SAMPLES:
            for k in range(1, p + 1):
                m = j_map(t, unit(p, k - 1))
                assert (m + m.transpose()).is_zero()

    def test_j_map_linear_combination(self):
        m = j_map(QUAT, (1, 1, 0))
        assert m == j_map(QUAT, (1, 0, 0)) + j_map(QUAT, (0, 1, 0))
        assert j_map(QUAT, (Fraction(1, 2), 0, 0)) == j_map(QUAT, (1, 0, 0)).scale(
            Fraction(1, 2)
        )

    def test_j_basis_is_minus_skew_adjacency(self):
        for t in j_kernel_cases():
            g = to_graph(t)
            for k in range(1, t.p + 1):
                assert j_map(t, unit(t.p, k - 1)) == -skew_adjacency(g, k)

    def test_j_map_matches_sum_of_scaled_j_basis(self):
        # the sum of the J_k scaled by the coefficients is what j_map
        # computed before it was built in one pass over the entries
        rnd = random.Random(5)
        values = (0, 1, -1, 3, Fraction(1, 2), Fraction(-5, 3))
        for t in j_kernel_cases():
            for _ in range(4):
                coeffs = [rnd.choice(values) for _ in range(t.p)]
                want = IntMatrix.zero(t.q, t.q)
                for k, c in enumerate(coeffs, start=1):
                    if c != 0:
                        want = want + j_map(t, unit(t.p, k - 1)).scale(c)
                assert j_map(t, coeffs) == want, (t, coeffs)


class TestHeisenbergType:
    def test_heisenberg_family(self):
        for n in range(1, 5):
            assert is_heisenberg_type(from_graph(heisenberg(n)))

    def test_quaternionic_yes_associate_no(self):
        assert is_heisenberg_type(QUAT)
        assert not is_heisenberg_type(ASSOC)

    def test_ring_yes_sum_no(self):
        assert is_heisenberg_type(RING2)
        assert not is_heisenberg_type(H33)

    def test_matches_square_identity_on_central_sphere(self):
        # spot check the defining identity J(z)^2 = -|z|^2 I on an integer point
        m = j_map(QUAT, (1, 2, -2))
        n = m @ m
        norm_sq = 1 + 4 + 4
        for a in range(4):
            for b in range(4):
                assert n[a, b] == (-norm_sq if a == b else 0)


def oracle_j_gram(t):
    """Dense Gram matrix: trace(J_k J_l^T) from products of the q x q
    matrices J_k."""
    if not validate_uniform(to_graph(t)).is_uniform:
        raise ValueError("j_gram needs a uniform tensor")
    js = [j_map(t, unit(t.p, k)) for k in range(t.p)]
    # trace(J_k J_l^T) is the entrywise inner product of J_k and J_l
    rows = [[sum(a * b for ra, rb in zip(jk.rows, jl.rows) for a, b in zip(ra, rb))
             for jl in js] for jk in js]
    return IntMatrix.from_rows(rows)


def check_gram_against_oracle(t):
    """j_gram is the dense Gram matrix's diagonal, and the matrix's other
    entries are zero, as j_gram's docstring proves."""
    dense = oracle_j_gram(t)
    assert j_gram(t) == tuple(dense[k, k] for k in range(t.p)), t
    assert all(dense[k, l] == 0 for k in range(t.p) for l in range(t.p) if k != l), t


def oracle_is_heisenberg_type(t):
    """Dense polarized identity: J_k J_l + J_l J_k = -2 delta_kl id as
    products of the q x q matrices J_k."""
    if not validate_uniform(to_graph(t)).is_uniform:
        raise ValueError("is_heisenberg_type needs a uniform tensor")
    js = [j_map(t, unit(t.p, k)) for k in range(t.p)]
    for k in range(t.p):
        for l in range(k, t.p):
            anti = js[k] @ js[l] + js[l] @ js[k]
            want = IntMatrix.identity(t.q).scale(-2) if k == l else IntMatrix.zero(t.q, t.q)
            if anti != want:
                return False
    return True


@functools.lru_cache(maxsize=None)
def orbit_representatives_q6():
    """Every diagonal orbit representative of every uniform coloring with
    q <= 6, grouped by coloring."""
    return [diagonal_orbit_representatives(from_graph(c))
            for g in enumeration.regular_graphs(6) for c in enumeration.uniform_colorings(g)]


@functools.lru_cache(maxsize=None)
def j_kernel_cases():
    reps = [r for group in orbit_representatives_q6() for r in group]
    return reps + [kp.tensor for kp in classification.known_presentations()]


@st.composite
def signed_relabelings(draw):
    """A case of j_kernel_cases under random vertex and color relabelings
    and random bracket signs."""
    t = draw(st.sampled_from(j_kernel_cases()))
    vp = draw(st.permutations(range(1, t.q + 1)))
    cp = draw(st.permutations(range(1, t.p + 1)))
    moved = StructureTensor.from_brackets(
        t.q, t.p, [(vp[i - 1], vp[j - 1], cp[k - 1], s) for i, j, k, s in t.entries])
    signs = draw(st.lists(st.sampled_from((1, -1)),
                          min_size=len(t.entries), max_size=len(t.entries)))
    return apply_signs(moved, signs)


class TestSparseJKernels:
    def test_orbit_representatives_match_dense_oracles(self):
        groups = orbit_representatives_q6()
        assert len(groups) == 37
        assert [len(g) for g in groups if (g[0].q, g[0].p) == (6, 5)] == [32]
        reps = [r for group in groups for r in group]
        assert len(reps) == 151
        flags = []
        for t in reps:
            flags.append(is_heisenberg_type(t))
            assert flags[-1] == oracle_is_heisenberg_type(t), t
            check_gram_against_oracle(t)
        assert True in flags and False in flags

    def test_known_presentations_match_dense_oracles(self):
        for kp in classification.known_presentations():
            assert is_heisenberg_type(kp.tensor) == oracle_is_heisenberg_type(kp.tensor)
            assert (classification.Invariants((kp.tensor,)).heisenberg
                    == oracle_is_heisenberg_type(kp.tensor))
            check_gram_against_oracle(kp.tensor)

    @given(signed_relabelings())
    @settings(max_examples=150)
    def test_signed_relabelings_match_dense_oracles(self, t):
        assert is_heisenberg_type(t) == oracle_is_heisenberg_type(t)
        check_gram_against_oracle(t)

    @pytest.mark.parametrize("t", [
        StructureTensor.from_entries(3, 1, [(1, 2, 1, 1), (2, 3, 1, 1)]),  # not proper
        StructureTensor.from_entries(2, 2, [(1, 2, 1, 1)]),                # unused color
        StructureTensor.from_entries(4, 2, [(1, 2, 1, 1), (3, 4, 1, -1), (1, 3, 2, 1)]),
    ])
    def test_non_uniform_raises(self, t):
        for check in (is_heisenberg_type, j_gram, oracle_is_heisenberg_type, oracle_j_gram):
            with pytest.raises(ValueError):
                check(t)


class TestTotallyGeodesic:
    def test_quaternionic_pair(self):
        rep = totally_geodesic(QUAT, [1, 2], [1])
        assert rep.is_subalgebra and rep.is_totally_geodesic

    def test_double_block_pair(self):
        rep = totally_geodesic(H33, [1, 2], [1])
        assert rep.is_subalgebra and rep.is_totally_geodesic

    def test_not_closed_fails_subalgebra(self):
        # {v1, v2} brackets into z1, which is not among the chosen colors
        rep = totally_geodesic(QUAT, [1, 2], [2])
        assert not rep.is_subalgebra

    def test_crossing_edge_blocks_geodesic(self):
        # {v1, v2, v3} closes up under colors {1, 2}, but the color-1 edge
        # (3, 4) has exactly one endpoint inside, so the complement leaks
        rep = totally_geodesic(RING2, [1, 2, 3], [1, 2])
        assert rep.is_subalgebra and not rep.is_totally_geodesic

    def test_full_algebra_is_geodesic(self):
        rep = totally_geodesic(H33, [1, 2, 3, 4], [1, 2])
        assert rep.is_subalgebra and rep.is_totally_geodesic

    def test_refuses_indices_out_of_range(self):
        with pytest.raises(ValueError, match="generator index 0 out of range"):
            totally_geodesic(QUAT, [0], [])
        with pytest.raises(ValueError, match="center index 4 out of range"):
            totally_geodesic(QUAT, [1], [QUAT.p + 1])

    def test_brute_force_oracle(self):
        # compare against direct evaluation of both closure conditions
        for t in (QUAT, RING2, H33):
            vertices = range(1, t.q + 1)
            colors = range(1, t.p + 1)
            for nv in (1, 2):
                for vs in combinations(vertices, nv):
                    for nc in (1, 2):
                        if nc > t.p:
                            continue
                        for cs in combinations(colors, nc):
                            rep = totally_geodesic(t, vs, cs)
                            inside = all(
                                t.brackets[(i, j)][0] in cs
                                for i, j in combinations(vs, 2)
                                if (i, j) in t.brackets
                            )
                            assert rep.is_subalgebra == inside
                            if inside:
                                crossing = any(
                                    k in cs and (i in vs) != (j in vs)
                                    for i, j, k, _ in t.sorted_entries()
                                )
                                assert rep.is_totally_geodesic == (not crossing)


def single_sign_perturbations(w: SignedPermWitness):
    q, p = len(w.vertex_images), len(w.color_images)
    for i in range(q):
        vs = list(w.vertex_signs)
        vs[i] = -vs[i]
        yield SignedPermWitness(w.vertex_images, w.color_images, tuple(vs), w.color_signs)
    for k in range(p):
        cs = list(w.color_signs)
        cs[k] = -cs[k]
        yield SignedPermWitness(w.vertex_images, w.color_images, w.vertex_signs, tuple(cs))


class TestWitnesses:
    def test_lifted_automorphism_passes(self):
        for a in automorphisms(quaternionic(), strict=True):
            w = lift_automorphism(QUAT, a)
            assert check_witness(QUAT, QUAT, w).ok

    def test_identity_witness(self):
        w = SignedPermWitness((1, 2), (1,), (1, 1), (1,))
        assert check_witness(H3, H3, w).ok

    def test_single_sign_flip_breaks_identity(self):
        w = SignedPermWitness((1, 2), (1,), (1, 1), (1,))
        broken = 0
        for bad in single_sign_perturbations(w):
            res = check_witness(H3, H3, bad)
            if not res.ok:
                broken += 1
                assert res.failures
        # flipping one vertex sign or the color sign negates a bracket;
        # flipping both vertex signs would cancel, but that is two flips
        assert broken == 3

    def test_failure_reports_offending_pair(self):
        w = SignedPermWitness((1, 2), (1,), (-1, 1), (1,))
        res = check_witness(H3, H3, w)
        assert not res.ok
        assert len(res.failures) == 1

    def test_shape_mismatch_rejected(self):
        w = SignedPermWitness((1, 2), (1,), (1, 1), (1,))
        with pytest.raises(ValueError):
            check_witness(H3, QUAT, w)

    def test_signed_perm_counts_must_be_q_and_p(self):
        # 4 vertex images and 1 color image add up to q + p = 5, but the
        # algebra has q = 3 and p = 2
        t = StructureTensor.from_entries(3, 2, [(1, 2, 1, 1)])
        w = SignedPermWitness((1, 2, 3, 4), (1,), (1, 1, 1, 1), (1,))
        with pytest.raises(ValueError, match="witness matrix has the wrong shape"):
            check_witness(t, t, w)

    def test_singular_matrix_rejected(self):
        from unilie.exact import IntMatrix

        with pytest.raises(ValueError):
            check_witness(H3, H3, GeneralLinearWitness(IntMatrix.zero(3, 3), 2, 1))

    def test_general_linear_split_must_match(self):
        # the 3x3 identity fits q + p = 3, but splits it as q = 1, p = 2
        from unilie.exact import IntMatrix

        assert check_witness(H3, H3, GeneralLinearWitness(IntMatrix.identity(3), 2, 1)).ok
        with pytest.raises(ValueError, match="witness matrix has the wrong shape"):
            check_witness(H3, H3, GeneralLinearWitness(IntMatrix.identity(3), 1, 2))

    def test_compose_and_invert_keep_the_split(self):
        from unilie.classification import ring_sum_witness

        t1, t2, w = ring_sum_witness()
        inv = invert_witness(w)
        assert (inv.q, inv.p) == (w.q, w.p) == (4, 2)
        assert check_witness(t2, t1, inv).ok
        assert compose_witnesses(inv, w) == GeneralLinearWitness(
            w.matrix.identity(6), 4, 2)

    def test_compose_refuses_mixed_splits(self):
        # both 3x3, but split q = 1, p = 2 against q = 2, p = 1
        from unilie.exact import IntMatrix

        gl = GeneralLinearWitness(IntMatrix.identity(3), 1, 2)
        sp = SignedPermWitness((1, 2), (1,), (1, 1), (1,))
        for second, first in ((sp, gl), (gl, sp)):
            with pytest.raises(ValueError, match="matching q and p"):
                compose_witnesses(second, first)

    def test_compose_and_invert(self):
        auts = automorphisms(quaternionic(), strict=True)
        a, b = auts[1], auts[2]
        wa, wb = lift_automorphism(QUAT, a), lift_automorphism(QUAT, b)
        composed = compose_witnesses(wb, wa)
        assert check_witness(QUAT, QUAT, composed).ok
        inv = invert_witness(wa)
        assert check_witness(QUAT, QUAT, inv).ok
        round_trip = compose_witnesses(inv, wa)
        assert round_trip.to_matrix() == round_trip.to_matrix().identity(7)

    def test_signed_perm_matrix_is_signed_permutation(self):
        w = SignedPermWitness((2, 1, 3, 4), (1, 3, 2), (1, -1, 1, 1), (1, 1, -1))
        m = w.to_matrix()
        for row in m.rows:
            assert sum(1 for x in row if x != 0) == 1
            assert all(x in (-1, 0, 1) for x in row)

    def test_signed_perm_split_is_its_image_lengths(self):
        w = SignedPermWitness((2, 1, 3, 4), (1, 3, 2), (1, -1, 1, 1), (1, 1, -1))
        assert (w.q, w.p) == (4, 3)
        assert w.to_matrix().nrows == 7
        assert w.to_matrix()[4, 4] == 1 and w.to_matrix()[6, 5] == 1
        assert (w.to_data()["q"], w.to_data()["p"]) == (4, 3)
        # the split is no field: equality, hashing and repr read the images
        assert "q=" not in repr(w)
        with pytest.raises(AttributeError):
            w.q = 5


def dense_bracket(t, x, y):
    """[x, y] on coordinate tuples over v1..vq, z1..zp: bilinear, lands in
    the center and ignores the z parts of x and y."""
    z = [0] * t.p
    for (i, j, k, s) in t.entries:
        z[k - 1] += s * (x[i - 1] * y[j - 1] - x[j - 1] * y[i - 1])
    return (0,) * t.q + tuple(z)


def unit(n, a):
    return tuple(1 if i == a else 0 for i in range(n))


def dense_ad(t, i):
    """Dense p x q matrix of ad_{v_i} on the generators, column j holding
    [v_i, v_j]: its entry (k, j) is entry (j, i) of J_{z_k}."""
    js = [j_map(t, unit(t.p, k)) for k in range(t.p)]
    return [[js[k][j, i - 1] for j in range(t.q)] for k in range(t.p)]


def oracle_check_witness(t1, t2, w):
    """Dense witness check: apply the witness matrix to the bracket of every
    basis pair and compare with the bracket of the two image columns."""
    if (t1.q, t1.p) != (t2.q, t2.p):
        raise ValueError("witness checking needs matching q and p")
    m = w.to_matrix()
    n = t1.dim()
    if m.nrows != n or m.ncols != n:
        raise ValueError("witness matrix has the wrong shape")
    if m.rank() < n:
        raise ValueError("witness matrix is singular")
    cols = m.transpose().rows

    def name(a):
        return f"v{a + 1}" if a < t1.q else f"z{a - t1.q + 1}"

    failures = []
    for a in range(n):
        for b in range(a + 1, n):
            lhs = m.apply(dense_bracket(t1, unit(n, a), unit(n, b)))
            rhs = dense_bracket(t2, cols[a], cols[b])
            if lhs != rhs:
                failures.append(f"[{name(a)}, {name(b)}]")
    return WitnessCheck(ok=not failures, failures=tuple(failures))


SMALL_TENSORS = [H3, from_graph(heisenberg(2)), QUAT, ASSOC, RING2, RING2P, H33,
                 from_graph(free_two_step(3)), from_graph(free_two_step(4)),
                 from_graph(cyclic(4)), from_graph(cyclic(5)),
                 from_graph(cyclic(6))]


@st.composite
def signed_perm_cases(draw):
    """(t1, t2, w) with w a random signed permutation and t2 its image of t1,
    with one bracket sign of t2 flipped half of the time.  Half of the time
    each, the vertex or the color images of w are shuffled after t2 is built,
    so that w may miss the support or the colors."""
    t1 = draw(st.sampled_from(SMALL_TENSORS))
    vp = tuple(draw(st.permutations(range(1, t1.q + 1))))
    cp = tuple(draw(st.permutations(range(1, t1.p + 1))))
    vs = tuple(draw(st.lists(st.sampled_from((1, -1)), min_size=t1.q, max_size=t1.q)))
    cs = tuple(draw(st.lists(st.sampled_from((1, -1)), min_size=t1.p, max_size=t1.p)))
    brackets = [(vp[i - 1], vp[j - 1], cp[k - 1], s * vs[i - 1] * vs[j - 1] * cs[k - 1])
                for i, j, k, s in t1.sorted_entries()]
    if draw(st.booleans()):
        n = draw(st.integers(0, len(brackets) - 1))
        i, j, k, s = brackets[n]
        brackets[n] = (i, j, k, -s)
    t2 = StructureTensor.from_brackets(t1.q, t1.p, brackets)
    if draw(st.booleans()):
        vp = tuple(draw(st.permutations(vp)))
    if draw(st.booleans()):
        cp = tuple(draw(st.permutations(cp)))
    return t1, t2, SignedPermWitness(vp, cp, vs, cs)


def _outcome(check, t1, t2, w):
    try:
        return check(t1, t2, w)
    except ValueError as exc:
        return str(exc)


class TestSparseWitnessCheck:
    @given(signed_perm_cases())
    @settings(max_examples=150)
    def test_signed_perm_matches_dense_oracle(self, case):
        t1, t2, w = case
        assert check_witness(t1, t2, w) == oracle_check_witness(t1, t2, w)

    @given(signed_perm_cases(),
           st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11),
                              st.sampled_from((1, -1, 2, Fraction(1, 2)))),
                    min_size=1, max_size=3))
    @settings(max_examples=150)
    def test_perturbed_general_linear_matches_dense_oracle(self, case, deltas):
        t1, t2, w = case
        rows = [list(r) for r in w.to_matrix().rows]
        n = len(rows)
        for r, c, d in deltas:
            rows[r % n][c % n] += d
        glw = GeneralLinearWitness(IntMatrix.from_rows(rows), w.q, w.p)
        assert _outcome(check_witness, t1, t2, glw) == _outcome(
            oracle_check_witness, t1, t2, glw)

    def test_ring_sum_witness_matches_dense_oracle(self):
        from unilie.classification import ring_sum_witness

        t1, t2, w = ring_sum_witness()
        assert check_witness(t1, t2, w) == oracle_check_witness(t1, t2, w)
        assert check_witness(t1, t2, w).ok
        rows = [list(r) for r in w.to_matrix().rows]
        rows[0][4] += 1  # z1 picks up a generator component
        bad = GeneralLinearWitness(IntMatrix.from_rows(rows), w.q, w.p)
        assert check_witness(t1, t2, bad) == oracle_check_witness(t1, t2, bad)
        assert not check_witness(t1, t2, bad).ok

    def test_every_sign_class_witness_up_to_six_generators(self):
        # each merge witness of the 37 uniform colorings with q <= 6, on the
        # maps and on the dense matrix
        checked = 0
        for g in enumeration.regular_graphs(6):
            for c in enumeration.uniform_colorings(g):
                rep = sign_class_report(c)
                reps = rep.orbit_representatives
                for sc in rep.classes:
                    for a, b, w in sc.witnesses:
                        got = check_witness(reps[a], reps[b], w)
                        assert got == oracle_check_witness(reps[a], reps[b], w)
                        assert got.ok
                        checked += 1
        # 151 diagonal orbits in 93 sign classes
        assert checked == 151 - 93

    def test_errors_match_dense_oracle(self):
        w = SignedPermWitness((1, 2), (1,), (1, 1), (1,))
        singular = GeneralLinearWitness(IntMatrix.zero(3, 3), 2, 1)
        wrong = GeneralLinearWitness(IntMatrix.identity(4), 3, 1)
        for t1, t2, wit in [(H3, QUAT, w), (H3, H3, singular), (H3, H3, wrong)]:
            assert _outcome(check_witness, t1, t2, wit) == _outcome(
                oracle_check_witness, t1, t2, wit)


def oracle_sign_canonical(t):
    """Least sign vector in the diagonal orbit of t (+1 sorts before -1): the
    sign bits reduced by the flip space that `diagonal_orbit_representatives`
    enumerates the complement of."""
    width = len(support_pairs(t))
    word = sum(1 << (width - 1 - n) for n, s in enumerate(sign_vector(t)) if s < 0)
    reduced = gf2_reduce(word, _flip_space(t, t.sorted_entries()))
    return tuple(-1 if reduced >> (width - 1 - n) & 1 else 1 for n in range(width))


def oracle_orbit_count(t):
    """Number of diagonal orbits on the sign vectors over the support of t."""
    return 2 ** (len(support_pairs(t)) - len(_flip_space(t, t.sorted_entries())))


class TestSignOrbits:
    @pytest.mark.parametrize("t", [H3, RING2, QUAT, ASSOC])
    def test_canonical_matches_exhaustive_orbit_minimum(self, t):
        pairs = support_pairs(t)
        base = sign_vector(t)
        orbit = set()
        for vbits in product((0, 1), repeat=t.q):
            for zbits in product((0, 1), repeat=t.p):
                vec = []
                for (i, j), s in zip(pairs, base):
                    k = t.brackets[(i, j)][0]
                    flip = vbits[i - 1] ^ vbits[j - 1] ^ zbits[k - 1]
                    vec.append(-s if flip else s)
                orbit.add(tuple(vec))
        # minimal in the orbit under the bit order used for canonical forms
        as_bits = lambda vec: tuple(0 if s == 1 else 1 for s in vec)
        assert oracle_sign_canonical(t) in orbit
        assert as_bits(oracle_sign_canonical(t)) == min(map(as_bits, orbit))

    def test_canonical_is_orbit_invariant(self):
        base = oracle_sign_canonical(QUAT)
        for signs in product((1, -1), repeat=6):
            moved = apply_signs(QUAT, signs)
            if oracle_sign_canonical(moved) == base:
                w = diagonal_witness(QUAT, moved)
                assert w is not None
                assert check_witness(QUAT, moved, w).ok

    def test_quaternionic_support_has_four_orbits(self):
        assert oracle_orbit_count(QUAT) == 4
        reps = diagonal_orbit_representatives(QUAT)
        assert len(reps) == 4
        assert len({oracle_sign_canonical(r) for r in reps}) == 4
        assert all(to_graph(r).support() == to_graph(QUAT).support() for r in reps)

    def test_perfect_matching_color_is_free(self):
        # every sign assignment on a single heisenberg block is equivalent
        assert len(diagonal_orbit_representatives(H3)) == 1
        assert len(diagonal_orbit_representatives(from_graph(heisenberg(3)))) == 1

    def test_representatives_are_reduced_and_in_bit_order(self):
        for reps in orbit_representatives_q6():
            bits = [tuple(0 if s > 0 else 1 for s in sign_vector(r)) for r in reps]
            assert bits == sorted(set(bits))
            assert all(oracle_sign_canonical(r) == sign_vector(r) for r in reps)
            assert len(reps) == oracle_orbit_count(reps[0])

    def test_orbit_cap_holds_for_any_budget(self, monkeypatch):
        # each orbit is built as a tensor, so MAX_SIGN_ORBITS caps a budget
        # given here as well as one given to sign_class_report
        monkeypatch.setattr(algebra, "MAX_SIGN_ORBITS", 2)
        with pytest.raises(BudgetExceededError) as exc:
            diagonal_orbit_representatives(QUAT, budget=10**6)
        assert (exc.value.budget, exc.value.visited) == (2, 4)

    def test_diagonal_witness_none_across_orbits(self):
        reps = diagonal_orbit_representatives(QUAT)
        assert diagonal_witness(reps[0], reps[1]) is None

    def test_orbit_count_oracle(self):
        for t in (H3, RING2, QUAT):
            pairs = support_pairs(t)
            canon = set()
            for signs in product((1, -1), repeat=len(pairs)):
                canon.add(oracle_sign_canonical(apply_signs(t, signs)))
            assert len(canon) == oracle_orbit_count(t)


def earlier_completing_signs(t1, t2, w):
    """Sign vectors before w's, vertex signs then color signs with +1 before
    -1, that complete w's vertex and color maps t1 -> t2."""
    earlier = []
    for signs in product((1, -1), repeat=t1.q + t1.p):
        if signs == w.vertex_signs + w.color_signs:
            return earlier
        if check_witness(t1, t2, SignedPermWitness(
                w.vertex_images, w.color_images, signs[:t1.q], signs[t1.q:])).ok:
            earlier.append(signs)
    raise AssertionError("witness signs out of range")


def oracle_signed_perm(t1, t2):
    q, p = t1.q, t1.p
    for vp in permutations(range(1, q + 1)):
        for cp in permutations(range(1, p + 1)):
            for vsigns in product((1, -1), repeat=q):
                for csigns in product((1, -1), repeat=p):
                    w = SignedPermWitness(vp, cp, vsigns, csigns)
                    if check_witness(t1, t2, w).ok:
                        return True
    return False


class TestSignedPermSearch:
    def test_self_isomorphism(self):
        for t in (H3, QUAT, RING2):
            w = signed_perm_isomorphic(t, t)
            assert w is not None
            assert check_witness(t, t, w).ok

    def test_detects_diagonal_twist(self):
        moved = apply_signs(QUAT, (-1, 1, 1, -1, 1, 1))
        w = signed_perm_isomorphic(QUAT, moved)
        assert w is not None
        assert check_witness(QUAT, moved, w).ok

    def test_rejects_distinct_orbit_classes(self):
        assert signed_perm_isomorphic(QUAT, ASSOC) is None

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            signed_perm_isomorphic(H3, QUAT)

    def test_witnesses_carry_the_least_signs(self):
        # the signs `iso` prints: every witness of a sign class, and every
        # one the search finds between two orbit representatives of one
        # coloring, over the uniform colorings with q <= 6 and q + p <= 10
        cases = []
        for g in enumeration.regular_graphs(6):
            for c in enumeration.uniform_colorings(g):
                if c.q + c.p > 10:
                    continue
                report = sign_class_report(c)
                reps = report.orbit_representatives
                cases += [(reps[a], reps[b], w)
                          for sc in report.classes for a, b, w in sc.witnesses]
                cases += [(ra, rb, signed_perm_isomorphic(ra, rb))
                          for ra, rb in product(reps, repeat=2)]
        cases = [(t1, t2, w) for t1, t2, w in cases if w is not None]
        assert len(cases) == 92
        for t1, t2, w in cases:
            assert check_witness(t1, t2, w).ok
            assert earlier_completing_signs(t1, t2, w) == []

    @pytest.mark.parametrize(
        "t1,t2",
        [
            (H3, H3),
            (RING2, RING2P),
            (RING2, apply_signs(RING2, (-1, 1, 1, 1))),
            (QUAT, ASSOC),
        ],
    )
    def test_matches_brute_force_oracle(self, t1, t2):
        got = signed_perm_isomorphic(t1, t2)
        expected = oracle_signed_perm(t1, t2)
        assert (got is not None) == expected
        if got is not None:
            assert check_witness(t1, t2, got).ok


def oracle_derivation_dim(t):
    """Dense derivation dimension: exact rank of the defining system in all
    (q+p)^2 matrix unknowns, the cross-check for the block formula."""
    n = t.dim()
    q = t.q

    def beta(c, d):
        # z coordinates of [e_c, e_d] for 0-based basis positions
        if c < q and d < q:
            return tuple(alpha(t, c + 1, d + 1, k) for k in range(1, t.p + 1))
        return (0,) * t.p

    rows = {}  # each row up to sign, first nonzero entry positive: same rank
    for b1 in range(n):
        for b2 in range(b1 + 1, n):
            w = beta(b1, b2)
            for a in range(n):
                row = [0] * (n * n)
                # D applied to [e_b1, e_b2]
                for k, wk in enumerate(w):
                    if wk:
                        row[a * n + (q + k)] += wk
                # minus [D e_b1, e_b2] and [e_b1, D e_b2], z components only
                if a >= q:
                    k = a - q
                    for c in range(q):
                        bz = beta(c, b2)[k]
                        if bz:
                            row[c * n + b1] -= bz
                        bz = beta(b1, c)[k]
                        if bz:
                            row[c * n + b2] -= bz
                lead = next((x for x in row if x), 0)
                if lead:
                    rows[tuple(x if lead > 0 else -x for x in row)] = None
    return n * n - exact_rank(list(rows))


@st.composite
def small_tensors(draw):
    """Tensors with q <= 5 and p <= 4, uniform or not: colors may go unused
    or repeat at a vertex, generators may be bracket-free, entries may be
    absent altogether."""
    q = draw(st.integers(1, 5))
    p = draw(st.integers(1, 4))
    all_pairs = list(combinations(range(1, q + 1), 2))
    chosen = draw(st.sets(st.sampled_from(all_pairs))) if all_pairs else set()
    entries = [(i, j, draw(st.integers(1, p)), draw(st.sampled_from((1, -1))))
               for i, j in sorted(chosen)]
    return StructureTensor.from_entries(q, p, entries)


def _candidate_tensors(q_max):
    return classification._candidates(q_max, DEFAULT_SEARCH_BUDGET)


@given(small_tensors())
def test_commutator_matches_fraction_rref(t):
    # the reduced rows spanned by one z-coordinate row per nonzero bracket
    rows = [[s if c == k else 0 for c in range(1, t.p + 1)]
            for (_, _, k, s) in sorted(t.entries)]
    red, pivots = fraction_rref(rows)
    assert commutator_dim(t) == len(pivots)


@given(small_tensors())
# the radical of [v1, v2] = [v1, v3] = z1 is spanned by v2 - v3, no basis vector
@example(StructureTensor.from_entries(3, 1, [(1, 2, 1, 1), (1, 3, 1, 1)]))
def test_dimensions_match_dense_kernels(t):
    # the center is the z-span plus the kernel of x -> ([x, v_j])_j, and the
    # centralizer of v_i the z-span plus the kernel of ad_{v_i}: each kernel
    # basis built from dense rows over the generators
    n = t.q + t.p
    radical_rows = [[dense_bracket(t, unit(n, i), unit(n, j))[t.q + k]
                     for i in range(t.q)] for j in range(t.q) for k in range(t.p)]
    assert center_dim(t) == t.p + len(nullspace(radical_rows, ncols=t.q))
    for i in range(1, t.q + 1):
        ad = dense_ad(t, i)
        assert ad_rank(t, i) == exact_rank(ad)
        assert t.p + t.q - ad_rank(t, i) == t.p + len(nullspace(ad, ncols=t.q))


def old_from_graph(g):
    """The arc-by-arc loop from_graph once ran: the oracle for its call of
    from_brackets."""
    entries = []
    for (i, j, k) in g.arcs:
        if i < j:
            entries.append((i, j, k, 1))
        else:
            entries.append((j, i, k, -1))
    return StructureTensor.from_entries(g.q, g.p, entries)


class TestBracketView:
    @given(small_tensors())
    def test_both_orders_of_each_entry(self, t):
        view = t.brackets
        want = {}
        for i, j, k, s in t.entries:
            want[(i, j)] = (k, s)
            want[(j, i)] = (k, -s)
        assert view == want and len(view) == 2 * len(t.entries)
        assert list(view) == [key for i, j, _, _ in sorted(t.entries)
                              for key in ((i, j), (j, i))]
        assert t.brackets is view

    @given(small_tensors())
    def test_equality_and_hash_ignore_the_view(self, t):
        warm = StructureTensor.from_entries(t.q, t.p, t.entries)
        cold = StructureTensor.from_entries(t.q, t.p, t.entries)
        warm.brackets  # builds and caches the view
        assert "brackets" in vars(warm) and "brackets" not in vars(cold)
        assert warm == cold and hash(warm) == hash(cold) and repr(warm) == repr(cold)
        assert len({warm, cold}) == 1

    @given(small_tensors())
    def test_from_graph_matches_arc_loop(self, t):
        g = to_graph(t)
        assert from_graph(g) == old_from_graph(g) == t


class TestDerivations:
    @pytest.mark.parametrize(
        "t,dim",
        [
            (H3, 6),
            (RING2, 16),
            (RING2P, 16),
            (H33, 16),
            (QUAT, 19),
            (ASSOC, 19),
            (from_graph(cyclic(5)), 30),
            (from_graph(kneser(5, 2)), 57),
        ],
    )
    def test_frozen_values(self, t, dim):
        assert derivation_dim(t) == dim

    def test_heisenberg_closed_form(self):
        # dim der = dim sp(2n) + dim Hom(V, Z) + 1
        for n in range(1, 5):
            expected = n * (2 * n + 1) + 2 * n + 1
            assert derivation_dim(from_graph(heisenberg(n))) == expected

    def test_free_two_step_closed_form(self):
        # dim der = dim gl(n) + dim Hom(V, Z); 126 at n = 6
        for n in range(2, 7):
            expected = n * n + n * (n * (n - 1) // 2)
            assert derivation_dim(from_graph(free_two_step(n))) == expected

    @pytest.mark.parametrize("q,p", [(1, 1), (2, 1), (3, 2), (4, 3)])
    def test_abelian_is_all_of_gl(self, q, p):
        assert derivation_dim(StructureTensor.from_entries(q, p, [])) == (q + p) ** 2

    def test_unused_color_and_isolated_generator(self):
        # v4 brackets with nothing and z3 is never hit: rad and Z / [V, V]
        # are both nonzero, so the E and free-B blocks appear
        t = StructureTensor.from_entries(4, 3, [(1, 2, 1, 1), (2, 3, 2, -1), (1, 3, 1, 1)])
        assert derivation_dim(t) == oracle_derivation_dim(t)

    def test_refuses_rows_beyond_the_cell_cap(self):
        # p * (C(q, 2) - u) * q^2 cells bound the rows; heisenberg(100) would
        # need 795,960,000, several GB, and is refused before any is built
        with pytest.raises(BudgetExceededError) as exc:
            derivation_dim(from_graph(heisenberg(100)))
        assert (exc.value.budget, exc.value.visited) == (MAX_DERIVATION_CELLS, 795_960_000)

    def test_invariant_under_signed_perm(self):
        moved = apply_signs(QUAT, (-1, -1, 1, 1, -1, 1))
        assert derivation_dim(moved) == derivation_dim(QUAT)

    def test_matches_oracle_on_five_generator_candidates(self):
        for t in _candidate_tensors(5):
            assert derivation_dim(t) == oracle_derivation_dim(t), t

    @pytest.mark.slow
    def test_matches_oracle_on_six_generator_candidates(self):
        cands = _candidate_tensors(6)
        assert len(cands) == 93
        for t in cands:
            assert derivation_dim(t) == oracle_derivation_dim(t), t

    @settings(max_examples=150, deadline=None)
    @given(small_tensors())
    @example(StructureTensor.from_entries(3, 2, []))
    @example(StructureTensor.from_entries(4, 2, [(1, 2, 1, 1), (1, 3, 1, -1), (2, 3, 2, 1)]))
    def test_matches_oracle_on_random_tensors(self, t):
        assert derivation_dim(t) == oracle_derivation_dim(t)


class TestConcatenate:
    def test_disjoint_blocks(self):
        t = concatenate(QUAT, H3)
        assert (t.q, t.p) == (6, 4)
        assert len(t.sorted_entries()) == 7

    def test_shared_colors(self):
        t = concatenate(H3, H3, color_mode="shared")
        assert (t.q, t.p) == (4, 1)
        assert validate_uniform(to_graph(t)).is_uniform
