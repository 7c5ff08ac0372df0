"""Exact linear algebra over Q and GF(2): cross-checked against dense
Bareiss elimination, Fraction Gauss-Jordan elimination and brute force."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from unilie import classification, exact
from unilie.linear import derivation_dim
from unilie.exact import (
    IntMatrix,
    inverse,
    nullspace,
    rank,
)
from unilie.gf2 import gf2_echelon, gf2_reduce, gf2_solve_min
from unilie.graphs import DEFAULT_SEARCH_BUDGET

entries = st.integers(min_value=-6, max_value=6)


def matrices(max_dim=5):
    return st.integers(min_value=1, max_value=max_dim).flatmap(
        lambda n: st.integers(min_value=1, max_value=max_dim).flatmap(
            lambda m: st.lists(
                st.lists(entries, min_size=m, max_size=m), min_size=n, max_size=n
            )
        )
    )


def trace(a):
    return sum(a[i, i] for i in range(min(a.nrows, a.ncols)))


def bareiss_rank(rows):
    # dense fraction-free elimination (Bareiss, Math. Comp. 22, 1968) of the
    # rows cleared of denominators; the oracle for rank()
    m = []
    for row in rows:
        scale = math.lcm(*(Fraction(a).denominator for a in row))
        m.append([int(a * scale) for a in row])
    nr, nc = len(m), len(m[0]) if m else 0
    prev, r = 1, 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, nr):
            for j in range(c + 1, nc):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
    return r


def fraction_rref(rows):
    # reduced row echelon form by Gauss-Jordan elimination over Fraction:
    # (rows, pivot columns); the oracle for nullspace() and inverse()
    m = [[Fraction(a) for a in row] for row in rows]
    pivots = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [a * inv for a in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def rank_fraction(rows):
    return len(fraction_rref(rows)[1])


def oracle_nullspace(rows, ncols=0):
    # one vector per free column: 1 there, minus its column of the reduced
    # rows at the pivots
    red, pivots = fraction_rref(rows)
    nc = len(rows[0]) if rows else ncols
    basis = []
    for f in range(nc):
        if f not in pivots:
            vec = [Fraction(0)] * nc
            vec[f] = Fraction(1)
            for r, c in enumerate(pivots):
                vec[c] = -red[r][f]
            basis.append(tuple(vec))
    return basis


def oracle_inverse(rows):
    # the right half of the reduced [A | I], integral entries as ints
    n = len(rows)
    red, pivots = fraction_rref([list(row) + [int(i == j) for j in range(n)]
                                 for i, row in enumerate(rows)])
    if pivots != list(range(n)):
        return None
    return tuple(tuple(x.numerator if x.denominator == 1 else x for x in row[n:])
                 for row in red)


def assert_matches_oracles(rows):
    assert rank(rows) == bareiss_rank(rows) == rank_fraction(rows)
    assert nullspace(rows) == oracle_nullspace(rows)
    k = min(len(rows), len(rows[0]))
    square = [row[:k] for row in rows[:k]]
    got, want = inverse(IntMatrix.from_rows(square)), oracle_inverse(square)
    if want is None:
        assert got is None
    else:
        assert got.rows == want
        assert [type(x) for row in got.rows for x in row] == \
            [type(x) for row in want for x in row]


@st.composite
def derivation_shaped(draw):
    """Sparse matrices like derivation_dim's rows: up to 4 entries of +-1
    or +-2 (or none) in a row of width q^2, q <= 4, and some rows negated
    copies of earlier ones."""
    q = draw(st.integers(1, 4))
    rows = []
    for _ in range(draw(st.integers(1, 2 * q * q))):
        if rows and draw(st.integers(0, 3)) == 0:
            rows.append([-x for x in draw(st.sampled_from(rows))])
            continue
        row = [0] * (q * q)
        for j in draw(st.lists(st.integers(0, q * q - 1), min_size=1, max_size=4)):
            row[j] += draw(st.sampled_from((1, -1)))
        rows.append(row)
    return rows


@st.composite
def rational_matrices(draw, max_dim=5):
    """Rational matrices with one denominator per row, times a small extra
    denominator per entry; a drawn flag makes the rank fall short by
    replacing the last row with a rational combination of the others."""
    n = draw(st.integers(min_value=1, max_value=max_dim))
    m = draw(st.integers(min_value=1, max_value=max_dim))
    rows = []
    for _ in range(n):
        row_den = draw(st.integers(min_value=1, max_value=12))
        rows.append([Fraction(draw(entries), row_den * draw(st.integers(1, 3)))
                     for _ in range(m)])
    if draw(st.booleans()):
        weights = [Fraction(draw(entries), draw(st.integers(1, 5)))
                   for _ in range(n - 1)]
        rows[-1] = [sum((w * row[j] for w, row in zip(weights, rows)), Fraction(0))
                    for j in range(m)]
    return rows


class TestIntMatrix:
    def test_construction_and_access(self):
        m = IntMatrix.from_rows([[1, 2], [3, 4]])
        assert m.nrows == 2 and m.ncols == 2
        assert m[0, 1] == 2 and m[1, 0] == 3

    def test_identity_and_zero(self):
        assert IntMatrix.identity(3) @ IntMatrix.identity(3) == IntMatrix.identity(3)
        assert IntMatrix.zero(2, 3).is_zero()

    def test_arithmetic(self):
        a = IntMatrix.from_rows([[1, 2], [3, 4]])
        b = IntMatrix.from_rows([[0, 1], [1, 0]])
        assert (a + b) - b == a
        assert a.scale(2) == a + a
        assert (a @ b) == IntMatrix.from_rows([[2, 1], [4, 3]])

    def test_transpose(self):
        a = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
        assert a.transpose().transpose() == a
        assert a.transpose()[0, 1] == 4

    def test_apply(self):
        a = IntMatrix.from_rows([[2, 0], [0, 3]])
        assert a.apply((1, 1)) == (2, 3)

    def test_trace(self):
        assert trace(IntMatrix.from_rows([[5, 1], [2, 7]])) == 12

    def test_shape_mismatch_rejected(self):
        a = IntMatrix.from_rows([[1, 2]])
        b = IntMatrix.from_rows([[1, 2]])
        with pytest.raises(ValueError):
            a @ b

    # one row short, then one column short
    @pytest.mark.parametrize("rows", [[[1, 2]], [[1], [2]]])
    def test_sum_and_difference_refuse_other_shapes(self, rows):
        a = IntMatrix.from_rows([[1, 2], [3, 4]])
        b = IntMatrix.from_rows(rows)
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ValueError, match="shape mismatch"):
                x + y
            with pytest.raises(ValueError, match="shape mismatch"):
                x - y


class TestRankDet:
    @given(matrices())
    def test_rank_matches_fraction_elimination(self, rows):
        assert rank(rows) == rank_fraction(rows)

    @given(matrices())
    def test_rank_fraction_agrees(self, rows):
        frac_rows = [[Fraction(x, 3) for x in row] for row in rows]
        assert rank(frac_rows) == rank_fraction(frac_rows) == bareiss_rank(rows)

    @given(matrices(4))
    def test_singular_iff_rank_deficient(self, rows):
        # check_witness refuses a witness by rank, invert_witness by inverse
        if len(rows) != len(rows[0]):
            return
        m = IntMatrix.from_rows(rows)
        assert (inverse(m) is None) == (m.rank() < m.nrows)

    @given(rational_matrices())
    def test_rank_on_rationals_matches_fraction_rank(self, rows):
        assert rank(rows) == rank_fraction(rows)


class TestOracles:
    """rank, nullspace and inverse (on the leading square block) against
    dense Bareiss and Fraction Gauss-Jordan elimination."""

    @given(matrices(6))
    def test_integer_matrices(self, rows):
        assert_matches_oracles(rows)

    @given(rational_matrices(6))
    def test_rational_matrices(self, rows):
        assert_matches_oracles(rows)

    @given(derivation_shaped())
    def test_sparse_derivation_shaped_matrices(self, rows):
        # rank reads each row dense or as the {column: entry} dict that
        # derivation_dim builds
        assert_matches_oracles(rows)
        assert rank([{j: a for j, a in enumerate(row) if a} for row in rows]) == rank(rows)

    def test_empty_and_zero_width(self):
        assert rank([]) == 0 and rank([[]]) == 0
        assert nullspace([], 2) == oracle_nullspace([], 2)
        assert nullspace([[]], 3) == []
        assert inverse(IntMatrix(())) == IntMatrix(())

    def test_derivation_ranks_match_bareiss(self, monkeypatch):
        # every matrix derivation_dim ranks on the candidates with q <= 6
        seen = []
        real = exact.rank

        def spy(rows):
            seen.append((rows, real(rows)))
            return seen[-1][1]

        monkeypatch.setattr(exact, "rank", spy)
        widths = []
        for t in classification._candidates(6, DEFAULT_SEARCH_BUDGET):
            derivation_dim(t)
            widths += [t.q * t.q] * (len(seen) - len(widths))
        assert len(seen) == 93
        assert max(len(rows) for rows, _ in seen) == 54
        for (rows, r), width in zip(seen, widths):
            # the gamma_A rows come as {column: entry} dicts over q^2 columns
            assert all(isinstance(row, dict) for row in rows)
            assert r == bareiss_rank([[row.get(j, 0) for j in range(width)] for row in rows])


class TestSolveInverse:
    def test_inverse_roundtrip(self):
        m = IntMatrix.from_rows([[2, 1], [1, 1]])
        inv = inverse(m)
        assert inv is not None
        assert inv.rows == ((Fraction(1), Fraction(-1)), (Fraction(-1), Fraction(2)))
        product = m @ inv
        assert all(
            product[i, j] == (1 if i == j else 0) for i in range(2) for j in range(2)
        )

    @given(st.integers(min_value=1, max_value=5).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                       entries), max_size=12))))
    def test_unimodular_inverse_is_integral(self, case):
        # a product of row additions is unimodular, so its inverse is integral
        n, ops = case
        rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for i, j, c in ops:
            if i != j:
                rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        inv = inverse(IntMatrix.from_rows(rows))
        assert all(type(x) is int for row in inv.rows for x in row)
        assert inv.rows == oracle_inverse(rows)

    def test_non_integral_inverse_keeps_fractions(self):
        inv = inverse(IntMatrix.from_rows([[2, 0], [1, 1]]))
        assert inv.rows == ((Fraction(1, 2), 0), (Fraction(-1, 2), 1))
        assert [type(x) for row in inv.rows for x in row] == [Fraction, int, Fraction, int]

    def test_inverse_singular_returns_none(self):
        assert inverse(IntMatrix.from_rows([[1, 2], [2, 4]])) is None

    def test_inverse_rejects_non_square(self):
        with pytest.raises(ValueError):
            inverse(IntMatrix.from_rows([[1, 2]]))

    def test_nullspace_dimension(self):
        basis = nullspace([[1, 1, 0], [0, 0, 1]], 3)
        assert len(basis) == 1
        (vec,) = basis
        assert vec[0] == -vec[1] and vec[2] == 0

    @given(matrices(4))
    def test_nullspace_vectors_annihilated(self, rows):
        m = IntMatrix.from_rows(rows)
        basis = nullspace(rows, m.ncols)
        assert len(basis) == m.ncols - m.rank()
        for vec in basis:
            assert all(x == 0 for x in m.apply(vec))


def gf2_span(vectors) -> set[int]:
    span = {0}
    for g in vectors:
        span |= {x ^ g for x in span}
    return span


@st.composite
def gf2_systems(draw):
    """A width from 1 to 8 and up to 8 equations (mask, rhs) of that width."""
    width = draw(st.integers(min_value=1, max_value=8))
    masks = st.integers(min_value=0, max_value=(1 << width) - 1)
    return width, draw(st.lists(st.tuples(masks, st.integers(min_value=0, max_value=1)),
                                max_size=8))


class TestGF2:
    def test_lex_order_matches_numeric(self):
        # coordinate 0 occupies the most significant bit by design, so
        # (0, 1, 1) sorts before (1, 0, 0), and the least solution of
        # x0 + x1 = 1 in width 3 is (0, 1, 0)
        assert 0b011 < 0b100
        assert gf2_solve_min([(0b110, 1)], 3) == 0b010

    @given(
        st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=6),
        st.integers(min_value=0, max_value=15),
    )
    def test_reduce_is_minimum_of_coset(self, gens, target):
        basis = gf2_echelon(gens)
        reduced = gf2_reduce(target, basis)
        coset = {target ^ x for x in gf2_span(gens)}
        assert reduced == min(coset)
        assert reduced in coset

    @given(st.lists(st.integers(min_value=0, max_value=255), max_size=10),
           st.integers(min_value=0, max_value=255))
    def test_echelon_is_a_reduced_basis(self, vectors, target):
        basis = gf2_echelon(vectors)
        assert gf2_span(basis) == gf2_span(vectors)
        tops = [1 << (b.bit_length() - 1) for b in basis]
        assert tops == sorted(set(tops), reverse=True)
        assert all(not b & top for b in basis for top in tops
                   if top != 1 << (b.bit_length() - 1))
        assert gf2_reduce(target, basis) == min(target ^ x for x in gf2_span(vectors))

    @given(gf2_systems())
    @example((1, [(0, 1)]))
    @example((3, [(0b110, 1), (0b011, 1), (0b101, 1)]))
    @example((8, []))
    def test_solve_min_matches_exhaustion(self, system):
        width, equations = system
        solutions = [
            x
            for x in range(1 << width)
            if all(bin(x & mask).count("1") % 2 == rhs for mask, rhs in equations)
        ]
        got = gf2_solve_min(equations, width)
        if solutions:
            assert got == min(solutions)
        else:
            assert got is None
