"""Exact linear algebra: cross-checked against Fraction elimination and brute force."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from unilie.exact import (
    IntMatrix,
    det,
    gf2_echelon,
    gf2_from_bits,
    gf2_from_support,
    gf2_nullspace,
    gf2_reduce,
    gf2_solve_min,
    gf2_to_bits,
    inverse,
    nullspace,
    rank,
    rref,
)

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


def rank_fraction(rows):
    # rank by plain Fraction elimination through rref(); cross-check for rank()
    return len(rref(rows)[1])


def naive_rank(rows):
    # textbook Gaussian elimination over Fraction, used only as an oracle
    work = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        for i in range(len(work)):
            if i != r and work[i][col]:
                factor = work[i][col] / work[r][col]
                work[i] = [a - factor * b for a, b in zip(work[i], work[r])]
        r += 1
    return r


def fraction_det(rows):
    """Determinant by Gauss-Jordan elimination over Fraction: the product of
    the pivots, negated for each row swap.  This was det's path for rational
    input before every determinant went through Bareiss elimination."""
    work = [[Fraction(x) for x in row] for row in rows]
    n = len(work)
    d = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if work[i][c] != 0), None)
        if pivot is None:
            return 0
        if pivot != c:
            work[c], work[pivot] = work[pivot], work[c]
            d = -d
        d *= work[c][c]
        inv = 1 / work[c][c]
        work[c] = [a * inv for a in work[c]]
        for i in range(n):
            if i != c and work[i][c] != 0:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[c])]
    return d


@st.composite
def rational_matrices(draw, square=True, max_dim=5):
    """Rational matrices with one denominator per row, times a small extra
    denominator per entry; a drawn flag makes a square one singular by
    replacing its last row with a rational combination of the others."""
    n = draw(st.integers(min_value=1, max_value=max_dim))
    m = n if square else draw(st.integers(min_value=1, max_value=max_dim))
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


class TestRankDet:
    @given(matrices())
    def test_rank_matches_fraction_elimination(self, rows):
        assert rank(rows) == naive_rank(rows)

    @given(matrices())
    def test_rank_fraction_agrees(self, rows):
        frac_rows = [[Fraction(x, 3) for x in row] for row in rows]
        assert rank_fraction(frac_rows) == naive_rank(rows)

    def test_det_known_values(self):
        assert det([[2, 1], [1, 2]]) == 3
        assert det([[0, -1], [1, 0]]) == 1
        assert IntMatrix.identity(4).det() == 1

    @given(matrices(4))
    def test_singular_iff_rank_deficient(self, rows):
        if len(rows) != len(rows[0]):
            return
        m = IntMatrix.from_rows(rows)
        assert (m.det() == 0) == (m.rank() < m.nrows)

    @given(rational_matrices())
    def test_det_matches_fraction_elimination_on_rationals(self, rows):
        assert det(rows) == fraction_det(rows)

    @given(matrices(5))
    def test_det_matches_fraction_elimination_on_integers(self, rows):
        n = min(len(rows), len(rows[0]))
        square = [row[:n] for row in rows[:n]]
        assert det(square) == fraction_det(square)
        assert isinstance(det(square), int)

    def test_det_of_rationals_is_exact(self):
        assert det([[Fraction(1, 2), 0], [0, Fraction(2, 3)]]) == Fraction(1, 3)
        assert det([[Fraction(1, 2), Fraction(1, 3)], [1, Fraction(2, 3)]]) == 0
        assert det([[Fraction(4, 2)]]) == 2

    @given(rational_matrices(square=False))
    def test_rank_on_rationals_matches_fraction_rank(self, rows):
        assert rank(rows) == rank_fraction(rows)

    @given(matrices(3), matrices(3))
    def test_det_multiplicative(self, rows_a, rows_b):
        n = min(len(rows_a), len(rows_a[0]), len(rows_b), len(rows_b[0]))
        a = IntMatrix.from_rows([row[:n] for row in rows_a[:n]])
        b = IntMatrix.from_rows([row[:n] for row in rows_b[:n]])
        assert (a @ b).det() == a.det() * b.det()


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

    def test_rref_idempotent(self):
        rows = [[Fraction(2), Fraction(4)], [Fraction(1), Fraction(2)]]
        once, pivots = rref(rows)
        again, pivots2 = rref(once)
        assert again == once and pivots2 == pivots == [0]


def charpoly(a):
    """Coefficients of det(x I - A), highest degree first, by Faddeev-LeVerrier:
    matrix products and traces only, no elimination, so it checks `det`
    independently of the Bareiss loop."""
    n = a.nrows
    coeffs = [Fraction(1)]
    mk = IntMatrix.identity(n)
    for k in range(1, n + 1):
        mk = a @ mk
        c = Fraction(-trace(mk), k)
        coeffs.append(c)
        mk = mk + IntMatrix.identity(n).scale(c)
    return tuple(coeffs)


class TestCharpoly:
    def test_charpoly_companion(self):
        # x^2 - 5x + 6 for [[5, -6], [1, 0]]
        m = IntMatrix.from_rows([[5, -6], [1, 0]])
        assert charpoly(m) == (1, -5, 6)

    def test_charpoly_rotation(self):
        m = IntMatrix.from_rows([[0, -1], [1, 0]])
        assert charpoly(m) == (1, 0, 1)

    @given(matrices(4))
    def test_charpoly_constant_term_is_det(self, rows):
        if len(rows) != len(rows[0]):
            return
        m = IntMatrix.from_rows(rows)
        coeffs = charpoly(m)
        assert coeffs[-1] == m.det() * (-1) ** m.nrows


class TestGF2:
    def test_bits_roundtrip(self):
        assert gf2_to_bits(gf2_from_bits((1, 0, 1), 3), 3) == (1, 0, 1)
        assert gf2_from_support([0, 2], 3) == gf2_from_bits((1, 0, 1), 3)

    def test_lex_order_matches_numeric(self):
        # coordinate 0 occupies the most significant bit by design
        a = gf2_from_bits((0, 1, 1), 3)
        b = gf2_from_bits((1, 0, 0), 3)
        assert a < b

    @given(
        st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=6),
        st.integers(min_value=0, max_value=15),
    )
    def test_reduce_is_minimum_of_coset(self, gens, target):
        width = 4
        basis = gf2_echelon(gens)
        reduced = gf2_reduce(target, basis)
        span = {0}
        for g in gens:
            span |= {x ^ g for x in span}
        coset = {target ^ x for x in span}
        assert reduced == min(coset)
        assert reduced in coset

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=15),
                st.integers(min_value=0, max_value=1),
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_solve_min_matches_exhaustion(self, equations):
        width = 4
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

    def test_nullspace_spans_kernel(self):
        rows = [0b110, 0b011]
        basis = gf2_nullspace(rows, 3)
        span = {0}
        for g in basis:
            span |= {x ^ g for x in span}
        kernel = {
            x
            for x in range(8)
            if all(bin(x & row).count("1") % 2 == 0 for row in rows)
        }
        assert span == kernel
