"""Exact linear algebra over Q and GF(2): cross-checked against Fraction
elimination and brute force."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from unilie.exact import (
    IntMatrix,
    inverse,
    nullspace,
    rank,
    rref,
)
from unilie.gf2 import (
    gf2_echelon,
    gf2_from_bits,
    gf2_from_support,
    gf2_nullspace,
    gf2_reduce,
    gf2_solve_min,
    gf2_to_bits,
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


class TestRankDet:
    @given(matrices())
    def test_rank_matches_fraction_elimination(self, rows):
        assert rank(rows) == naive_rank(rows)

    @given(matrices())
    def test_rank_fraction_agrees(self, rows):
        frac_rows = [[Fraction(x, 3) for x in row] for row in rows]
        assert rank_fraction(frac_rows) == naive_rank(rows)

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
        # the Fraction Gauss-Jordan inverse: rref of [A | I]
        aug = [row + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(rows)]
        assert inv.rows == tuple(tuple(row[n:]) for row in rref(aug)[0])

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

    def test_rref_idempotent(self):
        rows = [[Fraction(2), Fraction(4)], [Fraction(1), Fraction(2)]]
        once, pivots = rref(rows)
        again, pivots2 = rref(once)
        assert again == once and pivots2 == pivots == [0]


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
