"""Exact linear algebra over the integers and the rationals.

Everything here is deterministic and allocation-light: matrices are tuples of
tuples, ranks go through fraction-free (Bareiss) elimination once each row's
denominators are cleared, and anything that genuinely needs division is done
with fractions.Fraction; a square matrix is singular exactly when its rank
falls short.  Linear algebra over GF(2) is in `gf2`, which needs no
rational arithmetic.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from fractions import Fraction

from .record import Record

Scalar = int | Fraction


def format_scalar(x: Scalar) -> str:
    """An int or Fraction in lowest terms as text: '3' or '-1/2'."""
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


class IntMatrix(Record):
    """Immutable matrix with int or Fraction entries."""

    rows: tuple[tuple[Scalar, ...], ...]

    def __post_init__(self):
        if self.rows:
            w = len(self.rows[0])
            if any(len(r) != w for r in self.rows):
                raise ValueError("ragged matrix")

    @staticmethod
    def from_rows(rows: Iterable[Sequence[Scalar]]) -> "IntMatrix":
        return IntMatrix(tuple(tuple(r) for r in rows))

    @staticmethod
    def zero(n: int, m: int) -> "IntMatrix":
        return IntMatrix(tuple((0,) * m for _ in range(n)))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def __getitem__(self, ij: tuple[int, int]) -> Scalar:
        return self.rows[ij[0]][ij[1]]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.rows)) if self.rows else ())

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        return IntMatrix(tuple(tuple(a + b for a, b in zip(ra, rb))
                               for ra, rb in zip(self.rows, other.rows)))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return IntMatrix(tuple(tuple(a - b for a, b in zip(ra, rb))
                               for ra, rb in zip(self.rows, other.rows)))

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(tuple(tuple(-a for a in r) for r in self.rows))

    def scale(self, c: Scalar) -> "IntMatrix":
        return IntMatrix(tuple(tuple(c * a for a in r) for r in self.rows))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        cols = other.transpose().rows
        return IntMatrix(tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                               for row in self.rows))

    def apply(self, vec: Sequence[Scalar]) -> tuple[Scalar, ...]:
        if self.ncols != len(vec):
            raise ValueError("shape mismatch")
        return tuple(sum(a * x for a, x in zip(row, vec)) for row in self.rows)

    def rank(self) -> int:
        return rank(self.rows)

    def is_zero(self) -> bool:
        return all(a == 0 for r in self.rows for a in r)


def _integer_rows(rows: Sequence[Sequence[Scalar]]) -> list[list[int]]:
    """Clear denominators row by row; row scaling preserves rank."""
    scales = [math.lcm(*(a.denominator for a in row)) for row in rows]
    return [[int(a * c) for a in row] for row, c in zip(rows, scales)]


def _bareiss(m: list[list[int]]) -> int:
    """Fraction-free elimination of integer rows in place (Bareiss, Math.
    Comp. 22, 1968); returns the rank."""
    nr = len(m)
    nc = len(m[0]) if nr else 0
    prev = 1
    r = 0
    for c in range(nc):
        if r == nr:
            break
        piv = next((i for i in range(r, nr) if m[i][c] != 0), None)
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


def rank(rows: Sequence[Sequence[Scalar]]) -> int:
    """Rank via fraction-free (Bareiss) elimination on integer rows."""
    return _bareiss(_integer_rows(rows))


def _rref(m: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """In-place reduced row echelon form; returns (rows, pivot columns)."""
    nr = len(m)
    nc = len(m[0]) if nr else 0
    pivots: list[int] = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        piv = next((i for i in range(r, nr) if m[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [a * inv for a in m[r]]
        for i in range(nr):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def rref(rows: Sequence[Sequence[Scalar]]) -> tuple[list[list[Fraction]], list[int]]:
    m = [[Fraction(a) for a in r] for r in rows]
    if not m:
        return [], []
    return _rref(m)


def nullspace(rows: Sequence[Sequence[Scalar]], ncols: int | None = None) -> list[tuple[Fraction, ...]]:
    """Basis of the right kernel, echelon-ordered, deterministic."""
    if not rows:
        n = ncols or 0
        return [tuple(Fraction(1) if i == j else Fraction(0) for j in range(n)) for i in range(n)]
    red, pivots = rref(rows)
    nc = len(rows[0])
    free = [c for c in range(nc) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * nc
        vec[f] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -red[r][f]
        basis.append(tuple(vec))
    return basis


def inverse(a: IntMatrix) -> IntMatrix | None:
    """Exact inverse over the rationals, or None if singular.  An integral
    entry is an int, so products with the inverse of a unimodular matrix
    stay in integer arithmetic; the others are Fractions."""
    n = a.nrows
    if n != a.ncols:
        raise ValueError("inverse of non-square matrix")
    aug = [list(map(Fraction, row)) + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
           for i, row in enumerate(a.rows)]
    red, pivots = _rref(aug)
    if pivots != list(range(n)):
        return None
    return IntMatrix(tuple(tuple(x.numerator if x.denominator == 1 else x
                                 for x in red[i][n:]) for i in range(n)))
