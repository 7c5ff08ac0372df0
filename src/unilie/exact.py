"""Exact linear algebra over the integers and the rationals.

Everything here is deterministic and allocation-light: matrices are tuples of
tuples, and rank, kernel and inverse all read one fraction-free Gauss-Jordan
elimination over the integers on sparse rows, once each row's denominators
are cleared.  `rank` takes each row dense, as a sequence of entries, or
sparse, as a {column: entry} dict.  Rational values appear only in answers:
kernel vectors hold fractions.Fraction, and so does each non-integral
inverse entry; `fractions` is imported only where such a value is made, so
a caller whose inputs and answers are integral never loads it.  A square
matrix is singular exactly when its rank falls short.  Linear algebra over
GF(2) is in `gf2`, which needs no rational arithmetic.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

from .record import Record


def format_scalar(x: int | Fraction) -> str:
    """An int or Fraction in lowest terms as text: '3' or '-1/2'."""
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


class IntMatrix(Record):
    """Immutable matrix with int or Fraction entries."""

    rows: tuple[tuple[int | Fraction, ...], ...]

    def __post_init__(self):
        if self.rows:
            w = len(self.rows[0])
            if any(len(r) != w for r in self.rows):
                raise ValueError("ragged matrix")

    @staticmethod
    def from_rows(rows: Iterable[Sequence[int | Fraction]]) -> "IntMatrix":
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

    def __getitem__(self, ij: tuple[int, int]) -> int | Fraction:
        return self.rows[ij[0]][ij[1]]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.rows)) if self.rows else ())

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return IntMatrix(tuple(tuple(a + b for a, b in zip(ra, rb))
                               for ra, rb in zip(self.rows, other.rows)))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + -other

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(tuple(tuple(-a for a in r) for r in self.rows))

    def scale(self, c: int | Fraction) -> "IntMatrix":
        return IntMatrix(tuple(tuple(c * a for a in r) for r in self.rows))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        cols = other.transpose().rows
        return IntMatrix(tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                               for row in self.rows))

    def apply(self, vec: Sequence[int | Fraction]) -> tuple[int | Fraction, ...]:
        if self.ncols != len(vec):
            raise ValueError("shape mismatch")
        return tuple(sum(a * x for a, x in zip(row, vec)) for row in self.rows)

    def rank(self) -> int:
        return rank(self.rows)

    def is_zero(self) -> bool:
        return all(a == 0 for r in self.rows for a in r)


def _integer_rows(rows: Sequence[Sequence[int | Fraction] | dict[int, int | Fraction]]
                  ) -> list[dict[int, int]]:
    """Each row, dense or a {column: entry} dict, as {column: nonzero
    entry}, scaled to a primitive integer row: denominators cleared, then the
    gcd of the entries divided out."""
    sparse = []
    for row in rows:
        ints = {j: a for j, a in (row.items() if isinstance(row, dict)
                                  else enumerate(row)) if a}
        if not all(type(a) is int for a in ints.values()):
            scale = math.lcm(*(a.denominator for a in ints.values()))
            ints = {j: int(a * scale) for j, a in ints.items()}
        g = math.gcd(*ints.values())
        sparse.append({j: a // g for j, a in ints.items()} if g > 1 else ints)
    return sparse


def _combine(row: dict[int, int], other: dict[int, int], c: int) -> dict[int, int]:
    """The primitive integer row spanned by other[c] * row - row[c] * other,
    which is zero in column c."""
    g = math.gcd(row[c], other[c])
    a, b = other[c] // g, row[c] // g
    out = {j: a * x for j, x in row.items()}
    for j, y in other.items():
        x = out.get(j, 0) - b * y
        if x:
            out[j] = x
        else:
            del out[j]
    g = math.gcd(*out.values())
    return {j: x // g for j, x in out.items()} if g > 1 else out


def _eliminate(rows: Sequence[Sequence[int | Fraction] | dict[int, int | Fraction]]
               ) -> dict[int, dict[int, int]]:
    """Fraction-free Gauss-Jordan elimination over the integers on sparse
    rows: the reduced row echelon form of their span, up to the scale of
    each row, keyed by pivot column.

    Each incoming row is cleared in every held pivot column, and its
    smallest remaining column becomes a pivot, cleared from the held rows.
    A held row is zero in every other pivot column, so clearing one column
    never refills another, and a row's leading column never moves."""
    held: dict[int, dict[int, int]] = {}
    for row in _integer_rows(rows):
        for c in [c for c in row if c in held]:
            row = _combine(row, held[c], c)
        if row:
            lead = min(row)
            for c, other in held.items():
                if lead in other:
                    held[c] = _combine(other, row, lead)
            held[lead] = row
    return held


def rank(rows: Sequence[Sequence[int | Fraction] | dict[int, int | Fraction]]) -> int:
    """Rank of a matrix given as rows of ints or Fractions, each dense or a
    {column: entry} dict."""
    return len(_eliminate(rows))


def nullspace(rows: Sequence[Sequence[int | Fraction]], ncols: int | None = None
              ) -> list[tuple[Fraction, ...]]:
    """Basis of the right kernel of dense rows, one vector per free column in
    increasing order: 1 there, 0 at the other free columns (the reduced
    echelon basis).  ncols gives the width when there are no rows."""
    from fractions import Fraction
    nc = len(rows[0]) if rows else ncols or 0
    held = _eliminate(rows)
    basis = []
    for f in range(nc):
        if f not in held:
            vec = [Fraction(0)] * nc
            vec[f] = Fraction(1)
            for c, row in held.items():
                if f in row:
                    vec[c] = Fraction(-row[f], row[c])
            basis.append(tuple(vec))
    return basis


def inverse(a: IntMatrix) -> IntMatrix | None:
    """Exact inverse over the rationals, or None if singular.  An integral
    entry is an int, so products with the inverse of a unimodular matrix
    stay in integer arithmetic, and `fractions` is loaded only for a
    non-integral entry, which is a Fraction."""
    n = a.nrows
    if n != a.ncols:
        raise ValueError("inverse of non-square matrix")
    # [A | I] has n pivots, all of them in A exactly when A is invertible
    held = _eliminate([list(row) + [int(i == j) for j in range(n)]
                       for i, row in enumerate(a.rows)])
    if any(c >= n for c in held):
        return None
    return IntMatrix(tuple(tuple(_quotient(held[i].get(n + j, 0), held[i][i])
                                 for j in range(n)) for i in range(n)))


def _quotient(x: int, d: int) -> int | Fraction:
    """x / d as an int when d divides x, else as a Fraction."""
    if x % d:
        from fractions import Fraction
        return Fraction(x, d)
    return x // d
