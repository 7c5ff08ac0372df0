"""Linear algebra over GF(2), on vectors encoded as plain ints.

A vector of width w is an int with coordinate j at bit (w-1-j), so
lexicographic order on coordinate tuples equals numeric order on the
encodings.  The least member of a coset comes from clearing leading bits
with an echelon basis, and the least solution of a system from one
elimination that pivots each row on its last coordinate.  The sign classes
solve their sign constraints here: negating a basis vector flips every
bracket that touches it, which is addition of a fixed vector over GF(2).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence


def gf2_echelon(vectors: Iterable[int]) -> list[int]:
    """Reduced basis of the span, sorted by decreasing leading bit.

    No row holds another row's leading bit, so the rows reduce a vector in
    any order; a new row's leading bit is then cleared from the others."""
    rows: dict[int, int] = {}  # leading bit -> row
    for v in vectors:
        v = gf2_reduce(v, rows.values())
        if v:
            top = 1 << (v.bit_length() - 1)
            rows = {t: b ^ v if b & top else b for t, b in rows.items()}
            rows[top] = v
    return [rows[top] for top in sorted(rows, reverse=True)]


def gf2_reduce(v: int, basis: Iterable[int]) -> int:
    """Lexicographically least member of the coset v + span(basis).

    With the leftmost-coordinate-is-highest-bit encoding, greedy elimination
    of leading bits is provably minimal, for a basis sorted by decreasing
    leading bit or a reduced one in any order.
    """
    for b in basis:
        top = 1 << (b.bit_length() - 1)
        if v & top:
            v ^= b
    return v


def gf2_solve_min(equations: Sequence[tuple[int, int]], width: int) -> int | None:
    """Lex-least solution x of the GF(2) system {mask . x = rhs}, or None.

    Each equation is (mask, rhs) with mask an encoded row vector.  One
    elimination pivots each row on its last coordinate (its lowest bit), so
    a row holds its pivot and earlier coordinates only.  Setting the pivots
    from the first coordinate on, every free coordinate 0, gives the least
    solution: where another solution first differs, earlier coordinates
    agree and fix every pivot, so that coordinate is free.
    """
    rows: dict[int, int] = {}  # pivot bit -> row, its right-hand side at bit width
    for mask, rhs in equations:
        row = mask | (rhs & 1) << width
        while row & -row in rows:
            row ^= rows[row & -row]
        if row == 1 << width:  # 0 = 1
            return None
        if row:
            rows[row & -row] = row
    x = 1 << width  # each row is orthogonal to the solution with a 1 appended
    for pivot in sorted(rows, reverse=True):
        if (rows[pivot] & x).bit_count() & 1:
            x |= pivot
    return x ^ 1 << width
