"""Linear algebra over GF(2), on vectors encoded as plain ints.

A vector of width w is an int with coordinate j at bit (w-1-j), so
lexicographic order on coordinate tuples equals numeric order on the
encodings, and the least member of a coset comes from greedy elimination of
leading bits.  The sign classes solve their sign constraints here: negating
a basis vector flips every bracket that touches it, which is addition of a
fixed vector over GF(2).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence


def gf2_from_bits(bits: Sequence[int], width: int) -> int:
    v = 0
    for j, b in enumerate(bits):
        if b & 1:
            v |= 1 << (width - 1 - j)
    return v


def gf2_to_bits(v: int, width: int) -> tuple[int, ...]:
    return tuple((v >> (width - 1 - j)) & 1 for j in range(width))


def gf2_from_support(positions: Iterable[int], width: int) -> int:
    v = 0
    for j in positions:
        v |= 1 << (width - 1 - j)
    return v


def gf2_echelon(vectors: Iterable[int]) -> list[int]:
    """Reduced basis of the span, sorted by decreasing leading bit."""
    basis: list[int] = []
    for v in vectors:
        for b in basis:
            top = 1 << (b.bit_length() - 1)
            if v & top:
                v ^= b
        if v:
            basis.append(v)
            basis.sort(key=int.bit_length, reverse=True)
    # back-substitute to reduced form
    for i, b in enumerate(basis):
        for j in range(i):
            top = 1 << (b.bit_length() - 1)
            if basis[j] & top:
                basis[j] ^= b
    return basis


def gf2_reduce(v: int, basis: Sequence[int]) -> int:
    """Lexicographically least member of the coset v + span(basis).

    With the leftmost-coordinate-is-highest-bit encoding, greedy elimination
    of leading bits is provably minimal.
    """
    for b in basis:
        top = 1 << (b.bit_length() - 1)
        if v & top:
            v ^= b
    return v


def gf2_solve_min(equations: Sequence[tuple[int, int]], width: int) -> int | None:
    """Lex-least solution x of the GF(2) system {mask . x = rhs}, or None.

    Each equation is (mask, rhs) with mask an encoded row vector.  The returned
    encoding prefers 0 in the earliest coordinates.
    """
    # eliminate the augmented rows, the right-hand side as the low bit; the
    # system is inconsistent exactly when the row 0 = 1 is in the span
    basis = gf2_echelon((m << 1) | (r & 1) for m, r in equations)
    if basis and basis[-1] == 1:
        return None
    # in reduced form each row sets its pivot coordinate to its right-hand
    # side once the free coordinates are 0
    x = 0
    for b in basis:
        if b & 1:
            x |= 1 << (b.bit_length() - 2)
    # lex-minimize over the homogeneous solution space
    return gf2_reduce(x, gf2_nullspace([b >> 1 for b in basis], width))


def gf2_nullspace(masks: Sequence[int], width: int) -> list[int]:
    """Reduced basis of {x : mask . x = 0 for all masks}."""
    basis = gf2_echelon(masks)
    pivots = [width - b.bit_length() for b in basis]
    pivot_set = set(pivots)
    out = []
    for f in range(width):
        if f in pivot_set:
            continue
        fbit = 1 << (width - 1 - f)
        vec = fbit
        for b, pc in zip(basis, pivots):
            if b & fbit:
                vec |= 1 << (width - 1 - pc)
        out.append(vec)
    return gf2_echelon(out)
