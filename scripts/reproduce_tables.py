#!/usr/bin/env python3
"""Reproduce the two summary tables from scratch.

Table A: isomorphism classes of uniform algebras with at most five
generators, with their presentation types and matched family names.

Table B: per regular graph, the number of inequivalent uniform colorings
and their color counts.

Run: python3 scripts/reproduce_tables.py [--qmax N]

Exits 4, after Table B, when some classes of Table A can neither be merged
nor separated; Table A lists them as open blocks.  Exits 2,
printing nothing, when --qmax is below 1 or beyond the regular-graph census
(q <= 8).
"""

import argparse
import sys
import time
from collections import Counter

from unilie.classification import classify_detailed, count_line
from unilie.enumeration import regular_graphs, uniform_colorings


def table_a(qmax: int) -> bool:
    """Print Table A; False when some classes are left in open blocks."""
    t0 = time.monotonic()
    try:
        rows, splits, open_blocks = classify_detailed(qmax)
    except ValueError as exc:
        # qmax outside the census: a usage error, as `unilie classify` reports it
        sys.stderr.write(f"usage error: {exc}\n")
        sys.exit(2)
    elapsed = time.monotonic() - t0
    print(f"Table A: {count_line(rows, open_blocks, qmax)} ({elapsed:.1f}s)")
    print(f"{'case':>4}  {'types (p,q,r)':<22} {'s':>2}  family")
    for row in rows:
        types = " = ".join(f"({p},{q},{r})" for (p, q, r) in row.types)
        names = ", ".join(row.family) if row.family else "-"
        star = " *" if row.heisenberg else ""
        print(f"{row.case:>4}  {types:<22} {row.s:>2}  {names}{star}")
    print("  (* satisfies the square-norm J identity)")
    kinds = Counter(split.invariant for split in splits)
    print("  splits by invariant: "
          + ", ".join(f"{v} {k}" for k, v in sorted(kinds.items())))
    for block in open_blocks:
        print(f"  open block: cases {', '.join(map(str, block.cases))}; shared "
              + ", ".join(f"{k} {v}" for k, v in block.shared))
    print()
    return not open_blocks


def table_b(qmax: int) -> None:
    t0 = time.monotonic()
    print(f"Table B: uniform colorings per regular graph, q <= {qmax}")
    print(f"{'q':>2} {'s':>2} {'edges':>5}  {'count':>5}  color counts")
    for g in regular_graphs(qmax):
        cols = uniform_colorings(g)
        ps = sorted(c.p for c in cols)
        s = g.degrees()[0]
        print(f"{g.q:>2} {s:>2} {len(g.arcs):>5}  {len(cols):>5}  "
              f"p in {ps}")
    print(f"  ({time.monotonic() - t0:.1f}s)")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--qmax", type=int, default=5,
                    help="largest generator count (default 5)")
    args = ap.parse_args()
    if args.qmax < 1:
        # as `unilie classify` reports it
        sys.stderr.write(f"usage error: --qmax must be at least 1, got {args.qmax}\n")
        return 2
    complete = table_a(args.qmax)
    table_b(min(args.qmax, 8))
    return 0 if complete else 4


if __name__ == "__main__":
    sys.exit(main())
