"""The reference job: a fixed piece of pure-Python work that imports nothing
from unilie, so no change to the program moves it.

    python perfbench/reference.py

run.py runs it in a fresh interpreter before and after every timed
invocation and divides the invocation's time by the mean of the two: the
quotient cancels the host's speed at that moment.  The mix of tuple hashing,
dict and set updates and small-int arithmetic is the kind of work the
library's searches do.  Prints one line, REFERENCE_OUTPUT in run.py.
"""

from __future__ import annotations

import sys


def main() -> int:
    counts: dict[tuple[int, int, int], int] = {}
    x = 0
    for i in range(120_000):
        key = (i % 97, i % 89, x % 101)
        counts[key] = counts.get(key, 0) + 1
        seen = {key[0], key[1], i & 255}
        x = (x * 31 + len(seen) + i) % 1_000_003
    sys.stdout.write(f"{len(counts)} {x}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
