"""Sign classes of relabeled colorings through the library.

    python perfbench/signs.py INPUT.json

INPUT.json holds [[q, p, arcs, relabeled_arcs], ...]: a uniform coloring and
a relabeling of it.  For each pair this finds a vertex/color map carrying the
coloring onto its relabeling (the mapping search), then the diagonal sign
orbits of the relabeled coloring and their signed-permutation classes, and
re-checks every merge witness.  Prints one JSON object:
{"results": [[vertex_images, color_images, orbits, classes, bad_witnesses], ...]}.
Needs `src` on PYTHONPATH.
"""

from __future__ import annotations

import json
import sys

from unilie import ColoredDigraph, check_witness, colorings_equivalent, sign_class_report


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    with open(argv[0]) as f:
        pairs = json.load(f)
    results = []
    for q, p, arcs, moved_arcs in pairs:
        g = ColoredDigraph(q, p, frozenset(map(tuple, arcs)))
        moved = ColoredDigraph(q, p, frozenset(map(tuple, moved_arcs)))
        wit = colorings_equivalent(g, moved)
        report = sign_class_report(moved)
        reps = report.orbit_representatives
        bad = sum(not check_witness(reps[a], reps[b], w).ok
                  for sc in report.classes for a, b, w in sc.witnesses)
        results.append([list(wit.vertex_images) if wit else None,
                        list(wit.color_images) if wit else None,
                        len(reps), len(report.classes), bad])
    json.dump({"results": results}, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
