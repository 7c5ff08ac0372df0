"""Regular-graph census through the library.

    python perfbench/census.py Q_MAX COLOR_Q_MAX

Enumerates the regular graphs on at most Q_MAX vertices, then the uniform
colorings of every graph with at most COLOR_Q_MAX vertices, and prints one
JSON object: {"graphs": [[q, edges], ...], "colorings": [[q, p, arcs], ...]}.
Needs `src` on PYTHONPATH.
"""

from __future__ import annotations

import json
import sys

from unilie import regular_graphs, uniform_colorings


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    q_max, color_q_max = int(argv[0]), int(argv[1])
    graphs, colorings = [], []
    for g in regular_graphs(q_max):
        graphs.append([g.q, g.sorted_edges()])
        if g.q <= color_q_max:
            for c in uniform_colorings(g):
                colorings.append([c.q, c.p, c.sorted_arcs()])
    json.dump({"graphs": graphs, "colorings": colorings}, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
