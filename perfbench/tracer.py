"""Traced invocation: run one workload step with every public function of the
library's modules wrapped in a timing span.

    python perfbench/tracer.py OUT.json -m unilie.cli ARGS...
    python perfbench/tracer.py OUT.json perfbench/census.py ARGS...

The arguments after OUT.json are those the untraced step passes to the
interpreter.  The target module is imported, then each public function of
graphs, algebra, exact, enumeration, families, serialize and cli is wrapped,
and the wrapper is bound under every name that held the original in any
unilie module or in the target (modules bind names with `from ... import`,
so patching the defining module alone would miss their calls).  The target's
main(argv) runs, and at exit the per-function spans go to OUT.json:

    {"exact.rank": {"calls": ..., "self_s": ..., ...}, ...}

A span stack gives self time: a span's duration minus the time its wrapped
children took.  Per-function extras: `found` (result is not None) for the
searches, `solved` for gf2_solve_min, matrix shapes for exact.rank, and the
returned graph count for regular_graphs.
"""

from __future__ import annotations

import functools
import importlib
import importlib.util
import inspect
import json
import sys
import time

MODULES = ("graphs", "algebra", "exact", "enumeration", "families",
           "serialize", "cli")


def _found(stats, args, result):
    stats["found"] += result is not None


def _solved(stats, args, result):
    stats["solved"] += result is not None


def _rank_shape(stats, args, result):
    rows = args[0]
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    stats["max_rows"] = max(stats["max_rows"], nr)
    stats["max_cols"] = max(stats["max_cols"], nc)
    stats["cells"] += nr * nc


def _graph_count(stats, args, result):
    stats["graphs"] += len(result)


# key -> (extra counters, hook run on each result)
EXTRAS = {
    "graphs.colorings_equivalent": (("found",), _found),
    "algebra.signed_perm_isomorphic": (("found",), _found),
    "exact.gf2_solve_min": (("solved",), _solved),
    "exact.rank": (("max_rows", "max_cols", "cells"), _rank_shape),
    "enumeration.regular_graphs": (("graphs",), _graph_count),
}


class Tracer:
    def __init__(self):
        self.stack: list[list[float]] = []
        self.functions: dict[str, dict] = {}

    def wrap(self, key: str, fn):
        names, hook = EXTRAS.get(key, ((), None))
        stats = {"calls": 0, "self_s": 0.0}
        stats.update(dict.fromkeys(names, 0))
        self.functions[key] = stats
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stats["calls"] += 1
                stats["self_s"] += elapsed - children[0]
            if hook is not None:
                hook(stats, args, result)
            return result
        return span

    def install(self, extra_modules=()) -> None:
        wrapped = {}
        for short in MODULES:
            mod = importlib.import_module(f"unilie.{short}")
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrapped[id(obj)] = self.wrap(f"{short}.{name}", obj)
        targets = [m for n, m in sys.modules.items()
                   if n == "unilie" or n.startswith("unilie.")]
        for mod in targets + list(extra_modules):
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    setattr(mod, name, wrapped[id(obj)])


def _load_target(argv: list[str]):
    """The module a step runs and the argv its main() receives."""
    if argv[0] == "-m":
        return importlib.import_module(argv[1]), argv[2:]
    spec = importlib.util.spec_from_file_location("_traced_target", argv[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module, argv[1:]


def main() -> int:
    out_path, target_argv = sys.argv[1], sys.argv[2:]
    module, argv = _load_target(target_argv)
    tracer = Tracer()
    tracer.install([module])
    try:
        return module.main(argv)
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump(tracer.functions, fh, sort_keys=True)


if __name__ == "__main__":
    sys.exit(main())
