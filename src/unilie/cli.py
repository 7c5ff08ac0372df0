"""Command-line surface.

Verbs: verify, family, analyze, iso, orbit, classify, factorize, export.
Reports are a human-readable section followed by a fenced ```machine block
holding deterministic JSON, so scripted callers parse the fence and people
read the prose.  Exit codes: 0 success, 1 property fails, 2 usage error,
3 budget exceeded, 4 undetermined isomorphism question.

Parsing the command line loads no library module, so `--help` and usage
errors stay cheap; each verb imports the modules it uses when it runs.
This module holds the parser, the report plumbing and the two verbs that
read no file, `classify` and `factorize`; the verbs that read or write
object files are in `fileverbs`, which only those verbs import.
"""

from __future__ import annotations

import argparse
import importlib
import sys

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_UNDETERMINED = 4


class _Usage(Exception):
    pass


def _machine(payload: dict) -> str:
    import json
    return "```machine\n" + json.dumps(payload, sort_keys=True, indent=2) + "\n```\n"


def _emit(args, human: str, payload: dict, file_body: str | None = None) -> None:
    """Print the report; --output receives the loadable object body when a
    verb produces one, else the full report."""
    text = human.rstrip("\n") + "\n\n" + _machine(payload)
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(file_body if file_body is not None else text)
        except OSError as exc:
            raise _Usage(f"cannot write {args.output}: {exc.strerror}")
    sys.stdout.write(text)


# ---------------------------------------------------------------------------
# verbs

def _render_split(split) -> tuple[str, dict]:
    """Human line and machine entry for a Split of refine()."""
    return (" | ".join(",".join(map(str, part)) for part in split.parts)
            + f" by {split.invariant} "
            + " | ".join(map(str, split.values)),
            {"kind": split.invariant, "cases": split.parts, "values": split.values})


def classify(args) -> int:
    from .classification import classify_detailed, count_line
    try:
        rows, splits, open_blocks = classify_detailed(args.qmax, budget=args.budget)
    except ValueError as exc:
        raise _Usage(str(exc))
    header = f"{'case':>4}  {'(p,q,r)':<22} {'s':>2}  {'merged':>6}  family"
    lines = [count_line(rows, open_blocks, args.qmax), header, "-" * len(header)]
    row_payload = []
    for r in rows:
        types = " = ".join(f"({p},{q},{rr})" for (p, q, rr) in r.types)
        fam = ", ".join(r.family) if r.family else "-"
        lines.append(f"{r.case:>4}  {types:<22} {r.s:>2}  {r.merged:>6}  {fam}")
        row_payload.append({
            "case": r.case, "types": [list(t) for t in r.types], "s": r.s,
            "merged": r.merged, "heisenberg": r.heisenberg,
            "family": list(r.family),
            "representative": r.representative.to_data()})
    rendered = [_render_split(split) for split in splits]
    lines += ["", "splits: the cases of each part, the invariant, its value on each part"]
    lines += ["  " + human for human, _ in rendered]
    if open_blocks:
        lines += ["", "open blocks, cases that no witness merges and no invariant splits:"]
    lines += [f"  {','.join(map(str, b.cases))} share "
              + ", ".join(f"{k} {v}" for k, v in b.shared) for b in open_blocks]
    payload = {"qmax": args.qmax, "classes": row_payload,
               "splits": [entry for _, entry in rendered],
               "open_blocks": [{"cases": b.cases, "shared": dict(b.shared)}
                               for b in open_blocks]}
    _emit(args, "\n".join(lines), payload)
    return EXIT_UNDETERMINED if open_blocks else EXIT_OK


def factorize(args) -> int:
    from .factorizations import near_one_factorizations, one_factorizations
    n = args.n
    if not 2 <= n <= 8:
        raise _Usage(f"factorize supports n from 2 to 8, got {n}")
    report = (one_factorizations(n, budget=args.budget) if n % 2 == 0
              else near_one_factorizations(n, budget=args.budget))
    lines = [f"{report.kind}s of the complete graph on {n} vertices:",
             f"{report.labeled_count} labeled, "
             f"{len(report.classes)} up to equivalence"]
    payload = {"n": n, "kind": report.kind,
               "labeled_count": report.labeled_count,
               "classes": [c.to_data() for c in report.classes]}
    for idx, c in enumerate(report.classes, start=1):
        lines.append(f"class {idx}:")
        for (t, h, k) in c.sorted_arcs():
            lines.append(f"  {t} {h} {k}")
    _emit(args, "\n".join(lines), payload)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing

def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: '{text}'")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


# verb name -> (help text, module of its handler), in the order --help lists
# them; the handler is the module's function named after the verb, and the
# module is imported when the verb runs
_VERBS = {
    "verify": ("uniformity report", "fileverbs"),
    "family": ("emit a construction", "fileverbs"),
    "analyze": ("full structure dossier", "fileverbs"),
    "iso": ("equivalence/isomorphism/witness check", "fileverbs"),
    "orbit": ("diagonal sign classes", "fileverbs"),
    "classify": ("small-q classification", "cli"),
    "factorize": ("matching factorizations of K_n", "cli"),
    "export": ("rewrite an object in a format", "fileverbs"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unilie",
        description="uniformly colored digraphs and their nilpotent Lie algebras")
    sub = parser.add_subparsers(dest="verb", required=True)

    verbs = {}
    for name, (text, _) in _VERBS.items():
        verbs[name] = sub.add_parser(name, help=text)
        verbs[name].add_argument("--output",
                                 help="also write the report to this file")
    for name in ("verify", "analyze", "iso", "orbit", "export"):
        verbs[name].add_argument(
            "--input", action="append",
            help="input file (repeatable where a verb takes several)")
    for name, default in (("family", "text"), ("export", "dot")):
        verbs[name].add_argument("--format", choices=("text", "dot", "data"),
                                 default=default)
    for name in ("iso", "orbit", "classify", "factorize"):
        verbs[name].add_argument(
            "--budget", type=_positive_int,
            help="search node budget before aborting with exit 3")
    verbs["iso"].add_argument(
        "--strict-equivalence", action="store_true",
        help="make graph equivalence respect arc directions")
    verbs["family"].add_argument("name")
    verbs["family"].add_argument("params", nargs="*")
    verbs["family"].add_argument("--variant")
    verbs["classify"].add_argument("--qmax", type=_positive_int, default=5)
    verbs["factorize"].add_argument("n", type=int)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    from .graphs import DEFAULT_SEARCH_BUDGET, BudgetExceededError
    # the default is filled in here so that parsing imports no library module
    if hasattr(args, "budget") and args.budget is None:
        args.budget = DEFAULT_SEARCH_BUDGET
    module = importlib.import_module(f"{__package__}.{_VERBS[args.verb][1]}")
    try:
        return getattr(module, args.verb)(args)
    except _Usage as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except BudgetExceededError as exc:
        sys.stderr.write(f"budget exceeded: {exc}\n")
        return EXIT_BUDGET


if __name__ == "__main__":
    # run as `python -m unilie.cli`, this module is __main__; registering it
    # under its own name too makes `fileverbs` import it rather than a second
    # copy, whose _Usage this main would not catch
    sys.modules[f"{__package__}.cli"] = sys.modules[__name__]
    sys.exit(main())
