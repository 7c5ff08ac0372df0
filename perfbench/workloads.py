"""The benchmark's workloads: what each one runs, the inputs it makes from a
seed, and the facts every invocation must report.

A workload is a list of steps.  A step is one interpreter invocation: the
arguments after the interpreter, the exit codes it may end with, and a check
of its standard output that returns a list of problems (empty when every fact
holds).  Facts are checked independently of the library wherever that is
cheap, and never depend on labeling.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

CLI = ("-m", "unilie.cli")
CENSUS = "perfbench/census.py"

# The 12 classes of `classify --qmax 5`: (types, s, merged, heisenberg, family).
Q5_ROWS = [
    ([[1, 2, 1]], 1, 1, True, ["heisenberg(1)"]),
    ([[3, 3, 1]], 2, 1, False, ["free(3)"]),
    ([[1, 4, 2]], 1, 1, True, ["heisenberg(2)"]),
    ([[2, 4, 1], [2, 4, 2]], 1, 2, False,
     ["heisenberg(1)+heisenberg(1)", "ring(2,primed)"]),
    ([[2, 4, 2]], 2, 1, True, ["ring(2)"]),
    ([[3, 4, 2]], 3, 1, True, ["quaternionic"]),
    ([[3, 4, 2]], 3, 1, False, ["quaternionic-associate"]),
    ([[4, 4, 1]], 2, 1, False, ["cyclic(4)"]),
    ([[6, 4, 1]], 3, 1, False, ["free(4)"]),
    ([[5, 5, 1]], 2, 1, False, ["cyclic(5)"]),
    ([[5, 5, 2]], 4, 1, False, ["k5-near-factorization"]),
    ([[10, 5, 1]], 4, 1, False, ["free(5)"]),
]

# Regular graphs with degree >= 1 on q vertices, up to isomorphism.
CENSUS_GRAPHS = {2: 1, 3: 1, 4: 3, 5: 2, 6: 7, 7: 5}
# Uniform colorings, up to equivalence, summed over all graphs on <= q vertices.
CENSUS_COLORINGS = {5: 11, 6: 37}


@dataclass(frozen=True)
class Step:
    label: str
    argv: tuple[str, ...]
    exit_codes: tuple[int, ...]
    check: Callable[[int, str], list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    steps: Callable[[int, Path, Callable], list[Step]]


# ---------------------------------------------------------------------------
# reading reports

def machine_block(stdout: str) -> dict:
    """The JSON payload of a report's ```machine fence."""
    head, sep, rest = stdout.partition("```machine\n")
    if not sep:
        raise ValueError("no machine block in the report")
    return json.loads(rest.partition("```")[0])


def _checked(fn):
    """Turn exceptions raised while reading a report into problems."""
    def check(code: int, stdout: str) -> list[str]:
        try:
            return fn(code, stdout)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"unreadable report: {type(exc).__name__}: {exc}"]
    return check


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, want {want!r}")


def coloring_problems(q: int, arcs, p: int, r: int | None = None) -> list[str]:
    """Problems with a uniform edge coloring given as (i, j, k) arcs: each
    color class a matching of one common size, every color used, every
    vertex meeting one common number of colors."""
    problems = []
    by_color: dict[int, list[tuple[int, int]]] = {}
    pairs = set()
    for i, j, k in arcs:
        if not (1 <= i <= q and 1 <= j <= q and i != j and 1 <= k <= p):
            return [f"arc ({i}, {j}, {k}) out of range"]
        pair = (min(i, j), max(i, j))
        if pair in pairs:
            return [f"pair {pair} carries two arcs"]
        pairs.add(pair)
        by_color.setdefault(k, []).append(pair)
    if sorted(by_color) != list(range(1, p + 1)):
        problems.append(f"colors used {sorted(by_color)}, want 1..{p}")
    sizes = {len(es) for es in by_color.values()}
    if len(sizes) != 1 or (r is not None and sizes != {r}):
        problems.append(f"color class sizes {sorted(sizes)}, want one size {r}")
    for k, es in by_color.items():
        ends = [v for e in es for v in e]
        if len(ends) != len(set(ends)):
            problems.append(f"color {k} is not a matching")
    degrees = {sum(v in e for e in pairs) for v in range(1, q + 1)}
    if len(degrees) != 1:
        problems.append(f"vertex degrees {sorted(degrees)} are not all equal")
    return problems


# ---------------------------------------------------------------------------
# classify6

@_checked
def _check_classify6(code: int, stdout: str) -> list[str]:
    data = machine_block(stdout)
    problems: list[str] = []
    if code == 4:
        left, right = data["left"], data["right"]
        _expect(problems, "undetermined flag", data.get("undetermined"), True)
        _expect(problems, "undetermined pair (p, q)",
                (left["p"], left["q"]), (right["p"], right["q"]))
        _expect(problems, "undetermined pair q", left["q"], 6)
        return problems
    rows = [(r["types"], r["s"], r["merged"], r["heisenberg"], r["family"])
            for r in data["classes"] if max(t[1] for t in r["types"]) <= 5]
    _expect(problems, "q <= 5 rows", rows, Q5_ROWS)
    return problems


@_checked
def _check_classify5(code: int, stdout: str) -> list[str]:
    rows = [(r["types"], r["s"], r["merged"], r["heisenberg"], r["family"])
            for r in machine_block(stdout)["classes"]]
    problems: list[str] = []
    _expect(problems, "rows", rows, Q5_ROWS)
    return problems


def _classify5(seed: int, workdir: Path, helper) -> list[Step]:
    return [Step("classify --qmax 5", CLI + ("classify", "--qmax", "5"), (0,),
                 _check_classify5)]


def _classify6(seed: int, workdir: Path, helper) -> list[Step]:
    return [Step("classify --qmax 6", CLI + ("classify", "--qmax", "6"), (0, 4),
                 _check_classify6)]


# ---------------------------------------------------------------------------
# factorize8

@_checked
def _check_factorize8(code: int, stdout: str) -> list[str]:
    data = machine_block(stdout)
    problems: list[str] = []
    _expect(problems, "labeled count", data["labeled_count"], 6240)
    _expect(problems, "class count", len(data["classes"]), 6)
    for n, c in enumerate(data["classes"], start=1):
        _expect(problems, f"class {n} (q, p)", (c["q"], c["p"]), (8, 7))
        problems += [f"class {n}: {x}"
                     for x in coloring_problems(8, c["arcs"], 7, 4)]
        _expect(problems, f"class {n} edge count", len(c["arcs"]), 28)
    return problems


def _factorize8(seed: int, workdir: Path, helper) -> list[Step]:
    return [Step("factorize 8", CLI + ("factorize", "8"), (0,), _check_factorize8)]


# ---------------------------------------------------------------------------
# invariants

# (family arguments, facts that hold under every signed permutation)
INVARIANT_INPUTS = [
    (("kneser", "5", "2"), {"type": [5, 10, 3], "center_dim": 5,
                            "commutator_dim": 5, "derivation_dim": 57,
                            "heisenberg_type": False}),
    (("free", "6"), {"type": [15, 6, 1], "center_dim": 15,
                     "commutator_dim": 15, "derivation_dim": 126}),
]


def random_signed_perm(q: int, p: int, rng: random.Random):
    """A seeded signed permutation (pi, rho, eps, delta): the basis change
    v_i -> eps_i v_pi(i), z_k -> delta_k z_rho(k)."""
    pi = list(range(1, q + 1))
    rho = list(range(1, p + 1))
    rng.shuffle(pi)
    rng.shuffle(rho)
    eps = [rng.choice((1, -1)) for _ in range(q)]
    delta = [rng.choice((1, -1)) for _ in range(p)]
    return pi, rho, eps, delta


def apply_signed_perm(entries, perm):
    """Entries (i, j, k, s) of the same algebra after the basis change: the
    new sign is s * eps_i * eps_j * delta_k, negated again when pi reverses
    the pair.  Flipping bracket signs one by one instead would change the
    algebra."""
    pi, rho, eps, delta = perm
    out = []
    for i, j, k, s in entries:
        a, b = pi[i - 1], pi[j - 1]
        sign = s * eps[i - 1] * eps[j - 1] * delta[k - 1]
        if a > b:
            a, b, sign = b, a, -sign
        out.append((a, b, rho[k - 1], sign))
    return sorted(out)


def _tensor_text(q: int, p: int, entries) -> str:
    lines = [f"unilie-algebra v1 q={q} p={p}"]
    lines += [f"{i} {j} {k} {'+1' if s > 0 else '-1'}" for i, j, k, s in entries]
    return "\n".join(lines) + "\n"


def _invariant_check(facts: dict):
    @_checked
    def check(code: int, stdout: str) -> list[str]:
        data = machine_block(stdout)
        problems: list[str] = []
        uni = data["uniform"]
        _expect(problems, "uniform", uni["is_uniform"], True)
        _expect(problems, "type", [uni["p"], uni["q"], uni["r"]], facts["type"])
        for key in ("center_dim", "commutator_dim", "derivation_dim",
                    "heisenberg_type"):
            if key in facts:
                _expect(problems, key, data[key], facts[key])
        return problems
    return check


def _invariants(seed: int, workdir: Path, helper) -> list[Step]:
    """Each input comes from the program's own `family` verb (untimed), then
    is relabeled by a seeded signed permutation."""
    rng = random.Random(seed)
    steps = []
    for args, facts in INVARIANT_INPUTS:
        fam = machine_block(helper(CLI + ("family",) + args + ("--format", "data")))
        q, p = fam["q"], fam["p"]
        entries = [(i, j, k, 1) if i < j else (j, i, k, -1)
                   for i, j, k in fam["arcs"]]
        path = workdir / f"{'-'.join(args)}.txt"
        perm = random_signed_perm(q, p, rng)
        path.write_text(_tensor_text(q, p, apply_signed_perm(entries, perm)))
        steps.append(Step("analyze " + " ".join(args),
                          CLI + ("analyze", "--input", str(path)), (0,),
                          _invariant_check(facts)))
    return steps


# ---------------------------------------------------------------------------
# census7

def _census_check(q_max: int, color_q_max: int):
    @_checked
    def check(code: int, stdout: str) -> list[str]:
        data = json.loads(stdout)
        problems: list[str] = []
        by_q: dict[int, int] = {}
        for q, edges in data["graphs"]:
            by_q[q] = by_q.get(q, 0) + 1
            degrees = {sum(v in e for e in edges) for v in range(1, q + 1)}
            if len(degrees) != 1 or 0 in degrees:
                problems.append(f"graph on {q} vertices is not regular: {edges}")
        _expect(problems, "graphs by q", by_q,
                {q: n for q, n in CENSUS_GRAPHS.items() if q <= q_max})
        _expect(problems, "coloring count", len(data["colorings"]),
                CENSUS_COLORINGS[color_q_max])
        for q, p, arcs in data["colorings"]:
            problems += coloring_problems(q, arcs, p)
        return problems
    return check


def census_step(q_max: int, color_q_max: int) -> Step:
    return Step(f"census {q_max} {color_q_max}",
                (CENSUS, str(q_max), str(color_q_max)), (0,),
                _census_check(q_max, color_q_max))


def _census7(seed: int, workdir: Path, helper) -> list[Step]:
    return [census_step(7, 6)]


# ---------------------------------------------------------------------------
# signs6

SIGNS = "perfbench/signs.py"
SIGNS_RELABEL_SEED = 6
# (q, p, diagonal sign orbits, signed-permutation classes) of every uniform
# coloring with q <= 6 up to equivalence, except the 1-factorization of K6
# (q, p = 6, 5: 32 orbits, 3 classes), which alone takes 5 s.
SIGN_FACTS = sorted([
    (2, 1, 1, 1), (3, 3, 1, 1), (4, 1, 1, 1), (4, 2, 1, 1), (4, 2, 2, 2),
    (4, 4, 1, 1), (4, 3, 4, 2), (4, 6, 1, 1), (5, 5, 1, 1), (5, 5, 2, 1),
    (5, 10, 1, 1), (6, 1, 1, 1), (6, 3, 1, 1), (6, 2, 1, 1), (6, 3, 2, 2),
    (6, 3, 2, 2), (6, 6, 1, 1), (6, 3, 2, 2), (6, 6, 1, 1), (6, 3, 4, 2),
    (6, 9, 1, 1), (6, 3, 2, 2), (6, 9, 1, 1), (6, 4, 8, 3), (6, 6, 16, 10),
    (6, 6, 8, 8), (6, 6, 2, 2), (6, 6, 4, 4), (6, 6, 4, 3), (6, 6, 8, 8),
    (6, 6, 4, 4), (6, 6, 8, 6), (6, 6, 4, 4), (6, 6, 16, 6), (6, 12, 1, 1),
    (6, 15, 1, 1),
])


def relabel_arcs(arcs, pi, rho):
    """Arcs (i, j, k) after renaming vertex i to pi[i-1] and color k to
    rho[k-1]: the same coloring under new labels."""
    return sorted((pi[i - 1], pi[j - 1], rho[k - 1]) for i, j, k in arcs)


def _edge_colors(arcs) -> set:
    return {(min(i, j), max(i, j), k) for i, j, k in arcs}


def _signs_check(pairs):
    @_checked
    def check(code: int, stdout: str) -> list[str]:
        results = json.loads(stdout)["results"]
        problems: list[str] = []
        _expect(problems, "result count", len(results), len(pairs))
        facts = []
        for (q, p, arcs, moved), res in zip(pairs, results):
            vmap, cmap, orbits, classes, bad = res
            facts.append((q, p, orbits, classes))
            if vmap is None:
                problems.append(f"no map onto the relabeled ({q}, {p}) coloring")
            elif (sorted(vmap) != list(range(1, q + 1))
                  or sorted(cmap) != list(range(1, p + 1))
                  or _edge_colors(relabel_arcs(arcs, vmap, cmap))
                  != _edge_colors(moved)):
                problems.append(f"map for the ({q}, {p}) coloring is wrong")
            if bad:
                problems.append(f"{bad} merge witness(es) fail on ({q}, {p})")
        _expect(problems, "(q, p, orbits, classes)", sorted(facts), SIGN_FACTS)
        return problems
    return check


def _signs6(seed: int, workdir: Path, helper) -> list[Step]:
    """The colorings come from the census client (untimed); each is renamed
    by a vertex and color permutation.  The renaming is fixed, not seeded:
    the searches' cost moves by up to 15 % with the labeling, and a run
    should measure the program, not the draw."""
    rng = random.Random(SIGNS_RELABEL_SEED)
    census = json.loads(helper((CENSUS, "6", "6")))
    pairs = []
    for q, p, arcs in census["colorings"]:
        if (q, p) == (6, 5):
            continue
        pi = list(range(1, q + 1))
        rho = list(range(1, p + 1))
        rng.shuffle(pi)
        rng.shuffle(rho)
        pairs.append([q, p, arcs, relabel_arcs(arcs, pi, rho)])
    path = workdir / "signs6.json"
    path.write_text(json.dumps(pairs))
    return [Step("signs 6", (SIGNS, str(path)), (0,), _signs_check(pairs))]


WORKLOADS = {w.name: w for w in [
    Workload("classify5",
             "classify --qmax 5: the whole pipeline in one short CLI call; exact "
             "rank in derivation_dim dominates, some signed-perm merges",
             _classify5),
    Workload("signs6",
             "mapping search and signed-perm sign classes of relabeled q <= 6 "
             "colorings: mostly failing searches, GF(2) sign solves",
             _signs6),
    Workload("classify6",
             "classify --qmax 6: heaviest signed-perm merge load, mostly failing "
             "mapping searches plus GF(2) sign solves",
             _classify6),
    Workload("factorize8",
             "factorize 8: success path of the colored-graph mapping search; no "
             "algebra or exact calls",
             _factorize8),
    Workload("invariants",
             "analyze kneser 5 2 and free 6 under a seeded signed relabeling: "
             "exact rank in derivation_dim, no mapping search",
             _invariants),
    Workload("census7",
             "regular_graphs(7) and uniform_colorings for q <= 6 through the "
             "library: the only load on the q! canonical-key dedup",
             _census7),
]}
