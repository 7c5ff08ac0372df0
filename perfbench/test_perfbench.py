"""Tests of the benchmark itself.

    python -m pytest -q perfbench

The Tier-1 suite does not collect these (testpaths = tests).  The two tests
marked slow run the full classify6 and factorize8 steps twice, traced, and
take about a minute together.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from unilie import (SignedPermWitness, check_witness, families, from_graph,  # noqa: E402
                    signed_perm_isomorphic)
from unilie.algebra import StructureTensor  # noqa: E402

CLASSIFY5 = workloads.Step("classify --qmax 5",
                           workloads.CLI + ("classify", "--qmax", "5"), (0,),
                           lambda code, out: [])
FACTORIZE6 = workloads.Step("factorize 6", workloads.CLI + ("factorize", "6"),
                            (0,), lambda code, out: [])


@pytest.fixture
def runner(tmp_path):
    return run.Runner(tmp_path, deadline=run.time.monotonic() + 600)


def _counts(values: dict) -> dict:
    return {k: v for k, v in values.items() if not k.endswith("self_s")}


def _traced(runner, steps) -> dict:
    session = runner.session(steps, traced=True)
    assert session.failed == 0, session.problems
    return run.layer_values(session.traces)


# ---------------------------------------------------------------------------
# inputs

@pytest.mark.parametrize("name", ["quaternionic", "kneser"])
def test_signed_relabel_is_an_isomorphism(name):
    g = families.kneser(5, 2) if name == "kneser" else families.quaternionic()
    t = from_graph(g)
    rng = random.Random(7)
    for _ in range(5):
        perm = workloads.random_signed_perm(t.q, t.p, rng)
        moved = StructureTensor.from_entries(
            t.q, t.p, workloads.apply_signed_perm(t.sorted_entries(), perm))
        pi, rho, eps, delta = perm
        witness = SignedPermWitness(tuple(pi), tuple(rho), tuple(eps), tuple(delta))
        assert check_witness(t, moved, witness).ok
        if name == "quaternionic":
            assert signed_perm_isomorphic(t, moved) is not None


def test_invariant_inputs_depend_on_seed_only(runner, tmp_path):
    a = workloads.WORKLOADS["invariants"].steps(11, tmp_path, runner.run_helper)
    first = [Path(s.argv[-1]).read_text() for s in a]
    b = workloads.WORKLOADS["invariants"].steps(11, tmp_path, runner.run_helper)
    assert [Path(s.argv[-1]).read_text() for s in b] == first
    c = workloads.WORKLOADS["invariants"].steps(12, tmp_path, runner.run_helper)
    assert [Path(s.argv[-1]).read_text() for s in c] != first


# ---------------------------------------------------------------------------
# fact checks

def test_checks_accept_real_reports_and_reject_altered_ones(runner):
    step = workloads.census_step(5, 5)
    inv = runner.spawn(step.argv)
    assert run.step_problems(step, inv) == []
    data = json.loads(inv.stdout)
    data["colorings"].pop()
    assert step.check(0, json.dumps(data))
    data = json.loads(inv.stdout)
    q, p, arcs = data["colorings"][-1]
    arcs[0][2] = arcs[1][2] if arcs[0][2] != arcs[1][2] else arcs[0][2] % p + 1
    assert step.check(0, json.dumps(data))
    assert step.check(0, "not json")


def test_signs_check_accepts_real_report_and_rejects_altered_ones(runner, tmp_path):
    (step,) = workloads.WORKLOADS["signs6"].steps(3, tmp_path, runner.run_helper)
    inv = runner.spawn(step.argv)
    assert run.step_problems(step, inv) == []
    data = json.loads(inv.stdout)
    vmap = data["results"][-1][0]
    vmap[0], vmap[1] = vmap[1], vmap[0]
    assert step.check(0, json.dumps(data))
    data = json.loads(inv.stdout)
    data["results"][-1][3] += 1
    assert step.check(0, json.dumps(data))
    data = json.loads(inv.stdout)
    data["results"][0][4] = 1
    assert step.check(0, json.dumps(data))


def test_relabel_arcs_keeps_the_coloring():
    arcs = [(1, 2, 1), (3, 4, 1), (1, 3, 2), (2, 4, 2)]
    moved = workloads.relabel_arcs(arcs, [4, 1, 2, 3], [2, 1])
    assert moved == [(1, 3, 1), (2, 3, 2), (4, 1, 2), (4, 2, 1)]
    assert workloads.coloring_problems(4, moved, 2, 2) == []


def test_reference_session_divides_by_the_reference(runner):
    s = runner.session([CLASSIFY5], reference=run.REFERENCE_STEP)
    assert s.failed == 0 and s.invocations == 3, s.problems
    before, after = s.ref_walls
    assert s.wall_vs_ref == pytest.approx(s.wall / ((before + after) / 2))
    assert s.cpu_vs_ref > 0


def test_coloring_problems():
    k4 = [(1, 2, 1), (3, 4, 1), (1, 3, 2), (2, 4, 2), (1, 4, 3), (2, 3, 3)]
    assert workloads.coloring_problems(4, k4, 3, 2) == []
    assert workloads.coloring_problems(4, k4, 3, 3)
    bad = [(1, 2, 1), (1, 3, 1)] + k4[2:4]
    assert workloads.coloring_problems(4, bad, 2)


def test_classify5_check_wants_exactly_the_q5_rows():
    rows = [{"types": t, "s": s, "merged": m, "heisenberg": h, "family": f}
            for (t, s, m, h, f) in workloads.Q5_ROWS]
    report = "```machine\n" + json.dumps({"classes": rows}) + "\n```\n"
    assert workloads._check_classify5(0, report) == []
    assert workloads._check_classify5(0, report.replace('"free(5)"', '"free(6)"'))
    six = {"types": [[3, 6, 2]], "s": 2, "merged": 1, "heisenberg": False,
           "family": []}
    longer = "```machine\n" + json.dumps({"classes": rows + [six]}) + "\n```\n"
    assert workloads._check_classify5(0, longer)


def test_classify_check_accepts_q5_rows_and_undetermined_pair():
    check = workloads._check_classify6
    rows = [{"types": t, "s": s, "merged": m, "heisenberg": h, "family": f}
            for (t, s, m, h, f) in workloads.Q5_ROWS]
    six = {"types": [[3, 6, 2]], "s": 2, "merged": 1, "heisenberg": False,
           "family": []}
    report = "table\n```machine\n" + json.dumps({"classes": rows + [six]}) + "\n```\n"
    assert check(0, report) == []
    assert check(0, report.replace('"free(5)"', '"free(6)"'))
    pair = {"undetermined": True, "left": {"q": 6, "p": 3}, "right": {"q": 6, "p": 3}}
    assert check(4, "```machine\n" + json.dumps(pair) + "\n```\n") == []
    pair["right"]["p"] = 4
    assert check(4, "```machine\n" + json.dumps(pair) + "\n```\n")


# ---------------------------------------------------------------------------
# tracing

def test_traced_counts_repeat_on_small_inputs(runner):
    """enumeration and cli bind the searches with `from ... import`; their
    calls must reach the spans too."""
    steps = [CLASSIFY5, FACTORIZE6, workloads.census_step(5, 5)]
    values = _two_traces(runner, steps)
    for key in ("algebra.signed_perm_isomorphic.calls",
                "algebra.derivation_dim.calls", "graphs.colorings_equivalent.calls",
                "exact.gf2_solve_min.calls", "exact.rank.calls",
                "enumeration.regular_graphs.graphs"):
        assert values[key] > 0, key
    self_total = sum(v for k, v in values.items() if k.endswith("self_s"))
    plain = runner.session(steps)
    assert values["cli.main.self_s"] > 0
    assert self_total < 3 * plain.wall


def test_listed_workload_counts(runner, tmp_path):
    classify5 = _two_traces(runner, workloads.WORKLOADS["classify5"].steps(0, None, None))
    assert classify5["algebra.signed_perm_isomorphic.calls"] == 37
    assert classify5["algebra.signed_perm_isomorphic.found"] == 18
    assert classify5["algebra.derivation_dim.calls"] == 6
    assert classify5["exact.rank.cells"] == 42236
    assert classify5["exact.gf2_solve_min.calls"] == 200
    signs6 = _two_traces(runner, workloads.WORKLOADS["signs6"].steps(
        0, tmp_path, runner.run_helper))
    assert signs6["graphs.colorings_equivalent.calls"] == 36
    assert signs6["graphs.colorings_equivalent.found"] == 36
    assert signs6["algebra.signed_perm_isomorphic.calls"] == 357
    assert signs6["algebra.signed_perm_isomorphic.found"] == 29
    assert signs6["exact.gf2_solve_min.calls"] == 6369
    assert signs6["exact.rank.calls"] == 0
    assert signs6["enumeration.regular_graphs.graphs"] == 0


@pytest.mark.slow
def test_classify6_counts(runner):
    steps = workloads.WORKLOADS["classify6"].steps(0, None, None)
    values = _two_traces(runner, steps)
    assert values["algebra.signed_perm_isomorphic.calls"] == 2414
    assert values["algebra.signed_perm_isomorphic.found"] == 73
    assert values["exact.gf2_solve_min.calls"] == 49498
    assert values["algebra.derivation_dim.calls"] == 26
    assert values["graphs.colorings_equivalent.calls"] == 674
    assert values["graphs.colorings_equivalent.found"] == 146


@pytest.mark.slow
def test_factorize8_counts(runner):
    steps = workloads.WORKLOADS["factorize8"].steps(0, None, None)
    values = _two_traces(runner, steps)
    assert values["graphs.colorings_equivalent.calls"] == 6234
    assert values["graphs.colorings_equivalent.found"] == 6234
    assert values["algebra.signed_perm_isomorphic.calls"] == 0
    assert values["exact.rank.calls"] == 0


def _two_traces(runner, steps):
    first, second = _traced(runner, steps), _traced(runner, steps)
    assert _counts(first) == _counts(second)
    return first


# ---------------------------------------------------------------------------
# the command-line contract

def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_listed_workloads_exist():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        assert workloads.WORKLOADS[w["name"]].why == w["why"]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_names_every_metric(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _bench("--workload", "census7", "--seed", "1", "--seconds", "1",
                  "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert not (ROOT / ".perfbench_work").exists()


def test_refuses_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "census7", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
