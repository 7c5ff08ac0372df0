"""unilie benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program under test is
`src/unilie`, run from source with `src` on PYTHONPATH.

Closed loop, one client: each invocation is a fresh interpreter, started only
after the previous one has exited, so every run pays the cold caches a user
at a terminal pays.  A session is one pass over a workload's steps (see
workloads.py); sessions repeat until the next one would end after --seconds.

--trace 0 prints the end-to-end metrics, each the median over the run:
  wall_vs_ref   spawn to exit of one session (input generation excluded),
                each step divided by the mean wall time of the reference
                job (reference.py) run just before and just after it
  cpu_vs_ref    user + sys CPU time of the session's children, from wait4,
                divided the same way by the reference job's CPU time
  setup_s       spawn to exit of `unilie --help`, 15 spawns spread over the
                run
  peak_rss_mib  largest resident set of a session's children
The times are divided by the reference job because the shared hosts this runs
on alternate, over seconds to minutes, between full speed and phases up to
1.8x slower, and CPU time slows with wall time.  A run's median of raw
seconds mostly measures how much of it fell into slow phases; the quotient
cancels them, and a change to the program moves it in proportion.  Raw
seconds (wall_s, cpu_s, reference_s) stay in the detail line.
--trace 1 alternates untraced and traced sessions (tracer.py) and prints the
per-layer metrics: counts and self time of the library's public functions,
by module, and the tracing overhead.

Every invocation's exit code, standard error and reported facts are checked.
The last line of standard output is the result object; the line before it
holds quartiles, sample counts, failures, a calibration loop timing and the
host description.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import CLI, WORKLOADS, Step  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACER = "perfbench/tracer.py"

SETUP_REPS = 15             # `unilie --help` spawns per run, for setup_s
SETUP_FIRST = 3             # of which before the first session
RUN_LIMIT_S = 170.0         # hard stop for one benchmark run
INPUT_TIMEOUT_S = 60.0

# (function key in the trace, counters reported for it)
LAYER_COUNTERS = [
    ("graphs.colorings_equivalent", ("calls", "found", "self_s")),
    ("algebra.signed_perm_isomorphic", ("calls", "found", "self_s")),
    ("algebra.check_witness", ("calls", "self_s")),
    ("algebra.diagonal_orbit_representatives", ("calls", "self_s")),
    ("algebra.derivation_dim", ("calls", "self_s")),
    ("exact.rank", ("calls", "self_s", "max_rows", "max_cols", "cells")),
    ("exact.gf2_solve_min", ("calls", "solved", "self_s")),
    ("exact.det", ("calls", "self_s")),
    ("enumeration.regular_graphs", ("graphs", "self_s")),
    ("enumeration.uniform_colorings", ("calls", "self_s")),
    ("enumeration.sign_class_report", ("calls", "self_s")),
    ("enumeration.classify_detailed", ("self_s",)),
    ("enumeration.one_factorizations", ("self_s",)),
    ("cli.main", ("self_s",)),
]
MAXIMA = ("max_rows", "max_cols")


@dataclass
class Invocation:
    wall: float
    cpu: float
    rss_mib: float
    code: int | None
    stdout: str
    stderr: str


@dataclass
class Session:
    wall: float = 0.0
    cpu: float = 0.0
    rss_mib: float = 0.0
    wall_vs_ref: float = 0.0
    cpu_vs_ref: float = 0.0
    ref_walls: list[float] = field(default_factory=list)
    invocations: int = 0
    failed: int = 0
    timed_out: bool = False
    problems: list[str] = field(default_factory=list)
    traces: list[dict] = field(default_factory=list)


class Runner:
    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def spawn(self, argv, timeout: float | None = None) -> Invocation:
        """Run the interpreter on argv in the checkout root and time it from
        spawn to reaping; rusage covers the child and its reaped children."""
        remaining = self.deadline - time.monotonic()
        timeout = max(1.0, min(remaining, timeout or remaining))
        out_path = self.workdir / "stdout"
        err_path = self.workdir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT,
                                    env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        code = proc.returncode
        if code < 0:
            code = None  # killed: a timeout
        return Invocation(wall, usage.ru_utime + usage.ru_stime,
                          usage.ru_maxrss / 1024.0, code,
                          out_path.read_text(errors="replace"),
                          err_path.read_text(errors="replace"))

    def run_helper(self, argv) -> str:
        """Untimed invocation for input generation; returns its stdout."""
        inv = self.spawn(argv, timeout=INPUT_TIMEOUT_S)
        if inv.code != 0:
            raise RuntimeError(f"input generation `{' '.join(argv)}` "
                               f"exited {inv.code}: {inv.stderr[-500:]}")
        return inv.stdout

    def session(self, steps: list[Step], traced: bool = False,
                reference: Step | None = None) -> Session:
        """One pass over the steps.  With a reference step, it also runs
        before the first step and after each one, and every step's time is
        divided by the mean time of the reference runs on either side."""
        s = Session()
        if reference:
            before = self.invoke(s, reference)
            s.ref_walls.append(before.wall)
        for step in steps:
            inv = self.invoke(s, step, traced)
            s.wall += inv.wall
            s.cpu += inv.cpu
            s.rss_mib = max(s.rss_mib, inv.rss_mib)
            if inv.code is None:
                s.timed_out = True
                break
            if reference is None:
                continue
            after = self.invoke(s, reference)
            if after.code is None:
                s.timed_out = True
                break
            s.wall_vs_ref += inv.wall / ((before.wall + after.wall) / 2)
            s.cpu_vs_ref += inv.cpu / ((before.cpu + after.cpu) / 2)
            s.ref_walls.append(after.wall)
            before = after
        return s

    def invoke(self, s: Session, step: Step, traced: bool = False) -> Invocation:
        """Run one step, check it and count it in the session."""
        argv = step.argv
        trace_path = self.workdir / "trace.json"
        if traced:
            trace_path.unlink(missing_ok=True)
            argv = (TRACER, str(trace_path)) + argv
        inv = self.spawn(argv)
        s.invocations += 1
        problems = step_problems(step, inv)
        if traced and not problems:
            try:
                s.traces.append(json.loads(trace_path.read_text()))
            except (OSError, ValueError) as exc:
                problems.append(f"no trace written: {exc}")
        if problems:
            s.failed += 1
            s.problems += [f"{step.label}: {p}" for p in problems]
        return inv


def step_problems(step: Step, inv: Invocation) -> list[str]:
    if inv.code is None:
        return ["killed after the time limit"]
    problems = []
    if inv.code not in step.exit_codes:
        problems.append(f"exit code {inv.code}, want one of {step.exit_codes}")
    if "Traceback (most recent call last)" in inv.stderr:
        problems.append("traceback on stderr: "
                        + inv.stderr.strip().splitlines()[-1])
    return problems + step.check(inv.code, inv.stdout)


REFERENCE_OUTPUT = "112473 286485\n"
REFERENCE_STEP = Step("reference job", ("perfbench/reference.py",), (0,),
                      lambda code, out: [] if out == REFERENCE_OUTPUT
                      else [f"printed {out!r}, want {REFERENCE_OUTPUT!r}"])

SETUP_STEP = Step("unilie --help", CLI + ("--help",), (0,),
                  lambda code, out: [] if out.startswith("usage:")
                  else ["help text missing"])


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop; tracks host speed drift."""
    start = time.perf_counter()
    x = 0
    for i in range(300_000):
        x = (x * 31 + i) % 1_000_003
    return time.perf_counter() - start


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def host() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {"git_sha": sha, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "platform": platform.platform(),
            "nproc": len(os.sched_getaffinity(0))}


def end_to_end(runner: Runner, steps, seconds: float, detail: dict) -> tuple[dict, int, int]:
    """Sessions until the next one would end after `seconds`.  Set-up spawns
    are spread over the same span, in proportion to the time gone, so set-up
    and sessions sample the same host conditions."""
    runner.spawn(SETUP_STEP.argv)  # compiles bytecode once, as an install does
    setup: list[Session] = []
    sessions: list[Session] = []
    start = time.monotonic()

    def setup_until(count: int) -> None:
        while len(setup) < count:
            setup.append(runner.session([SETUP_STEP]))

    while True:
        share = min(1.0, (time.monotonic() - start) / seconds)
        setup_until(SETUP_FIRST + round((SETUP_REPS - SETUP_FIRST) * share))
        began = time.monotonic()
        s = runner.session(steps, reference=REFERENCE_STEP)
        sessions.append(s)
        if s.timed_out:
            break
        now = time.monotonic()
        if now - start + (now - began) > seconds:
            setup_until(SETUP_REPS)
            break
    done = [s for s in sessions if not s.timed_out]
    series = {"wall_vs_ref": [s.wall_vs_ref for s in done],
              "cpu_vs_ref": [s.cpu_vs_ref for s in done],
              "setup_s": [s.wall for s in setup],
              "peak_rss_mib": [s.rss_mib for s in sessions],
              "wall_s": [s.wall for s in sessions],
              "cpu_s": [s.cpu for s in sessions],
              "reference_s": [w for s in sessions for w in s.ref_walls]}
    units = {"wall_vs_ref": "ratio", "cpu_vs_ref": "ratio", "setup_s": "s",
             "peak_rss_mib": "MiB"}
    everything = sessions + setup
    attempted = sum(s.invocations for s in everything)
    failed = sum(s.failed for s in everything)
    detail["stats"] = {k: quartiles(v) for k, v in series.items() if v}
    detail["fail_frac"] = failed / attempted
    detail["problems"] = [p for s in everything for p in s.problems][:20]
    metrics = {k: {"value": detail["stats"][k]["median"], "unit": unit}
               for k, unit in units.items() if k in detail["stats"]}
    return metrics, attempted, failed


def layer_values(traces: list[dict]) -> dict:
    """Per-layer counters of one traced session, summed over its steps."""
    funcs: dict[str, dict] = {}
    for t in traces:
        for key, stats in t.items():
            acc = funcs.setdefault(key, {})
            for name, v in stats.items():
                if name in MAXIMA:
                    acc[name] = max(acc.get(name, 0), v)
                else:
                    acc[name] = acc.get(name, 0) + v
    values = {}
    for key, names in LAYER_COUNTERS:
        for name in names:
            values[f"{key}.{name}"] = funcs.get(key, {}).get(name, 0)
    serial = [v for k, v in funcs.items() if k.startswith("serialize.")]
    values["serialize.calls"] = sum(v["calls"] for v in serial)
    values["serialize.self_s"] = sum(v["self_s"] for v in serial)
    return values


def per_layer(runner: Runner, steps, seconds: float, detail: dict) -> tuple[dict, int, int]:
    plain: list[Session] = []
    traced: list[Session] = []
    start = time.monotonic()
    while True:
        plain.append(runner.session(steps))
        traced.append(runner.session(steps, traced=True))
        pair = plain[-1].wall + traced[-1].wall
        if plain[-1].timed_out or traced[-1].timed_out:
            break
        if time.monotonic() - start + pair > seconds:
            break
    sessions = plain + traced
    attempted = sum(s.invocations for s in sessions)
    failed = sum(s.failed for s in sessions)
    problems = [p for s in sessions for p in s.problems]
    runs = [layer_values(s.traces) for s in traced if not s.failed]
    metrics = {}
    if runs:
        counts = [{k: v for k, v in r.items() if not k.endswith("self_s")}
                  for r in runs]
        if any(c != counts[0] for c in counts[1:]):
            problems.append("traced counts differ between traced sessions")
            failed += 1
        for name in runs[0]:
            unit = "s" if name.endswith("self_s") else "count"
            value = statistics.median(r[name] for r in runs)
            metrics[name] = {"value": value, "unit": unit}
        overhead = (statistics.median(s.wall for s in traced)
                    / statistics.median(s.wall for s in plain) - 1.0)
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    detail["sessions"] = {"untraced": len(plain), "traced": len(traced)}
    detail["fail_frac"] = failed / attempted
    detail["problems"] = problems[:20]
    return metrics, attempted, failed


def main(argv=None) -> int:
    # SIGTERM unwinds like Ctrl-C, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "unilie" / "cli.py").is_file():
        sys.stderr.write(f"no program to benchmark: {SRC / 'unilie'} is missing; "
                         "run from the root of a unilie checkout\n")
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(workdir, deadline)
        calibration = [calibrate() for _ in range(5)]
        steps = WORKLOADS[args.workload].steps(args.seed, workdir, runner.run_helper)
        detail = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "closed_loop_clients": 1}
        measure = per_layer if args.trace else end_to_end
        metrics, attempted, failed = measure(runner, steps, args.seconds, detail)
        calibration += [calibrate() for _ in range(5)]
        detail["calibration_s"] = quartiles(calibration)
        detail["host"] = host()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
