"""Benchmark of the rgld CLI on fixed workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload gm2d --seed 0 --seconds 50 --trace 0

Each run repeats one workload's CLI command, each time in a fresh
process with ``--workers 1``, until ``--seconds`` is used up (at least
twice), checks every repeat with the correctness gate (``gate.py``) and
prints, as its last line, one JSON object with the medians over the
repeats that passed. ``--trace 0`` reports the end-to-end metrics:
``wall_s`` (launch to exit), ``setup_s`` (launch to the end of spec
resolution, also taken from set-up only processes) and ``peak_rss_mb``
(the child's peak resident set). ``--trace 1`` alternates untraced and
traced repeats and reports the per-layer metrics, named after rgld's
modules, plus the tracing overhead (traced wall time minus the wall time
of the untraced repeat just before). A traced repeat fails unless its
spans cover all but ``UNCOVERED_MAX`` of its wall time.

``--seed n`` picks the chain seeds: a workload with k chain seeds per
method runs seeds ``n*k .. n*k+k-1``, so seed 0 reproduces the presets.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

from gate import Expected, GateError, check
from spans import self_time, setup_s, total_time, traced_wall

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
WORK = ROOT / ".perfbench_work"
MIN_REPEATS = 2
MIN_TRACED_PAIRS = 1
# Set-up only processes after each untraced repeat, so that setup_s is the
# median of several set-ups even when a run has room for two repeats.
SETUP_PROBES = 2
CHILD_TIMEOUT_S = 100.0  # so a run with one hung repeat still ends within 180 s
# Share of a traced repeat's wall time that no span may cover (argument
# parsing, say). More means work moved out of the public calls that
# child.py wraps, and the layer metrics miss it.
UNCOVERED_MAX = 0.05

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.start_s": "s",
    "cli.import_s": "s",
    "cli.exit_s": "s",
    "cli.self_s": "s",
    "harness.spec_s": "s",
    "harness.self_s": "s",
    "harness.emit_s": "s",
    "harness.emit_bytes": "bytes",
    "harness.emit_us_per_row": "us",
    "harness.aggregate_s": "s",
    "harness.err_q50": "1",
    "dynamics.chain_s": "s",
    "dynamics.chains": "count",
    "dynamics.chain_steps": "count",
    "dynamics.step_us": "us",
    "dynamics.chain_steps_per_s": "1/s",
    "dynamics.loop_overhead_us": "us",
    "dynamics.boundary_rate.pg": "ratio",
    "dynamics.boundary_rate.rgld": "ratio",
    "dynamics.fallback_rate": "ratio",
    "objectives.value_and_gradient_us": "us",
    "objectives.value_many_us_per_point": "us",
    "geometry.contains_us": "us",
    "geometry.project_us": "us",
    "geometry.reflect_us": "us",
    "measure.oracle_build_s": "s",
    "measure.oracle_cells": "count",
    "measure.tv_s": "s",
    "measure.tv_final": "1",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}
# Metrics whose spans partition the traced wall time; cli.self_s is the rest.
COVERED = (
    "cli.start_s", "cli.import_s", "cli.exit_s", "harness.spec_s", "harness.self_s",
    "harness.emit_s", "harness.aggregate_s", "dynamics.chain_s", "measure.oracle_build_s",
    "measure.tv_s",
)


@dataclass(frozen=True)
class Workload:
    """One CLI command; ``seeds`` chain seeds per method."""

    argv: tuple[str, ...]
    expected: Expected
    seeds: int

    def for_seed(self, seed: int) -> tuple[tuple[str, ...], Expected]:
        lo = seed * self.seeds
        hi = lo + self.seeds - 1
        seeds = tuple(range(lo, hi + 1))
        return self.argv + ("--seeds", f"{lo}..{hi}"), replace(self.expected, seeds=seeds)


# On a 2-core Xeon one gm2d repeat takes 6-9 s, about 70% of it in the
# chains, and one gibbs1d repeat 20-30 s, about 40% in the chain and 55%
# writing 130 MB of CSV (430 MB peak). At 1e6 steps the final TV of
# gibbs1d stays near 0.02 (seeds 0-39: at most 0.034); a uniform law is
# at 0.12.
GM2D_STEPS = 5_000
GIBBS1D_STEPS = 1_000_000
GIBBS1D_TV_MAX = 0.05

WORKLOADS = {
    "gm2d": Workload(
        ("run", "gm2d", "--steps", str(GM2D_STEPS), "--workers", "1"),
        Expected("gm2d", ("pg", "rgld"), steps=GM2D_STEPS),
        seeds=20,
    ),
    "gibbs1d": Workload(
        ("run", "gibbs1d", "--steps", str(GIBBS1D_STEPS), "--workers", "1"),
        Expected("gibbs1d", ("rgld",), steps=GIBBS1D_STEPS, tv_max=GIBBS1D_TV_MAX),
        seeds=1,
    ),
}


@dataclass
class Repeat:
    mode: str  # "run", "trace" or "setup", as child.py takes it
    wall_s: float = 0.0
    rss_mb: float = 0.0
    report: dict | None = None
    facts: dict | None = None
    metrics: dict | None = None
    error: str | None = None


def launch(argv: list[str], report: Path, out: Path, mode: str, cpu: int) -> Repeat:
    """Run the CLI once in a child process pinned to ``cpu``; wall time is
    launch to exit."""
    stderr_path = out.parent / "stderr.txt"
    cmd = [sys.executable, str(CHILD), str(report), mode, *argv, "--out", str(out)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    waited: dict = {}

    def wait(pid: int) -> None:
        waited["status"], waited["rusage"] = os.wait4(pid, 0)[1:]
        waited["end"] = time.monotonic()

    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})  # inherited by the child
    try:
        with open(stderr_path, "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err, env=env)
    finally:
        os.sched_setaffinity(0, allowed)
    waiter = threading.Thread(target=wait, args=(proc.pid,))
    waiter.start()
    try:
        waiter.join(CHILD_TIMEOUT_S)
    finally:
        if waiter.is_alive():
            proc.kill()
            waiter.join()
    proc.returncode = os.waitstatus_to_exitcode(waited["status"])
    rep = Repeat(mode, waited["end"] - start, waited["rusage"].ru_maxrss / 1024.0)
    if proc.returncode != 0:
        tail = stderr_path.read_text(errors="replace").strip().splitlines()[-1:]
        rep.error = f"exit code {proc.returncode}: {' '.join(tail)}"
        return rep
    rep.report = json.loads(report.read_text(encoding="utf-8"))
    for span in rep.report["spans"]:
        span[1:3] = [start if span[1] is None else span[1],
                     waited["end"] if span[2] is None else span[2]]
    return rep


def layer_metrics(rep: Repeat) -> dict[str, float]:
    """Per-layer metrics of one traced repeat."""
    spans, counts = rep.report["spans"], rep.report["counts"]
    us, facts = rep.report["replay_us"], rep.facts
    chain_s = total_time(spans, "dynamics.run_chain")
    steps = sum(c["steps"] for c in counts.values())
    events = sum(c["reflections"] + c["projections"] + c["fallbacks"]
                 for c in counts.values())
    rgld = counts.get("rgld", {})
    # rgld tests the reflected point for membership once more.
    second_contains = rgld.get("reflections", 0) + rgld.get("fallbacks", 0)
    step_us = 1e6 * chain_s / steps
    geometry_us = (
        us["contains"] + (events * us["project"] + second_contains * us["contains"]) / steps
    )

    def rate(method: str, *keys: str) -> float:
        c = counts.get(method)
        return sum(c[k] for k in keys) / c["steps"] if c else 0.0

    emit_s = self_time(spans, "harness.run_experiment")
    m = {
        "cli.start_s": total_time(spans, "cli.start"),
        "cli.import_s": total_time(spans, "cli.import"),
        "cli.exit_s": total_time(spans, "cli.exit"),
        "harness.spec_s": total_time(spans, "harness.spec"),
        "harness.self_s": self_time(spans, "harness.run_chains"),
        "harness.emit_s": emit_s,
        "harness.emit_bytes": facts["bytes"],
        "harness.emit_us_per_row": 1e6 * emit_s / facts["rows"],
        "harness.aggregate_s": total_time(spans, "harness.aggregate"),
        "harness.err_q50": facts["err_q50"],
        "dynamics.chain_s": chain_s,
        "dynamics.chains": sum(c["chains"] for c in counts.values()),
        "dynamics.chain_steps": steps,
        "dynamics.step_us": step_us,
        "dynamics.chain_steps_per_s": steps / chain_s,
        "dynamics.loop_overhead_us": step_us - us["value_and_gradient"] - geometry_us,
        "dynamics.boundary_rate.pg": rate("pg", "projections"),
        "dynamics.boundary_rate.rgld": rate("rgld", "reflections", "fallbacks"),
        "dynamics.fallback_rate": rate("rgld", "fallbacks"),
        "objectives.value_and_gradient_us": us["value_and_gradient"],
        "objectives.value_many_us_per_point": us["value_many_per_point"],
        "geometry.contains_us": us["contains"],
        "geometry.project_us": us["project"],
        "geometry.reflect_us": us["reflect"],
        "measure.oracle_build_s": total_time(spans, "measure.oracle_build"),
        "measure.oracle_cells": rep.report["oracle_cells"],
        "measure.tv_s": total_time(spans, "measure.tv"),
        "measure.tv_final": facts.get("tv_final", 0.0),
        "trace.wall_s": traced_wall(spans),
    }
    m["cli.self_s"] = m["trace.wall_s"] - sum(m[k] for k in COVERED)
    return m


def uncovered_error(m: dict[str, float]) -> str | None:
    """Why the spans of one traced repeat fail to partition its wall time."""
    share = m["cli.self_s"] / m["trace.wall_s"]
    if share < -1e-9:
        return f"covered spans overlap by {-m['cli.self_s']:.4f} s"
    if share > UNCOVERED_MAX:
        return f"spans leave {share:.1%} of the wall time uncovered"
    return None


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    argv, expected = wl.for_seed(seed)
    work = WORK / f"{name}-{os.getpid()}"
    reference = None
    repeats: list[Repeat] = []
    costs: list[float] = []
    # A traced run alternates untraced and traced repeats, in pairs.
    group = ("run", "trace") if trace else ("run",) + ("setup",) * SETUP_PROBES
    needed = MIN_TRACED_PAIRS if trace else MIN_REPEATS
    # Interference from other tenants of the host differs per CPU and
    # drifts; repeats take turns on the CPUs so the median sees all of them.
    cpus = sorted(os.sched_getaffinity(0))
    begin = time.monotonic()
    try:
        while True:
            t = time.monotonic()
            cpu = cpus[len(costs) % len(cpus)]
            for mode in group:
                rep = repeat(list(argv), expected, reference, work, mode, cpu)
                if rep.error is not None:
                    print(f"{name} seed {seed}: repeat {len(repeats)} failed: "
                          f"{rep.error}", file=sys.stderr)
                elif rep.facts:
                    reference = rep.facts["digest"]
                repeats.append(rep)
            costs.append(time.monotonic() - t)
            left = seconds - (time.monotonic() - begin)
            if len(costs) >= needed and left < statistics.median(costs):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return summarize(repeats, trace)


def repeat(argv, expected: Expected, reference, work: Path, mode: str,
           cpu: int) -> Repeat:
    """One gated repeat in a clean output directory."""
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)
    rep = launch(argv, work / "report.json", work / "out", mode, cpu)
    if rep.error is None and mode != "setup":
        try:
            rep.facts = check(work / "out", expected, reference)
        except GateError as exc:
            rep.error = f"gate: {exc}"
    return rep


def summarize(repeats: list[Repeat], trace: bool) -> dict:
    if trace:
        for r in repeats:
            if r.mode == "trace" and r.error is None:
                r.metrics = layer_metrics(r)
                r.error = uncovered_error(r.metrics)
                if r.error:
                    print(f"trace: {r.error}", file=sys.stderr)
    ok = [r for r in repeats if r.error is None]
    values = {}
    if trace:
        # Repeats come in (untraced, traced) pairs that ran back to back on
        # one CPU; the overhead compares the two of a pair.
        pairs = [(u, t) for u, t in zip(repeats[::2], repeats[1::2])
                 if u.error is None and t.error is None]
        if pairs:
            per = [t.metrics for _, t in pairs]
            values = {k: statistics.median(m[k] for m in per) for k in per[0]}
            values["trace.overhead_s"] = statistics.median(
                t.metrics["trace.wall_s"] - u.wall_s for u, t in pairs)
        units = PER_LAYER
    else:
        runs = [r for r in ok if r.mode == "run"]
        if runs:
            values = {
                "wall_s": statistics.median(r.wall_s for r in runs),
                "setup_s": statistics.median(setup_s(r.report["spans"]) for r in ok),
                "peak_rss_mb": statistics.median(r.rss_mb for r in runs),
            }
        units = END_TO_END
    failed = len(repeats) - len(ok)
    return {
        "correct": failed == 0 and bool(values),
        "attempted": len(repeats),
        "failed": failed,
        "metrics": {k: {"value": values.get(k, 0.0), "unit": u} for k, u in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into an exit that stops the child first.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "rgld" / "cli.py").is_file():
        print(f"rgld sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
