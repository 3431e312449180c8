"""Measure the benchmark's baseline and run-to-run spread on this machine.

Usage (from the repository root):

    python3 perfbench/baseline.py [--out perfbench/baseline.json]

For each workload in BENCHMARK.json it runs ``run.py`` for its
``run_seconds``, once per seed ``0 .. SEEDS-1`` with tracing off, ``SETS``
times over, and once with tracing on (seed 0). It writes the machine facts, the versions,
the commit, every value, and per end-to-end metric the median, quartiles
and spread (interquartile distance over median) of each set, and prints
every end-to-end metric with its unit per workload and set.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SETS = 2
SEEDS = 10

# Facts measured once with the commands given, recorded for later readers.
NOTES = {
    "quality_metrics": (
        "err_q50, tv_final and fallback_rate are not end-to-end metrics here: "
        "they are fixed by the seed, vary across seed windows by more than "
        "any allowed bound, and fallback_rate is 0. The gate checks them on "
        "every repeat and the traced run reports them as harness.err_q50, "
        "measure.tv_final and dynamics.fallback_rate."
    ),
    "rosenbrock_d10_fallbacks": (
        "Known defect: rgld run rosenbrock --dim 10 --seeds 0..3 --steps 50000 "
        "(the README example at preset hyperparameters) falls back to "
        "projection on 149992 of 200000 rgld steps and reports nothing. "
        "rosenbrock4, not d=10, was chosen as the reflection workload because "
        "it is the tier-1 preset and its reflection is well defined there."
    ),
    "dropped_workloads": (
        "rosenbrock4 (rgld run rosenbrock --dim 4) and oracle-gm2d (rgld oracle "
        "gm2d) are not benchmarked. The driver makes 4 + 22 runs per workload "
        "within 3420 s: two workloads allow 60 s runs, which gibbs1d at 1e6 "
        "steps (about 20 s a repeat) needs for three repeats, and four "
        "workloads allow about 30 s, where earlier wall_s spreads of "
        "rosenbrock4 and oracle-gm2d reached the 0.25 bound. Reflection and "
        "the oracle still run in gibbs1d (reflections on 0.8% of its steps, a "
        "256-bin oracle); export_cells_csv runs only under rgld oracle and is "
        "not measured. At 1500 and 2500 steps rosenbrock4 fell back on 18 "
        "steps over seeds 0-399 (seeds 47, 129, 132, 366)."
    ),
    "fallbacks": (
        "The gate fails any rgld fallback. gm2d at 5000 steps: 0 over seeds 0-599. "
        "gibbs1d at 1e6 steps: 0 fallbacks over seeds 0-39."
    ),
    "gibbs1d_tv": (
        "At 1e6 steps the final TV over seeds 0-39 has median 0.020 and maximum "
        "0.034 (at 5e5 steps: maximum 0.049), so the gate bound is 0.05. A "
        "uniform law is at TV 0.12 from the target."
    ),
}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    shown = " ".join(f"{k}={result['metrics'][k]['value']:.4g}" for k in END_TO_END
                     if k in result["metrics"])
    print(f"{workload} seed {seed} trace {trace}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']} {shown}",
          file=sys.stderr)
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def machine() -> dict:
    import numpy
    import scipy

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = (index / "level").read_text().strip()
        kind = (index / "type").read_text().strip()
        if kind != "Instruction":
            caches[f"L{level}"] = (index / "size").read_text().strip()
    model = next((line.split(":", 1)[1].strip()
                  for line in Path("/proc/cpuinfo").read_text().splitlines()
                  if line.startswith("model name")), platform.processor())
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True, check=False).stdout.strip() or "unknown"
    return {"nproc": os.cpu_count(), "cpu_model": model, "caches_per_core": caches,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": commit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(HERE / "baseline.json"))
    args = parser.parse_args()

    began = time.time()
    seconds = BENCHMARK["run_seconds"]
    out = {"machine": machine(), "run_seconds": seconds, "notes": NOTES, "workloads": {}}
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        sets = []
        for _ in range(SETS):
            runs = [run_once(workload, seed, seconds, 0) for seed in range(SEEDS)]
            sets.append({
                "correct": all(r["correct"] for r in runs),
                "failed": sum(r["failed"] for r in runs),
                "metrics": {m: summary([r["metrics"][m]["value"] for r in runs])
                            for m in END_TO_END},
            })
        traced = run_once(workload, 0, seconds, 1)
        out["workloads"][workload] = {
            "sets": sets,
            "traced_seed0": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    out["elapsed_s"] = time.time() - began
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    for workload, data in out["workloads"].items():
        for i, one in enumerate(data["sets"]):
            for m, unit in END_TO_END.items():
                v = one["metrics"][m]
                print(f"{workload:12} set {i} {m:12} median {v['median']:.4f} {unit:3} "
                      f"[q1 {v['q1']:.4f}, q3 {v['q3']:.4f}] spread {v['spread']:.3f} "
                      f"correct={one['correct']}")
        print(f"{workload:12} traced seed 0: trace.overhead_s "
              f"{data['traced_seed0']['trace.overhead_s']:.4f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
