"""Run one rgld CLI command in this process and report what it cost.

Usage: python3 child.py <report.json> <run|trace|setup> <rgld CLI arguments...>

This is what the ``rgld`` console script does (import ``rgld.cli`` and
call ``main``), plus a report written after ``main`` returns. Every mode
records the interpreter start, the import, spec resolution and the exit
as spans. ``trace`` also wraps the public calls between layers in spans,
then times the per-step calls that are too short to wrap (about 5 us
each) by replaying the workload's own iterates and grid midpoints
through them. ``setup`` stops after spec resolution: the experiment
is not run.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import replace

from spans import Recorder

REPLAY_STEPS = 4000  # iterates replayed per method
REPLAY_CALLS = 4000  # calls per timing loop
REPLAY_REPEATS = 3


class Probe:
    """Spans around rgld's public calls, and what the replay needs."""

    def __init__(self, rec, harness):
        self.rec, self.harness = rec, harness
        self.chains: dict[str, tuple] = {}  # method -> (config, objective, domain)
        self.counts: dict[str, dict[str, int]] = {}
        self.oracle = None

    def install_spec(self) -> None:
        """Span spec resolution only: the end of set-up."""
        h, rec = self.harness, self.rec
        for name in list(h.PRESETS):
            h.PRESETS[name] = rec.wrap("harness.spec", h.PRESETS[name])
        h.spec_from_file = rec.wrap("harness.spec", h.spec_from_file)

    def install(self) -> None:
        """Span every public call between layers."""
        self.install_spec()
        h, rec = self.harness, self.rec
        h.run_experiment = rec.wrap("harness.run_experiment", h.run_experiment)
        h.run_chains = rec.wrap("harness.run_chains", h.run_chains)
        h.run_chain = self._run_chain(h.run_chain)
        h.AggregateCurve.from_records = staticmethod(
            rec.wrap("harness.aggregate", h.AggregateCurve.from_records)
        )
        h.tv_over_prefixes = rec.wrap("measure.tv", h.tv_over_prefixes)
        h.GibbsOracle = self._oracle(h.GibbsOracle)

    def _run_chain(self, run_chain):
        traced = self.rec.wrap("dynamics.run_chain", run_chain)
        self.replay_chain = run_chain

        def wrapper(config, obj, domain):
            record = traced(config, obj, domain)
            self.chains.setdefault(config.method, (config, obj, domain))
            c = self.counts.setdefault(
                config.method,
                {"chains": 0, "steps": 0, "reflections": 0, "projections": 0,
                 "fallbacks": 0},
            )
            c["chains"] += 1
            c["steps"] += record.steps
            c["reflections"] += record.reflection_events
            c["projections"] += record.projection_events
            c["fallbacks"] += record.fallback_count
            return record

        return wrapper

    def _oracle(self, cls):
        traced = self.rec.wrap("measure.oracle_build", cls)

        def wrapper(*args, **kwargs):
            self.oracle = traced(*args, **kwargs)
            return self.oracle

        return wrapper

    def replay(self) -> dict[str, float]:
        """Per-call microseconds of the calls made once per chain step."""
        import numpy as np

        us = {"value_and_gradient": 0.0, "contains": 0.0, "project": 0.0,
              "reflect": 0.0, "value_many_per_point": 0.0}
        iterates, raw_points = [], []
        for method in sorted(self.chains):
            config, obj, domain = self.chains[method]
            steps = min(config.steps, REPLAY_STEPS)
            record = self.replay_chain(
                replace(config, steps=steps, record_trajectory=True), obj, domain
            )
            X = record.trajectory
            iterates.extend(X)
            raw = X - config.eta * np.array([obj.gradient(x) for x in X])
            if method != "pg":
                # A fresh draw of the chain's noise law at its own iterates:
                # the same distribution of raw points the loop constrains.
                rng = np.random.default_rng(config.seed)
                if config.noise == "gaussian":
                    xi = rng.standard_normal(X.shape)
                else:
                    xi = rng.integers(0, 2, size=X.shape) * 2.0 - 1.0
                raw = raw + np.sqrt(2.0 * config.eta / config.beta) * xi
            raw_points.extend(raw)
        us["value_and_gradient"] = _per_call_us(obj.value_and_gradient, iterates)
        if self.oracle is not None:
            o = self.oracle
            us["value_many_per_point"] = 1e6 * _median_seconds(
                lambda: o.objective.value_many(o.midpoints)
            ) / o.n_cells
        us["contains"] = _per_call_us(domain.contains, raw_points)
        outside = [x for x in raw_points if not domain.contains(x)]
        if outside:
            us["project"] = _per_call_us(domain.project, outside)
            reflectable = [
                x for x in outside if domain.contains(2.0 * domain.project(x) - x)
            ]
            if reflectable:
                us["reflect"] = _per_call_us(domain.reflect, reflectable)
        return us


def _median_seconds(fn) -> float:
    times = []
    for _ in range(REPLAY_REPEATS):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return sorted(times)[len(times) // 2]


def _per_call_us(fn, points) -> float:
    """Median time of one call over ``points``, cycled to REPLAY_CALLS."""
    calls = (points * (REPLAY_CALLS // len(points) + 1))[:REPLAY_CALLS]

    def loop():
        for p in calls:
            fn(p)

    return 1e6 * _median_seconds(loop) / len(calls)


def main() -> int:
    report_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    start = time.monotonic()
    import rgld.cli
    from rgld import harness

    rec = Recorder("cli.process")
    rec.add("cli.start", None, start)  # interpreter start, from launch
    rec.add("cli.import", start, time.monotonic())
    probe = Probe(rec, harness)
    report: dict = {}
    if mode == "trace":
        probe.install()
        with rec.span("cli.main"):
            code = rgld.cli.main(argv)
        with rec.span("bench.replay"):
            report["replay_us"] = probe.replay()
        report["counts"] = probe.counts
        report["oracle_cells"] = 0 if probe.oracle is None else probe.oracle.n_cells
    else:
        probe.install_spec()
        if mode == "setup":
            harness.run_experiment = lambda *args, **kwargs: []
        code = rgld.cli.main(argv)
    rec.add("cli.exit", time.monotonic(), None)  # report and interpreter exit
    report["spans"] = rec.spans
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
