"""Tests of the benchmark itself: the correctness gate, metric names and
span coverage. Run with ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import os
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from gate import (  # noqa: E402
    AGGREGATE_HEADER,
    CHAIN_HEADER,
    TV_HEADER,
    Expected,
    GateError,
    check,
)
from spans import Recorder  # noqa: E402

# Metric and workload names: [A-Za-z0-9_.-]+, starting with a letter or digit.
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
STEPS = 4
RUN = Expected("toy", ("rgld",), seeds=(7,), steps=STEPS, tv_max=0.5)


def write_run(out: Path) -> None:
    rows = [f"{k},{1.5 - k},{1.5 - k},0,0" for k in range(STEPS)]
    (out / "toy_rgld_seed7.csv").write_text("\n".join([CHAIN_HEADER, *rows]) + "\n")
    rows = [f"{k},0.25,0.5,0.75" for k in range(STEPS)]
    (out / "toy_rgld_aggregate.csv").write_text("\n".join([AGGREGATE_HEADER, *rows]) + "\n")
    (out / "toy_rgld_tv_seed7.csv").write_text(f"{TV_HEADER}\n2,0.4\n{STEPS},0.25\n")


def test_valid_outputs_pass(tmp_path):
    write_run(tmp_path)
    facts = check(tmp_path, RUN, None)
    assert facts["rows"] == 2 * STEPS + 2
    assert facts["tv_final"] == 0.25
    assert facts["err_q50"] == 0.5
    assert check(tmp_path, RUN, facts["digest"])["digest"] == facts["digest"]


def _nan_row(text):
    return text.replace("\n2,-0.5,", "\n2,nan,")


def _truncate(text):
    return "".join(text.splitlines(keepends=True)[:-1])


def _cut_mid_line(text):
    return text[:-3]


def _fallback(text):
    return text.replace("\n1,0.5,0.5,0,0", "\n1,0.5,0.5,1,1")


@pytest.mark.parametrize("corrupt", [_nan_row, _truncate, _cut_mid_line, _fallback])
def test_corrupt_chain_csv_fails(tmp_path, corrupt):
    write_run(tmp_path)
    path = tmp_path / "toy_rgld_seed7.csv"
    changed = corrupt(path.read_text())
    assert changed != path.read_text()
    path.write_text(changed)
    with pytest.raises(GateError):
        check(tmp_path, RUN, None)


def test_one_byte_differing_between_repeats_fails(tmp_path):
    write_run(tmp_path)
    reference = check(tmp_path, RUN, None)["digest"]
    path = tmp_path / "toy_rgld_aggregate.csv"
    path.write_text(path.read_text().replace("0.75", "0.76", 1))
    check(tmp_path, RUN, None)  # still a valid file on its own
    with pytest.raises(GateError, match="differ"):
        check(tmp_path, RUN, reference)


def test_file_set_and_tv_bound(tmp_path):
    write_run(tmp_path)
    (tmp_path / "toy_rgld_tv_seed7.csv").write_text(f"{TV_HEADER}\n{STEPS},0.6\n")
    with pytest.raises(GateError, match="TV"):
        check(tmp_path, RUN, None)
    (tmp_path / "toy_rgld_tv_seed7.csv").unlink()
    with pytest.raises(GateError, match="file set"):
        check(tmp_path, RUN, None)


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert declared == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    for name in [*run.END_TO_END, *run.PER_LAYER, *run.WORKLOADS]:
        assert NAME.fullmatch(name), name


def test_workload_seed_shifts_the_chain_seed_window():
    argv, expected = run.WORKLOADS["gm2d"].for_seed(0)
    assert argv[-2:] == ("--seeds", "0..19") and expected.seeds == tuple(range(20))
    argv, expected = run.WORKLOADS["gm2d"].for_seed(3)
    assert argv[-2:] == ("--seeds", "60..79") and expected.seeds == tuple(range(60, 80))
    assert run.WORKLOADS["gibbs1d"].for_seed(5)[0][-2:] == ("--seeds", "5..5")


def _traced(spans):
    """A traced repeat of a toy rgld run with the given spans."""
    counts = {"rgld": {"chains": 1, "steps": 100, "reflections": 1, "projections": 0,
                       "fallbacks": 0}}
    us = {"value_and_gradient": 0.2, "contains": 0.1, "project": 0.3, "reflect": 0.4,
          "value_many_per_point": 0.0}
    report = {"spans": spans, "counts": counts, "replay_us": us, "oracle_cells": 0}
    facts = {"bytes": 1000, "rows": 101, "err_q50": 0.5}
    return run.Repeat("trace", report=report, facts=facts)


def _spans(gap: float):
    """A run whose CLI spends ``gap`` seconds outside every wrapped call."""
    rec = Recorder("cli.process")
    rec.spans[0][1:3] = [0.0, 9.6 + gap]
    rec.add("cli.start", 0.0, 0.05)
    rec.add("cli.import", 0.05, 1.0)
    g = 1.1 + gap
    with rec.span("cli.main"):
        rec.add("harness.spec", 1.0, 1.1)
        with rec.span("harness.run_experiment"):
            with rec.span("harness.run_chains"):
                rec.add("dynamics.run_chain", g, g + 1.8)
                rec.add("dynamics.run_chain", g + 1.8, g + 3.7)
            rec.add("harness.aggregate", g + 3.8, g + 4.0)
            rec.add("measure.tv", g + 4.0, g + 4.3)
    rec.add("bench.replay", 9.0 + gap, 9.5 + gap)
    rec.add("cli.exit", 9.5 + gap, 9.6 + gap)
    # Open spans get their times here, not from the clock.
    times = {"cli.main": (1.0, 9.0 + gap), "harness.run_experiment": (g, 9.0 + gap),
             "harness.run_chains": (g, g + 3.8)}
    for span in rec.spans:
        span[1:3] = times.get(span[0], span[1:3])
    return rec.spans


def test_layer_metrics_partition_the_traced_wall():
    m = run.layer_metrics(_traced(_spans(0.0)))
    assert m["trace.wall_s"] == pytest.approx(9.1)
    assert m["harness.emit_s"] == pytest.approx(7.9 - 4.3)
    assert m["harness.self_s"] == pytest.approx(0.1)
    assert m["dynamics.chain_s"] == pytest.approx(3.7)
    assert m["cli.exit_s"] == pytest.approx(0.1)
    assert m["cli.self_s"] == pytest.approx(0.0)
    assert run.uncovered_error(m) is None


def test_time_outside_wrapped_calls_fails_the_traced_repeat():
    m = run.layer_metrics(_traced(_spans(1.0)))
    assert m["cli.self_s"] == pytest.approx(1.0)
    assert "uncovered" in run.uncovered_error(m)
    result = run.summarize([run.Repeat("run", wall_s=10.0), _traced(_spans(1.0))],
                           trace=True)
    assert not result["correct"] and result["failed"] == 1


def test_overlapping_covered_spans_fail_the_traced_repeat():
    spans = _spans(0.0)
    tv = next(i for i, span in enumerate(spans) if span[0] == "measure.tv")
    # The oracle built inside the TV call would count its time twice.
    spans.append(["measure.oracle_build", *spans[tv][1:3], tv])
    assert "overlap" in run.uncovered_error(run.layer_metrics(_traced(spans)))


def test_traced_run_covers_its_wall_time(tmp_path):
    """A real untraced and traced repeat of a small gm2d run."""
    work = tmp_path / "work"
    cpu = min(os.sched_getaffinity(0))
    argv = ["run", "gm2d", "--steps", "300", "--seeds", "0..1", "--workers", "1"]
    expected = Expected("gm2d", ("pg", "rgld"), seeds=(0, 1), steps=300)
    untraced = run.repeat(argv, expected, None, work, "run", cpu)
    assert untraced.error is None
    traced = run.repeat(argv, expected, untraced.facts["digest"], work, "trace", cpu)
    assert traced.error is None
    result = run.summarize([untraced, traced], trace=True)
    assert result["correct"] and result["failed"] == 0
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(values) == set(run.PER_LAYER)
    assert values["dynamics.chain_steps"] == 4 * 300
    assert values["dynamics.boundary_rate.pg"] > 0
    assert 0 <= values["cli.self_s"] <= run.UNCOVERED_MAX * values["trace.wall_s"]
