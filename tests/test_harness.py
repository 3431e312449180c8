"""Presets, the experiment runner, CSV contracts, and the CLI."""

import argparse
import dataclasses
import importlib
import inspect
import json
import math
import pkgutil
import re
import os
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rgld
from rgld import cli, dynamics, harness, measure
from rgld.dynamics import ChainConfig, run_batch, run_chain
from rgld.geometry import Ball, FeasibleDomain, SphericalShell
from rgld.harness import (
    AggregateCurve,
    preset_gibbs1d,
    preset_gm2d,
    preset_gm2d_pgld_vs_rgld,
    preset_rastrigin,
    preset_rosenbrock,
    rastrigin_min_on_shell,
    run_experiment,
    spec_from_dict,
)
from rgld.objectives import Objective, Quadratic, Rastrigin


def run_python(*args):
    """``python *args`` with this checkout's rgld first on its path, as
    the tests import it, whether or not rgld is installed."""
    path = [str(Path(rgld.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))})


def spec_fields(spec):
    """Every field of ``spec``, with arrays as bytes and the objective and
    domain as their attributes, so two specs compare field for field."""
    def plain(v):
        if isinstance(v, np.ndarray):
            return v.dtype.str, v.shape, v.tobytes()
        if isinstance(v, (Objective, FeasibleDomain)):
            return type(v), {k: plain(a) for k, a in vars(v).items()}
        return v
    return {f.name: plain(getattr(spec, f.name)) for f in fields(spec)}


def resolved_spec(argv, monkeypatch):
    """The spec ``rgld run`` resolves from ``argv``; no chain runs."""
    specs = []
    monkeypatch.setattr(harness, "run_experiment",
                        lambda spec, out: specs.append(spec) or [])
    assert cli.main(["run", *argv]) == 0
    return specs[0]


class TestPresetPins:
    def test_gm2d(self):
        spec = preset_gm2d()
        assert spec.eta == 0.05
        assert spec.beta == 1.0
        assert spec.steps == 10_000
        np.testing.assert_array_equal(spec.x0, [0.5, 0.5])
        assert spec.domain.inner_radius == 0.9
        assert spec.domain.outer_radius == 4.0
        assert spec.methods == ("pg", "rgld")
        assert spec.seeds == tuple(range(20))
        assert spec.objective.n_modes == 25

    def test_gm2d_beta_sweep_variant(self, monkeypatch):
        spec = resolved_spec(["gm2d", "--beta", "8.0"], monkeypatch)
        assert spec_fields(spec) == spec_fields(replace(preset_gm2d(), beta=8.0))

    def test_factories_take_no_parameter_but_dim(self):
        params = {name: list(inspect.signature(factory).parameters)
                  for name, factory in harness.PRESETS.items()}
        assert params == {"gm2d": [], "gm2d-pgld-vs-rgld": [], "rosenbrock": ["dim"],
                          "rastrigin": ["dim"], "gibbs1d": []}
        assert cli.DIM_PRESETS == tuple(name for name, p in params.items() if p)

    @pytest.mark.parametrize("steps,prefixes", [
        (5_000, (5_000,)),
        (150_000, (10_000, 100_000, 150_000)),
        (1_000_000, (10_000, 100_000, 1_000_000)),
    ])
    def test_steps_flag_cuts_gibbs1d_prefixes(self, steps, prefixes, monkeypatch):
        spec = resolved_spec(["gibbs1d", "--steps", str(steps)], monkeypatch)
        want = replace(preset_gibbs1d(), steps=steps, tv_prefixes=prefixes)
        assert spec_fields(spec) == spec_fields(want)

    def test_gm2d_pgld_vs_rgld(self):
        spec = preset_gm2d_pgld_vs_rgld()
        assert spec.methods == ("pgld", "rgld")
        assert spec.name == "gm2d-pgld-vs-rgld"

    @pytest.mark.parametrize("dim,beta", [(4, 1.0), (10, 2.5), (20, 5.0)])
    def test_rosenbrock_beta_scales_with_dimension(self, dim, beta):
        spec = preset_rosenbrock(dim)
        assert spec.beta == pytest.approx(beta)
        # min(5e-4, 2e-3 / d): the step of d <= 4 stays at 5e-4.
        assert spec.eta == {4: 5e-4, 10: 2e-4, 20: 1e-4}[dim]
        assert spec.domain.inner_radius == pytest.approx(0.5 * math.sqrt(dim))
        assert spec.domain.outer_radius == pytest.approx(2.0 * math.sqrt(dim))
        assert spec.min_f == 0.0

    @pytest.mark.parametrize("dim,beta", [(2, 0.1), (20, 1.0), (30, 1.5)])
    def test_rastrigin_beta_scales_with_dimension(self, dim, beta):
        spec = preset_rastrigin(dim)
        assert spec.beta == pytest.approx(beta)
        assert spec.eta == 5e-4
        assert spec.domain.inner_radius == 0.9
        assert spec.domain.outer_radius == 5.12

    def test_gibbs1d(self):
        spec = preset_gibbs1d()
        assert spec.eta == 1e-3
        assert spec.beta == 2.0
        assert spec.steps == 2_000_000
        assert spec.tv_prefixes == (10_000, 100_000, 1_000_000, 2_000_000)
        assert spec.methods == ("rgld",)

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ValueError, match="^dim: must be at least 2, got 1$"):
            preset_rosenbrock(1)
        with pytest.raises(ValueError, match="^dim: must be at least 2, got 1$"):
            preset_rastrigin(1)

    def test_rastrigin_constrained_minimum(self):
        # Independent check: dense one-dimensional scan of the coordinate
        # term over the feasible radii.
        dom = SphericalShell(np.zeros(2), 0.9, 5.12)
        got = rastrigin_min_on_shell(dom)
        ts = np.linspace(0.9, 5.12, 2_000_001)
        dense = 10.0 + np.min(ts**2 - 10.0 * np.cos(2 * np.pi * ts))
        assert got == pytest.approx(dense, abs=1e-8)
        # And it really is attainable in the full problem.
        obj = Rastrigin(2)
        t = 0.9949586
        assert obj.value(np.array([t, 0.0])) == pytest.approx(got, abs=1e-4)
        assert got > 0  # origin is infeasible, so the floor is above zero
        # A minimum on the inner wall: g rises over [0.2, 0.4].
        g = lambda t: t * t - 10.0 * math.cos(2.0 * math.pi * t)
        wall = rastrigin_min_on_shell(SphericalShell(np.zeros(2), 0.2, 0.4))
        assert wall == pytest.approx(10.0 + g(0.2), abs=1e-12)


def tiny_gm2d(**overrides):
    return replace(preset_gm2d(), **{"steps": 400, "seeds": (0, 1), **overrides})


class TestRunExperiment:
    def test_file_contract_single_seed(self, tmp_path):
        spec = replace(preset_gm2d(), steps=300, seeds=(0,))
        paths = run_experiment(spec, tmp_path)
        names = sorted(p.name for p in paths)
        assert names == [
            "gm2d_pg_aggregate.csv",
            "gm2d_pg_seed0.csv",
            "gm2d_rgld_aggregate.csv",
            "gm2d_rgld_seed0.csv",
        ]

    def test_chain_csv_schema_and_invariants(self, tmp_path):
        spec = tiny_gm2d()
        run_experiment(spec, tmp_path)
        text = (tmp_path / "gm2d_rgld_seed0.csv").read_text().splitlines()
        assert text[0] == "step,f,cummin,reflected,fallback"
        assert len(text) == 1 + spec.steps
        rows = [line.split(",") for line in text[1:]]
        steps = [int(r[0]) for r in rows]
        assert steps == list(range(spec.steps))
        f = np.array([float(r[1]) for r in rows])
        cm = np.array([float(r[2]) for r in rows])
        assert np.all(np.diff(cm) <= 0)
        assert np.all(cm <= f)
        assert set(r[3] for r in rows) <= {"0", "1"}
        assert set(r[4] for r in rows) <= {"0", "1"}

    def test_floats_round_trip(self, tmp_path):
        spec = replace(preset_gm2d(), steps=50, seeds=(3,))
        run_experiment(spec, tmp_path)
        rec = harness.run_chains(spec)[("rgld", 3)]
        text = (tmp_path / "gm2d_rgld_seed3.csv").read_text().splitlines()
        parsed = np.array([float(line.split(",")[1]) for line in text[1:]])
        assert np.array_equal(parsed, rec.f_value)

    def test_aggregate_schema_and_quartile_order(self, tmp_path):
        spec = tiny_gm2d(seeds=tuple(range(8)))
        run_experiment(spec, tmp_path)
        text = (tmp_path / "gm2d_rgld_aggregate.csv").read_text().splitlines()
        assert text[0] == "step,q25,q50,q75"
        assert len(text) == 1 + spec.steps
        rows = np.array([[float(v) for v in line.split(",")] for line in text[1:]])
        assert np.all(rows[:, 1] <= rows[:, 2])
        assert np.all(rows[:, 2] <= rows[:, 3])

    def test_aggregate_errors_nonnegative(self):
        spec = tiny_gm2d(seeds=tuple(range(4)))
        records = [harness.run_chains(spec)[("rgld", s)] for s in spec.seeds]
        curve = AggregateCurve.from_records(records, spec.min_f)
        assert np.all(curve.q25 >= 0)

    def test_rerun_is_byte_identical(self, tmp_path):
        spec = tiny_gm2d()
        a = run_experiment(spec, tmp_path / "a")
        b = run_experiment(spec, tmp_path / "b")
        for pa, pb in zip(sorted(a), sorted(b)):
            assert pa.read_bytes() == pb.read_bytes()

    def test_gibbs_preset_emits_tv_files(self, tmp_path):
        spec = replace(preset_gibbs1d(), steps=20_000, tv_prefixes=(10_000, 20_000))
        paths = run_experiment(spec, tmp_path)
        tv = [p for p in paths if "tv" in p.name]
        assert len(tv) == 1
        lines = tv[0].read_text().splitlines()
        assert lines[0] == "prefix,tv"
        prefixes = [int(line.split(",")[0]) for line in lines[1:]]
        assert prefixes == [10_000, 20_000]
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(0 <= v <= 1 for v in values)

    def test_no_tv_prefixes_means_no_oracle_and_no_trajectory(self, tmp_path, monkeypatch):
        spec = replace(preset_gibbs1d(), steps=1000, tv_prefixes=())
        assert not spec.chain_config("rgld").record_trajectory
        monkeypatch.setattr(harness, "GibbsOracle", None)
        paths = run_experiment(spec, tmp_path)
        assert [p.name for p in paths] == ["gibbs1d_rgld_seed0.csv", "gibbs1d_rgld_aggregate.csv"]


def old_row_text(header, columns, float_columns):
    """The CSV text of the former per-row f-string writers."""
    fmt = "{:.17g}".format
    lines = [header]
    for k in range(len(columns[0])):
        lines.append(",".join(
            fmt(c[k]) if i in float_columns else str(int(c[k]))
            for i, c in enumerate(columns)
        ))
    return "\n".join(lines) + "\n"


# Values whose text is easy to get wrong: signed zeros, subnormals, one-ulp
# neighbours, and the non-finite values.
AWKWARD_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2 * 5e-324, np.nextafter(2.2250738585072014e-308, 0.0),
    1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0), 0.1, -2.5, 1e300,
    -np.inf, np.inf, np.nan,
]


@st.composite
def csv_columns(draw):
    """Chain columns whose ``cummin`` comes in runs, with flags that toggle
    inside them, and a block size for the writer."""
    values = st.sampled_from(AWKWARD_FLOATS) | st.floats()
    runs = draw(st.lists(st.tuples(values, st.integers(1, 6)), min_size=1, max_size=12))
    c = np.repeat([v for v, _ in runs], [k for _, k in runs]).astype(np.float64)
    n = c.size
    f = np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=np.float64)
    ev, fb = (np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
              for _ in range(2))
    return f, c, ev, fb, draw(st.integers(1, n + 1))


def awkward_text_table():
    """Values whose ``%.17g`` text is easy to get wrong, with their negatives."""
    powers = 10.0 ** np.arange(-8, 18)
    ties = np.array([10**15, 10**15 + 1, 1999999999999999, 2**50, 2**50 + 3,
                     2222222222222222, 2**51 - 2, 2**51 - 1], dtype=np.float64)
    values = np.concatenate([
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
        # Below the exact power of ten, and printed as it: the decade moves.
        [1e-14, 1e-305, 1e98, 9.9999999999999995e-08],
        # Exact ties, printed half to even: 1000000000000000.2.
        ties + 0.25, ties + 0.75,
        [0.01, 0.001, 0.1, 0.5, 0.0001, 0.00012, 1.0, 7.0, 10.0, 120.0, 2.0**51, 2.0**53,
         12345678901234567.0, 2.0**-31, np.nextafter(2.0**-31, 0.0),
         np.nextafter(2.0**51, 0.0), 0.0, 5e-324, 2.2250738585072009e-308, np.inf, np.nan],
    ])
    return np.concatenate([values, -values])


class TestFloatText:
    """``_float_text`` heads and bodies against ``"%.17g" % v``, with every
    warning an error, so no cast of inf or nan to an integer can warn."""

    def check(self, values):
        values = np.asarray(values, dtype=np.float64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            heads, bodies = harness._float_text(values)
        assert [f"{h}{b}" for h, b in zip(heads, bodies)] == [
            "%.17g" % v for v in values.tolist()]

    def test_awkward_table(self):
        self.check(awkward_text_table())

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
    def test_any_bit_pattern(self, bits):
        self.check(np.array(bits, dtype=np.uint64).view(np.float64))

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.lists(st.tuples(
        st.floats(2.0**-31, 2.0**51, exclude_max=True) | st.floats(-31.0, 51.0).map(
            lambda e: min(2.0**e, np.nextafter(2.0**51, 0.0))),
        st.booleans()), min_size=1, max_size=40))
    def test_integer_digit_range(self, drawn):
        self.check([-a if neg else a for a, neg in drawn])

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.lists(st.tuples(
        st.integers(0, 2**53).map(float) | st.floats(1e-5, 1e-4, exclude_max=True),
        st.booleans()), min_size=1, max_size=40))
    def test_values_next_to_the_integer_digit_range(self, drawn):
        # Integer-valued doubles and the decade below 1e-4 take Python's text.
        self.check([-a if neg else a for a, neg in drawn])


@st.composite
def error_blocks(draw):
    """Running minima of 2..40 seeds over 1..30 steps, drawn from a pool of
    finite doubles of any magnitude that often holds signed zeros and
    subnormals, so that ties are common; a ``min_f`` and a block size."""
    seeds, steps = draw(st.integers(2, 40)), draw(st.integers(1, 30))
    special = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1.0])
    pool = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False) | special,
                         min_size=1, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cummins = np.array(pool)[rng.integers(0, len(pool), size=(seeds, steps))]
    return (cummins, draw(st.sampled_from([None, 0.0, -1.5, 1e300])),
            draw(st.integers(1, 100)))


class TestStreamedWriter:
    """The chain and aggregate writers of ``run_experiment`` against the
    text of the former per-row f-string writers."""

    def write_chain(self, path, f, c, ev, fb):
        harness._write_chain_csv(path, SimpleNamespace(
            f_value=f, cumulative_min=c, boundary_events=ev, fallback_events=fb))
        return path.read_bytes()

    def write_aggregate(self, path, q):
        harness._write_aggregate_csv(path, SimpleNamespace(q25=q[0], q50=q[1], q75=q[2]))
        return path.read_bytes()

    def check(self, path, f, c, ev, fb):
        """Both writers: the chain columns, and quartiles made of them."""
        steps = np.arange(f.size)
        want = old_row_text("step,f,cummin,reflected,fallback", [steps, f, c, ev, fb], {1, 2})
        assert self.write_chain(path, f, c, ev, fb) == want.encode("utf-8")
        q = [c, f, c]
        want = old_row_text("step,q25,q50,q75", [steps, *q], {1, 2, 3})
        assert self.write_aggregate(path, q) == want.encode("utf-8")

    def check_values(self, tmp_path, values):
        rng = np.random.default_rng(1)
        f = np.asarray(values, dtype=np.float64)
        self.check(tmp_path / "c.csv", f, f, rng.random(f.size) < 0.3, rng.random(f.size) < 0.1)

    def test_signed_zero_runs(self, tmp_path):
        self.check_values(tmp_path, [0.0, 0.0, -0.0, -0.0, -0.0, 0.0, -0.0, 0.0, 0.0])
        lines = (tmp_path / "c.csv").read_text().splitlines()
        assert [line.split(",")[2] for line in lines[1:4]] == ["0", "0", "-0"]

    def test_subnormals_and_one_ulp_neighbours(self, tmp_path):
        self.check_values(tmp_path, AWKWARD_FLOATS + [5e-324, 0.1, 0.1])

    def test_single_row(self, tmp_path):
        self.check_values(tmp_path, [-0.0])

    def test_run_crossing_block_boundary(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "_BLOCK_ROWS", 4)
        self.check_values(tmp_path, [3.0] * 3 + [2.5] * 9 + [-0.0] * 3 + [0.0] * 6)

    def test_run_crossing_real_block_size(self, tmp_path):
        n = harness._BLOCK_ROWS + 17
        c = np.full(n, 0.25)
        c[:5] = 1.0
        c[-3:] = np.nextafter(0.25, 0.0)
        f = c + np.linspace(0.0, 1.0, n)
        ev = np.zeros(n, dtype=bool)
        ev[harness._BLOCK_ROWS - 1: harness._BLOCK_ROWS + 1] = True
        self.check(tmp_path / "c.csv", f, c, ev, ~ev)

    def test_steps_widen_inside_real_blocks(self, tmp_path):
        # In blocks of the real size, steps 9 -> 10 .. 9999 -> 10000 widen
        # inside the first block and 99999 -> 100000 inside the seventh.
        n, block = 100_003, harness._BLOCK_ROWS
        assert 99_999 // block == 100_000 // block == (n - 1) // block
        rng = np.random.default_rng(3)
        f = rng.normal(size=n)
        ev = rng.random(n) < 0.05
        self.check(tmp_path / "c.csv", f, np.minimum.accumulate(f), ev,
                   ev & (rng.random(n) < 0.2))

    @pytest.mark.parametrize("texts", [(1.5, 2.5), (0.5, 0.125), None],
                             ids=["equal", "unequal", "every-row"])
    @pytest.mark.parametrize("cuts", [(5, 50, 150, 1500, 15000), (10, 100, 1000, 10000, 10010)],
                             ids=["inside-runs", "at-run-edges"])
    @pytest.mark.parametrize("block", [7, 10])
    def test_step_width_changes(self, tmp_path, monkeypatch, block, cuts, texts):
        """Steps from 9 -> 10 to 9999 -> 10000, inside a quartile run or at
        its edge, inside a block (7 rows) or at its edge (10 rows), in runs
        whose texts have equal or unequal lengths, or with every row its
        own run (gm2d's pg aggregate has 1727 runs in 5000 rows)."""
        monkeypatch.setattr(harness, "_BLOCK_ROWS", block)
        if texts is None:
            self.check_values(tmp_path, np.arange(cuts[-1]) / 3)
            return
        lengths = np.diff((0, *cuts))
        self.check_values(tmp_path, np.repeat(np.resize(texts, lengths.size), lengths))

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(csv_columns())
    def test_matches_per_row_text(self, tmp_path_factory, case):
        f, c, ev, fb, block = case
        with mock.patch.object(harness, "_BLOCK_ROWS", block):
            self.check(tmp_path_factory.mktemp("w") / "c.csv", f, c, ev, fb)

    def test_aggregate_blocks_match_one_call(self, monkeypatch):
        rng = np.random.default_rng(2)
        cummins = [np.minimum.accumulate(rng.standard_normal(2500)) for _ in range(5)]
        records = [SimpleNamespace(cumulative_min=c) for c in cummins]
        want = np.percentile(np.stack([c + 1.5 for c in cummins]), [25.0, 50.0, 75.0], axis=0)
        # 200 columns a call, and one column when there are more seeds
        # than errors a call.
        monkeypatch.setattr(harness, "_MIN_COLS", 1)
        for block in (1000, 3):
            monkeypatch.setattr(harness, "_BLOCK_ROWS", block)
            curve = AggregateCurve.from_records(records, -1.5)
            got = np.stack([curve.q25, curve.q50, curve.q75])
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(error_blocks())
    def test_quartiles_match_numpy_percentile(self, case):
        cummins, min_f, block = case
        base = 0.0 if min_f is None else min_f
        records = [SimpleNamespace(cumulative_min=c) for c in cummins]
        with np.errstate(over="ignore", invalid="ignore"):
            want = np.percentile(cummins - base, [25.0, 50.0, 75.0], axis=0)
            with (mock.patch.object(harness, "_BLOCK_ROWS", block),
                  mock.patch.object(harness, "_MIN_COLS", 1)):
                curve = AggregateCurve.from_records(records, min_f)
        got = np.stack([curve.q25, curve.q50, curve.q75])
        assert got.tobytes() == want.tobytes()

    def test_many_seeds_slice_each_record_in_wide_blocks(self):
        # 4096 seeds of 1000 steps: blocks of at least 256 steps slice each
        # record 4 times, where blocks of 2^14 // 4096 = 4 steps took 250.
        slices = 0

        class Counted(np.ndarray):
            def __getitem__(self, key):
                nonlocal slices
                slices += type(key) is slice
                return super().__getitem__(key)

        rng = np.random.default_rng(4)
        cummins = np.minimum.accumulate(rng.standard_normal((64, 1000)), axis=1)
        records = [SimpleNamespace(cumulative_min=cummins[i % 64].view(Counted))
                   for i in range(4096)]
        curve = AggregateCurve.from_records(records, None)
        assert slices == 4096 * 4
        want = np.percentile(np.tile(cummins, (64, 1)), [25.0, 50.0, 75.0], axis=0)
        assert np.stack([curve.q25, curve.q50, curve.q75]).tobytes() == want.tobytes()

    def test_one_record_quartiles_are_its_errors(self):
        cummin = np.array([0.1, 5e-324, -0.0, 1e300, -2.5])
        curve = AggregateCurve.from_records([SimpleNamespace(cumulative_min=cummin)], 0.0)
        want = np.percentile(cummin[None], [25.0, 50.0, 75.0], axis=0)
        got = np.stack([curve.q25, curve.q50, curve.q75])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_shared_record_is_formatted_once(self, tmp_path, monkeypatch):
        # gm2d's pg chain reads no seed: one record serves seeds 0, 1 and 2.
        spec = tiny_gm2d(steps=300, seeds=(0, 1, 2))
        written = []
        write = harness._write_chain_csv
        monkeypatch.setattr(harness, "_write_chain_csv",
                            lambda path, r: written.append(path.name) or write(path, r))
        run_experiment(spec, tmp_path / "out")
        assert written == ["gm2d_pg_seed0.csv"] + [f"gm2d_rgld_seed{s}.csv" for s in range(3)]
        records = harness.run_chains(spec)
        for seed in spec.seeds:
            write(tmp_path / "ref.csv", records[("pg", seed)])
            got = (tmp_path / "out" / f"gm2d_pg_seed{seed}.csv").read_bytes()
            assert got == (tmp_path / "ref.csv").read_bytes()


def spy_on_jobs(monkeypatch):
    """Record each lone chain as ``("chain", method, seed)`` and each batch
    as ``("batch", method, seeds)``."""
    calls = []
    run_chain, run_batch = harness.run_chain, harness.run_batch

    def chain_spy(config, obj, domain):
        calls.append(("chain", config.method, config.seed))
        return run_chain(config, obj, domain)

    def batch_spy(config, seeds, obj, domain):
        calls.append(("batch", config.method, tuple(seeds)))
        return run_batch(config, seeds, obj, domain)

    monkeypatch.setattr(harness, "run_chain", chain_spy)
    monkeypatch.setattr(harness, "run_batch", batch_spy)
    return calls


class TestDistinctChains:
    def test_seed_free_pg_chain_runs_once(self, monkeypatch):
        spec = tiny_gm2d(steps=300, seeds=(4, 5, 6))
        calls = spy_on_jobs(monkeypatch)
        records = harness.run_chains(spec)
        assert calls == [("chain", "pg", 4), ("batch", "rgld", (4, 5, 6))]
        for (method, seed), rec in records.items():
            assert (rec.config.method, rec.config.seed) == (method, seed)
            alone = run_chain(replace(spec.chain_config(method), seed=seed),
                              spec.objective, spec.domain)
            assert np.array_equal(rec.f_value, alone.f_value)
            assert np.array_equal(rec.boundary_events, alone.boundary_events)
            assert np.array_equal(rec.final_point, alone.final_point)
            assert not rec.f_value.flags.writeable

    def test_drawn_start_runs_pg_once_per_seed(self, monkeypatch):
        spec = replace(preset_rosenbrock(4), steps=50, seeds=(0, 1, 2))
        calls = spy_on_jobs(monkeypatch)
        records = harness.run_chains(spec)
        assert calls == [("batch", m, (0, 1, 2)) for m in ("pg", "rgld")]
        starts = {records[("pg", s)].initial_point.tobytes() for s in spec.seeds}
        assert len(starts) == 3

    def test_one_check_per_batch(self, monkeypatch):
        # The spec checked its chains when it was built; ``run_chains``
        # checks each method's chains only where they run, as one batch,
        # and the counts do not depend on ``steps``.
        spec = replace(preset_gm2d(), steps=100)
        calls = {"_validate": 0, "lipschitz_bounds": 0}
        validate, bounds = dynamics._validate, spec.objective.lipschitz_bounds

        def validate_spy(*args):
            calls["_validate"] += 1
            return validate(*args)

        def bounds_spy(domain):
            calls["lipschitz_bounds"] += 1
            return bounds(domain)

        monkeypatch.setattr(dynamics, "_validate", validate_spy)
        monkeypatch.setattr(harness, "_validate", validate_spy)
        monkeypatch.setattr(spec.objective, "lipschitz_bounds", bounds_spy)
        harness.run_chains(spec)
        assert calls["_validate"] == 2
        assert calls["lipschitz_bounds"] == 1

    def test_spec_build_checks_one_config_per_method(self, monkeypatch):
        # Counted, not timed: at MAX_SEEDS seeds a spec builds one chain
        # config per method, and no config per seed, and checks each
        # method's config with all the seeds in one ``_validate`` call.
        spec = preset_gm2d()
        counts = {"configs": 0, "_validate": 0}
        init, validate = ChainConfig.__init__, dynamics._validate

        def init_spy(self, *args, **kwargs):
            counts["configs"] += 1
            init(self, *args, **kwargs)

        def validate_spy(*args):
            counts["_validate"] += 1
            return validate(*args)

        monkeypatch.setattr(ChainConfig, "__init__", init_spy)
        monkeypatch.setattr(harness, "_validate", validate_spy)
        big = replace(spec, seeds=tuple(range(harness.MAX_SEEDS)))
        assert len(big.seeds) == harness.MAX_SEEDS
        assert counts == {"configs": len(spec.methods), "_validate": len(spec.methods)}

    def test_float_chains_run_one_at_a_time(self, monkeypatch):
        # A batch of 1-D quadratic chains gives the bytes of lone chains on
        # Python floats, many times slower.
        spec = replace(preset_gibbs1d(), steps=5000, seeds=(0, 1, 2), tv_prefixes=(5000,))
        calls = spy_on_jobs(monkeypatch)
        records = harness.run_chains(spec)
        assert calls == [("chain", "rgld", s) for s in spec.seeds]
        batch = run_batch(spec.chain_config("rgld"), spec.seeds, spec.objective, spec.domain)
        for seed, ref in zip(spec.seeds, batch):
            for field in ("f_value", "cumulative_min", "boundary_events",
                          "fallback_events", "initial_point", "final_point", "trajectory"):
                got = getattr(records[("rgld", seed)], field)
                assert got.tobytes() == getattr(ref, field).tobytes(), field


class TestInputChecks:
    def test_empty_seeds_rejected_before_any_chain(self, tmp_path):
        with pytest.raises(ValueError, match="^seeds"):
            run_experiment(tiny_gm2d(seeds=()), tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_empty_methods_rejected_before_any_chain(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "run_chains", None)
        with pytest.raises(ValueError, match="^methods: at least one method is required$"):
            run_experiment(replace(tiny_gm2d(), methods=()), tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field,values,message", [
        ("seeds", (0, 1, 0), "seeds: duplicate seed 0"),
        ("methods", ("rgld", "pg", "rgld"), "methods: duplicate 'rgld'"),
        ("tv_prefixes", (3, 5, 3), "tv_prefixes: duplicate 3"),
    ])
    def test_repeats_rejected_before_any_chain(self, field, values, message,
                                               tmp_path, monkeypatch):
        # A repeat named one output file twice: two equal seeds crashed on
        # copying a file onto itself, two equal methods miscounted files.
        monkeypatch.setattr(harness, "run_chains", None)
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_experiment(replace(tiny_gm2d(), **{field: values}), tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv,message", [
        (["--seeds", "0,0"], "seeds: duplicate seed 0"),
        (["--seeds=-2..-1"], "seed: must be a non-negative integer, got -2"),
    ])
    def test_cli_rejects_bad_seed_sets(self, argv, message, tmp_path, capsys):
        rc = cli.main(["run", "gm2d", "--steps", "50", *argv,
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field,values,message", [
        ("seeds", [0, 0], "seeds: duplicate seed 0"),
        ("methods", ["rgld", "rgld"], "methods: duplicate 'rgld'"),
        ("tv_prefixes", [5, 5], "tv_prefixes: duplicate 5"),
        ("methods", [], "methods: at least one method is required"),
    ])
    def test_cli_rejects_repeats_in_a_spec_file(self, field, values, message,
                                                tmp_path, capsys):
        spec = {
            "objective": {"kind": "quadratic", "dim": 2},
            "domain": {"kind": "ball", "center": [0.0, 0.0], "radius": 2.0},
            "methods": ["rgld"], "eta": 1e-3, "beta": 1.0, "steps": 10,
            "seeds": [0], field: values,
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        rc = cli.main(["run", str(path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("steps", ["0", "-3"])
    def test_cli_rejects_steps_below_one(self, steps, tmp_path, capsys):
        assert cli.main(["run", "gibbs1d", "--steps", steps, "--out", str(tmp_path)]) == 2
        assert (capsys.readouterr().err
                == f"configuration error: steps: must be at least 1, got {steps}\n")
        assert not list(tmp_path.iterdir())

    def test_spec_file_steps_checked_before_tv_prefixes(self, tmp_path, capsys):
        spec = {
            "objective": {"kind": "quadratic", "dim": 1},
            "domain": {"kind": "ball", "center": [0.0], "radius": 1.0},
            "methods": ["rgld"], "eta": 1e-3, "beta": 1.0, "steps": 0,
            "tv_prefixes": [5],
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        rc = cli.main(["run", str(path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "steps: must be at least 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_replace_checks_the_spec(self):
        # A built spec stays valid: it is frozen, and a replaced field is checked.
        spec = tiny_gm2d()
        with pytest.raises(ValueError, match="^seeds: duplicate seed 1$"):
            replace(spec, seeds=(1, 1))
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.seeds = (1, 1)

    def test_replace_checks_the_chains(self):
        # A spec checks its chain settings when it is built, not when it runs.
        with pytest.raises(ValueError, match="^method: expected one of"):
            replace(preset_gm2d(), methods=("sgld",))
        with pytest.raises(ValueError, match="^eta: step-size bound"):
            replace(preset_rastrigin(), eta=1.0)

    @pytest.mark.parametrize("change,message", [
        ({"methods": ["sgld"]}, "method: expected one of ('rgld', 'pgld', 'pg'), got 'sgld'"),
        ({"eta": -1}, "eta: must be positive and finite, got -1.0"),
        ({"noise": "gausian"},
         "noise: expected one of ('rademacher', 'gaussian'), got 'gausian'"),
        ({"x0": [0.1, 0.2, 0.3]}, "x0: expected shape (2,), got (3,)"),
        ({"seeds": [2**64]}, f"seed: must be below 2**64, got {2**64}"),
    ], ids=["method", "eta", "noise", "x0", "seed"])
    @pytest.mark.parametrize("command", ["run", "oracle"])
    def test_spec_file_chains_checked_by_both_commands(self, command, change, message,
                                                        tmp_path, capsys):
        # ``rgld oracle`` runs no chain, but refuses a chain setting that
        # ``rgld run`` refuses.
        spec = {
            "objective": {"kind": "quadratic", "dim": 2},
            "domain": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
            "methods": ["rgld"], "eta": 1e-3, "beta": 1.0, "steps": 10, **change,
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        rc = cli.main([command, str(path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [f"configuration error: {message}"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "oracle"])
    def test_spec_file_steps_checked_by_both_commands(self, command, tmp_path, monkeypatch):
        # ``rgld oracle`` reads no steps, but refuses a spec that ``rgld run`` refuses.
        spec = {
            "objective": {"kind": "quadratic", "dim": 1},
            "domain": {"kind": "ball", "center": [0.0], "radius": 1.0},
            "methods": ["rgld"], "eta": 1e-3, "beta": 1.0, "steps": 0,
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        proc = run_python("-m", "rgld.cli", command, str(path),
                            "--out", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert proc.stderr == "configuration error: steps: must be at least 1, got 0\n"
        assert not (tmp_path / "out").exists()

    def test_tv_prefix_above_steps_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="^tv_prefixes.*5000"):
            run_experiment(replace(preset_gibbs1d(), steps=1000, tv_prefixes=(500, 5000)),
                           tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("bins,change,message", [
        (10, {}, "n_per_axis: must be at least 32, got 10"),
        (measure.MAX_CELLS + 1, {}, f"n_per_axis: {measure.MAX_CELLS + 1} per axis in 1 "),
        (harness.TV_BINS, {"objective": Quadratic(1.0, 3), "domain": Ball(np.zeros(3), 1.0)},
         "dim: the quadrature oracle supports dimension 1 or 2 only, got 3"),
    ], ids=["bins", "cells", "dimension"])
    def test_oracle_settings_rejected_before_any_chain(self, bins, change, message,
                                                       tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "run_chains",
                            lambda *args, **kwargs: pytest.fail("a chain ran"))
        monkeypatch.setattr(harness, "TV_BINS", bins)
        spec = replace(preset_gibbs1d(), **{"steps": 1000, "tv_prefixes": (1000,), **change})
        with pytest.raises(ValueError, match=f"^{message}"):
            run_experiment(spec, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("tree,field,value", [
        ("objective", "means", [[math.nan, 0.0]]),
        ("domain", "center", [math.nan, 0.0]),
        (None, "min_f", math.nan),  # every aggregate quartile would be NaN
        (None, "min_f", math.inf),
    ], ids=["objective-means", "domain-center", "min_f-nan", "min_f-inf"])
    def test_cli_rejects_non_finite_spec_values(self, tree, field, value, tmp_path, capsys):
        # json.load accepts NaN and Infinity; neither may reach a chain.
        spec = {
            "objective": {"kind": "gaussian-mixture", "weights": [1.0],
                          "means": [[0.0, 0.0]]},
            "domain": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
            "methods": ["rgld"], "eta": 1e-3, "beta": 2.0, "steps": 10,
            "seeds": [0],
        }
        (spec if tree is None else spec[tree])[field] = value
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert "NaN" in path.read_text() or "Infinity" in path.read_text()
        rc = cli.main(["run", str(path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"{field}: must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("tree,field,value", [
        ("domain", "radius", "1"),
        ("objective", "dim", 2.7),
        (None, "steps", "10"),
        (None, "beta", True),
    ])
    def test_cli_rejects_mistyped_numbers(self, tree, field, value, tmp_path, capsys):
        spec = {
            "objective": {"kind": "rastrigin", "dim": 2},
            "domain": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
            "methods": ["rgld"], "eta": 1e-3, "beta": 2.0, "steps": 10,
            "seeds": [0],
        }
        (spec if tree is None else spec[tree])[field] = value
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        rc = cli.main(["run", str(path), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{field}: expected" in err and repr(value) in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field,value,message", [
        pytest.param("methods", "rgld", "spec.methods: expected a list of strings, got 'rgld'",
                     id="methods-rgld"),
        # A list's message names its first element of the wrong type.
        pytest.param("methods", ["rgld", 3], "spec.methods[1]: expected a string, got 3",
                     id="methods-value1"),
        pytest.param("enforce_step_bound", "false",
                     "spec.enforce_step_bound: expected true or false, got 'false'",
                     id="enforce_step_bound-false"),
        pytest.param("enforce_step_bound", 0,
                     "spec.enforce_step_bound: expected true or false, got 0",
                     id="enforce_step_bound-0"),
        pytest.param("noise", 1, "spec.noise: expected a string, got 1", id="noise-1"),
        pytest.param("name", 5, "spec.name: expected a string, got 5", id="name-5"),
    ])
    def test_spec_rejects_mistyped_fields(self, field, value, message):
        spec = {
            "objective": {"kind": "rastrigin", "dim": 2},
            "domain": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
            "methods": ["rgld"], "eta": 1e-3, "beta": 2.0, "steps": 10,
            field: value,
        }
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            spec_from_dict(spec)

    @pytest.mark.parametrize("text,message", [
        ("5", "spec: expected an object, got 5"),
        ("null", "spec: expected an object, got None"),
        ('["a"]', "spec: expected an object, got ['a']"),
        ('{"objective": "quadratic"}', "objective: expected an object, got 'quadratic'"),
        ('{"domain": [1]}', "domain: expected an object, got [1]"),
    ], ids=["number", "null", "list", "objective-string", "domain-list"])
    @pytest.mark.parametrize("command", ["run", "oracle"])
    def test_cli_rejects_trees_that_are_not_objects(self, command, text, message,
                                                    tmp_path, capsys):
        # These once ended in a TypeError or AttributeError traceback, and
        # a top-level list was read as its elements' keys.
        if text.startswith("{"):
            spec = {
                "objective": {"kind": "quadratic", "dim": 2},
                "domain": {"kind": "ball", "center": [0.0, 0.0], "radius": 2.0},
                "methods": ["rgld"], "eta": 1e-3, "beta": 1.0, "steps": 10,
                **json.loads(text),
            }
            text = json.dumps(spec)
        path = tmp_path / "spec.json"
        path.write_text(text)
        rc = cli.main([command, str(path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("change,message", [
        ({"noise": "gausian"}, "noise: expected one of"),
        ({"beta": 0.0}, "beta: must be positive, got 0.0"),
        ({"enforce_step_bound": True}, "eta: step-size bound"),
    ], ids=["noise", "beta", "step-bound"])
    def test_every_method_validated_before_any_chain(self, change, message, monkeypatch):
        # pg reads none of these settings: the spec refuses the rgld chains
        # when it is built, and no chain runs.
        fail = lambda *args: pytest.fail("a chain ran")
        monkeypatch.setattr(harness, "run_chain", fail)
        monkeypatch.setattr(harness, "run_batch", fail)
        with pytest.raises(ValueError, match=f"^{message}"):
            replace(preset_rosenbrock(4), steps=10, seeds=(0, 1, 2), **change)

    def test_cli_rejects_non_finite_iterates(self, tmp_path, capsys):
        # eta * grad = 1e308 * 1.9 overflows on the first update.
        spec = {
            "objective": {"kind": "quadratic", "dim": 2},
            "domain": {"kind": "ball", "center": [0.0, 0.0], "radius": 2.0},
            "methods": ["pg", "rgld"], "eta": 1e308, "beta": 1.0, "steps": 10,
            "seeds": [3, 4], "x0": [1.9, 0.0], "enforce_step_bound": False,
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        rc = cli.main(["run", str(path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "pg chain, seed 3: iterate 1 is not finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        # Run as a program, the error is the only line: the overflow and
        # the invalid value on the way print no numpy warning.
        proc = run_python("-m", "rgld.cli", "run", str(path),
                            "--out", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("configuration error: pg chain, seed 3: iterate 1 ")
        assert not (tmp_path / "out").exists()

    def test_cli_reports_empty_seed_set(self, tmp_path, capsys):
        rc = cli.main(["run", "gm2d", "--steps", "10", "--seeds", "",
                       "--out", str(tmp_path)])
        assert rc == 2
        assert "seeds" in capsys.readouterr().err


class TestConfigFiles:
    def spec_dict(self):
        return {
            "name": "toy",
            "objective": {"kind": "rastrigin", "dim": 2},
            "domain": {"kind": "shell", "center": [0, 0],
                       "inner_radius": 0.9, "outer_radius": 5.12},
            "methods": ["pg", "rgld"],
            "eta": 5e-4,
            "beta": 0.1,
            "steps": 200,
            "seeds": [0, 1],
        }

    def test_round_trip(self, tmp_path):
        spec = spec_from_dict(self.spec_dict())
        assert spec.name == "toy"
        assert spec.methods == ("pg", "rgld")
        paths = run_experiment(spec, tmp_path)
        assert len(paths) == 6

    def test_unknown_kinds_rejected(self):
        bad = self.spec_dict()
        bad["objective"] = {"kind": "ackley", "dim": 2}
        with pytest.raises(ValueError, match="objective"):
            spec_from_dict(bad)
        bad = self.spec_dict()
        bad["domain"] = {"kind": "box"}
        with pytest.raises(ValueError, match="domain"):
            spec_from_dict(bad)

    def test_unknown_and_missing_keys_rejected(self):
        bad = self.spec_dict()
        bad["setps"] = bad.pop("steps")
        bad["colour"] = "red"
        with pytest.raises(ValueError) as err:
            spec_from_dict(bad)
        msg = str(err.value)
        assert "'setps'" in msg and "'colour'" in msg and "'steps'" in msg

    def test_unknown_and_missing_nested_keys_rejected(self):
        bad = self.spec_dict()
        bad["domain"] = {"kind": "ball", "center": [0, 0], "raduis": 1.0}
        with pytest.raises(ValueError, match="^domain: unknown key 'raduis', missing key 'radius'"):
            spec_from_dict(bad)
        bad = self.spec_dict()
        bad["objective"]["scale"] = 2.0
        with pytest.raises(ValueError, match="^objective: unknown key 'scale'"):
            spec_from_dict(bad)

    def test_negative_mixture_seed_rejected(self):
        bad = self.spec_dict()
        bad["objective"] = {"kind": "grid-gaussian-mixture", "seed": -1}
        with pytest.raises(ValueError, match="^objective.seed: must be a non-negative "
                                             "integer, got -1$"):
            spec_from_dict(bad)

    def test_trees_match_their_builders(self):
        # Key sets only: a builder's defaults need not make a key optional
        # (the spec requires ``quadratic.dim``).
        for (tree, kind), (required, optional, build) in harness._TREES.items():
            keys = set(required) | set(optional)
            if tree == "spec":
                assert keys == {f.name for f in fields(harness.ExperimentSpec)}
            else:
                assert keys == set(inspect.signature(build).parameters), (tree, kind)

    def test_readme_table_is_the_trees(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        rows = set()
        for line in readme.splitlines():
            cells = [c.strip() for c in re.split(r"(?<!\\)\|", line)[1:-1]]
            if len(cells) == 4 and cells[1].startswith("`"):
                tree, _, kind = cells[0].partition(" ")
                rows.add((tree, kind.strip("`") or None, cells[1].strip("`"),
                          cells[2].replace("\\|", "|"), cells[3].split()[0]))
        assert rows == {
            (tree, kind, key, json_type, "yes" if key in required else "no")
            for (tree, kind), (required, optional, _) in harness._TREES.items()
            for key, json_type in {**required, **optional}.items()
        }

    @pytest.mark.parametrize("preset,tree", [
        (preset_gm2d, {
            "name": "gm2d",
            "objective": {"kind": "grid-gaussian-mixture", "seed": harness.GM_OBJECTIVE_SEED},
            "domain": {"kind": "shell", "center": [0, 0],
                       "inner_radius": 0.9, "outer_radius": 4},
            "methods": ["pg", "rgld"], "eta": 0.05, "beta": 1, "steps": 10_000,
            "x0": [0.5, 0.5], "min_f": preset_gm2d().min_f, "enforce_step_bound": False,
        }),
        (preset_gibbs1d, {
            "name": "gibbs1d",
            "objective": {"kind": "quadratic", "scale": 1, "dim": 1},
            "domain": {"kind": "ball", "center": [0], "radius": 1},
            "methods": ["rgld"], "eta": 1e-3, "beta": 2, "steps": 2_000_000,
            "seeds": [0], "min_f": 0, "x0": None,
            "tv_prefixes": [10_000, 100_000, 1_000_000, 2_000_000],
        }),
    ], ids=["gm2d", "gibbs1d"])
    def test_preset_as_a_json_tree(self, preset, tree, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(tree))
        assert spec_fields(harness.spec_from_file(path)) == spec_fields(preset())

    def test_validation_failure_reports_field(self, tmp_path):
        bad = self.spec_dict()
        bad["eta"] = -1.0
        with pytest.raises(ValueError, match="^eta: must be positive and finite, got -1.0$"):
            spec_from_dict(bad)


def readme_spec_tree():
    """The example spec tree of the README's "Custom experiments"."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Custom experiments", 1)[1]
    return json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])


README_TREE = readme_spec_tree()
# Each key of the README's tree, as its path: the spec's keys, with the
# optional ones it leaves out, and the objective's and domain's, ``kind``
# included.
README_KEYS = [(key,) for key in {**README_TREE, **harness._TREES["spec", None][1]}] + [
    (tree, key) for tree in ("objective", "domain") for key in README_TREE[tree]]
# The names a message may start with: the trees, their keys and the chain
# settings; ``radii`` names a shell's two radii, ``dimension`` the
# objective's and domain's.
FIELD_NAMES = ({"spec", "objective", "domain", "radii", "dimension"}
               | {key for required, optional, _ in harness._TREES.values()
                  for key in (*required, *optional)}
               | {f.name for f in fields(ChainConfig)})


def json_values():
    """JSON values of every type and magnitude: null, booleans, integers
    up to +-10**400, floats (1e400 reads as inf, NaN, +-1e308), strings
    (the spec's words among them), lists up to depth 2 and objects."""
    words = ["rgld", "pgld", "pg", "gaussian", "shell", "ball", "quadratic", "rastrigin",
             "kind", "dim", "center", "radius", "seed"]
    scalars = st.one_of(
        st.none(), st.booleans(),
        st.integers(-3, 12), st.integers(-10**400, 10**400),
        st.sampled_from([2**64 - 1, 2**64, dynamics.MAX_STEPS, dynamics.MAX_STEPS + 1]),
        st.floats(), st.sampled_from([1e400, -1e400, math.nan, 1e308, -1e308]),
        st.text(max_size=6), st.sampled_from(words),
    )

    def containers(items):
        return (st.lists(items, max_size=3)
                | st.dictionaries(st.text(max_size=4) | st.sampled_from(words), items, max_size=3))

    return st.one_of(scalars, containers(scalars), containers(scalars | containers(scalars)))


class ChainRan(Exception):
    """Raised in place of running a chain."""


class TestSpecTrees:
    """No spec tree ends in a traceback: each is a spec that passes every
    check made before step 0, or a ``ValueError`` naming its field."""

    @settings(max_examples=300, deadline=None)
    @given(where=st.sampled_from(README_KEYS), value=json_values())
    def test_any_value_at_any_key(self, where, value, tmp_path_factory):
        # One key of the README's tree is set to the drawn value; the
        # chain runners raise ``ChainRan``.
        tree = json.loads(json.dumps(README_TREE))
        node = tree
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = value
        out = tmp_path_factory.getbasetemp() / "never-made"

        def ran(*args):
            raise ChainRan

        with mock.patch.object(harness, "run_chain", ran), \
                mock.patch.object(harness, "run_batch", ran):
            try:
                run_experiment(spec_from_dict(tree), out)
            except ChainRan:
                return
            except ValueError as exc:
                message = str(exc)
                head = re.match(r"unknown (spec|objective|domain) kind |([\w.\[\]]+): ",
                                message)
                assert head, message
                names = re.sub(r"\[\d+\]", "", head[2] or "spec").split(".")
                assert set(names) <= FIELD_NAMES, message
            else:
                pytest.fail("run_experiment returned without running a chain")
            finally:
                assert not out.exists()

    @settings(max_examples=300, deadline=None)
    @given(where=st.sampled_from(README_KEYS), value=json_values())
    def test_a_built_spec_passes_its_own_checks(self, where, value, tmp_path_factory):
        # The spec checks its own fields and its chains when it is built: a
        # run refuses an accepted spec only by the oracle's or the out-dir
        # check, never by a chain setting's.
        tree = json.loads(json.dumps(README_TREE))
        node = tree
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = value
        try:
            spec = spec_from_dict(tree)
        except ValueError:
            return

        def ran(*args):
            raise ChainRan

        with mock.patch.object(harness, "run_chain", ran), \
                mock.patch.object(harness, "run_batch", ran):
            try:
                run_experiment(spec, tmp_path_factory.getbasetemp() / "never-made")
            except ChainRan:
                pass
            except ValueError as exc:
                # The oracle's and the out-dir's fields, no chain setting
                # (method, eta, beta, noise, seed, x0, dimension, steps).
                assert re.match(r"(dim|n_per_axis|out_dir): ", str(exc)), str(exc)


class TestCli:
    def test_run_preset_with_overrides(self, tmp_path, capsys):
        rc = cli.main([
            "run", "gm2d", "--steps", "200", "--seeds", "0..1",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        assert (tmp_path / "gm2d_rgld_seed1.csv").exists()
        assert "wrote" in capsys.readouterr().out

    def test_run_config_file(self, tmp_path):
        cfg = {
            "objective": {"kind": "quadratic", "scale": 1.0, "dim": 1},
            "domain": {"kind": "ball", "center": [0], "radius": 1.0},
            "methods": ["rgld"],
            "eta": 1e-3,
            "beta": 2.0,
            "steps": 500,
            "seeds": [0],
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(cfg))
        rc = cli.main(["run", str(path), "--out", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "custom_rgld_seed0.csv").exists()

    def test_specs_are_built_through_the_traced_calls(self, tmp_path, monkeypatch):
        # perfbench/child.py wraps these calls, looked up when called: a
        # preset is one ``harness.PRESETS[name]`` call and a spec file one
        # ``harness.spec_from_file`` call, flags and all, and a lone chain
        # runs through ``harness.run_chain``. gm2d's seed-free pg chain is
        # its lone chain; its rgld chains run as one batch.
        calls = []

        def spy(name, fn):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setitem(harness.PRESETS, "gm2d", spy("gm2d", harness.PRESETS["gm2d"]))
        monkeypatch.setattr(harness, "spec_from_file", spy("file", harness.spec_from_file))
        monkeypatch.setattr(harness, "run_chain", spy("run_chain", harness.run_chain))
        argv = ["--steps", "50", "--seeds", "0..1", "--out", str(tmp_path / "out")]
        assert cli.main(["run", "gm2d", *argv]) == 0
        assert calls == ["gm2d", "run_chain"]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "objective": {"kind": "quadratic", "dim": 1},
            "domain": {"kind": "ball", "center": [0.0], "radius": 1.0},
            "methods": ["rgld"], "eta": 1e-3, "beta": 2.0, "steps": 10,
        }))
        calls.clear()
        assert cli.main(["run", str(path), *argv]) == 0
        assert calls == ["file", "run_chain", "run_chain"]

    def test_steps_flag_mends_a_spec_file(self, tmp_path):
        # The flags are set in the file's tree before it is built: a file
        # whose own steps are refused runs with ``--steps``, and its TV
        # prefixes below the new length are kept and ended by it.
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "objective": {"kind": "quadratic", "dim": 1},
            "domain": {"kind": "ball", "center": [0.0], "radius": 1.0},
            "methods": ["rgld"], "eta": 1e-3, "beta": 2.0, "steps": 0,
            "seeds": [0, 1], "tv_prefixes": [5, 500],
        }))
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--steps", "100", "--out", str(out)]) == 0
        for seed in (0, 1):
            rows = (out / f"custom_rgld_seed{seed}.csv").read_text().splitlines()
            assert len(rows) == 1 + 100 and rows[-1].startswith("99,")
            tv = (out / f"custom_rgld_tv_seed{seed}.csv").read_text().splitlines()
            assert [row.split(",")[0] for row in tv[1:]] == ["5", "100"]

    @pytest.mark.parametrize("prefixes,message", [
        (5, "spec.tv_prefixes: expected a list, got 5"),
        (["5"], "spec.tv_prefixes[0]: expected an integer, got '5'"),
        ([True], "spec.tv_prefixes[0]: expected an integer, got True"),
    ], ids=["number", "string", "bool"])
    def test_steps_flag_leaves_bad_tv_prefixes_to_the_checks(self, prefixes, message,
                                                              tmp_path, capsys):
        # ``--steps`` cuts the prefixes only when they are a list of
        # integers; others are refused by the spec's checks, in one line.
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "objective": {"kind": "quadratic", "dim": 1},
            "domain": {"kind": "ball", "center": [0.0], "radius": 1.0},
            "methods": ["rgld"], "eta": 1e-3, "beta": 2.0, "steps": 10,
            "tv_prefixes": prefixes,
        }))
        rc = cli.main(["run", str(path), "--steps", "100", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [f"configuration error: {message}"]
        assert not (tmp_path / "out").exists()

    def test_run_rejects_unknown_preset(self, tmp_path, capsys):
        assert cli.main(["run", "nonexistent", "--out", str(tmp_path / "out")]) == 2
        assert ("configuration error: target: unknown preset or missing file 'nonexistent'"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_run_reports_config_error(self, tmp_path, capsys):
        rc = cli.main([
            "run", "gibbs1d", "--eta", "-1", "--steps", "10",
            "--out", str(tmp_path),
        ])
        assert rc == 2
        assert "eta" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "oracle"])
    def test_bad_spec_file_is_a_configuration_error(self, command, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "objective": {"kind": "quadratic", "dim": 1},
            "domain": {"kind": "ball", "center": [0], "raduis": 1.0},
            "methods": ["rgld"], "eta": 1e-3, "beta": 2.0, "steps": 10,
        }))
        rc = cli.main([command, str(path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "raduis" in capsys.readouterr().err

    def test_seed_parsing(self):
        assert cli._parse_seeds("0..3") == (0, 1, 2, 3)
        assert cli._parse_seeds("5,7,9") == (5, 7, 9)

    def test_seed_range_is_bounded_before_it_is_built(self):
        most = harness.MAX_SEEDS
        assert len(cli._parse_seeds(f"1..{most}")) == most
        for text in (f"0..{most}", "0..99999999999999999999"):
            with pytest.raises(argparse.ArgumentTypeError, match=f"more than {most} seeds"):
                cli._parse_seeds(text)

    @pytest.mark.parametrize("text,error", [
        (text, f"expected a range a..b or a comma list of integers, got {text!r}")
        for text in ("abc", "0..", "0..x", "1,,2")
    ] + [("5..1", "empty seed range '5..1'")], ids=["abc", "0..", "0..x", "1,,2", "5..1"])
    def test_bad_seed_text_exits_2_in_one_line(self, text, error, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_:
            cli.main(["run", "gibbs1d", "--seeds", text, "--out", str(tmp_path / "out")])
        assert exit_.value.code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"rgld run: error: argument --seeds: {error}; see rgld run --help"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("source", ["spec", "flag"])
    def test_seed_count_is_bounded_before_any_config(self, source, tmp_path, capsys,
                                                     monkeypatch):
        # A list one seed longer than the bound, from the spec file or from
        # a ``--seeds`` comma list; each seed would be a chain config.
        seeds = list(range(harness.MAX_SEEDS + 1))
        spec = {
            "objective": {"kind": "quadratic", "dim": 1},
            "domain": {"kind": "ball", "center": [0.0], "radius": 1.0},
            "methods": ["rgld"], "eta": 0.01, "beta": 1.0, "steps": 10,
            **({"seeds": seeds} if source == "spec" else {}),
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        argv = ["--seeds", ",".join(map(str, seeds))] if source == "flag" else []

        def ran(*args):
            raise ChainRan

        # The flags are set in the file's tree before it is built, so its
        # own 20 default seeds are never built; the oversized list must
        # build no chain config.
        chain_config = harness.ExperimentSpec.chain_config

        def config(spec, *args):
            if len(spec.seeds) > harness.MAX_SEEDS:
                raise ChainRan
            return chain_config(spec, *args)

        for name in ("run_chain", "run_batch"):
            monkeypatch.setattr(harness, name, ran)
        monkeypatch.setattr(harness.ExperimentSpec, "chain_config", config)
        rc = cli.main(["run", str(path), *argv, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            f"configuration error: seeds: at most {harness.MAX_SEEDS} seeds, "
            f"got {harness.MAX_SEEDS + 1}"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, field", [
        (("eta",), "spec.eta"), (("beta",), "spec.beta"), (("min_f",), "spec.min_f"),
        (("x0", 1), "spec.x0[1]"), (("domain", "radius"), "domain.radius"),
        (("domain", "center", 0), "domain.center[0]"), (None, "argument --seeds"),
    ])
    def test_numbers_out_of_range_exit_2_in_one_line(self, key, field, tmp_path):
        # A JSON integer beyond the largest double, and a seed range whose
        # length overflows: one line that names the field, no output.
        spec = {
            "objective": {"kind": "quadratic", "dim": 2},
            "domain": {"kind": "ball", "center": [0.0, 0.0], "radius": 2.0},
            "methods": ["rgld"], "eta": 0.01, "beta": 1.0, "steps": 10,
            "x0": [0.5, 0.5], "min_f": 0.0,
        }
        argv = ["--seeds", "0..99999999999999999999"]
        if key is not None:
            tree = spec
            for k in key[:-1]:
                tree = tree[k]
            tree[key[-1]] = 10**400
            argv = []
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        proc = run_python("-m", "rgld.cli", "run", str(path), *argv,
                            "--out", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert f"error: {field}: " in proc.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("change, argv, message", [
        ({"seeds": [10**400]}, [], "seed: must be below 2**64, got 1000000"),
        ({}, ["--seeds", str(2**64)], f"seed: must be below 2**64, got {2**64}"),
        ({"steps": 10**30}, [], f"steps: must be at most {dynamics.MAX_STEPS}, got 1000000"),
        ({"steps": dynamics.MAX_STEPS + 1}, [],
         f"steps: must be at most {dynamics.MAX_STEPS}, got {dynamics.MAX_STEPS + 1}"),
        ({}, ["--steps", str(dynamics.MAX_STEPS + 1)], "steps: must be at most"),
        ({"name": "a/b"}, [], "name: must be a file name part"),
        ({"name": "n" * 201}, [], "name: must be a file name part"),
        ({"name": "\ud800"}, [], "name: must be a file name part"),
    ], ids=["spec-seed", "seeds-flag", "steps-1e30", "steps-over-max", "steps-flag",
            "name-slash", "name-long", "name-surrogate"])
    def test_out_of_range_settings_exit_2_before_any_chain(self, change, argv, message,
                                                           tmp_path):
        # A seed of 10**400 ran every chain, then named a file too long to
        # write; a huge ``steps`` failed in numpy with no field named.
        spec = {
            "objective": {"kind": "quadratic", "dim": 2},
            "domain": {"kind": "ball", "center": [0.0, 0.0], "radius": 2.0},
            "methods": ["pg", "rgld"], "eta": 0.01, "beta": 1.0, "steps": 10,
            "seeds": [0, 1], **change,
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        # A chain would call None and end in a traceback.
        code = ("import sys\n"
                "from rgld import cli, harness\n"
                "harness.run_chain = harness.run_batch = None\n"
                "sys.exit(cli.main(sys.argv[1:]))\n")
        proc = run_python("-c", code, "run", str(path), *argv,
                            "--out", str(tmp_path / "out"))
        assert proc.returncode == 2, proc.stderr
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert proc.stderr.startswith(f"configuration error: {message}"), proc.stderr
        assert not (tmp_path / "out").exists()

    def test_gm2d_run_leaves_numpy_ma_unimported(self, tmp_path):
        # np.percentile imported numpy.ma, about 7 ms of a gm2d run.
        code = ("import sys\n"
                "from rgld import cli\n"
                f"assert cli.main(['run', 'gm2d', '--steps', '50', '--out', {str(tmp_path)!r}]) == 0\n"
                "print('numpy.ma' in sys.modules)\n")
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"

    def test_oracle_export(self, tmp_path, capsys):
        rc = cli.main(["oracle", "gibbs1d", "--bins", "64", "--out", str(tmp_path)])
        assert rc == 0
        path = tmp_path / "gibbs1d_oracle_64.csv"
        assert path.exists()
        assert path.read_text().startswith("cell,mid_0,probability")

    @pytest.mark.parametrize("bins", ["0", "1", "-3"])
    def test_oracle_rejects_too_few_bins(self, bins, tmp_path, capsys):
        # 0 is a bin count, not "unset": it must not fall back to 256.
        rc = cli.main(["oracle", "gibbs1d", "--bins", bins, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"n_per_axis: must be at least 32, got {bins}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_oracle_rejects_too_many_cells(self, tmp_path, capsys, monkeypatch):
        # gm2d's grid just above the bound would take over 1 GB.
        bins = math.isqrt(measure.MAX_CELLS) + 1

        def built(*args, **kwargs):
            pytest.fail("the grid was built")

        monkeypatch.setattr(measure.np, "linspace", built)
        monkeypatch.setattr(measure.np, "meshgrid", built)
        rc = cli.main(["oracle", "gm2d", "--bins", str(bins), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [f"configuration error: n_per_axis: {bins} per axis in 2 "
                                    f"dimensions is more than {measure.MAX_CELLS} cells"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("beta", ["nan", "inf", "-1"])
    def test_oracle_rejects_bad_beta(self, beta, tmp_path, capsys):
        rc = cli.main(["oracle", "gibbs1d", "--beta", beta, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"beta: must be non-negative and finite, got {float(beta)}" in (
            capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_oracle_beta_zero_is_the_uniform_law(self, tmp_path):
        # ``--beta`` is the oracle's own temperature: the spec's rgld chain
        # would refuse beta 0, the oracle takes it as the uniform law.
        rc = cli.main(["oracle", "gibbs1d", "--beta", "0", "--bins", "64",
                       "--out", str(tmp_path)])
        assert rc == 0
        cells = np.loadtxt(tmp_path / "gibbs1d_oracle_64.csv", delimiter=",", skiprows=1)
        # Every cell of the interval's grid lies in the region.
        assert cells.shape == (64, 3)
        assert len(set(cells[:, 2])) == 1

    @pytest.mark.parametrize("flag", ["--eta", "--steps", "--seeds"])
    def test_oracle_rejects_chain_flags(self, flag, tmp_path):
        with pytest.raises(SystemExit):
            cli.main(["oracle", "gibbs1d", flag, "1", "--out", str(tmp_path)])

    def test_check_battery_passes(self, capsys):
        rc = cli.main(["check"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out and "FAIL" not in out

    def test_check_battery_fails_on_wrong_float_digits(self, capsys, monkeypatch):
        # As if the uint64 products of a numpy build did not wrap.
        monkeypatch.setattr(harness, "_POW5", np.minimum(harness._POW5, 2**40))
        assert cli.main(["check"]) == 1
        assert "FAIL CSV float text" in capsys.readouterr().out

    def test_check_battery_fails_on_a_geometry_fault(self, capsys, monkeypatch):
        # Reflection that leaves exterior points where they are.
        reflect = FeasibleDomain.reflect
        monkeypatch.setattr(FeasibleDomain, "reflect", lambda self, x: (
            (x, False, False) if self.project(x) is not x else reflect(self, x)))
        assert cli.main(["check"]) == 1
        assert "FAIL geometry projection/reflection invariants" in capsys.readouterr().out

    def test_check_battery_fails_on_a_float_operator_fault(self, capsys, monkeypatch):
        # As if a Python float met the center one ulp off: the (1,) calls
        # keep their bits, the float calls at the walls move.
        point = FeasibleDomain._point
        monkeypatch.setattr(FeasibleDomain, "_point", lambda self, x: (
            (x, math.nextafter(self.center.item(), math.inf)) if type(x) is float
            else point(self, x)))
        assert cli.main(["check"]) == 1
        out = capsys.readouterr().out
        assert re.search(r"FAIL 1-D float operator \(\d+ of 4010 points differ", out)

    def test_float_operator_points_cover_both_walls_nudges_and_fallbacks(self, monkeypatch):
        cases = []
        check = cli.check_float_operators
        monkeypatch.setattr(cli, "check_float_operators",
                            lambda dom, points: cases.append((dom, points)) or check(dom, points))
        assert cli.main(["check"]) == 0
        nudges = []
        nextafter = math.nextafter
        monkeypatch.setattr(math, "nextafter", lambda a, b: nudges.append(b) or nextafter(a, b))
        walls, fallbacks = set(), 0
        for dom, points in cases:
            c, in2 = dom.center.item(), dom.inner_radius ** 2
            for x in points:
                v = x.item() - c
                _, reflected, fell_back = dom.reflect(x.item())
                if reflected or fell_back:
                    walls.add(("inner" if v * v < in2 else "outer", v > 0))
                fallbacks += fell_back
        assert len(cases) == 2 and len(walls) == 4
        assert nudges and fallbacks

    def test_dim_flag(self, tmp_path):
        rc = cli.main([
            "run", "rosenbrock", "--dim", "6", "--steps", "100",
            "--seeds", "0..0", "--out", str(tmp_path),
        ])
        assert rc == 0
        assert (tmp_path / "rosenbrock6_pg_seed0.csv").exists()

    @pytest.mark.parametrize("command", ["run", "oracle"])
    def test_dim_rejected_for_a_spec_file(self, command, tmp_path, monkeypatch, capsys):
        fail = lambda *args, **kwargs: pytest.fail("a chain or an oracle ran")
        monkeypatch.setattr(harness, "run_chains", fail)
        monkeypatch.setattr(cli, "GibbsOracle", fail)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "objective": {"kind": "quadratic", "dim": 1},
            "domain": {"kind": "ball", "center": [0.0], "radius": 1.0},
            "methods": ["rgld"], "eta": 1e-3, "beta": 2.0, "steps": 10,
        }))
        assert cli.main([command, str(path), "--dim", "7", "--out", str(tmp_path / "out")]) == 2
        assert ("configuration error: --dim is not applicable to spec file"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_oracle_dimension_rejected_before_the_grid(self, tmp_path, capsys, monkeypatch):
        # The oracle's own check: numpy is out of its reach.
        monkeypatch.setattr(measure, "np", None)
        assert cli.main(["oracle", "rosenbrock", "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "configuration error: dim: the quadrature oracle supports dimension 1 or 2 "
            "only, got 4\n")
        assert not (tmp_path / "out").exists()

    def test_readme_rosenbrock_example_never_falls_back(self, tmp_path):
        # At eta 5e-4, d = 10 falls back on about 3 of 4 rgld steps.
        rc = cli.main(["run", "rosenbrock", "--dim", "10", "--seeds", "0..1",
                       "--steps", "20000", "--out", str(tmp_path)])
        assert rc == 0
        for seed in (0, 1):
            rows = np.loadtxt(tmp_path / f"rosenbrock10_rgld_seed{seed}.csv",
                              delimiter=",", skiprows=1)
            assert rows.shape[0] == 20_000
            assert rows[:, 4].sum() == 0

    def test_dim_zero_is_a_dimension_not_unset(self, tmp_path, capsys):
        rc = cli.main(["run", "rosenbrock", "--dim", "0", "--steps", "10",
                       "--seeds", "0..0", "--out", str(tmp_path)])
        assert rc == 2
        assert "dim: must be at least 2, got 0" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())
        assert cli.main(["run", "gibbs1d", "--dim", "0", "--out", str(tmp_path)]) == 2
        assert "--dim is not applicable to preset 'gibbs1d'" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-3", "2"])
    def test_workers_below_one_rejected(self, workers, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "gibbs1d", "--steps", "10", "--workers", workers,
                      "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, message", [
        (["run", "{d}", "--out", "{d}/out"], "target: unknown preset or missing file"),
        (["run", "gibbs1d", "--out", "{d}/file"], "is not a directory"),
        (["run", "gibbs1d", "--out", "{d}/file/sub"], "cannot be made"),
        (["run", "gibbs1d", "--workers", "2", "--out", "{d}/out"],
         "--workers: invalid choice"),
        (["oracle", "gibbs1d", "--out", "{d}/file"], "is not a directory"),
        (["oracle", "gibbs1d", "--out", "{d}/file/sub"], "cannot be made"),
    ], ids=["directory-target", "out-is-a-file", "out-under-a-file", "workers-2",
            "oracle-out-is-a-file", "oracle-out-under-a-file"])
    def test_bad_input_exits_2_before_any_chain(self, argv, message, tmp_path):
        # A chain or the oracle would call None and end in a traceback.
        code = ("import sys\n"
                "from rgld import cli, harness\n"
                "harness.run_chains = harness.GibbsOracle = cli.GibbsOracle = None\n"
                "sys.exit(cli.main(sys.argv[1:]))\n")
        (tmp_path / "file").write_text("")
        proc = run_python("-c", code, *(a.format(d=tmp_path) for a in argv))
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert message in proc.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]

    def test_drawn_start_on_a_high_dimensional_shell_runs(self, tmp_path):
        # outer_radius**400 overflows; the start is drawn (no x0).
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "name": "wide", "objective": {"kind": "quadratic", "dim": 400},
            "domain": {"kind": "shell", "center": [0.0] * 400,
                       "inner_radius": 1.0, "outer_radius": 10.0},
            "methods": ["rgld"], "eta": 1e-4, "beta": 100.0, "steps": 20, "seeds": [0, 1],
        }))
        proc = run_python("-m", "rgld.cli", "run", str(path), "--out", str(tmp_path / "out"))
        assert proc.returncode == 0, proc.stderr
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "wide_rgld_aggregate.csv", "wide_rgld_seed0.csv", "wide_rgld_seed1.csv"]

    @pytest.mark.parametrize("domain,x0,error", [
        ({"kind": "ball", "center": [0.0], "radius": 1e200}, [1e250],
         "radii: the squares must be finite normal doubles"),
        ({"kind": "ball", "center": [0.0, 0.0], "radius": 1.0}, [1e200, 0.0],
         "x0: point at distance 1e+200 from the region exceeds the reflection margin 1"),
    ], ids=["radius-square-overflows", "x0-square-overflows"])
    def test_far_spec_exits_2_in_one_line(self, domain, x0, error, tmp_path):
        # Numbers whose squares overflow: a radius, refused, and a start
        # whose distance is still found, with no numpy warning on stderr.
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "name": "far", "domain": domain, "x0": x0,
            "objective": {"kind": "gaussian-mixture", "weights": [1.0],
                          "means": [[0.0] * len(x0)]},
            "methods": ["rgld"], "eta": 0.01, "beta": 1.0, "steps": 5, "seeds": [0],
        }))
        proc = run_python("-m", "rgld.cli", "run", str(path), "--out", str(tmp_path / "out"))
        assert proc.returncode == 2
        [line] = proc.stderr.splitlines()
        assert line.startswith(f"configuration error: {error}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["gm2d", "--steps", "300", "--seeds", "0..1"],
        ["gibbs1d", "--steps", "4000", "--seeds", "0"],
    ], ids=["gm2d", "gibbs1d"])
    def test_benchmark_traced_child_runs(self, argv, tmp_path):
        # The benchmark's child (perfbench/child.py) calls rgld's layers and
        # the region's operators by name; one renamed or removed fails here.
        child = Path(__file__).parents[1] / "perfbench" / "child.py"
        report = tmp_path / "report.json"
        proc = run_python(str(child), str(report), "trace", "run", *argv, "--workers", "1",
                          "--out", str(tmp_path / "out"))
        assert proc.returncode == 0, proc.stderr
        report = json.loads(report.read_text())
        assert report["counts"]
        assert report["replay_us"]["project"] > 0 and report["replay_us"]["reflect"] > 0

    def test_presets_and_check_never_import_scipy(self):
        # scipy.optimize alone takes about half a second to import.
        code = (
            "import sys\n"
            "from rgld import cli, harness, objectives\n"
            "harness.preset_gm2d()\n"
            "harness.preset_rastrigin(2)\n"
            "objectives.make_grid_gaussian_mixture(6)\n"
            "assert cli.main(['check']) == 0\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
        )
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_entry_point_help(self):
        proc = run_python("-m", "rgld.cli", "--help")
        assert proc.returncode == 0
        assert "run" in proc.stdout


@pytest.mark.parametrize("module", [m.name for m in pkgutil.iter_modules(rgld.__path__)])
def test_every_exported_name_exists(module):
    # A name left in ``__all__`` breaks ``from rgld.<module> import *``.
    mod = importlib.import_module(f"rgld.{module}")
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []
