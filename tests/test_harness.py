"""Presets, the experiment runner, CSV contracts, and the CLI."""

import json
import math
import subprocess
import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from rgld import cli, harness
from rgld.dynamics import ChainConfigError, run_chain
from rgld.geometry import SphericalShell
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
from rgld.objectives import Rastrigin


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

    def test_gm2d_beta_sweep_variant(self):
        spec = preset_gm2d(beta=8.0)
        assert spec.beta == 8.0

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
        assert spec.oracle_bins == 256
        assert spec.tv_prefixes == (10_000, 100_000, 1_000_000, 2_000_000)
        assert spec.methods == ("rgld",)

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ValueError, match="invalid"):
            preset_rosenbrock(1)
        with pytest.raises(ValueError, match="invalid"):
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


def tiny_gm2d(**overrides):
    defaults = dict(steps=400, seeds=(0, 1))
    defaults.update(overrides)
    return preset_gm2d(**defaults)


class TestRunExperiment:
    def test_file_contract_single_seed(self, tmp_path):
        spec = preset_gm2d(steps=300, seeds=(0,))
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
        spec = preset_gm2d(steps=50, seeds=(3,))
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
        assert curve.seed_count == 4

    def test_rerun_is_byte_identical(self, tmp_path):
        spec = tiny_gm2d()
        a = run_experiment(spec, tmp_path / "a")
        b = run_experiment(spec, tmp_path / "b")
        for pa, pb in zip(sorted(a), sorted(b)):
            assert pa.read_bytes() == pb.read_bytes()

    def test_worker_count_does_not_change_output(self, tmp_path):
        spec = tiny_gm2d()
        a = run_experiment(spec, tmp_path / "a", workers=1)
        b = run_experiment(spec, tmp_path / "b", workers=2)
        for pa, pb in zip(sorted(a), sorted(b)):
            assert pa.read_bytes() == pb.read_bytes()

    def test_gibbs_preset_emits_tv_files(self, tmp_path):
        spec = preset_gibbs1d(steps=20_000, seeds=(0,))
        paths = run_experiment(spec, tmp_path)
        tv = [p for p in paths if "tv" in p.name]
        assert len(tv) == 1
        lines = tv[0].read_text().splitlines()
        assert lines[0] == "prefix,tv"
        prefixes = [int(line.split(",")[0]) for line in lines[1:]]
        assert prefixes == [10_000, 20_000]
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(0 <= v <= 1 for v in values)


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


class TestStreamedWriter:
    HEADER = "step,f,cummin,reflected,fallback"

    def write_chain_rows(self, path, f, c, ev, fb):
        harness._write_csv(path, self.HEADER, "{},{:.17g},{},{},{}\n", [
            np.arange(f.size), f, harness._run_strings(c),
            ev.view(np.uint8), fb.view(np.uint8),
        ])
        return path.read_bytes()

    def expected(self, f, c, ev, fb):
        text = old_row_text(self.HEADER, [np.arange(f.size), f, c, ev, fb], {1, 2})
        return text.encode("utf-8")

    def check(self, tmp_path, values):
        rng = np.random.default_rng(1)
        f = np.asarray(values, dtype=np.float64)
        ev = rng.random(f.size) < 0.3
        fb = rng.random(f.size) < 0.1
        got = self.write_chain_rows(tmp_path / "c.csv", f, f, ev, fb)
        assert got == self.expected(f, f, ev, fb)

    def test_signed_zero_runs(self, tmp_path):
        self.check(tmp_path, [0.0, 0.0, -0.0, -0.0, -0.0, 0.0, -0.0, 0.0, 0.0])
        lines = (tmp_path / "c.csv").read_text().splitlines()
        assert [line.split(",")[2] for line in lines[1:4]] == ["0", "0", "-0"]

    def test_subnormals_and_one_ulp_neighbours(self, tmp_path):
        tiny = 5e-324
        one_up = np.nextafter(1.0, 2.0)
        self.check(tmp_path, [
            tiny, tiny, 2 * tiny, -tiny, np.nextafter(2.2250738585072014e-308, 0.0),
            1.0, one_up, one_up, 1.0, np.nextafter(1.0, 0.0), 0.1, 0.1, 1e300,
            -np.inf, np.inf, np.nan,
        ])

    def test_single_row(self, tmp_path):
        self.check(tmp_path, [-0.0])

    def test_run_crossing_block_boundary(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "_BLOCK_ROWS", 4)
        self.check(tmp_path, [3.0] * 3 + [2.5] * 9 + [-0.0] * 3 + [0.0] * 6)

    def test_run_crossing_real_block_size(self, tmp_path):
        n = harness._BLOCK_ROWS + 17
        c = np.full(n, 0.25)
        c[:5] = 1.0
        c[-3:] = np.nextafter(0.25, 0.0)
        f = c + np.linspace(0.0, 1.0, n)
        ev = np.zeros(n, dtype=bool)
        ev[harness._BLOCK_ROWS - 1: harness._BLOCK_ROWS + 1] = True
        got = self.write_chain_rows(tmp_path / "c.csv", f, c, ev, ~ev)
        assert got == self.expected(f, c, ev, ~ev)

    def test_aggregate_blocks_match_one_call(self, monkeypatch):
        monkeypatch.setattr(harness, "_BLOCK_ROWS", 1000)
        rng = np.random.default_rng(2)
        cummins = [np.minimum.accumulate(rng.standard_normal(2500)) for _ in range(5)]
        records = [SimpleNamespace(cumulative_min=c) for c in cummins]
        curve = AggregateCurve.from_records(records, -1.5)
        want = np.percentile(np.stack([c + 1.5 for c in cummins]), [25.0, 50.0, 75.0], axis=0)
        got = np.stack([curve.q25, curve.q50, curve.q75])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def spy_on_run_chain(monkeypatch):
    calls = []
    run_chain = harness.run_chain

    def spy(config, obj, domain):
        calls.append((config.method, config.seed))
        return run_chain(config, obj, domain)

    monkeypatch.setattr(harness, "run_chain", spy)
    return calls


class TestDistinctChains:
    def test_seed_free_pg_chain_runs_once(self, monkeypatch):
        spec = tiny_gm2d(steps=300, seeds=(4, 5, 6))
        calls = spy_on_run_chain(monkeypatch)
        records = harness.run_chains(spec)
        assert sorted(calls) == [("pg", 4), ("rgld", 4), ("rgld", 5), ("rgld", 6)]
        for (method, seed), rec in records.items():
            assert (rec.config.method, rec.config.seed) == (method, seed)
            alone = run_chain(spec.chain_config(method, seed), spec.objective, spec.domain)
            assert np.array_equal(rec.f_value, alone.f_value)
            assert np.array_equal(rec.boundary_events, alone.boundary_events)
            assert np.array_equal(rec.final_point, alone.final_point)
            assert not rec.f_value.flags.writeable

    def test_drawn_start_runs_pg_once_per_seed(self, monkeypatch):
        spec = preset_rosenbrock(4, steps=50, seeds=(0, 1, 2))
        calls = spy_on_run_chain(monkeypatch)
        records = harness.run_chains(spec)
        assert sorted(calls) == [(m, s) for m in ("pg", "rgld") for s in (0, 1, 2)]
        starts = {records[("pg", s)].initial_point.tobytes() for s in spec.seeds}
        assert len(starts) == 3


class TestInputChecks:
    def test_empty_seeds_rejected_before_any_chain(self, tmp_path):
        spec = tiny_gm2d(seeds=())
        with pytest.raises(ValueError, match="^seeds"):
            run_experiment(spec, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_tv_prefix_above_steps_rejected(self, tmp_path):
        spec = replace(preset_gibbs1d(steps=1000), tv_prefixes=(500, 5000))
        with pytest.raises(ValueError, match="^tv_prefixes.*5000"):
            run_experiment(spec, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("tree,field", [
        ("objective", "means"),
        ("domain", "center"),
    ])
    def test_cli_rejects_non_finite_spec_values(self, tree, field, tmp_path, capsys):
        # json.load accepts NaN and Infinity; neither may reach a chain.
        spec = {
            "objective": {"kind": "gaussian-mixture", "weights": [1.0],
                          "means": [[0.0, 0.0]]},
            "domain": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
            "methods": ["rgld"], "eta": 1e-3, "beta": 2.0, "steps": 10,
            "seeds": [0],
        }
        spec[tree][field] = [[math.nan, 0.0]] if field == "means" else [math.nan, 0.0]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert "NaN" in path.read_text()
        rc = cli.main(["run", str(path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert field in capsys.readouterr().err
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

    def test_pool_never_larger_than_job_count(self, monkeypatch):
        import concurrent.futures

        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        records = harness.run_chains(tiny_gm2d(steps=5), workers=1000)
        # Two seeds share one pg chain (fixed start, no noise): 3 jobs.
        assert len(records) == 4
        assert sizes == [3]

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

    def test_validation_failure_reports_field(self, tmp_path):
        bad = self.spec_dict()
        bad["eta"] = -1.0
        spec = spec_from_dict(bad)
        with pytest.raises(ChainConfigError, match="eta"):
            run_experiment(spec, tmp_path)


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

    def test_run_rejects_unknown_preset(self):
        with pytest.raises(SystemExit):
            cli.main(["run", "nonexistent", "--out", "/tmp/x"])

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

    def test_oracle_export(self, tmp_path, capsys):
        rc = cli.main(["oracle", "gibbs1d", "--bins", "64", "--out", str(tmp_path)])
        assert rc == 0
        path = tmp_path / "gibbs1d_oracle_64.csv"
        assert path.exists()
        assert path.read_text().startswith("cell,mid_0,probability")

    @pytest.mark.parametrize("flag", ["--eta", "--steps", "--seeds"])
    def test_oracle_rejects_chain_flags(self, flag, tmp_path):
        with pytest.raises(SystemExit):
            cli.main(["oracle", "gibbs1d", flag, "1", "--out", str(tmp_path)])

    def test_check_battery_passes(self, capsys):
        rc = cli.main(["check"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out and "FAIL" not in out

    def test_dim_flag(self, tmp_path):
        rc = cli.main([
            "run", "rosenbrock", "--dim", "6", "--steps", "100",
            "--seeds", "0..0", "--out", str(tmp_path),
        ])
        assert rc == 0
        assert (tmp_path / "rosenbrock6_pg_seed0.csv").exists()

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
        assert "invalid dimension 0" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())
        with pytest.raises(SystemExit, match="--dim is not applicable"):
            cli.main(["run", "gibbs1d", "--dim", "0", "--out", str(tmp_path)])

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_rejected(self, workers, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "gibbs1d", "--steps", "10", "--workers", workers,
                      "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_entry_point_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "rgld.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "run" in proc.stdout
