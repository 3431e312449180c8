"""Sampler kernels and the chain runner."""

import math

import numpy as np
import pytest

from rgld.dynamics import (
    ChainConfig,
    ChainConfigError,
    pg_step,
    pgld_step,
    rademacher_vector,
    rgld_step,
    run_chain,
    step_size_bound,
)
from rgld.geometry import Ball, SphericalShell
from rgld.objectives import Quadratic, Rastrigin, make_grid_gaussian_mixture

BALL2 = Ball(np.zeros(2), 2.0)
QUAD2 = Quadratic(1.0, 2)
GM_SHELL = SphericalShell(np.zeros(2), 0.9, 4.0)


class TestRademacher:
    def test_coordinates_are_signs(self):
        rng = np.random.default_rng(0)
        for d in (1, 2, 3, 8):
            xi = rademacher_vector(rng, d)
            assert set(np.unique(xi)) <= {-1.0, 1.0}
            assert float(xi @ xi) == float(d)

    def test_reproducible_but_advancing(self):
        a = rademacher_vector(np.random.default_rng(3), 3)
        b = rademacher_vector(np.random.default_rng(3), 3)
        np.testing.assert_array_equal(a, b)
        rng = np.random.default_rng(3)
        first, second = rademacher_vector(rng, 3), rademacher_vector(rng, 3)
        assert not np.array_equal(first, second)

    def test_empirical_mean(self):
        # 3 sigma for 10^6 fair signs is 0.003; allow 0.004.
        rng = np.random.default_rng(11)
        draws = rng.integers(0, 2, size=10**6) * 2.0 - 1.0
        assert abs(draws.mean()) < 0.004

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            rademacher_vector(np.random.default_rng(0), 0)


class TestSteps:
    def test_rgld_interior_hand_computed(self):
        x = np.array([1.0, 0.0])
        xi = np.array([1.0, -1.0])
        y, reflected, fallback = rgld_step(x, QUAD2, BALL2, 0.1, 2.0, xi)
        s = math.sqrt(0.1)
        np.testing.assert_allclose(y, [0.9 + s, -s], atol=1e-15)
        assert not reflected and not fallback

    def test_rgld_continuity_at_zero_step(self):
        x = np.array([0.4, -0.2])
        xi = np.array([1.0, 1.0])
        for eta in (1e-2, 1e-4, 1e-6, 1e-8):
            y, _, _ = rgld_step(x, QUAD2, BALL2, eta, 2.0, xi)
            assert np.linalg.norm(y - x) <= eta * 2.0 + math.sqrt(2 * eta)

    def test_rgld_exterior_composes_with_geometry(self):
        # Inputs that push the raw step into the shell's cavity.
        x = np.array([0.9, 0.0])
        xi = np.array([-1.0, 0.0])
        eta, beta = 0.02, 1.0
        raw = x - eta * QUAD2.gradient(x) + math.sqrt(2 * eta / beta) * xi
        assert not GM_SHELL.contains(raw)
        expected = 2.0 * GM_SHELL.project(raw) - raw
        y, reflected, fallback = rgld_step(x, QUAD2, GM_SHELL, eta, beta, xi)
        np.testing.assert_array_equal(y, expected)
        assert reflected and not fallback

    def test_pgld_matches_rgld_without_contact(self):
        x = np.array([1.0, 0.0])
        xi = np.array([1.0, -1.0])
        y_r, _, _ = rgld_step(x, QUAD2, BALL2, 0.1, 2.0, xi)
        y_p, projected = pgld_step(x, QUAD2, BALL2, 0.1, 2.0, xi)
        np.testing.assert_array_equal(y_p, y_r)
        assert not projected

    def test_pgld_projects_exterior(self):
        x = np.array([3.9, 0.0])
        xi = np.array([1.0, 0.0])
        eta, beta = 0.5, 2.0
        y, projected = pgld_step(x, Quadratic(1e-9, 2), GM_SHELL, eta, beta, xi)
        assert projected
        assert GM_SHELL.contains(y)
        assert np.linalg.norm(y) == pytest.approx(4.0, abs=1e-12)

    def test_projection_is_midpoint_of_raw_and_reflection(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            x = GM_SHELL.sample_uniform(rng)
            xi = rademacher_vector(rng, 2)
            eta, beta = 0.3, 1.0
            raw = x - eta * QUAD2.gradient(x) + math.sqrt(2 * eta / beta) * xi
            if GM_SHELL.contains(raw):
                continue
            if GM_SHELL.distance_to_set(raw) > GM_SHELL.reflection_margin:
                continue
            y_r, _, fb = rgld_step(x, QUAD2, GM_SHELL, eta, beta, xi)
            assert not fb
            y_p, _ = pgld_step(x, QUAD2, GM_SHELL, eta, beta, xi)
            np.testing.assert_allclose(y_p, 0.5 * (raw + y_r), atol=1e-12)

    def test_pg_fixed_point_at_stationary_point(self):
        x = np.zeros(2)
        np.testing.assert_array_equal(pg_step(x, QUAD2, BALL2, 0.1), x)

    def test_pg_quadratic_contraction(self):
        y = pg_step(np.array([1.0, 0.0]), QUAD2, BALL2, 0.1)
        np.testing.assert_allclose(y, [0.9, 0.0], atol=1e-16)

    def test_pg_descends_within_rastrigin_basin(self):
        # Near a local minimizer with eta below 1/M, plain gradient
        # descent must not increase the objective.
        obj = Rastrigin(2)
        dom = SphericalShell(np.zeros(2), 0.9, 5.12)
        x = np.array([1.05, 0.1])
        eta = 1e-3  # 1/M is about 2.5e-3
        prev = obj.value(x)
        for _ in range(100):
            x = pg_step(x, obj, dom, eta)
            cur = obj.value(x)
            assert cur <= prev + 1e-12
            prev = cur
        assert np.linalg.norm(x - np.array([0.99496, 0.0])) < 0.05


class TestRunChain:
    def test_pg_quadratic_three_steps(self):
        cfg = ChainConfig(method="pg", eta=0.1, steps=3, seed=0, x0=np.array([1.0, 0.0]))
        rec = run_chain(cfg, QUAD2, BALL2)
        np.testing.assert_allclose(rec.f_value, [0.5, 0.405, 0.32805], rtol=1e-12)
        np.testing.assert_allclose(rec.final_point, [0.729, 0.0], rtol=1e-12)

    def test_bitwise_determinism(self):
        cfg = ChainConfig(method="rgld", eta=0.05, beta=1.0, steps=2000, seed=17,
                          x0=np.array([1.5, 0.0]), enforce_step_bound=False,
                          record_trajectory=True)
        gm = make_grid_gaussian_mixture(0)
        a = run_chain(cfg, gm, GM_SHELL)
        b = run_chain(cfg, gm, GM_SHELL)
        assert np.array_equal(a.f_value, b.f_value)
        assert np.array_equal(a.trajectory, b.trajectory)
        assert np.array_equal(a.final_point, b.final_point)
        assert (a.reflection_events, a.fallback_count) == (
            b.reflection_events, b.fallback_count)

    def test_matches_manual_step_composition(self):
        # The runner and the public step functions must implement the
        # same update; replay the noise and compare bitwise.
        cfg = ChainConfig(method="rgld", eta=0.02, beta=2.0, steps=50, seed=5,
                          x0=np.array([1.0, 0.5]))
        rec = run_chain(cfg, QUAD2, BALL2)
        rng = np.random.default_rng(5)
        noise = rng.integers(0, 2, size=(50, 2)).astype(np.float64) * 2.0 - 1.0
        x = np.array([1.0, 0.5])
        for k in range(50):
            assert rec.f_value[k] == QUAD2.value(x)
            x, _, _ = rgld_step(x, QUAD2, BALL2, 0.02, 2.0, noise[k])
        np.testing.assert_array_equal(rec.final_point, x)

    def test_noise_scale_is_exact_for_rademacher(self):
        # The pre-constraint noise increment scale * xi has squared norm
        # d * scale^2 exactly (xi has +/-1 coordinates, and summing d
        # equal doubles is exact for power-of-two d). Recovering the
        # increment by subtracting the drift only matches to rounding.
        for d in (1, 2, 4, 8):
            dom = Ball(np.zeros(d), 10.0)
            obj = Quadratic(1.0, d)
            rng = np.random.default_rng(2)
            x = dom.sample_uniform(rng)
            xi = rademacher_vector(rng, d)
            eta, beta = 1e-3, 2.0
            scale = math.sqrt(2 * eta / beta)
            inc = scale * xi
            assert float(inc @ inc) == d * scale * scale
            y, _, _ = rgld_step(x, obj, dom, eta, beta, xi)
            recovered = y - (x - eta * obj.gradient(x))
            assert np.linalg.norm(recovered - inc) <= 1e-12 * scale

    def test_gaussian_noise_supported(self):
        cfg = ChainConfig(method="pgld", eta=0.01, beta=1.0, steps=100, seed=1,
                          noise="gaussian", x0=np.array([1.0, 0.0]))
        rec = run_chain(cfg, QUAD2, BALL2)
        assert rec.steps == 100
        assert BALL2.contains(rec.final_point)

    def test_cumulative_min_invariants(self):
        cfg = ChainConfig(method="rgld", eta=0.05, beta=1.0, steps=3000, seed=4,
                          x0=np.array([1.5, 0.0]), enforce_step_bound=False)
        rec = run_chain(cfg, make_grid_gaussian_mixture(0), GM_SHELL)
        assert np.all(np.diff(rec.cumulative_min) <= 0)
        assert np.all(rec.cumulative_min <= rec.f_value)

    @pytest.mark.parametrize("method", ["rgld", "pgld", "pg"])
    def test_all_iterates_feasible(self, method):
        cfg = ChainConfig(method=method, eta=0.05, beta=1.0, steps=5000, seed=9,
                          record_trajectory=True, enforce_step_bound=False)
        rec = run_chain(cfg, make_grid_gaussian_mixture(0), GM_SHELL)
        for p in rec.trajectory[::25]:
            assert GM_SHELL.contains(p)
        assert GM_SHELL.contains(rec.final_point)

    def test_coupling_identical_without_boundary_contact(self):
        # Same seed, fat domain: no constraint fires, so the reflected
        # and projected chains coincide bitwise.
        dom = Ball(np.zeros(2), 50.0)
        base = dict(eta=0.01, beta=1.0, steps=500, seed=3,
                    x0=np.array([1.0, 1.0]), record_trajectory=True)
        rec_r = run_chain(ChainConfig(method="rgld", **base), QUAD2, dom)
        rec_p = run_chain(ChainConfig(method="pgld", **base), QUAD2, dom)
        assert rec_r.boundary_events.sum() == 0
        assert rec_p.boundary_events.sum() == 0
        assert np.array_equal(rec_r.trajectory, rec_p.trajectory)
        assert np.array_equal(rec_r.final_point, rec_p.final_point)

    def test_x0_draw_shared_across_methods(self):
        specs = {}
        for method in ("pg", "rgld"):
            cfg = ChainConfig(method=method, eta=1e-3, beta=2.0, steps=2, seed=12)
            specs[method] = run_chain(cfg, QUAD2, BALL2).initial_point
        np.testing.assert_array_equal(specs["pg"], specs["rgld"])
        assert BALL2.contains(specs["pg"])

    def test_infeasible_x0_in_margin_is_projected(self):
        cfg = ChainConfig(method="rgld", eta=0.05, beta=1.0, steps=1, seed=0,
                          x0=np.array([0.5, 0.5]), enforce_step_bound=False)
        rec = run_chain(cfg, make_grid_gaussian_mixture(0), GM_SHELL)
        expected = GM_SHELL.project(np.array([0.5, 0.5]))
        np.testing.assert_array_equal(rec.initial_point, expected)
        assert GM_SHELL.contains(rec.initial_point)


def pg_reference(cfg, obj, dom):
    """Every step of a pg chain through ``pg_step``, with no early exit."""
    x = dom.project(np.asarray(cfg.x0, dtype=np.float64))
    f, events, traj, first_fixed = [], [], [], None
    for k in range(cfg.steps):
        f.append(obj.value(x))
        traj.append(x)
        events.append(not dom.contains(x - cfg.eta * obj.gradient(x)))
        y = pg_step(x, obj, dom, cfg.eta)
        if first_fixed is None and y.tobytes() == x.tobytes():
            first_fixed = k
        x = y
    return np.array(f), np.array(events), np.array(traj), x, first_fixed


class TestFixedPointExit:
    """A pg chain that stops at its fixed point gives the full-length record."""

    SHELL = SphericalShell(np.zeros(2), 1.0, 3.0)

    @pytest.mark.parametrize("case", ["rastrigin-interior", "shell-boundary", "shell-cycling"])
    def test_matches_step_by_step_reference(self, case):
        if case == "rastrigin-interior":
            obj, dom = Rastrigin(2), SphericalShell(np.zeros(2), 0.9, 5.12)
            cfg = ChainConfig(method="pg", eta=5e-4, steps=2000, x0=np.array([1.3, -2.2]))
        else:
            # The quadratic pulls every iterate into the cavity, so each
            # step is projected back onto the inner sphere.
            eta = 0.1 if case == "shell-boundary" else 0.05
            obj, dom = Quadratic(1.0, 2), self.SHELL
            cfg = ChainConfig(method="pg", eta=eta, steps=400, x0=np.array([2.0, 0.5]))
        cfg.record_trajectory = True
        f, events, traj, final, first_fixed = pg_reference(cfg, obj, dom)

        calls = []
        evaluate = obj.value_and_gradient
        obj.value_and_gradient = lambda x: calls.append(x) or evaluate(x)
        rec = run_chain(cfg, obj, dom)

        assert np.array_equal(rec.f_value.view(np.int64), f.view(np.int64))
        assert np.array_equal(rec.boundary_events, events)
        assert np.array_equal(rec.trajectory.view(np.int64), traj.view(np.int64))
        assert rec.projection_events == int(events.sum())
        assert rec.final_point.tobytes() == final.tobytes()
        if case == "shell-cycling":
            assert first_fixed is None and len(calls) == cfg.steps
        else:
            assert first_fixed is not None and first_fixed < cfg.steps // 2
            assert len(calls) == first_fixed + 1
        if case == "shell-boundary":
            assert events[first_fixed:].all()


class TestValidation:
    def test_x0_far_outside_rejected(self):
        cfg = ChainConfig(method="pg", eta=0.1, steps=1, x0=np.array([50.0, 0.0]))
        with pytest.raises(ChainConfigError, match="x0"):
            run_chain(cfg, QUAD2, BALL2)

    def test_bad_method(self):
        cfg = ChainConfig(method="sgld", eta=0.1, steps=1)
        with pytest.raises(ChainConfigError, match="method"):
            run_chain(cfg, QUAD2, BALL2)

    def test_nonpositive_eta(self):
        cfg = ChainConfig(method="pg", eta=0.0, steps=1)
        with pytest.raises(ChainConfigError, match="eta"):
            run_chain(cfg, QUAD2, BALL2)

    def test_nonpositive_beta(self):
        cfg = ChainConfig(method="rgld", eta=0.1, beta=0.0, steps=1)
        with pytest.raises(ChainConfigError, match="beta"):
            run_chain(cfg, QUAD2, BALL2)

    @pytest.mark.parametrize("x0", [[np.nan, 0.5], [np.inf, 0.0], [0.0, -np.inf]])
    def test_nonfinite_x0_rejected(self, x0):
        # NaN compares False against the margin, so the distance check
        # alone let it through and the chain ran all-NaN.
        cfg = ChainConfig(method="rgld", eta=0.01, steps=1, x0=np.array(x0))
        with pytest.raises(ChainConfigError, match="^x0"):
            run_chain(cfg, QUAD2, BALL2)

    @pytest.mark.parametrize("eta", [np.inf, np.nan])
    def test_nonfinite_eta_rejected(self, eta):
        cfg = ChainConfig(method="rgld", eta=eta, steps=1, enforce_step_bound=False)
        with pytest.raises(ChainConfigError, match="^eta"):
            run_chain(cfg, QUAD2, BALL2)

    @pytest.mark.parametrize("method", ["rgld", "pg"])
    @pytest.mark.parametrize("beta", [np.inf, np.nan])
    def test_nonfinite_beta_rejected(self, method, beta):
        cfg = ChainConfig(method=method, eta=0.01, beta=beta, steps=1)
        with pytest.raises(ChainConfigError, match="^beta"):
            run_chain(cfg, QUAD2, BALL2)

    def test_bad_noise_kind(self):
        cfg = ChainConfig(method="rgld", eta=0.1, steps=1, noise="cauchy")
        with pytest.raises(ChainConfigError, match="noise"):
            run_chain(cfg, QUAD2, BALL2)

    def test_dimension_mismatch(self):
        cfg = ChainConfig(method="pg", eta=0.1, steps=1)
        with pytest.raises(ChainConfigError, match="dimension"):
            run_chain(cfg, Quadratic(1.0, 3), BALL2)

    def test_step_bound_enforced_by_default(self):
        # eta G + sqrt(2 eta d / beta) > margin on the unit ball.
        cfg = ChainConfig(method="rgld", eta=2.0, beta=2.0, steps=1, seed=0)
        dom = Ball(np.zeros(1), 1.0)
        with pytest.raises(ChainConfigError, match="eta"):
            run_chain(cfg, Quadratic(1.0, 1), dom)

    def test_step_bound_opt_out_is_explicit_and_recorded(self):
        cfg = ChainConfig(method="rgld", eta=2.0, beta=2.0, steps=10, seed=0,
                          enforce_step_bound=False)
        dom = Ball(np.zeros(1), 1.0)
        rec = run_chain(cfg, Quadratic(1.0, 1), dom)
        assert not rec.step_bound_satisfied
        assert dom.contains(rec.final_point)

    def test_pg_skips_noise_checks(self):
        cfg = ChainConfig(method="pg", eta=2.0, beta=-1.0, steps=5, noise="cauchy")
        rec = run_chain(cfg, Quadratic(1.0, 1), Ball(np.zeros(1), 1.0))
        assert rec.steps == 5


class TestStepBound:
    def test_formula(self):
        val = step_size_bound(Quadratic(1.0, 2), BALL2, 0.1, 2.0)
        assert val == pytest.approx(0.1 * 2.0 + math.sqrt(2 * 0.1 * 2 / 2.0))

    def test_satisfied_bound_recorded(self):
        cfg = ChainConfig(method="rgld", eta=1e-3, beta=2.0, steps=5, seed=0)
        rec = run_chain(cfg, Quadratic(1.0, 1), Ball(np.zeros(1), 1.0))
        assert rec.step_bound_satisfied


@pytest.mark.slow
class TestPresetSafety:
    """Feasibility and fallback safety at the benchmark hyperparameters."""

    def _run(self, spec, method, steps, seed=0, record=False):
        cfg = spec.chain_config(method, seed)
        cfg.steps = steps
        cfg.record_trajectory = record
        return run_chain(cfg, spec.objective, spec.domain)

    def test_feasibility_fuzz_100k_steps(self):
        from rgld import harness

        for spec in (
            harness.preset_gm2d(),
            harness.preset_rosenbrock(4),
            harness.preset_rastrigin(2),
            harness.preset_gibbs1d(),
        ):
            for method in spec.methods:
                rec = self._run(spec, method, 100_000, record=True)
                assert all(spec.domain.contains(p) for p in rec.trajectory)
                assert spec.domain.contains(rec.final_point)
                assert rec.fallback_count == 0

    def test_no_fallback_over_a_million_steps(self):
        from rgld import harness

        for spec in (
            harness.preset_gm2d(),
            harness.preset_rosenbrock(4),
            harness.preset_rastrigin(2),
            harness.preset_gibbs1d(),
        ):
            rec = self._run(spec, "rgld", 1_000_000)
            assert rec.fallback_count == 0, spec.name
