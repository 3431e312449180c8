"""Sampler kernels and the chain runner."""

import math
import re
from dataclasses import FrozenInstanceError, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rgld import dynamics
from rgld.dynamics import (
    METHODS,
    NOISE_KINDS,
    ChainConfig,
    run_batch,
    run_chain,
    step_size_bound,
)
from rgld.geometry import Ball, FeasibleDomain, SphericalShell
from rgld.objectives import (
    GaussianMixture,
    Objective,
    Quadratic,
    Rastrigin,
    Rosenbrock,
    make_grid_gaussian_mixture,
)

BALL2 = Ball(np.zeros(2), 2.0)
QUAD2 = Quadratic(1.0, 2)
GM_SHELL = SphericalShell(np.zeros(2), 0.9, 4.0)


class Flat(Objective):
    """``f = 0``: an update moves the iterate by its noise alone."""

    def __init__(self, dim):
        self.dim = dim

    def value_and_gradient(self, x):
        return 0.0, np.zeros(self.dim)

    def lipschitz_bounds(self, domain):
        return 0.0, 0.0


class Cliff(Flat):
    """``f = x[0]``, whose gradient is ``(inf, 0, ...)`` where ``x[0] > 1``:
    an update from there overflows, and the iterate turns NaN."""

    def value_and_gradient(self, x):
        g = np.zeros_like(x)
        g[..., 0] = np.where(x[..., 0] > 1.0, np.inf, 0.0)
        return x[..., 0].copy(), g


def rademacher_kicks(seed, steps, dim):
    """The Rademacher draws of a chain with this seed, one row per step,
    recomputed from the seed as the runner draws them."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=(steps, dim)).astype(np.float64) * 2.0 - 1.0


def chain(method, x0, obj, dom, eta, beta=1.0, seed=0, steps=1, **kwargs):
    """``run_chain`` from ``x0`` with the step-size bound unchecked."""
    cfg = ChainConfig(method=method, eta=eta, beta=beta, steps=steps, seed=seed,
                      x0=np.asarray(x0, dtype=np.float64), enforce_step_bound=False,
                      **kwargs)
    return run_chain(cfg, obj, dom)


class TestRademacher:
    """The kick, seen as the first update of a flat objective's chain from
    the center: eta = 1/2 and beta = 1 scale it by exactly 1."""

    def test_coordinates_are_signs(self):
        # The norm of the kick is exactly sqrt(d).
        for d in (1, 2, 3, 8):
            rec = chain("rgld", np.zeros(d), Flat(d), Ball(np.zeros(d), 10.0), eta=0.5,
                        seed=d)
            xi = rec.final_point
            assert xi.tobytes() == rademacher_kicks(d, 1, d)[0].tobytes()
            assert set(np.unique(xi)) <= {-1.0, 1.0}
            assert float(xi @ xi) == float(d)
            assert np.linalg.norm(xi) == math.sqrt(d)

    def test_reproducible_but_advancing(self):
        dom = Ball(np.zeros(3), 10.0)

        def run(steps):
            return chain("rgld", np.zeros(3), Flat(3), dom, eta=0.5, seed=3,
                         steps=steps, record_trajectory=True)

        a, b = run(1), run(1)
        assert a.final_point.tobytes() == b.final_point.tobytes()
        two = run(2)
        first, second = two.trajectory[1], two.final_point - two.trajectory[1]
        assert first.tobytes() == a.final_point.tobytes()
        assert not np.array_equal(first, second)

    def test_empirical_mean(self):
        # 3 sigma for 10^6 fair signs is 0.003; allow 0.004.
        rng = np.random.default_rng(11)
        draws = rng.integers(0, 2, size=10**6) * 2.0 - 1.0
        assert abs(draws.mean()) < 0.004


class TestSteps:
    """One update, or a few, of ``run_chain`` against the update written out."""

    def test_rgld_interior_hand_computed(self):
        xi = rademacher_kicks(0, 1, 2)[0]
        rec = chain("rgld", [1.0, 0.0], QUAD2, BALL2, eta=0.1, beta=2.0)
        s = math.sqrt(0.1)
        np.testing.assert_allclose(rec.final_point, [0.9 + s * xi[0], s * xi[1]],
                                   atol=1e-15)
        assert not rec.boundary_events[0] and not rec.fallback_events[0]

    def test_rgld_continuity_at_zero_step(self):
        x = np.array([0.4, -0.2])
        for eta in (1e-2, 1e-4, 1e-6, 1e-8):
            y = chain("rgld", x, QUAD2, BALL2, eta=eta, beta=2.0).final_point
            assert np.linalg.norm(y - x) <= eta * 2.0 + math.sqrt(2 * eta)

    def test_rgld_exterior_composes_with_geometry(self):
        # From the inner sphere, on the side the kick points away from:
        # the raw step lands in the shell's cavity.
        eta, beta = 0.02, 1.0
        xi = rademacher_kicks(0, 1, 2)[0]
        x = np.array([-0.9 * xi[0], 0.0])
        raw = x - eta * QUAD2.gradient(x) + math.sqrt(2 * eta / beta) * xi
        assert not GM_SHELL.contains(raw)
        expected = 2.0 * GM_SHELL.project(raw) - raw
        rec = chain("rgld", x, QUAD2, GM_SHELL, eta=eta, beta=beta)
        np.testing.assert_array_equal(rec.final_point, expected)
        assert rec.boundary_events[0] and not rec.fallback_events[0]
        assert rec.reflection_events == 1

    def test_pgld_matches_rgld_without_contact(self):
        x = np.array([1.0, 0.0])
        r = chain("rgld", x, QUAD2, BALL2, eta=0.1, beta=2.0)
        p = chain("pgld", x, QUAD2, BALL2, eta=0.1, beta=2.0)
        np.testing.assert_array_equal(p.final_point, r.final_point)
        assert not p.boundary_events[0]

    def test_pgld_projects_exterior(self):
        # Next to the outer sphere, with the kick pointing out of it.
        xi = rademacher_kicks(0, 1, 2)[0]
        x = np.array([3.9 * xi[0], 0.0])
        rec = chain("pgld", x, Quadratic(1e-9, 2), GM_SHELL, eta=0.5, beta=2.0)
        assert rec.boundary_events[0] and rec.projection_events == 1
        assert GM_SHELL.contains(rec.final_point)
        assert np.linalg.norm(rec.final_point) == pytest.approx(4.0, abs=1e-12)

    def test_projection_is_midpoint_of_raw_and_reflection(self):
        rng = np.random.default_rng(8)
        eta, beta = 0.3, 1.0
        checked = 0
        for seed in range(200):
            x = GM_SHELL.sample_uniform(rng)
            xi = rademacher_kicks(seed, 1, 2)[0]
            raw = x - eta * QUAD2.gradient(x) + math.sqrt(2 * eta / beta) * xi
            if GM_SHELL.contains(raw):
                continue
            if GM_SHELL.distance_to_set(raw) > GM_SHELL.reflection_margin:
                continue
            r = chain("rgld", x, QUAD2, GM_SHELL, eta=eta, beta=beta, seed=seed)
            assert not r.fallback_events[0]
            p = chain("pgld", x, QUAD2, GM_SHELL, eta=eta, beta=beta, seed=seed)
            np.testing.assert_allclose(p.final_point, 0.5 * (raw + r.final_point),
                                       atol=1e-12)
            checked += 1
        assert checked >= 20

    def test_pg_fixed_point_at_stationary_point(self):
        rec = chain("pg", np.zeros(2), QUAD2, BALL2, eta=0.1, steps=5)
        np.testing.assert_array_equal(rec.final_point, np.zeros(2))
        assert rec.computed_steps == 1

    def test_pg_quadratic_contraction(self):
        rec = chain("pg", [1.0, 0.0], QUAD2, BALL2, eta=0.1)
        np.testing.assert_allclose(rec.final_point, [0.9, 0.0], atol=1e-16)

    def test_pg_descends_within_rastrigin_basin(self):
        # Near a local minimizer with eta below 1/M, plain gradient
        # descent must not increase the objective.
        obj = Rastrigin(2)
        dom = SphericalShell(np.zeros(2), 0.9, 5.12)
        eta = 1e-3  # 1/M is about 2.5e-3
        rec = chain("pg", [1.05, 0.1], obj, dom, eta=eta, steps=100)
        f = np.append(rec.f_value, obj.value(rec.final_point))
        assert np.all(np.diff(f) <= 1e-12)
        assert np.linalg.norm(rec.final_point - np.array([0.99496, 0.0])) < 0.05


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
        # The runner must implement the update written out with the
        # region's operator; replay the noise and compare bitwise.
        cfg = ChainConfig(method="rgld", eta=0.02, beta=2.0, steps=50, seed=5,
                          x0=np.array([1.0, 0.5]))
        rec = run_chain(cfg, QUAD2, BALL2)
        noise = rademacher_kicks(5, 50, 2)
        x = np.array([1.0, 0.5])
        for k in range(50):
            assert rec.f_value[k] == QUAD2.value(x)
            raw = x - 0.02 * QUAD2.gradient(x) + math.sqrt(2 * 0.02 / 2.0) * noise[k]
            x = BALL2.reflect_or_project(raw)[0]
        np.testing.assert_array_equal(rec.final_point, x)

    def test_noise_scale_is_exact_for_rademacher(self):
        # The pre-constraint noise increment scale * xi has squared norm
        # d * scale^2 exactly (xi has +/-1 coordinates, and summing d
        # equal doubles is exact for power-of-two d). Recovering the
        # increment by subtracting the drift only matches to rounding.
        for d in (1, 2, 4, 8):
            dom = Ball(np.zeros(d), 10.0)
            obj = Quadratic(1.0, d)
            x = dom.sample_uniform(np.random.default_rng(2))
            xi = rademacher_kicks(2, 1, d)[0]
            eta, beta = 1e-3, 2.0
            scale = math.sqrt(2 * eta / beta)
            inc = scale * xi
            assert float(inc @ inc) == d * scale * scale
            y = chain("rgld", x, obj, dom, eta=eta, beta=beta, seed=2).final_point
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

    def test_config_is_frozen(self):
        # Records that share one chain's arrays each hold their own config.
        cfg = ChainConfig(method="pg", eta=0.1, steps=3, x0=np.array([0.5, 0.5]))
        with pytest.raises(FrozenInstanceError):
            cfg.steps = 4
        assert replace(cfg, steps=4).steps == 4 and cfg.steps == 3


class TestOuterSphere:
    """An update that lands exactly on the outer sphere is a member; one ulp
    beyond it is reflected, by the lone loop and in a batch alike."""

    # eta = 1/8 and beta = 1 scale the Rademacher kick by exactly 1/2.
    CONFIG = dict(method="rgld", eta=0.125, beta=1.0, steps=1, seed=7,
                  enforce_step_bound=False)

    def first_kick(self, dim):
        return 0.5 * rademacher_kicks(self.CONFIG["seed"], 1, dim)[0]

    @pytest.mark.parametrize("runner", ["chain", "batch"])
    @pytest.mark.parametrize("case", ["ball-off-origin", "shell-at-origin"])
    @pytest.mark.parametrize("beyond", [False, True])
    def test_landing_on_or_one_ulp_past_the_outer_sphere(self, case, beyond, runner):
        if case == "ball-off-origin":
            dom = Ball(np.array([0.75, -1.5]), 5.0)
        else:
            dom = SphericalShell(np.zeros(2), 1.0, 5.0)
        kick = self.first_kick(2)
        # (3, 4) has norm 5 exactly; point it the way the kick goes.
        v = np.sign(kick) * np.array([3.0, 4.0])
        if beyond:
            v[1] = np.nextafter(v[1], 2 * v[1])
        target = dom.center + v
        x0 = target - kick
        assert np.array_equal(x0 + kick, target) and dom.contains(x0)
        assert dom.contains(target) is not beyond

        config = ChainConfig(x0=x0, **self.CONFIG)
        if runner == "chain":
            rec = run_chain(config, Flat(2), dom)
        else:
            # A second row whose kick points back from the sphere, which
            # keeps it inside.
            other = next(s for s in range(100)
                         if (rademacher_kicks(s, 1, 2)[0] == -np.sign(kick)).all())
            rec, inner = run_batch(config, [config.seed, other], Flat(2), dom)
            assert not inner.boundary_events[0]
            assert inner.final_point.tobytes() == (x0 - kick).tobytes()
        assert rec.initial_point.tobytes() == x0.tobytes()
        assert bool(rec.boundary_events[0]) is beyond
        assert (rec.reflection_events, rec.fallback_count) == (int(beyond), 0)
        point, reflected, fallback = dom.reflect_or_project(target)
        assert (reflected, fallback) == (beyond, False)
        assert rec.final_point.tobytes() == point.tobytes()
        assert dom.contains(rec.final_point)


@np.errstate(over="ignore", invalid="ignore")
def reference_chain(cfg, obj, dom):
    """The record fields of a chain composed step by step from point calls,
    with no batch and no early exit: the start drawn or projected as the
    runner does, the noise of every step drawn at once and scaled by
    ``sqrt(2 eta / beta)`` (none for pg), and each update that ``contains``
    rejects constrained by ``reflect_or_project`` (rgld, whose flag is the
    fallback) or ``project``. ``computed_steps`` ends at the first update
    of a pg chain that returns its iterate bit for bit."""
    rng = np.random.default_rng(cfg.seed)
    x = (dom.sample_uniform(rng) if cfg.x0 is None
         else dom.project(np.asarray(cfg.x0, dtype=np.float64)))
    start, n, noisy = x, cfg.steps, cfg.method != "pg"
    if noisy:
        shape = (n, dom.dim)
        xi = (rng.integers(0, 2, size=shape) * 2.0 - 1.0 if cfg.noise == "rademacher"
              else rng.standard_normal(shape))
        kicks = xi * math.sqrt(2.0 * cfg.eta / cfg.beta)
    f, traj, events, fallbacks, computed = [], [], [], [], None
    for k in range(n):
        fx, g = obj.value_and_gradient(x)
        f.append(fx)
        traj.append(x)
        y = x - cfg.eta * g
        if noisy:
            y = y + kicks[k]
        event, fallback = not dom.contains(y), False
        if event and cfg.method == "rgld":
            y, _, fallback = dom.reflect_or_project(y)
        elif event:
            y = dom.project(y)
        events.append(event)
        fallbacks.append(fallback)
        if not noisy and computed is None and y.tobytes() == x.tobytes():
            computed = k + 1
        x = y
    f = np.array(f, dtype=np.float64)
    return {
        "f_value": f,
        "cumulative_min": np.minimum.accumulate(f),
        "boundary_events": np.array(events),
        "fallback_events": np.array(fallbacks),
        "initial_point": start,
        "final_point": x,
        "trajectory": np.array(traj) if cfg.record_trajectory else None,
        "computed_steps": n if computed is None else computed,
        "step_bound_satisfied": not noisy or step_size_bound(
            obj, dom, cfg.eta, cfg.beta) <= dom.reflection_margin,
    }


def assert_matches_reference(rec, cfg, obj, dom):
    """``rec`` holds ``reference_chain``'s fields, arrays by their bytes."""
    for field, value in reference_chain(cfg, obj, dom).items():
        got = getattr(rec, field)
        if isinstance(value, np.ndarray):
            assert (got.shape, got.tobytes()) == (value.shape, value.tobytes()), field
        else:
            assert got == value, field


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
        cfg = replace(cfg, record_trajectory=True)
        ref = reference_chain(cfg, obj, dom)
        computed, events = ref["computed_steps"], ref["boundary_events"]

        calls = []
        evaluate = obj.value_and_gradient
        obj.value_and_gradient = lambda x: calls.append(x) or evaluate(x)
        rec = run_chain(cfg, obj, dom)
        del obj.value_and_gradient

        assert_matches_reference(rec, cfg, obj, dom)
        assert rec.projection_events == int(events.sum())
        assert rec.computed_steps == len(calls)
        if case == "shell-cycling":
            assert computed == len(calls) == cfg.steps
        else:
            assert computed <= cfg.steps // 2 and len(calls) == computed
        if case == "shell-boundary":
            assert events[computed - 1:].all()


class TestValidation:
    def test_x0_far_outside_rejected(self):
        cfg = ChainConfig(method="pg", eta=0.1, steps=1, x0=np.array([50.0, 0.0]))
        with pytest.raises(ValueError, match="^x0"):
            run_chain(cfg, QUAD2, BALL2)

    def test_each_start_of_a_batch_checked(self):
        # A batch has one start, checked once for all its seeds.
        config = ChainConfig(method="pg", eta=0.1, steps=1, x0=np.array([50.0, 0.0]))
        with pytest.raises(ValueError, match="^x0: point at distance 48 "):
            run_batch(config, [0, 1], QUAD2, BALL2)

    def test_bad_method(self):
        cfg = ChainConfig(method="sgld", eta=0.1, steps=1)
        with pytest.raises(ValueError, match="^method"):
            run_chain(cfg, QUAD2, BALL2)

    def test_nonpositive_eta(self):
        cfg = ChainConfig(method="pg", eta=0.0, steps=1)
        with pytest.raises(ValueError, match="^eta"):
            run_chain(cfg, QUAD2, BALL2)

    def test_nonpositive_beta(self):
        cfg = ChainConfig(method="rgld", eta=0.1, beta=0.0, steps=1)
        with pytest.raises(ValueError, match="^beta"):
            run_chain(cfg, QUAD2, BALL2)

    @pytest.mark.parametrize("x0", [[np.nan, 0.5], [np.inf, 0.0], [0.0, -np.inf]])
    def test_nonfinite_x0_rejected(self, x0):
        # NaN compares False against the margin, so the distance check
        # alone let it through and the chain ran all-NaN.
        cfg = ChainConfig(method="rgld", eta=0.01, steps=1, x0=np.array(x0))
        with pytest.raises(ValueError, match="^x0"):
            run_chain(cfg, QUAD2, BALL2)

    @pytest.mark.parametrize("eta", [np.inf, np.nan])
    def test_nonfinite_eta_rejected(self, eta):
        cfg = ChainConfig(method="rgld", eta=eta, steps=1, enforce_step_bound=False)
        with pytest.raises(ValueError, match="^eta"):
            run_chain(cfg, QUAD2, BALL2)

    @pytest.mark.parametrize("method", ["rgld", "pg"])
    @pytest.mark.parametrize("beta", [np.inf, np.nan])
    def test_nonfinite_beta_rejected(self, method, beta):
        cfg = ChainConfig(method=method, eta=0.01, beta=beta, steps=1)
        with pytest.raises(ValueError, match="^beta"):
            run_chain(cfg, QUAD2, BALL2)

    @pytest.mark.parametrize("seed", [-2, 1.5, "3", True])
    @pytest.mark.parametrize("runner", ["chain", "batch"])
    def test_seed_must_be_a_non_negative_integer(self, seed, runner):
        # A negative seed reached ``np.random.default_rng``, whose error
        # named no field.
        config = ChainConfig(method="rgld", eta=0.01, steps=1, seed=seed)
        with pytest.raises(ValueError,
                           match=rf"^seed: must be a non-negative integer, got {re.escape(repr(seed))}$"):
            if runner == "chain":
                run_chain(config, QUAD2, BALL2)
            else:
                run_batch(config, [0, seed], QUAD2, BALL2)

    @pytest.mark.parametrize("seed", [2**64, 10**400], ids=["2**64", "10**400"])
    @pytest.mark.parametrize("runner", ["chain", "batch"])
    def test_seed_must_be_below_2_64(self, seed, runner):
        # numpy seeds a generator from any integer; such a seed ran its
        # chain, then named a file too long for the file system.
        config = ChainConfig(method="rgld", eta=0.01, steps=1, seed=seed)
        with pytest.raises(ValueError, match=rf"^seed: must be below 2\*\*64, got {seed}$"):
            if runner == "chain":
                run_chain(config, QUAD2, BALL2)
            else:
                run_batch(config, [2**64 - 1, seed], QUAD2, BALL2)
        assert run_chain(replace(config, seed=2**64 - 1), QUAD2, BALL2).config.seed == 2**64 - 1

    @pytest.mark.parametrize("obj,dom", [(QUAD2, BALL2), (Quadratic(1.0, 1), Ball(np.zeros(1), 1.0))],
                             ids=["batch", "floats"])
    def test_steps_bounded_before_any_array(self, obj, dom):
        class Allocated(Exception):
            pass

        def allocate(*args):
            raise Allocated
        most = dynamics.MAX_STEPS
        with mock.patch.object(dynamics, "_arrays", allocate):
            for steps in (most + 1, 10**30):
                cfg = ChainConfig(method="rgld", eta=0.01, steps=steps)
                with pytest.raises(ValueError,
                                   match=f"^steps: must be at most {most}, got {steps}$"):
                    run_chain(cfg, obj, dom)
            with pytest.raises(Allocated):
                run_chain(ChainConfig(method="rgld", eta=0.01, steps=most), obj, dom)

    def test_bad_noise_kind(self):
        cfg = ChainConfig(method="rgld", eta=0.1, steps=1, noise="cauchy")
        with pytest.raises(ValueError, match="^noise"):
            run_chain(cfg, QUAD2, BALL2)

    def test_dimension_mismatch(self):
        cfg = ChainConfig(method="pg", eta=0.1, steps=1)
        with pytest.raises(ValueError, match="^dimension: objective dimension 3 does not "
                                             "match domain dimension 2$"):
            run_chain(cfg, Quadratic(1.0, 3), BALL2)

    def test_step_bound_enforced_by_default(self):
        # eta G + sqrt(2 eta d / beta) > margin on the unit ball.
        cfg = ChainConfig(method="rgld", eta=2.0, beta=2.0, steps=1, seed=0)
        dom = Ball(np.zeros(1), 1.0)
        with pytest.raises(ValueError, match="^eta"):
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
        cfg = replace(spec.chain_config(method), seed=seed, steps=steps,
                      record_trajectory=record)
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
                assert spec.domain.contains(rec.trajectory).all()
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


def assert_same_record(a, b):
    """Every field of two records, arrays compared by their bytes."""
    for field in ("f_value", "cumulative_min", "boundary_events", "fallback_events",
                  "initial_point", "final_point"):
        assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), field
    assert (a.trajectory is None) == (b.trajectory is None)
    if a.trajectory is not None:
        assert a.trajectory.tobytes() == b.trajectory.tobytes()
    for field in ("reflection_events", "projection_events", "fallback_count",
                  "computed_steps", "step_bound_satisfied", "config"):
        assert getattr(a, field) == getattr(b, field), field


def assert_batch_matches_run_chain(config, seeds, obj, dom):
    """Each record of the batch carries its seed and is its chain's
    reference record and the record ``run_chain`` gives the chain alone."""
    records = run_batch(config, seeds, obj, dom)
    assert [r.config.seed for r in records] == list(seeds)
    for rec in records:
        assert_matches_reference(rec, rec.config, obj, dom)
        assert_same_record(rec, run_chain(rec.config, obj, dom))
    return records


@st.composite
def batches(draw, fixing=False):
    """A config, B = 2..20 seeds, an objective, a region and a noise block
    size. ``x0`` is drawn, per seed, or one given start.

    ``fixing`` draws pg rows on Rastrigin with eta near 1 / (2 + 40 pi^2),
    the curvature at its minima, so that rows reach their fixed points
    within tens of steps, each at its own step.
    """
    kind = "rastrigin" if fixing else draw(
        st.sampled_from(["quadratic", "mixture", "rosenbrock", "rastrigin"]))
    is_ball = draw(st.booleans())
    dim = draw(st.integers(1 if is_ball and kind != "rosenbrock" else 2, 5))
    center = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)))
    if is_ball:
        dom = Ball(center, draw(st.floats(0.5, 3.0)))
    else:
        inner = draw(st.floats(0.3, 1.5))
        dom = SphericalShell(center, inner, inner + draw(st.floats(0.3, 2.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    obj = {
        "quadratic": lambda: Quadratic(draw(st.floats(0.1, 10.0)), dim),
        "mixture": lambda: GaussianMixture(rng.uniform(0.5, 1.0, 6), rng.normal(size=(6, dim))),
        "rosenbrock": lambda: Rosenbrock(dim),
        "rastrigin": lambda: Rastrigin(dim),
    }[kind]()
    B = draw(st.integers(2, 20))
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=B, max_size=B, unique=True))
    # A batch has one start: fixing rows need starts of their own, so
    # theirs are drawn.
    shared = not fixing and draw(st.booleans())
    config = ChainConfig(
        x0=dom.sample_uniform(rng) if shared else None,
        method="pg" if fixing else draw(st.sampled_from(METHODS)),
        eta=draw(st.floats(2e-3, 3e-3)) if fixing else 10.0 ** draw(st.floats(-4.0, -0.5)),
        beta=draw(st.floats(0.5, 20.0)),
        steps=draw(st.integers(1, 300)),
        noise=draw(st.sampled_from(NOISE_KINDS)),
        record_trajectory=draw(st.booleans()),
        enforce_step_bound=False,
    )
    return config, seeds, obj, dom, draw(st.sampled_from([1, 7, 4096]))


class TestRunBatch:
    """``run_batch`` gives every chain its reference record and its
    ``run_chain`` record, bit for bit."""

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(batches())
    def test_matches_run_chain(self, case):
        config, seeds, obj, dom, block = case
        with mock.patch.object(dynamics, "_NOISE_BLOCK", block):
            assert_batch_matches_run_chain(config, seeds, obj, dom)

    @settings(derandomize=True, database=None, max_examples=30, deadline=None)
    @given(batches(fixing=True))
    def test_fixed_rows_match_run_chain(self, case):
        config, seeds, obj, dom, _ = case
        assert_batch_matches_run_chain(config, seeds, obj, dom)

    def test_rows_fix_at_different_steps(self):
        # Drawn starts: each pg row stops at its own fixed point (steps
        # 150-163 here), and the rows that have not fixed by step 157 keep
        # computing to the end.
        obj, dom = Rastrigin(2), SphericalShell(np.zeros(2), 0.9, 5.12)
        config = ChainConfig(method="pg", eta=5e-4, steps=157, record_trajectory=True)
        records = assert_batch_matches_run_chain(config, range(8), obj, dom)
        computed = [r.computed_steps for r in records]
        assert len(set(computed)) > 2
        assert min(computed) < 157 and max(computed) == 157

    def test_fixed_rows_on_the_boundary_and_cycling_rows(self):
        # The quadratic pulls every iterate into the cavity: rows fix on
        # the inner sphere, projected on every later step. A batch has one
        # start, so each start is a batch of two seeds (a pg chain from a
        # given start reads no seed).
        obj, dom = Quadratic(1.0, 2), SphericalShell(np.zeros(2), 1.0, 3.0)
        starts = [np.array([2.0, 0.5]), np.array([-1.5, 2.0]), np.array([0.0, -2.5])]
        for eta in (0.1, 0.05):
            for x in starts:
                config = ChainConfig(method="pg", eta=eta, steps=400, x0=x)
                records = assert_batch_matches_run_chain(config, [0, 1], obj, dom)
                assert all(r.projection_events > 0 for r in records)

    def test_fallback_rows(self):
        obj, dom = Rosenbrock(2), SphericalShell(np.zeros(2), 0.5, 2.0)
        config = ChainConfig(method="rgld", eta=3e-3, beta=1.0, steps=2000,
                             enforce_step_bound=False, record_trajectory=True)
        records = assert_batch_matches_run_chain(config, range(6), obj, dom)
        assert sum(r.fallback_count for r in records) > 0
        assert sum(r.reflection_events for r in records) > 0
        for r in records:
            # The counts are derived from the event arrays.
            assert r.fallback_count == int(r.fallback_events.sum())
            assert r.reflection_events == int((r.boundary_events & ~r.fallback_events).sum())
            assert r.projection_events == 0

    @pytest.mark.parametrize("field,value", [("method", "pgld"), ("eta", 0.02),
                                             ("steps", 11), ("noise", "gaussian"),
                                             ("record_trajectory", True),
                                             ("enforce_step_bound", False)])
    def test_configs_must_agree(self, field, value):
        # A batch is one config and its seeds, so its records cannot
        # disagree: each carries the config, with its own seed.
        config = replace(ChainConfig(method="rgld", eta=0.01, steps=10, seed=9,
                                     enforce_step_bound=False), **{field: value})
        records = run_batch(config, [0, 1], QUAD2, BALL2)
        assert [r.config for r in records] == [replace(config, seed=s) for s in (0, 1)]
        assert all(getattr(r.config, field) == value for r in records)

    @pytest.mark.parametrize("method", ["rgld", "pgld"])
    @pytest.mark.parametrize("noise", NOISE_KINDS)
    def test_lone_chain_draws_noise_in_blocks(self, method, noise):
        # Blocks of seven steps give the noise of one draw (the batch's
        # default block covers all 50 steps), in two coordinates too.
        obj, dom = Quadratic(0.5, 2), Ball(np.zeros(2), 1.0)
        config = ChainConfig(method=method, eta=0.05, beta=1.0, steps=50, seed=4,
                             noise=noise, record_trajectory=True)
        batched = run_batch(config, [config.seed], obj, dom)[0]
        with mock.patch.object(dynamics, "_NOISE_BLOCK", 7):
            lone = run_chain(config, obj, dom)
        assert_same_record(lone, batched)
        assert_matches_reference(lone, config, obj, dom)
        assert batched.boundary_events.any()

    def test_empty_batch_rejected(self):
        config = ChainConfig(method="rgld", eta=0.01, steps=10)
        with pytest.raises(ValueError, match="^seeds: a batch needs at least one seed$"):
            run_batch(config, [], QUAD2, BALL2)


class TestOneCoordinate:
    """At d = 1 a lone rgld or pgld chain on a quadratic runs on Python
    floats, and a pg chain or any other objective runs as a batch of one;
    either record equals the reference and the batch loop's, which stays
    on numpy."""

    @staticmethod
    def assert_lone_matches_batch(config, obj, dom):
        x0 = None if config.x0 is None else config.x0.copy()
        lone = run_chain(config, obj, dom)
        assert_matches_reference(lone, config, obj, dom)
        assert_same_record(lone, run_batch(config, [config.seed], obj, dom)[0])
        if x0 is not None:
            assert config.x0.tobytes() == x0.tobytes()
        return lone

    @pytest.mark.parametrize("center", [0.0, 0.7])
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("noise", NOISE_KINDS)
    @pytest.mark.parametrize("trajectory", [False, True])
    @pytest.mark.parametrize("start", ["drawn", "given"])
    def test_matches_run_batch(self, center, method, noise, trajectory, start):
        # A hot chain: many updates leave the interval. The quadratic's
        # noisy chains take the float loop; its pg chain and the other
        # objectives take the array loop.
        dom = Ball(np.array([center]), 1.0)
        x0 = None if start == "drawn" else np.array([center - 0.3])
        config = ChainConfig(method=method, eta=0.05, beta=1.0, steps=300, seed=11,
                             noise=noise, x0=x0, record_trajectory=trajectory,
                             enforce_step_bound=False)
        for obj in (Quadratic(0.5, 1), Rastrigin(1),
                    GaussianMixture([1.0, 0.6], [[-0.4], [0.9]])):
            rec = self.assert_lone_matches_batch(config, obj, dom)
            assert rec.boundary_events.any() or method == "pg"

    @pytest.mark.parametrize("method", METHODS)
    def test_loop_choice(self, method):
        # The float loop calls value_and_gradient once, on its block's
        # rows; the batch loop calls it on its one row at every step.
        obj = Quadratic(1.0, 1)
        shapes = []
        value_and_gradient = obj.value_and_gradient
        obj.value_and_gradient = lambda x: shapes.append(x.shape) or value_and_gradient(x)
        config = ChainConfig(method=method, eta=0.05, beta=1.0, steps=100, seed=3)
        rec = run_chain(config, obj, Ball(np.zeros(1), 1.0))
        if method == "pg":
            assert shapes == [(1, 1)] * rec.computed_steps
        else:
            assert shapes == [(100, 1)]

    @pytest.mark.parametrize("center", [0.0, 0.1])
    @pytest.mark.parametrize("method", METHODS)
    def test_shell_with_a_cavity(self, center, method):
        # The two intervals 0.3 <= |x - center| <= 1 (a 1-D shell, built
        # directly: SphericalShell needs dim >= 2). The quadratic's
        # minimizer lies in the cavity, so every method meets the inner
        # wall, and the noisy ones the outer wall too.
        dom = FeasibleDomain(np.array([center]), 0.3, 1.0)
        config = ChainConfig(method=method, eta=0.05, beta=1.0, steps=2000, seed=5,
                             record_trajectory=True, enforce_step_bound=False)
        rec = self.assert_lone_matches_batch(config, Quadratic(2.0, 1), dom)
        moved = np.abs(rec.trajectory[1:, 0][rec.boundary_events[:-1]] - center)
        assert (moved < 0.65).any()
        assert (moved > 0.65).any() or method == "pg"
        self.assert_lone_matches_batch(config, Rastrigin(1), dom)

    @pytest.mark.parametrize("obj,x0,final", [
        (Quadratic(1.0, 1), 0.5, 5e-324), (Quadratic(1.0, 1), -0.5, -5e-324),
        (Quadratic(1.0, 1), -0.0, 0.0), (Flat(1), -0.0, -0.0)])
    def test_pg_stops_at_a_subnormal_or_signed_zero(self, obj, x0, final):
        # The array loop's fixed-point stop against the batch's. Halving
        # from +-0.5 ends at +-5e-324, where 0.5 * x rounds to a zero. From
        # -0.0 the quadratic steps once, to 0.0 (-0.0 equals 0.0 but is not
        # its fixed point); a zero gradient keeps -0.0.
        config = ChainConfig(method="pg", eta=0.5, steps=2000, x0=np.array([x0]),
                             record_trajectory=True)
        rec = self.assert_lone_matches_batch(config, obj, Ball(np.zeros(1), 1.0))
        assert rec.computed_steps < config.steps
        assert rec.final_point.tobytes() == np.array([final]).tobytes()

    def test_fallback(self):
        # Kicks of sqrt(2 * 1.5 / 0.5) = 2.4 overshoot the interval by more
        # than its length, which reflection cannot absorb, on some steps.
        config = ChainConfig(method="rgld", eta=1.5, beta=0.5, steps=200, seed=2,
                             enforce_step_bound=False)
        rec = self.assert_lone_matches_batch(config, Quadratic(1.0, 1),
                                             Ball(np.array([0.4]), 1.0))
        assert rec.fallback_count > 0 and rec.reflection_events > 0

    @pytest.mark.parametrize("method", ["rgld", "pgld"])
    def test_noise_block_of_seven(self, method):
        config = ChainConfig(method=method, eta=0.05, beta=4.0, steps=50, seed=4,
                             x0=np.array([0.2]), noise="gaussian")
        with mock.patch.object(dynamics, "_NOISE_BLOCK", 7):
            self.assert_lone_matches_batch(config, Quadratic(2.0, 1), Ball(np.zeros(1), 1.0))

    @pytest.mark.parametrize("steps", [1076, 2000])
    def test_pg_stops_in_a_later_noise_block(self, steps):
        # The array loop against the batch. Halving from 0.5 reaches its
        # fixed point 5e-324 at update 1074, in block 154 of seven steps:
        # the last one, of five steps, when there are 1076; a block in the
        # middle when there are 2000.
        config = ChainConfig(method="pg", eta=0.5, steps=steps, x0=np.array([0.5]),
                             record_trajectory=True)
        with mock.patch.object(dynamics, "_NOISE_BLOCK", 7):
            rec = self.assert_lone_matches_batch(config, Quadratic(1.0, 1),
                                                 Ball(np.zeros(1), 1.0))
        assert rec.computed_steps == 1074
        assert rec.trajectory[1073:, 0].tolist() == [5e-324] * (steps - 1073)


class TestNonFiniteIterates:
    """An update whose ``eta * grad`` overflows raises, naming the chain."""

    @pytest.mark.parametrize("method", ["rgld", "pg"])
    @pytest.mark.parametrize("runner", ["chain", "batch"])
    def test_overflowing_update_raises(self, method, runner):
        # eta * grad = 1e308 * 1.9 overflows to inf, with no warning at
        # d = 1, where a lone rgld chain's update runs on Python floats
        # (a pg chain's on (1,) arrays).
        for x0, obj, dom in [([1.9, 0.0], QUAD2, BALL2),
                             ([1.9], Quadratic(1.0, 1), Ball(np.zeros(1), 2.0))]:
            config = ChainConfig(method=method, eta=1e308, steps=50, seed=3,
                                 x0=np.array(x0), enforce_step_bound=False)
            with pytest.raises(ValueError,
                               match=f"^{method} chain, seed 3: iterate 1 is not finite"):
                if runner == "chain":
                    run_chain(config, obj, dom)
                else:
                    run_batch(config, [3, 4], obj, dom)

    @pytest.mark.parametrize("method", ["rgld", "pgld"])
    def test_non_finite_row_in_a_batch_of_three(self, method):
        # The middle row's first update overflows and its iterates turn
        # NaN, while the rows around it stay finite and inside: the least
        # and greatest squared norms of a step then skip the NaN row. The
        # chain is named by its first non-finite iterate all the same. The
        # starts are drawn: seed 3's has x[0] = 1.12, seeds 4 and 5 start
        # at x[0] = -1.91 and -0.74.
        config = ChainConfig(method=method, eta=0.01, steps=20, enforce_step_bound=False)
        with pytest.raises(ValueError,
                           match=f"^{method} chain, seed 3: iterate 1 is not finite"):
            run_batch(config, [4, 3, 5], Cliff(2), BALL2)
        for seed in (4, 5):
            rec = run_chain(replace(config, seed=seed), Cliff(2), BALL2)
            assert (rec.f_value <= 1.0).all() and BALL2.contains(rec.final_point)

    def test_non_finite_final_point_named_by_its_step(self):
        cfg = ChainConfig(method="pg", eta=1e308, steps=1, seed=5,
                          x0=np.array([1.9, 0.0]), enforce_step_bound=False)
        with pytest.raises(ValueError, match="^pg chain, seed 5: iterate 1 is not finite"):
            run_chain(cfg, QUAD2, BALL2)

    def test_overflowing_squared_norm_is_projected_not_centred(self):
        # eta * grad stays finite, but ||x_raw||^2 overflows: the raw
        # point is projected onto the outer sphere, never sent to the
        # center, which lies in the cavity.
        obj, dom = Rosenbrock(2), SphericalShell(np.zeros(2), 0.5, 2.0)
        config = ChainConfig(method="rgld", eta=1e300, steps=20, enforce_step_bound=False)
        records = assert_batch_matches_run_chain(config, [0, 1], obj, dom)
        for rec in records:
            assert dom.contains(rec.final_point)
            assert rec.fallback_count == 20
