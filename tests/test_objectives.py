"""Objectives: closed forms, analytic gradients, conservative bounds."""

import math

import numpy as np
import pytest
from scipy import optimize

from rgld import objectives
from rgld.cli import check_gradient
from rgld.geometry import Ball, SphericalShell
from rgld.objectives import (
    DOMINANT_MODE,
    DOMINANT_WEIGHT,
    GaussianMixture,
    Quadratic,
    Rastrigin,
    Rosenbrock,
    make_grid_gaussian_mixture,
)

GM_SHELL = SphericalShell(np.zeros(2), 0.9, 4.0)
RB_SHELL4 = SphericalShell(np.zeros(4), 1.0, 4.0)
RT_SHELL = SphericalShell(np.zeros(2), 0.9, 5.12)
UNIT_BALL1 = Ball(np.zeros(1), 1.0)

VARIANTS = [
    (Quadratic(1.0, 2), Ball(np.zeros(2), 2.0)),
    (make_grid_gaussian_mixture(0), GM_SHELL),
    (Rosenbrock(4), RB_SHELL4),
    (Rastrigin(2), RT_SHELL),
]


class TestValues:
    def test_rosenbrock_global_minimum_exact(self):
        for d in (2, 4, 6, 10):
            assert Rosenbrock(d).value(np.ones(d)) == 0.0

    def test_rosenbrock_second_minimum_exact(self):
        for d in (4, 5, 7):
            x = np.ones(d)
            x[0] = -1.0
            assert Rosenbrock(d).value(x) == 4.0

    def test_rastrigin_global_minimum_exact(self):
        for d in (1, 2, 5, 30):
            assert Rastrigin(d).value(np.zeros(d)) == 0.0

    def test_rastrigin_formula(self):
        f = Rastrigin(2)
        x = np.array([0.5, -1.25])
        expected = 20.0 + (0.25 - 10 * math.cos(math.pi)) + (
            1.5625 - 10 * math.cos(-2.5 * math.pi)
        )
        assert f.value(x) == pytest.approx(expected, rel=1e-14)

    def test_mixture_formula(self):
        gm = GaussianMixture([2.0, 0.5], [[0.0, 0.0], [1.0, 1.0]])
        x = np.array([1.0, 0.0])
        expected = -(2.0 * math.exp(-0.5) + 0.5 * math.exp(-0.5))
        assert gm.value(x) == pytest.approx(expected, rel=1e-14)

    def test_quadratic(self):
        q = Quadratic(3.0, 2)
        assert q.value([1.0, 2.0]) == pytest.approx(7.5)

    def test_value_many_matches_value(self):
        rng = np.random.default_rng(3)
        for obj, dom in VARIANTS:
            X = np.array([dom.sample_uniform(rng) for _ in range(50)])
            np.testing.assert_allclose(
                obj.value_many(X), [obj.value(x) for x in X], rtol=1e-13
            )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            Rosenbrock(4).value(np.ones(3))

    @pytest.mark.parametrize("obj", [
        Quadratic(2.5, 1), Quadratic(0.3, 30), Rosenbrock(2), Rosenbrock(10),
        Rosenbrock(30), Rastrigin(1), Rastrigin(30), make_grid_gaussian_mixture(0),
        GaussianMixture(np.linspace(0.5, 1.0, 7), np.arange(35.0).reshape(7, 5) / 9.0),
        GaussianMixture(np.linspace(0.5, 1.0, 6), np.arange(48.0).reshape(6, 8) / 13.0),
        GaussianMixture(np.linspace(0.5, 1.0, 4), np.arange(48.0).reshape(4, 12) / 17.0),
    ], ids=lambda o: f"{type(o).__name__}{o.dim}")
    def test_rows_have_the_point_bits(self, obj):
        X = np.random.default_rng(obj.dim).normal(scale=2.0, size=(2000, obj.dim))
        values, grads = obj.value_and_gradient(X)
        assert values.shape == (2000,) and grads.shape == X.shape
        np.testing.assert_array_equal(obj.value_many(X), values)
        for x, v, g in zip(X, values, grads):
            value, gradient = obj.value_and_gradient(x)
            assert np.float64(value).tobytes() == v.tobytes()
            assert gradient.tobytes() == g.tobytes()
            point_value = obj.value(x)
            assert type(point_value) is float and point_value == value
        # A batch of one is a row too.
        value, gradient = obj.value_and_gradient(X[:1])
        assert value.shape == (1,) and gradient.shape == (1, obj.dim)
        assert value.tobytes() == values[:1].tobytes()
        assert gradient.tobytes() == grads[:1].tobytes()

    @pytest.mark.parametrize("dim", range(1, 8))
    def test_mixture_has_the_bits_of_the_summed_offsets(self, dim):
        # The reference is the broadcast offsets and a sum over the last
        # axis. Through dim 7 that sum adds coordinates in order, as the
        # mixture does; from dim 8 numpy sums pairwise and may round apart.
        rng = np.random.default_rng(dim)
        gm = GaussianMixture(rng.uniform(0.5, 1.5, 9), rng.normal(scale=2.0, size=(9, dim)))
        X = rng.normal(scale=2.0, size=(4000, dim))
        for x in (X, X[0], X[-1]):
            z = x[..., None, :] - gm.means
            q = np.exp(-0.5 * (z * z).sum(axis=-1))
            value, gradient = gm.value_and_gradient(x)
            assert np.asarray(value).tobytes() == (-np.vecdot(q, gm.weights)).tobytes()
            assert gradient.tobytes() == np.vecmat(gm.weights * q, z).tobytes()

    @pytest.mark.parametrize("shape", [(5, 3), (5, 1), (2, 5, 2), (2, 2, 2)])
    def test_rows_of_another_dimension_rejected(self, shape):
        obj = make_grid_gaussian_mixture(0)
        with pytest.raises(ValueError, match=r"^dim: expected a point or rows of dimension 2"):
            obj.value_and_gradient(np.zeros(shape))
        with pytest.raises(ValueError, match=r"^dim: expected a point of dimension 2"):
            obj.value(np.zeros(shape))
        # A Python float is not a point.
        for dim in (1, 2):
            with pytest.raises(ValueError, match=r"^dim:"):
                Quadratic(1.0, dim).value_and_gradient(0.5)


class TestGradients:
    def test_quadratic_example(self):
        np.testing.assert_array_equal(
            Quadratic(1.0, 2).gradient([1.0, 0.0]), [1.0, 0.0]
        )

    def test_rastrigin_stationary_at_origin(self):
        np.testing.assert_array_equal(Rastrigin(3).gradient(np.zeros(3)), np.zeros(3))

    def test_rosenbrock_stationary_at_minimum(self):
        np.testing.assert_array_equal(Rosenbrock(2).gradient(np.ones(2)), np.zeros(2))

    def test_mixture_gradient_formula(self):
        gm = GaussianMixture([2.0, 0.5], [[0.0, 0.0], [1.0, 1.0]])
        x = np.array([0.5, -0.5])
        expected = np.zeros(2)
        for w, m in zip(gm.weights, gm.means):
            z = x - m
            expected += w * math.exp(-0.5 * float(z @ z)) * z
        np.testing.assert_allclose(gm.gradient(x), expected, rtol=1e-14)

    @pytest.mark.parametrize("obj,dom", VARIANTS, ids=lambda v: type(v).__name__)
    def test_matches_finite_differences(self, obj, dom):
        # rgld check's gradient check on 100 seeded interior points per variant.
        rng = np.random.default_rng(42)
        ok, worst = check_gradient(obj, [dom.sample_uniform(rng) for _ in range(100)])
        assert ok, f"worst relative error {worst:.2e}"

    def test_value_and_gradient_consistent(self):
        rng = np.random.default_rng(9)
        for obj, dom in VARIANTS:
            for _ in range(20):
                x = dom.sample_uniform(rng)
                v, g = obj.value_and_gradient(x)
                assert v == obj.value(x)
                np.testing.assert_array_equal(g, obj.gradient(x))


class TestLipschitzBounds:
    def test_quadratic_exact(self):
        L, M = Quadratic(1.0, 2).lipschitz_bounds(Ball(np.zeros(2), 2.0))
        assert (L, M) == (2.0, 1.0)

    def test_rastrigin_smoothness_closed_form(self):
        _, M = Rastrigin(2).lipschitz_bounds(Ball(np.zeros(2), 5.12))
        assert M == pytest.approx(2.0 + 40.0 * math.pi**2)

    def test_mixture_bound_below_crude_form(self):
        gm = make_grid_gaussian_mixture(0)
        L, _ = gm.lipschitz_bounds(GM_SHELL)
        crude = float(np.sum(gm.weights)) * (
            GM_SHELL.outer_radius + np.max(np.linalg.norm(gm.means, axis=1))
        )
        assert 0 < L <= crude

    def test_mixture_bound_dominates_dense_grid_search(self):
        # Independent oracle: sup ||grad f|| over a dense grid of the shell.
        gm = make_grid_gaussian_mixture(0)
        L, _ = gm.lipschitz_bounds(GM_SHELL)
        ax = np.linspace(-4.0, 4.0, 320)
        X, Y = np.meshgrid(ax, ax, indexing="ij")
        pts = np.column_stack([X.ravel(), Y.ravel()])
        mask = (np.linalg.norm(pts, axis=1) >= 0.9) & (np.linalg.norm(pts, axis=1) <= 4.0)
        sup = max(np.linalg.norm(gm.gradient(p)) for p in pts[mask][::7])
        assert sup <= L

    @pytest.mark.parametrize("obj,dom", VARIANTS, ids=lambda v: type(v).__name__)
    def test_bounds_certify_lipschitz_pairs(self, obj, dom):
        L, M = obj.lipschitz_bounds(dom)
        rng = np.random.default_rng(77)
        for _ in range(10_000):
            x = dom.sample_uniform(rng)
            y = dom.sample_uniform(rng)
            gap = np.linalg.norm(x - y)
            assert abs(obj.value(x) - obj.value(y)) <= L * gap * (1 + 1e-12)
            assert (
                np.linalg.norm(obj.gradient(x) - obj.gradient(y))
                <= M * gap * (1 + 1e-12)
            )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            Rastrigin(3).lipschitz_bounds(RT_SHELL)


class TestGridMixtureMaker:
    def test_twenty_five_modes_dominant_at_target(self):
        gm = make_grid_gaussian_mixture(123)
        assert gm.n_modes == 25
        heaviest = gm.means[np.argmax(gm.weights)]
        np.testing.assert_array_equal(heaviest, [0.0, -2.0])
        assert gm.weights.max() == DOMINANT_WEIGHT
        others = np.delete(gm.weights, np.argmax(gm.weights))
        assert np.all((others >= 0.5) & (others < 1.0))

    def test_deterministic(self):
        a = make_grid_gaussian_mixture(7)
        b = make_grid_gaussian_mixture(7)
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.means, b.means)
        np.testing.assert_array_equal(a.global_minimizer, b.global_minimizer)

    @pytest.mark.parametrize("seed", [0, 1, 4, 18, 99])
    def test_grid_search_confirms_minimizer_location(self, seed):
        # Independent oracle: 400 x 400 grid over the shell.
        gm = make_grid_gaussian_mixture(seed)
        ax = np.linspace(-4.0, 4.0, 400)
        X, Y = np.meshgrid(ax, ax, indexing="ij")
        pts = np.column_stack([X.ravel(), Y.ravel()])
        r = np.linalg.norm(pts, axis=1)
        feasible = pts[(r >= 0.9) & (r <= 4.0)]
        f = gm.value_many(feasible)
        argmin = feasible[np.argmin(f)]
        assert np.linalg.norm(argmin - np.array([0.0, -2.0])) < 0.2
        # The stored minimum (local descent) matches the grid minimum.
        assert gm.global_min_value <= f.min() + 1e-9
        assert abs(gm.global_min_value - f.min()) < 1e-2
        assert np.linalg.norm(gm.global_minimizer - argmin) < 0.05

    def test_minimizer_is_feasible(self):
        gm = make_grid_gaussian_mixture(0)
        assert GM_SHELL.contains(gm.global_minimizer)

    def test_newton_minimum_matches_bfgs(self):
        for seed in range(200):
            gm = make_grid_gaussian_mixture(seed)
            x, f = gm.global_minimizer, gm.global_min_value
            assert np.abs(gm.gradient(x)).max() <= 1e-12
            np.linalg.cholesky(gm.hessian(x))
            assert GM_SHELL.contains(x)
            ref = optimize.minimize(
                gm.value_and_gradient, np.asarray(DOMINANT_MODE), jac=True,
                method="BFGS", options={"gtol": 1e-12},
            )
            # BFGS may stop on precision loss short of its gtol; its residual
            # gradient over the least Hessian eigenvalue bounds how far off
            # it stopped.
            off = np.linalg.norm(gm.gradient(ref.x)) / np.linalg.eigvalsh(gm.hessian(x))[0]
            assert np.abs(x - ref.x).max() <= 1e-9 + 2.0 * off
            assert abs(f - ref.fun) <= 8 * np.spacing(abs(f))

    def test_hessian_matches_finite_differences(self):
        gm = make_grid_gaussian_mixture(3)
        h = 1e-6
        for x in np.random.default_rng(0).uniform(-3.0, 3.0, size=(20, 2)):
            fd = np.array([(gm.gradient(x + e) - gm.gradient(x - e)) / (2 * h)
                           for e in np.eye(2) * h])
            np.testing.assert_allclose(gm.hessian(x), fd, atol=1e-7)

    def test_newton_search_failures_are_named(self, monkeypatch):
        gm = GaussianMixture([1.0], [[0.0, 0.0]])
        # More than 1 from the mean the Hessian is indefinite.
        with pytest.raises(ValueError, match="not positive definite"):
            gm.refine_minimum([1.5, 0.0])
        monkeypatch.setattr(objectives, "_NEWTON_STEPS", 1)
        with pytest.raises(ValueError, match="no convergence in 1 Newton steps"):
            gm.refine_minimum([0.3, 0.0])


class TestValidation:
    def test_mixture_shape_checks(self):
        with pytest.raises(ValueError):
            GaussianMixture([1.0], [[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError):
            GaussianMixture([1.0, -2.0], [[0.0, 0.0], [1.0, 1.0]])

    @pytest.mark.parametrize("cls,args", [
        (Quadratic, (1.0, 1.5)), (Rastrigin, (2.7,)), (Rosenbrock, (3.0,)),
        (Rastrigin, (True,)), (Rosenbrock, ("4",)),
    ], ids=["quadratic-1.5", "rastrigin-2.7", "rosenbrock-3.0", "rastrigin-bool",
            "rosenbrock-str"])
    def test_non_integer_dim_rejected(self, cls, args):
        with pytest.raises(ValueError, match="^dim: expected an integer"):
            cls(*args)

    @pytest.mark.parametrize("cls,args,message", [
        (Rosenbrock, (1,), "dim: must be at least 2, got 1"),
        (Rastrigin, (0,), "dim: must be at least 1, got 0"),
        (GaussianMixture, ([1.0, 1.0], [[0.0], [1.0, 1.0]]), r"means: must have shape"),
        (GaussianMixture, ([1.0], [0.0, 0.0]), r"means: must have shape"),
        (GaussianMixture, ([1.0, 1.0], [[0.0, 0.0]]), "weights: expected 1, one per mean, got 2"),
    ], ids=["rosenbrock-dim", "rastrigin-dim", "ragged-means", "flat-means", "weights-count"])
    def test_bad_shapes_name_their_field(self, cls, args, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            cls(*args)

    def test_numpy_integer_dim_accepted(self):
        assert Rastrigin(np.int64(3)).dim == 3

    def test_rosenbrock_needs_two_dims(self):
        with pytest.raises(ValueError):
            Rosenbrock(1)

    def test_quadratic_positive_scale(self):
        with pytest.raises(ValueError):
            Quadratic(0.0, 2)

    @pytest.mark.parametrize("cls,args,field", [
        (Quadratic, (math.inf, 2), "scale"),
        (GaussianMixture, ([math.inf], [[0.0, 0.0]]), "weights"),
        (GaussianMixture, ([1.0], [[math.nan, 0.0]]), "means"),
        (GaussianMixture, ([1.0], [[0.0, -math.inf]]), "means"),
    ], ids=["scale-inf", "weight-inf", "mean-nan", "mean-minus-inf"])
    def test_non_finite_parameters_rejected(self, cls, args, field):
        with pytest.raises(ValueError, match=f"^{field}"):
            cls(*args)
