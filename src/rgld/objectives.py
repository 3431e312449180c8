"""Differentiable benchmark objectives with analytic gradients.

Each objective writes its formula twice: as a fused
``value_and_gradient`` at one point for sampler loops (``value`` and
``gradient`` are derived from it), and as a vectorized ``value_many``
over rows for quadrature grids. ``lipschitz_bounds`` gives conservative
closed-form constants over a bounded domain. Bounds favor validity over
tightness: they are upper bounds on the true suprema, never estimates.
"""

from __future__ import annotations

import math

import numpy as np

from rgld.geometry import FeasibleDomain, as_point

__all__ = [
    "Objective",
    "Quadratic",
    "GaussianMixture",
    "Rosenbrock",
    "Rastrigin",
    "make_grid_gaussian_mixture",
    "MIXTURE_GRID",
    "DOMINANT_MODE",
    "DOMINANT_WEIGHT",
]

TWO_PI = 2.0 * math.pi

# The 5x5 lattice of mixture means and the mode forced to dominate.
MIXTURE_GRID = (-2.0, -1.0, 0.0, 1.0, 2.0)
DOMINANT_MODE = (0.0, -2.0)
# Forced weight of the dominant mode. Uniform [0.5, 1.0) weights alone do
# not pin the global minimizer to the dominant mode: neighboring modes on
# the lattice deepen interior points more than edge points, so the forced
# weight must dominate their combined pull. 12.0 keeps the minimizer
# within 0.2 of the dominant mean even when every other weight is at the
# top of its range.
DOMINANT_WEIGHT = 12.0


class Objective:
    """A differentiable scalar function with an analytic gradient.

    Subclasses define ``value_and_gradient``, ``value_many`` and
    ``lipschitz_bounds``.
    """

    dim: int

    def value(self, x) -> float:
        return self.value_and_gradient(x)[0]

    def gradient(self, x) -> np.ndarray:
        return self.value_and_gradient(x)[1]

    def value_and_gradient(self, x) -> tuple[float, np.ndarray]:
        """Value and gradient at one point, in one evaluation."""
        raise NotImplementedError

    def value_many(self, X) -> np.ndarray:
        """Vectorized value over rows of ``X`` with shape ``(n, dim)``."""
        raise NotImplementedError

    def lipschitz_bounds(self, domain: FeasibleDomain) -> tuple[float, float]:
        """Conservative constants ``(L, M)`` over the domain.

        ``L`` bounds ``sup ||grad f||`` and ``M`` bounds the Hessian
        operator norm. Both are valid over the convex hull of the domain,
        so they also certify Lipschitz continuity along straight segments
        between any two feasible points.
        """
        raise NotImplementedError

    def _coordinate_bound(self, domain: FeasibleDomain) -> float:
        # Bound on ||x|| over the domain's convex hull, valid for any center.
        if domain.dim != self.dim:
            raise ValueError(
                f"objective dimension {self.dim} does not match domain "
                f"dimension {domain.dim}"
            )
        return float(np.linalg.norm(domain.center)) + domain.bounding_radius


class Quadratic(Objective):
    """``f(x) = scale * ||x||^2 / 2``."""

    def __init__(self, scale: float = 1.0, dim: int = 1):
        if not 0 < scale < math.inf:
            raise ValueError(f"scale: must be positive and finite, got {scale}")
        if dim < 1:
            raise ValueError("dim must be at least 1")
        self.scale = float(scale)
        self.dim = int(dim)

    def value_and_gradient(self, x):
        x = as_point(x, self.dim)
        return 0.5 * self.scale * float(x.dot(x)), self.scale * x

    def value_many(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        return 0.5 * self.scale * np.sum(X * X, axis=1)

    def lipschitz_bounds(self, domain):
        B = self._coordinate_bound(domain)
        return self.scale * B, self.scale


class GaussianMixture(Objective):
    """Negated sum of isotropic unit-variance Gaussian bumps.

    ``f(x) = -sum_i w_i exp(-||x - m_i||^2 / 2)`` with positive weights
    ``w_i`` and means ``m_i``. When built by
    :func:`make_grid_gaussian_mixture`, ``global_minimizer`` and
    ``global_min_value`` hold the located minimum.
    """

    def __init__(self, weights, means):
        weights = np.asarray(weights, dtype=np.float64)
        means = np.asarray(means, dtype=np.float64)
        if means.ndim != 2:
            raise ValueError("means must have shape (n_modes, dim)")
        if weights.shape != (means.shape[0],):
            raise ValueError("weights and means disagree on the number of modes")
        if not np.all((weights > 0) & np.isfinite(weights)):
            raise ValueError(
                f"weights: must be positive and finite, got {weights.tolist()}"
            )
        if not np.all(np.isfinite(means)):
            raise ValueError(f"means: must be finite, got {means.tolist()}")
        weights.setflags(write=False)
        means.setflags(write=False)
        self.weights = weights
        self.means = means
        self.dim = means.shape[1]
        self.global_minimizer: np.ndarray | None = None
        self.global_min_value: float | None = None

    @property
    def n_modes(self) -> int:
        return self.means.shape[0]

    def value_and_gradient(self, x):
        z = as_point(x, self.dim) - self.means
        # The method runs np.sum's reduction without its Python wrapper.
        q = np.exp(-0.5 * (z * z).sum(axis=1))
        return -float(self.weights @ q), (self.weights * q) @ z

    def value_many(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        Z = X[:, None, :] - self.means[None, :, :]
        Q = np.exp(-0.5 * np.sum(Z * Z, axis=2))
        return -(Q @ self.weights)

    def refine_minimum(self, start) -> tuple[np.ndarray, float]:
        """Local descent from ``start`` using the analytic gradient."""
        # Imported here: scipy.optimize takes about half a second to load,
        # and only the mixture and shell-minimum searches use it.
        from scipy import optimize

        res = optimize.minimize(
            self.value_and_gradient, np.asarray(start, dtype=np.float64),
            jac=True, method="BFGS", options={"gtol": 1e-12},
        )
        return res.x, float(res.fun)

    def lipschitz_bounds(self, domain):
        B = self._coordinate_bound(domain)
        total = float(np.sum(self.weights))
        # Per mode, t * exp(-t^2/2) <= exp(-1/2) for all t >= 0, and the
        # cruder t <= B + max ||m_i|| bound is kept as an alternative.
        max_mean = float(np.max(np.linalg.norm(self.means, axis=1)))
        L = total * min(math.exp(-0.5), B + max_mean)
        # Per-mode Hessian w * exp(-t^2/2) * (I - z z^T) has operator norm
        # at most w (attained at t = 0).
        M = total
        return L, M


class Rosenbrock(Objective):
    """The classic banana-valley function.

    ``f(x) = sum_{i<d} 100 (x_{i+1} - x_i^2)^2 + (1 - x_i)^2`` with the
    global minimum 0 at the all-ones point. For ``d >= 4`` there is a
    second local minimum with value 4 near ``(-1, 1, ..., 1)``.
    """

    def __init__(self, dim: int):
        if dim < 2:
            raise ValueError("Rosenbrock requires dim >= 2")
        self.dim = int(dim)

    def value_and_gradient(self, x):
        x = as_point(x, self.dim)
        t = x[1:] - x[:-1] ** 2
        head = 1.0 - x[:-1]
        val = float(np.sum(100.0 * t * t + head * head))
        g = np.zeros_like(x)
        g[:-1] = -400.0 * x[:-1] * t - 2.0 * head
        g[1:] += 200.0 * t
        return val, g

    def value_many(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        T = X[:, 1:] - X[:, :-1] ** 2
        return np.sum(100.0 * T * T + (1.0 - X[:, :-1]) ** 2, axis=1)

    def lipschitz_bounds(self, domain):
        B = self._coordinate_bound(domain)
        # Per-coordinate gradient bound from |x_j| <= B.
        per_coord = 400.0 * B * (B + B * B) + 2.0 * (1.0 + B) + 200.0 * (B + B * B)
        L = math.sqrt(self.dim) * per_coord
        # Row-sum bound on the (tridiagonal) Hessian.
        M = 1200.0 * B * B + 1200.0 * B + 202.0
        return L, M


class Rastrigin(Objective):
    """Separable multimodal benchmark with a lattice of local minima.

    ``f(x) = 10 d + sum_i (x_i^2 - 10 cos(2 pi x_i))``, global minimum 0
    at the origin.
    """

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("Rastrigin requires dim >= 1")
        self.dim = int(dim)

    def value_and_gradient(self, x):
        x = as_point(x, self.dim)
        val = 10.0 * self.dim + float(np.sum(x * x - 10.0 * np.cos(TWO_PI * x)))
        return val, 2.0 * x + 20.0 * math.pi * np.sin(TWO_PI * x)

    def value_many(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        return 10.0 * self.dim + np.sum(X * X - 10.0 * np.cos(TWO_PI * X), axis=1)

    def lipschitz_bounds(self, domain):
        B = self._coordinate_bound(domain)
        L = math.sqrt(self.dim) * (2.0 * B + 20.0 * math.pi)
        # |f_i''| = |2 + 40 pi^2 cos(2 pi x_i)| <= 2 + 40 pi^2, Hessian is diagonal.
        M = 2.0 + 40.0 * math.pi**2
        return L, M


def make_grid_gaussian_mixture(seed: int) -> GaussianMixture:
    """Build the 25-mode two-dimensional benchmark mixture.

    Means sit on the lattice ``MIXTURE_GRID x MIXTURE_GRID``. Weights are
    drawn uniformly from [0.5, 1.0) with the given seed, then the mode at
    ``DOMINANT_MODE`` is forced to ``DOMINANT_WEIGHT`` so that the global
    minimizer sits next to that mean for every seed. The located minimum
    (local descent from the dominant mean) is stored on the returned
    objective as ``global_minimizer`` / ``global_min_value``.
    """
    means = np.array(
        [(a, b) for a in MIXTURE_GRID for b in MIXTURE_GRID], dtype=np.float64
    )
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.5, 1.0, size=means.shape[0])
    dominant = np.flatnonzero((means == np.asarray(DOMINANT_MODE)).all(axis=1))
    weights[dominant[0]] = DOMINANT_WEIGHT
    gm = GaussianMixture(weights, means)
    xmin, fmin = gm.refine_minimum(np.asarray(DOMINANT_MODE))
    gm.global_minimizer = xmin
    gm.global_min_value = fmin
    return gm
