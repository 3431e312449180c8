"""Differentiable benchmark objectives with analytic gradients.

Each objective writes its formula once, as a fused
``value_and_gradient`` over the last axis: it takes one point of shape
``(dim,)`` or the rows of a ``(B, dim)`` array (a chain step of ``B``
chains, or a float chain's block of values), and each row gets the bits
of its point call. The rest is derived from it: ``value``
and ``gradient`` at one point, and ``value_many`` over the rows of a
quadrature grid.
``lipschitz_bounds`` gives conservative closed-form constants over a
bounded domain. Bounds favor validity over tightness: they are upper
bounds on the true suprema, never estimates. The mixture's minimum is
found by Newton's method with its closed-form Hessian.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from rgld.geometry import FeasibleDomain, as_point, sq_norm

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
_NEWTON_STEPS = 50  # GaussianMixture.refine_minimum gives up after these


def _check_dim(dim, least: int) -> int:
    if isinstance(dim, bool) or not isinstance(dim, numbers.Integral):
        raise ValueError(f"dim: expected an integer, got {dim!r}")
    if dim < least:
        raise ValueError(f"dim: must be at least {least}, got {dim}")
    return int(dim)


def check_dimension(objective: Objective, domain: FeasibleDomain) -> None:
    """Raise ``ValueError`` unless ``objective`` and ``domain`` share a dimension."""
    if objective.dim != domain.dim:
        raise ValueError(f"dimension: objective dimension {objective.dim} does not match "
                         f"domain dimension {domain.dim}")


class Objective:
    """A differentiable scalar function with an analytic gradient.

    Subclasses define ``value_and_gradient`` and ``lipschitz_bounds``.
    """

    dim: int

    def value(self, x) -> float:
        return float(self.value_and_gradient(as_point(x, self.dim))[0])

    def gradient(self, x) -> np.ndarray:
        return self.value_and_gradient(as_point(x, self.dim))[1]

    def value_and_gradient(self, x):
        """Value and gradient in one evaluation: a float64 scalar and a
        ``(dim,)`` array at one point, or ``(B,)`` values and ``(B, dim)``
        gradients at the rows of a ``(B, dim)`` array. Row ``i`` has the
        bits of the call at ``X[i]`` when ``X`` is C-contiguous: each BLAS
        call of the point formula runs once per row."""
        raise NotImplementedError

    def value_many(self, X) -> np.ndarray:
        """Values at the rows of ``X`` with shape ``(n, dim)``."""
        return self.value_and_gradient(as_point(X, self.dim, rows=True))[0]

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
        check_dimension(self, domain)
        return float(np.linalg.norm(domain.center)) + domain.outer_radius


class Quadratic(Objective):
    """``f(x) = scale * ||x||^2 / 2``."""

    def __init__(self, scale: float = 1.0, dim: int = 1):
        if not 0 < scale < math.inf:
            raise ValueError(f"scale: must be positive and finite, got {scale}")
        self.dim = _check_dim(dim, 1)
        self.scale = float(scale)

    def value_and_gradient(self, x):
        x = as_point(x, self.dim, rows=True)
        return 0.5 * self.scale * sq_norm(x), self.scale * x

    def lipschitz_bounds(self, domain):
        B = self._coordinate_bound(domain)
        return self.scale * B, self.scale


def _sq_dist(z):
    """Squared norms over the last axis, summed in coordinate order,
    ``zz[..., 0] + zz[..., 1] + ...``: one whole-array add per coordinate
    instead of ``(z * z).sum(axis=-1)``'s inner loop per norm. Through
    ``dim == 7`` the bits are the sum's, which adds in the same order;
    from ``dim == 8`` numpy's pairwise sum can round differently."""
    zz = z * z
    s = zz[..., 0]
    for j in range(1, zz.shape[-1]):
        s = s + zz[..., j]
    return s


class GaussianMixture(Objective):
    """Negated sum of isotropic unit-variance Gaussian bumps.

    ``f(x) = -sum_i w_i exp(-||x - m_i||^2 / 2)`` with positive weights
    ``w_i`` and means ``m_i``. When built by
    :func:`make_grid_gaussian_mixture`, ``global_minimizer`` and
    ``global_min_value`` hold the located minimum.
    """

    def __init__(self, weights, means):
        weights = np.asarray(weights, dtype=np.float64)
        try:
            means = np.asarray(means, dtype=np.float64)
        except ValueError:  # rows of different lengths
            means = None
        if means is None or means.ndim != 2:
            raise ValueError("means: must have shape (n_modes, dim)")
        if weights.shape != (means.shape[0],):
            raise ValueError(
                f"weights: expected {means.shape[0]}, one per mean, got {weights.size}")
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
        # ``z[..., i, :]`` is the offset from mode ``i``, built contiguous:
        # a broadcast ``x[..., None, :] - means`` runs an inner loop of
        # length ``dim`` per mode, while the repeat and the in-place
        # subtraction each run one loop over all modes, with the same bits.
        x = as_point(x, self.dim, rows=True)
        z = x[..., None, :].repeat(self.n_modes, axis=-2)
        z -= self.means
        q = np.exp(-0.5 * _sq_dist(z))
        # Per point, vecdot and vecmat run the BLAS dot and vector-matrix
        # product of ``weights @ q`` and ``(weights * q) @ z``: same bits.
        return -np.vecdot(q, self.weights), np.vecmat(self.weights * q, z)

    def hessian(self, x) -> np.ndarray:
        """``sum_i w_i q_i (I - z_i z_i^T)`` at one point, ``z_i = x - m_i``."""
        z = as_point(x, self.dim) - self.means
        wq = self.weights * np.exp(-0.5 * _sq_dist(z))
        return wq.sum() * np.eye(self.dim) - (z.T * wq) @ z

    def refine_minimum(self, start) -> tuple[np.ndarray, float]:
        """Newton's method from ``start`` to ``||grad f||_inf <= 1e-12``; a
        ``ValueError`` if a Hessian on the way is not positive definite or
        the search has not converged after ``_NEWTON_STEPS`` steps."""
        x = as_point(start, self.dim).copy()
        for _ in range(_NEWTON_STEPS):
            f, g = self.value_and_gradient(x)
            if np.max(np.abs(g)) <= 1e-12:
                return x, float(f)
            H = self.hessian(x)
            try:
                np.linalg.cholesky(H)
            except np.linalg.LinAlgError:
                raise ValueError(f"refine_minimum: Hessian not positive definite at {x}") from None
            x = x - np.linalg.solve(H, g)
        raise ValueError(f"refine_minimum: no convergence in {_NEWTON_STEPS} Newton steps")

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
        self.dim = _check_dim(dim, 2)

    def value_and_gradient(self, x):
        x = as_point(x, self.dim, rows=True)
        t = x[..., 1:] - x[..., :-1] ** 2
        head = 1.0 - x[..., :-1]
        value = np.sum(100.0 * t * t + head * head, axis=-1)
        g = np.zeros_like(x)
        g[..., :-1] = -400.0 * x[..., :-1] * t - 2.0 * head
        g[..., 1:] += 200.0 * t
        return value, g

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
        self.dim = _check_dim(dim, 1)

    def value_and_gradient(self, x):
        x = as_point(x, self.dim, rows=True)
        value = 10.0 * self.dim + np.sum(x * x - 10.0 * np.cos(TWO_PI * x), axis=-1)
        return value, 2.0 * x + 20.0 * math.pi * np.sin(TWO_PI * x)

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
    (Newton's method from the dominant mean) is stored on the returned
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
