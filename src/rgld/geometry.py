"""Feasible regions with analytic projection and reflection.

Two region shapes are provided: a Euclidean ball and a spherical shell
(the set between two concentric spheres, sometimes called a thick-walled
sphere). Both have smooth boundaries and closed-form nearest-point
projections, so the reflection operator ``2 * project(x) - x`` is exact
and cheap to evaluate inside a sampler loop.

All domain objects are immutable after construction and every operation
is a pure function, so instances can be shared freely across threads.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "FeasibleDomain",
    "Ball",
    "SphericalShell",
    "ReflectionUndefinedError",
    "BOUNDARY_TOL",
]

# Absolute tolerance on the defining radius when classifying boundary
# points for outward_normal. Projection outputs land on the boundary only
# up to floating-point rounding.
BOUNDARY_TOL = 1e-9


class ReflectionUndefinedError(ValueError):
    """Raised when reflecting a point would land outside the region, i.e.
    the point overshot farther than the shape can absorb. In a sampler
    this signals a step size too large for the domain."""


class FeasibleDomain:
    """Base class for bounded regions with smooth boundary.

    Attributes
    ----------
    dim : int
        Ambient dimension.
    center : ndarray
        Center of symmetry, shape ``(dim,)``.
    inscribed_radius : float
        Radius of a Euclidean ball guaranteed to fit inside the region.
    bounding_radius : float
        Radius of a sphere around ``center`` that contains the region.
    reflection_margin : float
        Largest distance from the region at which reflection is
        well-defined.
    """

    dim: int
    center: np.ndarray
    inscribed_radius: float
    bounding_radius: float
    reflection_margin: float

    def _as_point(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.dim,):
            raise ValueError(
                f"expected a point of dimension {self.dim}, got shape {x.shape}"
            )
        return x

    def contains(self, x) -> bool:
        """Exact membership test for the closed region (no tolerance)."""
        raise NotImplementedError

    def project(self, x) -> np.ndarray:
        """Nearest point of the region; the identity on members."""
        raise NotImplementedError

    def outward_normal(self, x) -> np.ndarray:
        """Outer unit normal at a boundary point.

        ``x`` must lie on the boundary within ``BOUNDARY_TOL`` of the
        defining radius, otherwise ``ValueError`` is raised.
        """
        raise NotImplementedError

    def reflect(self, x) -> tuple[np.ndarray, bool]:
        """Reflect ``x`` across its boundary projection point.

        Returns ``(2 * project(x) - x, True)`` for exterior points and
        ``(x, False)`` unchanged for members. Raises
        ``ReflectionUndefinedError`` when the reflected point would leave
        the region; any point within ``reflection_margin`` of the region
        is guaranteed to reflect successfully.
        """
        x = self._as_point(x)
        if self.contains(x):
            return x, False
        p = self.project(x)
        r = 2.0 * p - x
        if not self.contains(r):
            gap = x - p
            dist = math.sqrt(float(gap.dot(gap)))
            raise ReflectionUndefinedError(
                f"reflecting a point at distance {dist:.6g} from the region "
                f"lands outside it (margin {self.reflection_margin:.6g} is "
                f"always safe)"
            )
        return r, True

    def distance_to_set(self, x) -> float:
        """Euclidean distance to the region (0 for members)."""
        x = self._as_point(x)
        if self.contains(x):
            return 0.0
        d = x - self.project(x)
        return math.sqrt(float(d.dot(d)))

    def sample_uniform(self, rng: np.random.Generator) -> np.ndarray:
        """Draw a point uniformly from the region.

        Uses one ``standard_normal(dim)`` draw for the direction followed
        by one ``random()`` draw for the radial inverse CDF, so the
        generator state advances deterministically.
        """
        raise NotImplementedError

    def _unit_direction(self, rng: np.random.Generator) -> np.ndarray:
        v = rng.standard_normal(self.dim)
        n = math.sqrt(float(v.dot(v)))
        while n == 0.0:  # probability zero, but keep the contract total
            v = rng.standard_normal(self.dim)
            n = math.sqrt(float(v.dot(v)))
        return v / n


class Ball(FeasibleDomain):
    """Closed Euclidean ball ``{x : ||x - center|| <= radius}``."""

    def __init__(self, center, radius: float):
        center = np.atleast_1d(np.asarray(center, dtype=np.float64))
        if center.ndim != 1 or center.size < 1:
            raise ValueError("center must be a 1-D point")
        if not radius > 0:
            raise ValueError("radius must be positive")
        center.setflags(write=False)
        self.center = center
        self.radius = float(radius)
        self.dim = center.size
        self.inscribed_radius = self.radius
        self.bounding_radius = self.radius
        self.reflection_margin = self.radius
        self._r2 = self.radius * self.radius

    def __repr__(self) -> str:
        return f"Ball(center={self.center.tolist()}, radius={self.radius})"

    def contains(self, x) -> bool:
        x = self._as_point(x)
        v = x - self.center
        # ``v.dot(v)`` runs the same BLAS dot as ``v @ v`` with less call
        # overhead, which counts here: chains test membership every step.
        return float(v.dot(v)) <= self._r2

    def project(self, x) -> np.ndarray:
        x = self._as_point(x)
        v = x - self.center
        rho2 = float(v.dot(v))
        if rho2 <= self._r2:
            return x
        s = self.radius / math.sqrt(rho2)
        p = self.center + s * v
        w = p - self.center
        # Rounding can leave the scaled point an ulp outside the exact
        # membership test; step the scale down until it is a member.
        while float(w.dot(w)) > self._r2:
            s = math.nextafter(s, 0.0)
            p = self.center + s * v
            w = p - self.center
        return p

    def outward_normal(self, x) -> np.ndarray:
        x = self._as_point(x)
        v = x - self.center
        rho = math.sqrt(float(v.dot(v)))
        if abs(rho - self.radius) > BOUNDARY_TOL:
            raise ValueError(
                f"point at radius {rho:.12g} is not on the boundary "
                f"(radius {self.radius:.12g}) within {BOUNDARY_TOL}"
            )
        return v / rho

    def sample_uniform(self, rng: np.random.Generator) -> np.ndarray:
        u = self._unit_direction(rng)
        r = self.radius * rng.random() ** (1.0 / self.dim)
        return self.center + r * u


class SphericalShell(FeasibleDomain):
    """Closed region between two concentric spheres.

    Requires ``dim >= 2``: a one-dimensional shell is a disconnected pair
    of intervals, which breaks the connectivity every operator here
    relies on. The region is non-convex (the inner cavity is excluded)
    but its boundary is smooth.
    """

    def __init__(self, center, inner_radius: float, outer_radius: float):
        center = np.atleast_1d(np.asarray(center, dtype=np.float64))
        if center.size < 2:
            raise ValueError("a spherical shell requires dimension >= 2")
        if not 0 < inner_radius < outer_radius:
            raise ValueError("radii must satisfy 0 < inner_radius < outer_radius")
        center.setflags(write=False)
        self.center = center
        self.inner_radius = float(inner_radius)
        self.outer_radius = float(outer_radius)
        self.dim = center.size
        self.inscribed_radius = 0.5 * (self.outer_radius - self.inner_radius)
        self.bounding_radius = self.outer_radius
        self.reflection_margin = min(self.inner_radius, self.inscribed_radius)
        self._rin2 = self.inner_radius * self.inner_radius
        self._rout2 = self.outer_radius * self.outer_radius

    def __repr__(self) -> str:
        return (
            f"SphericalShell(center={self.center.tolist()}, "
            f"inner_radius={self.inner_radius}, outer_radius={self.outer_radius})"
        )

    def contains(self, x) -> bool:
        x = self._as_point(x)
        v = x - self.center
        rho2 = float(v.dot(v))
        return self._rin2 <= rho2 <= self._rout2

    def project(self, x) -> np.ndarray:
        x = self._as_point(x)
        v = x - self.center
        rho2 = float(v.dot(v))
        if self._rin2 <= rho2 <= self._rout2:
            return x
        if rho2 == 0.0:
            # Non-unique minimizer at the exact center: deterministic
            # tie-break along the first canonical axis.
            p = self.center.copy()
            p[0] += self.inner_radius
            return p
        rho = math.sqrt(rho2)
        if rho2 < self._rin2:
            # Scale up onto the inner sphere; nudge outward if rounding
            # left the point an ulp short of exact membership.
            s = self.inner_radius / rho
            p = self.center + s * v
            w = p - self.center
            while float(w.dot(w)) < self._rin2:
                s = math.nextafter(s, math.inf)
                p = self.center + s * v
                w = p - self.center
            return p
        s = self.outer_radius / rho
        p = self.center + s * v
        w = p - self.center
        while float(w.dot(w)) > self._rout2:
            s = math.nextafter(s, 0.0)
            p = self.center + s * v
            w = p - self.center
        return p

    def outward_normal(self, x) -> np.ndarray:
        x = self._as_point(x)
        v = x - self.center
        rho = math.sqrt(float(v.dot(v)))
        if abs(rho - self.outer_radius) <= BOUNDARY_TOL:
            return v / rho
        if abs(rho - self.inner_radius) <= BOUNDARY_TOL:
            # Outward from the region at the inner wall points into the cavity.
            return -v / rho
        raise ValueError(
            f"point at radius {rho:.12g} is on neither bounding sphere "
            f"({self.inner_radius:.12g}, {self.outer_radius:.12g}) "
            f"within {BOUNDARY_TOL}"
        )

    def sample_uniform(self, rng: np.random.Generator) -> np.ndarray:
        u = self._unit_direction(rng)
        d = self.dim
        lo, hi = self.inner_radius**d, self.outer_radius**d
        r = (lo + rng.random() * (hi - lo)) ** (1.0 / d)
        return self.center + r * u
