"""Feasible regions with analytic projection and reflection.

Every region here is the closed radial set
``{x : inner_radius <= ||x - center|| <= outer_radius}``: a Euclidean
ball when ``inner_radius == 0`` and a spherical shell (the set between
two concentric spheres, sometimes called a thick-walled sphere) when it
is positive. Both have smooth boundaries and closed-form nearest-point
projections, so the reflection operator ``2 * project(x) - x`` is exact
and cheap to evaluate inside a sampler loop. One implementation serves
the convex ball and the non-convex shell alike, and a region is its
center and its two radii: the radii the sampler's step condition reads
(the inscribed radius and the reflection margin) are derived from them.

``contains`` takes one point of shape ``(dim,)`` or the rows of a
``(B, dim)`` array (quadrature grids; the chain loops write its test
inline, with its bits); ``project`` and
``reflect_or_project`` take one point, or a Python float at ``dim == 1``
(a lone one-dimensional chain), and so do ``reflect`` and
``distance_to_set``, which are built on them. All of these measure
through ``sq_norm``; the other operators take one point and use
``v.dot(v)``.

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
]

_FLOAT64 = np.dtype(np.float64)


def sq_norm(V):
    """Squared Euclidean norm over the last axis: ``V * V`` for a Python
    float, ``V.dot(V)`` for a point (the cheaper call), ``np.vecdot`` per
    row of a ``(B, dim)`` array.

    All three agree: a float has the bits of its ``(1,)`` point (the BLAS
    dot of one term is the product), and a point those of its row when
    the rows are C-contiguous; a strided row, like a strided point, can
    round differently from its contiguous copy.
    """
    if type(V) is float:
        return V * V
    return V.dot(V) if V.ndim == 1 else np.vecdot(V, V)


def as_point(x, dim: int, rows: bool = False) -> np.ndarray:
    """``x`` as a float64 array of shape ``(dim,)``, or also ``(B, dim)``
    when ``rows`` is true; ``ValueError`` naming ``dim`` otherwise.

    A float64 array comes back as the same object. The type check skips
    the call overhead of ``np.asarray``, which counts here: a chain step
    checks its points several times.
    """
    if type(x) is not np.ndarray or x.dtype is not _FLOAT64:
        x = np.asarray(x, dtype=np.float64)
    if x.shape != (dim,) and not (rows and x.ndim == 2 and x.shape[1] == dim):
        of = "a point or rows" if rows else "a point"
        raise ValueError(f"dim: expected {of} of dimension {dim}, got shape {x.shape}")
    return x


class ReflectionUndefinedError(ValueError):
    """Raised when reflecting a point would land outside the region, i.e.
    the point overshot farther than the shape can absorb. In a sampler
    this signals a step size too large for the domain."""


class FeasibleDomain:
    """Closed radial region ``{x : inner_radius <= ||x - center|| <= outer_radius}``.

    The radii must be finite with ``0 <= inner_radius < outer_radius``;
    ``ValueError`` (``radii: …``) otherwise. :class:`Ball` and
    :class:`SphericalShell` name the two cases; a one-dimensional region
    with a cavity (two intervals) is built here directly.

    Attributes
    ----------
    dim : int
        Ambient dimension.
    center : ndarray
        Center of symmetry, shape ``(dim,)``.
    inner_radius, outer_radius : float
        Radii of the bounding spheres; ``inner_radius`` is 0 for a ball.
    inscribed_radius : float
        Radius of a Euclidean ball guaranteed to fit inside the region:
        ``outer_radius`` for a ball, half the wall, ``(outer_radius -
        inner_radius) / 2``, with a cavity.
    reflection_margin : float
        Largest distance from the region at which reflection is
        well-defined: ``outer_radius`` for a ball, the smaller of
        ``inner_radius`` and half the wall with a cavity.
    """

    def __init__(self, center, inner_radius: float, outer_radius: float):
        center = np.atleast_1d(np.asarray(center, dtype=np.float64))
        if center.ndim != 1 or center.size < 1:
            raise ValueError("center: must be a 1-D point")
        if not np.all(np.isfinite(center)):
            raise ValueError(f"center: must be finite, got {center.tolist()}")
        if not 0 <= inner_radius < outer_radius < math.inf:
            raise ValueError(
                "radii: must satisfy 0 <= inner_radius < outer_radius < inf, "
                f"got {inner_radius}, {outer_radius}"
            )
        center.setflags(write=False)
        inner, outer = float(inner_radius), float(outer_radius)
        self.center = center
        self.dim = center.size
        self.inner_radius = inner
        self.outer_radius = outer
        if inner == 0.0:
            self.inscribed_radius = self.reflection_margin = outer
        else:
            self.inscribed_radius = 0.5 * (outer - inner)
            self.reflection_margin = min(inner, self.inscribed_radius)
        self._in2 = inner * inner
        self._out2 = outer * outer

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(center={self.center.tolist()}, "
            f"inner_radius={self.inner_radius}, outer_radius={self.outer_radius})"
        )

    def contains(self, x):
        """Exact membership test for the closed region (no tolerance): a
        numpy bool for one point, a bool array for the rows of a
        ``(B, dim)`` array. A point with a NaN is not a member."""
        rho2 = sq_norm(as_point(x, self.dim, rows=True) - self.center)
        return (self._in2 <= rho2) & (rho2 <= self._out2)

    def _point(self, x):
        """``x`` and the center: Python floats for a float at ``dim == 1``,
        whose IEEE operations give the bits of the ``(1,)`` call without
        numpy's per-call cost, float64 arrays (``as_point``) otherwise."""
        if type(x) is float and self.dim == 1:
            return x, self.center.item()
        return as_point(x, self.dim), self.center

    def project(self, x):
        """Nearest point of the region: an array for a point, a float for a
        Python float at ``dim == 1``, with the bits of the ``(1,)`` call.

        Members come back as the very same object when ``x`` is a float64
        array or a float, so ``project(x) is not x`` tells an exterior
        point without a second radius computation.
        """
        x, c = self._point(x)
        v = x - c
        rho2 = float(sq_norm(v))
        if self._in2 <= rho2 <= self._out2:
            return x
        if rho2 < self._in2:
            if rho2 == 0.0:
                # Non-unique minimizer at the exact center: deterministic
                # tie-break along the first canonical axis.
                p = self.center.copy()
                p[0] += self.inner_radius
                return p.item() if type(x) is float else p
            radius, r2, sign, toward = self.inner_radius, self._in2, -1.0, math.inf
        else:
            radius, r2, sign, toward = self.outer_radius, self._out2, 1.0, 0.0
            if rho2 == math.inf:
                # ``v`` may be finite with a squared norm that overflows:
                # scale it down first, or it would be sent to the center.
                v = v / float(np.max(np.abs(v)))
                rho2 = float(sq_norm(v))
        s = radius / math.sqrt(rho2)
        p = c + s * v
        w = p - c
        # Rounding can leave the scaled point an ulp short of the sphere it
        # was scaled onto (``sign`` flips the test for the inner one); nudge
        # the scale toward the region until the exact membership test holds.
        while sign * float(sq_norm(w)) > sign * r2:
            s = math.nextafter(s, toward)
            p = c + s * v
            w = p - c
        return p

    def reflect_or_project(self, x) -> tuple[np.ndarray | float, bool, bool]:
        """Constrain a point array of shape ``(dim,)``, or a Python float at
        ``dim == 1`` (as ``project``); returns ``(point, reflected, fallback)``.

        Members come back unchanged with both flags false. Exterior
        points are reflected to ``2 * project(x) - x``; when that lands
        outside the region (an overshoot beyond what the shape can
        absorb) the projection is returned instead with ``fallback`` set.
        """
        x, c = self._point(x)
        p = self.project(x)
        if p is x:
            return x, False, False
        r = 2.0 * p - x
        w = r - c  # the membership test of ``contains``, inline
        if self._in2 <= float(sq_norm(w)) <= self._out2:
            return r, True, False
        return p, False, True

    def reflect(self, x) -> tuple[np.ndarray, bool]:
        """Reflect ``x`` across its boundary projection point.

        Returns ``(2 * project(x) - x, True)`` for exterior points and
        ``(x, False)`` unchanged for members. Raises
        ``ReflectionUndefinedError`` when the reflected point would leave
        the region; any point within ``reflection_margin`` of the region
        is guaranteed to reflect successfully.
        """
        point, reflected, fallback = self.reflect_or_project(x)
        if fallback:
            raise ReflectionUndefinedError(
                f"reflecting a point at distance {self.distance_to_set(x):.6g} from "
                f"the region lands outside it (margin {self.reflection_margin:.6g} "
                "is always safe)"
            )
        return point, reflected

    def distance_to_set(self, x) -> float:
        """Euclidean distance to the region (0 for members); takes what
        ``project`` takes."""
        x, _ = self._point(x)
        d = x - self.project(x)
        return math.sqrt(float(sq_norm(d)))

    def sample_uniform(self, rng: np.random.Generator) -> np.ndarray:
        """Draw a point uniformly from the region.

        Uses one ``standard_normal(dim)`` draw for the direction followed
        by one ``random()`` draw for the radial inverse CDF, so the
        generator state advances deterministically.
        """
        v = rng.standard_normal(self.dim)
        n = math.sqrt(float(v.dot(v)))
        while n == 0.0:  # probability zero, but keep the contract total
            v = rng.standard_normal(self.dim)
            n = math.sqrt(float(v.dot(v)))
        d = self.dim
        if self.inner_radius == 0.0:
            # Not the shell formula at lo = 0: that rounds differently.
            r = self.outer_radius * rng.random() ** (1.0 / d)
        else:
            lo, hi = self.inner_radius**d, self.outer_radius**d
            r = (lo + rng.random() * (hi - lo)) ** (1.0 / d)
        return self.center + r * (v / n)


class Ball(FeasibleDomain):
    """Closed Euclidean ball ``{x : ||x - center|| <= radius}``."""

    def __init__(self, center, radius: float):
        if not 0 < radius < math.inf:
            raise ValueError(f"radius: must be positive and finite, got {radius}")
        super().__init__(center, 0.0, radius)


class SphericalShell(FeasibleDomain):
    """Closed region between two concentric spheres.

    Requires ``dim >= 2``: a one-dimensional shell is a disconnected pair
    of intervals, which breaks the connectivity every operator here
    relies on. The region is non-convex (the inner cavity is excluded)
    but its boundary is smooth.
    """

    def __init__(self, center, inner_radius: float, outer_radius: float):
        if np.size(center) < 2:
            raise ValueError(
                f"center: a spherical shell requires dimension >= 2, got {np.size(center)}")
        if not inner_radius > 0:
            raise ValueError(f"radii: a spherical shell needs inner_radius > 0, got {inner_radius}")
        super().__init__(center, inner_radius, outer_radius)
