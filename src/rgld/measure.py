"""Quadrature oracle for the Gibbs target density and comparison tools.

The stationary law of the constrained Langevin diffusion has density
proportional to ``exp(-beta * f)`` restricted to the feasible region.
On one- and two-dimensional domains that density is representable by
midpoint-rule quadrature on a tensor grid, giving a deterministic
reference against which a chain's cell counts (``bin_samples``) can be
scored with total variation distance. The midpoint rule (rather than
Monte Carlo) makes convergence under grid refinement directly testable.

Cells are classified in/out of the region by their midpoint, so boundary
cells are approximated; at 128+ cells per axis that error is far below
the total variation tolerances used in the tests. The harness writes the
cells as CSV (``rgld.harness.export_cells_csv``).
"""

from __future__ import annotations

import math

import numpy as np

from rgld.geometry import FeasibleDomain
from rgld.objectives import Objective

__all__ = [
    "GibbsOracle",
    "bin_samples",
    "gibbs_mean_f",
    "tv_distance",
    "total_variation",
    "near_optimality_bound",
]

MIN_CELLS_PER_AXIS = 32

# The most grid cells, ``n_per_axis ** dim``: at this bound gm2d's oracle
# and its CSV peak at 113 MB of RSS, about 80 bytes a cell.
MAX_CELLS = 1 << 20

# Midpoints per ``value_many`` call: the mixture's temporaries (25 offsets
# a point) stay a few MB whatever the grid.
_ROWS = 1 << 14


class GibbsOracle:
    """Midpoint-rule representation of ``exp(-beta f) / Z`` on a domain.

    The grid spans the domain's bounding box with ``n_per_axis`` cells
    per axis; cells whose midpoint falls outside the region carry zero
    probability. Restricted to dimension 1 or 2, and to ``MAX_CELLS``
    cells, because the cell count grows as ``n_per_axis ** dim``.

    Attributes
    ----------
    edges : tuple of ndarray
        Cell edges per axis (each of length ``n_per_axis + 1``).
    midpoints : ndarray
        Flattened cell midpoints, shape ``(n_cells, dim)``.
    in_domain : ndarray of bool
        Midpoint membership per cell.
    f_values : ndarray
        Objective at each midpoint.
    probabilities : ndarray
        Normalized cell probabilities (sum to 1).
    normalizing_constant : float
        Quadrature estimate of ``integral exp(-beta f)`` over the region.
    """

    def __init__(
        self,
        objective: Objective,
        domain: FeasibleDomain,
        beta: float,
        n_per_axis: int,
    ):
        if domain.dim > 2:
            raise ValueError(f"dim: the quadrature oracle supports dimension 1 or 2 only, "
                             f"got {domain.dim}")
        if objective.dim != domain.dim:
            raise ValueError(
                f"dimension: objective dimension {objective.dim} does not match domain "
                f"dimension {domain.dim}"
            )
        if n_per_axis < MIN_CELLS_PER_AXIS:
            raise ValueError(
                f"n_per_axis: must be at least {MIN_CELLS_PER_AXIS}, got {n_per_axis}"
            )
        if n_per_axis ** domain.dim > MAX_CELLS:
            raise ValueError(f"n_per_axis: {n_per_axis} per axis in {domain.dim} "
                             f"dimensions is more than {MAX_CELLS} cells")
        if not 0 <= beta < math.inf:
            raise ValueError(f"beta: must be non-negative and finite, got {beta}")
        self.objective = objective
        self.domain = domain
        self.beta = float(beta)
        self.n_per_axis = int(n_per_axis)

        lo = domain.center - domain.outer_radius
        hi = domain.center + domain.outer_radius
        self.edges = tuple(
            np.linspace(lo[i], hi[i], n_per_axis + 1) for i in range(domain.dim)
        )
        mids = np.meshgrid(*[0.5 * (e[:-1] + e[1:]) for e in self.edges], indexing="ij")
        self.midpoints = np.column_stack([m.ravel() for m in mids])
        self.shape = mids[0].shape
        self.cell_volume = float(np.prod((hi - lo) / n_per_axis))

        self.in_domain = domain.contains(self.midpoints)
        if not self.in_domain.any():
            raise ValueError("n_per_axis: no cell midpoint lies in the region")
        # Each row of a rows call has its point call's bits, so blocks of
        # rows give the bits of one call.
        self.f_values = np.concatenate([objective.value_many(self.midpoints[a:a + _ROWS])
                                        for a in range(0, self.n_cells, _ROWS)])

        # Shifted exponent keeps the weights finite for large beta * f.
        f_min = float(np.min(self.f_values[self.in_domain]))
        w = np.where(
            self.in_domain, np.exp(-self.beta * (self.f_values - f_min)), 0.0
        )
        w_sum = float(np.sum(w))
        self.probabilities = w / w_sum
        self.normalizing_constant = math.exp(-self.beta * f_min) * w_sum * self.cell_volume

    @property
    def n_cells(self) -> int:
        return self.midpoints.shape[0]


def bin_samples(oracle: GibbsOracle, samples) -> np.ndarray:
    """The number of points in each of the oracle's cells, shape
    ``(n_cells,)``.

    ``samples`` has shape ``(n,)`` for one-dimensional domains or
    ``(n, dim)`` otherwise. Points on or beyond the outermost edges are
    clipped into the outermost cells (feasible samples are always inside
    the bounding box, so clipping only absorbs boundary rounding).
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim == 1:
        samples = samples[:, None]
    if samples.ndim != 2 or samples.shape[1] != len(oracle.edges):
        raise ValueError(
            f"samples must have shape (n, {len(oracle.edges)}), got {samples.shape}"
        )
    n = oracle.n_per_axis
    idx = []
    for axis, e in enumerate(oracle.edges):
        width = (e[-1] - e[0]) / n
        i = np.floor((samples[:, axis] - e[0]) / width).astype(np.int64)
        idx.append(np.clip(i, 0, n - 1))
    flat = np.ravel_multi_index(tuple(idx), oracle.shape)
    return np.bincount(flat, minlength=oracle.n_cells)


def total_variation(p, q) -> float:
    """``0.5 * sum |p - q|`` for two probability vectors of equal shape."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError("probability vectors must share a shape")
    return 0.5 * float(np.sum(np.abs(p - q)))


def tv_distance(counts, oracle: GibbsOracle) -> float:
    """Total variation between the frequencies of the oracle's cell counts
    (``bin_samples``) and its probabilities."""
    counts = np.asarray(counts)
    if counts.shape != (oracle.n_cells,):
        raise ValueError(f"counts: expected {oracle.n_cells} cells, got shape {counts.shape}")
    total = counts.sum()
    if not total > 0:
        raise ValueError("counts: no sample")
    return total_variation(counts / total, oracle.probabilities)


def gibbs_mean_f(oracle: GibbsOracle) -> float:
    """Expectation of the objective under the oracle's cell probabilities."""
    return float(oracle.probabilities @ oracle.f_values)


def near_optimality_bound(d: int, beta: float, r: float, R: float, L: float) -> float:
    """Upper bound on the gap between the Gibbs mean of f and its minimum.

    ``(d / beta) * log(2 R max(2 / r, L beta (r + sqrt(r^2 + R^2)) / (r log 2)))``
    for a region containing a ball of radius ``r`` and contained in one of
    radius ``R``, with ``L`` a Lipschitz constant of the objective. Since
    ``r <= R`` for any feasible geometry the argument of the log is at
    least 4, so the bound is positive whenever the inputs are valid.
    """
    for name, v in (("d", d), ("beta", beta), ("r", r), ("R", R), ("L", L)):
        if not v > 0:
            raise ValueError(f"{name} must be positive, got {v}")
    arg = 2.0 * R * max(2.0 / r, L * beta * (r + math.sqrt(r * r + R * R)) / (r * math.log(2.0)))
    return (d / beta) * math.log(arg)
