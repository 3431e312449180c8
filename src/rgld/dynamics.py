"""Sampler kernels and the deterministic seeded chain runner.

Three methods share one update skeleton: a gradient step, an optional
scaled noise kick, and a constraint operator that returns the iterate to
the feasible region.

* ``rgld``: Langevin step followed by reflection across the boundary
  projection point.
* ``pgld``: the same step followed by Euclidean projection.
* ``pg``: plain projected gradient descent, no noise.

The default noise is a Rademacher vector (i.i.d. +/-1 coordinates) whose
norm is exactly ``sqrt(d)``, which keeps per-step overshoot bounded;
Gaussian noise is retained as the conventional alternative for the
projected variant.

One chain is strictly sequential. Distinct chains share no mutable state
(each owns its generator), so any number may run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from rgld.geometry import FeasibleDomain
from rgld.objectives import Objective

__all__ = [
    "METHODS",
    "ChainConfig",
    "RunRecord",
    "ChainConfigError",
    "rademacher_vector",
    "step_size_bound",
    "rgld_step",
    "pgld_step",
    "pg_step",
    "run_chain",
]

METHODS = ("rgld", "pgld", "pg")
NOISE_KINDS = ("rademacher", "gaussian")


class ChainConfigError(ValueError):
    """Invalid chain configuration, reported before any step executes.
    The message starts with the offending field name."""


@dataclass
class ChainConfig:
    """All hyperparameters of one chain.

    ``beta`` and ``noise`` are ignored by ``pg``. ``x0 = None`` requests
    a uniform draw from the domain using the chain's own generator (the
    draw happens before any noise is generated, so methods sharing a
    seed also share the initial point). An ``x0`` outside the region but
    within its reflection margin is projected onto the region before the
    first step; anything farther out is rejected.

    ``enforce_step_bound`` controls the conservative admissibility check
    ``eta * L + sqrt(2 eta d / beta) <= reflection_margin`` (``L`` from
    ``lipschitz_bounds``), which guarantees reflection can never be
    undefined. The bound is worst-case over the whole domain; benchmark
    presets whose published hyperparameters violate it run with the
    check disabled and rely on the per-step projection fallback, whose
    firing count is reported in ``RunRecord.fallback_count``.
    """

    method: str
    eta: float
    beta: float = 1.0
    steps: int = 10_000
    seed: int = 0
    noise: str = "rademacher"
    x0: np.ndarray | None = None
    record_trajectory: bool = False
    enforce_step_bound: bool = True


@dataclass
class RunRecord:
    """Per-step statistics of one completed chain.

    ``f_value[k]`` is the objective at iterate ``k`` (``k = 0`` is the
    initial point) and ``cumulative_min`` its running minimum; both have
    length ``steps``. ``boundary_events[k]`` flags that the k-th update
    left the region and was constrained back; ``fallback_events`` flags
    the subset where reflection was undefined and projection was
    substituted. ``final_point`` is the iterate after the last step.
    """

    f_value: np.ndarray
    cumulative_min: np.ndarray
    boundary_events: np.ndarray
    fallback_events: np.ndarray
    reflection_events: int
    projection_events: int
    fallback_count: int
    initial_point: np.ndarray
    final_point: np.ndarray
    trajectory: np.ndarray | None
    config: ChainConfig
    step_bound_satisfied: bool = True

    @property
    def steps(self) -> int:
        return self.f_value.shape[0]


def rademacher_vector(rng: np.random.Generator, d: int) -> np.ndarray:
    """One vector of i.i.d. +/-1 coordinates, each sign with probability 1/2."""
    if d < 1:
        raise ValueError("d must be at least 1")
    return rng.integers(0, 2, size=d).astype(np.float64) * 2.0 - 1.0


def _noise_matrix(rng: np.random.Generator, n: int, d: int, kind: str) -> np.ndarray:
    if kind == "rademacher":
        return rng.integers(0, 2, size=(n, d)).astype(np.float64) * 2.0 - 1.0
    return rng.standard_normal((n, d))


def step_size_bound(
    obj: Objective, domain: FeasibleDomain, eta: float, beta: float
) -> float:
    """Worst-case distance an update can overshoot the region.

    ``eta * L + sqrt(2 eta d / beta)`` with ``L`` the gradient-norm bound
    from ``lipschitz_bounds``. Reflection is guaranteed well-defined
    whenever this is at most the domain's reflection margin.
    """
    L, _ = obj.lipschitz_bounds(domain)
    return eta * L + math.sqrt(2.0 * eta * domain.dim / beta)


def _constrain_project(
    domain: FeasibleDomain, x_raw: np.ndarray
) -> tuple[np.ndarray, bool]:
    if domain.contains(x_raw):
        return x_raw, False
    return domain.project(x_raw), True


def rgld_step(
    x, obj: Objective, domain: FeasibleDomain, eta: float, beta: float, xi
) -> tuple[np.ndarray, bool, bool]:
    """One reflected Langevin update from a feasible point.

    Computes ``x' = x - eta grad f(x) + sqrt(2 eta / beta) xi`` and
    reflects it into the region. Returns ``(point, reflected, fallback)``
    where ``fallback`` flags the rare case that ``x'`` overshot the
    reflection margin and projection was substituted.
    """
    x = np.asarray(x, dtype=np.float64)
    xi = np.asarray(xi, dtype=np.float64)
    x_raw = x - eta * obj.gradient(x) + math.sqrt(2.0 * eta / beta) * xi
    return domain.reflect_or_project(x_raw)


def pgld_step(
    x, obj: Objective, domain: FeasibleDomain, eta: float, beta: float, xi
) -> tuple[np.ndarray, bool]:
    """One projected Langevin update; returns ``(point, projected)``."""
    x = np.asarray(x, dtype=np.float64)
    xi = np.asarray(xi, dtype=np.float64)
    x_raw = x - eta * obj.gradient(x) + math.sqrt(2.0 * eta / beta) * xi
    return _constrain_project(domain, x_raw)

def pg_step(x, obj: Objective, domain: FeasibleDomain, eta: float) -> np.ndarray:
    """One projected gradient descent update."""
    x = np.asarray(x, dtype=np.float64)
    return _constrain_project(domain, x - eta * obj.gradient(x))[0]


def _validate(config: ChainConfig, obj: Objective, domain: FeasibleDomain) -> bool:
    if config.method not in METHODS:
        raise ChainConfigError(f"method: expected one of {METHODS}, got {config.method!r}")
    if not 0 < config.eta < math.inf:
        raise ChainConfigError(f"eta: must be positive and finite, got {config.eta}")
    if not math.isfinite(config.beta):
        raise ChainConfigError(f"beta: must be finite, got {config.beta}")
    if config.steps < 1:
        raise ChainConfigError(f"steps: must be at least 1, got {config.steps}")
    if obj.dim != domain.dim:
        raise ChainConfigError(
            f"dimension: objective dimension {obj.dim} does not match domain "
            f"dimension {domain.dim}"
        )
    needs_noise = config.method != "pg"
    if needs_noise:
        if not config.beta > 0:
            raise ChainConfigError(f"beta: must be positive, got {config.beta}")
        if config.noise not in NOISE_KINDS:
            raise ChainConfigError(
                f"noise: expected one of {NOISE_KINDS}, got {config.noise!r}"
            )
    if config.x0 is not None:
        x0 = np.asarray(config.x0, dtype=np.float64)
        if x0.shape != (domain.dim,):
            raise ChainConfigError(
                f"x0: expected shape ({domain.dim},), got {x0.shape}"
            )
        if not np.all(np.isfinite(x0)):
            raise ChainConfigError(f"x0: must be finite, got {x0}")
        dist = domain.distance_to_set(x0)
        if dist > domain.reflection_margin:
            raise ChainConfigError(
                f"x0: point at distance {dist:.6g} from the region exceeds the "
                f"reflection margin {domain.reflection_margin:.6g}"
            )
    bound_ok = True
    if needs_noise:
        bound_ok = (
            step_size_bound(obj, domain, config.eta, config.beta)
            <= domain.reflection_margin
        )
        if not bound_ok and config.enforce_step_bound:
            raise ChainConfigError(
                "eta: step-size bound eta*L + sqrt(2*eta*d/beta) exceeds the "
                "reflection margin; reduce eta or set enforce_step_bound=False "
                "to accept the projection fallback explicitly"
            )
    return bound_ok


def run_chain(config: ChainConfig, obj: Objective, domain: FeasibleDomain) -> RunRecord:
    """Execute a chain and collect its per-step record.

    The run is bitwise deterministic given ``(config, obj, domain)``.
    Exactly one noise vector is consumed per step, drawn from the seeded
    generator before the step; ``pg`` consumes none. ``f_value`` holds
    the objective at iterates ``0 .. steps-1`` and ``final_point`` the
    iterate after the last step, so ``cumulative_min[-1]`` is the best
    value seen over the first ``steps`` iterates.
    """
    bound_ok = _validate(config, obj, domain)
    rng = np.random.default_rng(config.seed)
    if config.x0 is None:
        x = domain.sample_uniform(rng)
    else:
        # Entry projection is shared by all methods so chains with equal
        # seeds stay coupled; it is not counted as a boundary event.
        x = domain.project(np.asarray(config.x0, dtype=np.float64))
    x0 = x.copy()

    n, d = config.steps, domain.dim
    method = config.method
    is_rgld = method == "rgld"
    if method == "pg":
        noise = None
    else:
        noise = _noise_matrix(rng, n, d, config.noise)
        noise *= math.sqrt(2.0 * config.eta / config.beta)
    eta = config.eta

    f_vals = np.empty(n, dtype=np.float64)
    events = np.zeros(n, dtype=bool)
    fallbacks = np.zeros(n, dtype=bool)
    traj = np.empty((n, d), dtype=np.float64) if config.record_trajectory else None
    n_reflect = n_project = n_fallback = 0

    value_and_gradient = obj.value_and_gradient
    reflect_or_project = domain.reflect_or_project
    for k in range(n):
        fx, g = value_and_gradient(x)
        f_vals[k] = fx
        if traj is not None:
            traj[k] = x
        if noise is None:
            x_raw = x - eta * g
        else:
            x_raw = x - eta * g + noise[k]
        if is_rgld:
            x, reflected, fell_back = reflect_or_project(x_raw)
            if reflected:
                n_reflect += 1
                events[k] = True
            elif fell_back:
                n_fallback += 1
                events[k] = True
                fallbacks[k] = True
        else:
            x, projected = _constrain_project(domain, x_raw)
            if projected:
                n_project += 1
                events[k] = True

    return RunRecord(
        f_value=f_vals,
        cumulative_min=np.minimum.accumulate(f_vals),
        boundary_events=events,
        fallback_events=fallbacks,
        reflection_events=n_reflect,
        projection_events=n_project,
        fallback_count=n_fallback,
        initial_point=x0,
        final_point=x,
        trajectory=traj,
        config=config,
        step_bound_satisfied=bound_ok,
    )
