"""Seeded reflected and projected Langevin chains.

There is one update, ``x' = x - eta grad f(x) + sqrt(2 eta / beta) xi``,
and a constraint operator that returns ``x'`` to the region when it
left it. The method picks the noise and the operator:

* ``rgld``: reflection across the boundary projection point
  (``FeasibleDomain.reflect_or_project``);
* ``pgld``: Euclidean projection (``FeasibleDomain.project``);
* ``pg``: projection with no noise (projected gradient descent).

The default noise is a Rademacher vector (i.i.d. +/-1 coordinates) whose
norm is exactly ``sqrt(d)``, which keeps per-step overshoot bounded;
Gaussian noise is retained as the conventional alternative.

Two loops run the update. ``run_batch`` advances the chains of one
method together on a ``(B, d)`` array (the objective's
``value_and_gradient`` takes the rows and gives each the bits of its
point call). ``run_chain`` runs a lone chain on one point. Both test
membership inline, with the bits of the region's ``contains``. Each
chain draws its noise from its own generator in blocks of steps. A lone
``rgld`` or ``pgld`` chain on a one-dimensional ``Quadratic`` (gibbs1d,
``_runs_on_floats``) carries only its iterate, a Python float: the
gradient, the update, the membership test and, at the walls, the
region's operators run on floats, whose IEEE double operations give the
bits of numpy's on ``(1,)`` arrays without its per-call cost; a block's
values are one ``value_many`` call on its iterates. ``pg`` and any
other objective take the array loop. Per step a lone chain costs
0.2-0.3 us on the 1-D quadratic, noise draw included (9-15 us as a
batch of one, so multi-seed runners run it alone), and 9-16 us on the
2-D mixture (14-15 us as a batch of one, 20-21 us for a batch of 20),
on one core of a 2-core x86-64 host. Both loops call the operator only
for points outside the region, write ``(B, steps)`` arrays (``B = 1``
for ``run_chain``) and hand them to ``_records``, which completes
early-stopped rows, rejects non-finite values, takes running minima and
builds each row's ``RunRecord``. A batched chain's record equals its
lone record bit for bit.

A record depends on the chain's seed only when the method draws noise
or the start point is drawn from the region
(``ChainConfig.depends_on_seed``); multi-seed runners compute a
seed-free chain once and hand its record to every seed. A noise-free
chain whose update returns the iterate bit for bit has reached a fixed
point: every later step would repeat it, so its loop stops there.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from rgld.geometry import FeasibleDomain
from rgld.objectives import Objective, Quadratic

__all__ = [
    "METHODS",
    "ChainConfig",
    "RunRecord",
    "ChainConfigError",
    "step_size_bound",
    "run_chain",
    "run_batch",
]

METHODS = ("rgld", "pgld", "pg")
NOISE_KINDS = ("rademacher", "gaussian")
# Steps of noise a chain draws at a time: the stream is the same
# as one draw of every step, without holding it all.
_NOISE_BLOCK = 4096


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

    @property
    def depends_on_seed(self) -> bool:
        """Whether the chain's record changes with ``seed``: only when the
        method draws noise or ``x0`` is drawn from the seeded generator."""
        return self.method != "pg" or self.x0 is None


@dataclass
class RunRecord:
    """Per-step statistics of one completed chain.

    ``f_value[k]`` is the objective at iterate ``k`` (``k = 0`` is the
    initial point) and ``cumulative_min`` its running minimum; both have
    length ``steps``. ``boundary_events[k]`` flags that the k-th update
    left the region and was constrained back; ``fallback_events`` flags
    the subset where reflection was undefined and projection was
    substituted. ``final_point`` is the iterate after the last step.
    ``computed_steps`` counts the updates the chain actually computed:
    all ``steps`` of them, unless a noise-free chain stopped at its fixed
    point and the rest of the record repeats it.

    The counts ``reflection_events``, ``projection_events`` and
    ``fallback_count`` are derived from the two event arrays and the
    method: an ``rgld`` event is a reflection or a fallback, any other
    method's event a projection.

    Seeds whose chains are identical (see ``ChainConfig.depends_on_seed``)
    may share one record's arrays, each under its own ``config``, so
    treat the arrays as read-only.
    """

    f_value: np.ndarray
    cumulative_min: np.ndarray
    boundary_events: np.ndarray
    fallback_events: np.ndarray
    computed_steps: int
    initial_point: np.ndarray
    final_point: np.ndarray
    trajectory: np.ndarray | None
    config: ChainConfig
    step_bound_satisfied: bool = True

    @property
    def steps(self) -> int:
        return self.f_value.shape[0]

    @property
    def fallback_count(self) -> int:
        return int(np.count_nonzero(self.fallback_events))

    @property
    def reflection_events(self) -> int:
        n = int(np.count_nonzero(self.boundary_events)) - self.fallback_count
        return n if self.config.method == "rgld" else 0

    @property
    def projection_events(self) -> int:
        n = int(np.count_nonzero(self.boundary_events))
        return 0 if self.config.method == "rgld" else n


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


def _validate(config: ChainConfig, obj: Objective, domain: FeasibleDomain) -> bool:
    if config.method not in METHODS:
        raise ChainConfigError(f"method: expected one of {METHODS}, got {config.method!r}")
    if not 0 < config.eta < math.inf:
        raise ChainConfigError(f"eta: must be positive and finite, got {config.eta}")
    if not math.isfinite(config.beta):
        raise ChainConfigError(f"beta: must be finite, got {config.beta}")
    if config.steps < 1:
        raise ChainConfigError(f"steps: must be at least 1, got {config.steps}")
    seed = config.seed
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ChainConfigError(f"seed: must be a non-negative integer, got {seed!r}")
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


def _start(config: ChainConfig, domain: FeasibleDomain):
    """The chain's generator and its start point, drawn before any noise."""
    rng = np.random.default_rng(config.seed)
    if config.x0 is None:
        return rng, domain.sample_uniform(rng)
    # Entry projection is shared by all methods so chains with equal seeds
    # stay coupled; it is not counted as a boundary event.
    return rng, domain.project(np.asarray(config.x0, dtype=np.float64))


def _runs_on_floats(config: ChainConfig, obj: Objective) -> bool:
    """Whether ``run_chain`` runs the chain on Python floats: a noisy
    chain on a one-dimensional ``Quadratic``."""
    return config.method != "pg" and obj.dim == 1 and type(obj) is Quadratic


def _reject_non_finite(configs, f_values: np.ndarray, finals: np.ndarray) -> None:
    """Raise ``ValueError`` naming the first chain, by row, with a
    non-finite value or final point, and its first non-finite iterate
    (``steps`` for the final point)."""
    if np.isfinite(f_values).all() and np.isfinite(finals).all():
        return
    for config, f, x in zip(configs, f_values, finals):
        bad = np.flatnonzero(~np.isfinite(f))
        if bad.size or not np.isfinite(x).all():
            step = int(bad[0]) if bad.size else f.shape[0]
            raise ValueError(
                f"{config.method} chain, seed {config.seed}: iterate {step} is not "
                f"finite; eta={config.eta} is too large for this objective"
            )


def _records(configs, bounds, starts, finals, f_vals, events, fallbacks, traj,
             computed) -> list[RunRecord]:
    """The records of a step loop's ``(B, steps)`` arrays, row ``b`` for
    ``configs[b]``. A row that stopped at its fixed point after
    ``computed[b]`` updates repeats its last value, event flag and point.
    """
    n = f_vals.shape[1]
    for b, c in enumerate(computed):
        if c < n:
            f_vals[b, c:] = f_vals[b, c - 1]
            events[b, c:] = events[b, c - 1]
            if traj is not None:
                traj[b, c:] = finals[b]
    _reject_non_finite(configs, f_vals, finals)
    cummins = np.minimum.accumulate(f_vals, axis=1)
    return [
        RunRecord(
            f_value=f_vals[b],
            cumulative_min=cummins[b],
            boundary_events=events[b],
            fallback_events=fallbacks[b],
            computed_steps=int(computed[b]),
            initial_point=starts[b],
            final_point=finals[b],
            trajectory=None if traj is None else traj[b],
            config=config,
            step_bound_satisfied=bounds[b],
        )
        for b, config in enumerate(configs)
    ]


def run_chain(config: ChainConfig, obj: Objective, domain: FeasibleDomain) -> RunRecord:
    """Execute a chain and collect its per-step record.

    The run is bitwise deterministic given ``(config, obj, domain)``.
    Exactly one noise vector is consumed per step, drawn from the seeded
    generator before the step; ``pg`` consumes none. ``f_value`` holds
    the objective at iterates ``0 .. steps-1`` and ``final_point`` the
    iterate after the last step, so ``cumulative_min[-1]`` is the best
    value seen over the first ``steps`` iterates. A noise-free chain
    stops computing at its first fixed point (an update that returns the
    iterate bit for bit) and fills the rest of the record with it, which
    gives the same record as running every step. A chain whose values
    or final point are not finite raises ``ValueError`` naming the
    method, the seed and the first non-finite iterate.
    """
    bound_ok = _validate(config, obj, domain)
    rng, x = _start(config, domain)
    x0 = x.copy()

    n, d = config.steps, domain.dim
    is_rgld = config.method == "rgld"
    scale = None if config.method == "pg" else math.sqrt(2.0 * config.eta / config.beta)

    # The scaled noise of the block from step ``a``. pg adds -0.0, the
    # identity of IEEE addition (+0.0 turns -0.0 into 0.0).
    def kicks(a):
        m = min(_NOISE_BLOCK, n - a)
        if scale is None:
            return np.full((m, d), -0.0)
        block = _noise_matrix(rng, m, d, config.noise)
        block *= scale
        return block

    # A batch of one for ``_records``; the loop writes through row views.
    f_vals = np.empty((1, n), dtype=np.float64)
    events = np.zeros((1, n), dtype=bool)
    fallbacks = np.zeros((1, n), dtype=bool)
    traj = np.empty((1, n, d), dtype=np.float64) if config.record_trajectory else None
    f_row, event_row, fallback_row = f_vals[0], events[0], fallbacks[0]
    traj_row = None if traj is None else traj[0]

    value_and_gradient = obj.value_and_gradient
    reflect_or_project = domain.reflect_or_project
    project = domain.project
    # The membership test of ``contains``, inline: only points outside the
    # region pay for the operator's call. At the origin ``x - center`` has
    # the squared norm of ``x`` bit for bit, so the subtraction is skipped.
    center = domain.center if domain.center.any() else None
    in2 = domain.inner_radius * domain.inner_radius
    out2 = domain.outer_radius * domain.outer_radius
    computed = n
    if _runs_on_floats(config, obj):
        # The step carries only the iterate, a float. The gradient is the
        # quadratic's ``scale * x``; the operators take the float at the
        # walls. A block's values are one rows call, which gives each the
        # bits of its point call.
        c, xf, eta, q = domain.center.item(), x.item(), config.eta, obj.scale
        for a in range(0, n, _NOISE_BLOCK):
            xs = []
            for k, kick in enumerate(kicks(a)[:, 0].tolist(), a):
                xs.append(xf)
                x_raw = xf - eta * (q * xf) + kick
                v = x_raw - c
                if in2 <= v * v <= out2:
                    xf = x_raw
                else:
                    event_row[k] = True
                    if is_rgld:
                        xf, _, fallback_row[k] = reflect_or_project(x_raw)
                    else:
                        xf = project(x_raw)
            X = np.array(xs)[:, None]
            f_row[a:a + len(xs)] = obj.value_many(X)
            if traj_row is not None:
                traj_row[a:a + len(xs)] = X
        x = np.array([xf])
    else:
        # A 0-d array multiplies a point with less call overhead than a
        # float, and gives the same bits.
        eta = np.array(config.eta)
        x_bytes = x.tobytes() if scale is None else None
        for a in range(0, n, _NOISE_BLOCK):
            for k, kick in enumerate(kicks(a), a):
                fx, g = value_and_gradient(x)
                f_row[k] = fx
                if traj_row is not None:
                    traj_row[k] = x
                x_raw = x - eta * g + kick
                v = x_raw if center is None else x_raw - center
                if in2 <= v.dot(v) <= out2:
                    x = x_raw
                else:
                    event_row[k] = True
                    if is_rgld:
                        x, _, fallback_row[k] = reflect_or_project(x_raw)
                    else:
                        x = project(x_raw)
                if x_bytes is not None:
                    # Bytes, not ``==``: -0.0 equals 0.0 but need not repeat
                    # the same later bits.
                    new_bytes = x.tobytes()
                    if new_bytes == x_bytes:
                        computed = k + 1
                        break
                    x_bytes = new_bytes
            if computed < n:
                break
    return _records([config], [bound_ok], x0[None], x[None], f_vals, events,
                    fallbacks, traj, [computed])[0]


def run_batch(configs, obj: Objective, domain: FeasibleDomain) -> list[RunRecord]:
    """Execute chains of one method together; returns one record per config.

    The configs must agree on every field but ``seed`` and ``x0``. Record
    ``i`` equals ``run_chain(configs[i], obj, domain)`` bit for bit, and
    the records' arrays are rows of shared ``(B, steps)`` arrays. Each
    update is computed for all rows at once; a row that left the region
    is constrained by the scalar operator. A noise-free row leaves the
    batch at its first fixed point, as ``run_chain`` stops there.
    """
    configs = list(configs)
    if not configs:
        raise ValueError("configs: a batch needs at least one chain")
    bounds = [_validate(c, obj, domain) for c in configs]
    first = configs[0]
    for field in ("method", "eta", "beta", "steps", "noise", "record_trajectory"):
        values = [getattr(c, field) for c in configs]
        if any(v != values[0] for v in values):
            raise ChainConfigError(f"{field}: a batch needs one value, got {values}")
    rngs, starts = zip(*(_start(c, domain) for c in configs))

    B, n, d = len(configs), first.steps, domain.dim
    method, eta = first.method, first.eta
    is_rgld, noisy = method == "rgld", method != "pg"
    scale = math.sqrt(2.0 * eta / first.beta) if noisy else 0.0
    f_vals = np.empty((B, n), dtype=np.float64)
    events = np.zeros((B, n), dtype=bool)
    fallbacks = np.zeros((B, n), dtype=bool)
    traj = np.empty((B, n, d), dtype=np.float64) if first.record_trajectory else None
    computed = np.full(B, n)
    x = np.array(starts)
    x0 = x.copy()
    finals = np.empty_like(x)
    # Chains still computing, by row of ``x``. Only noise-free rows leave;
    # until one does, ``live`` writes the records' columns through views.
    rows = np.arange(B)
    live = slice(None)

    value_and_gradient = obj.value_and_gradient
    reflect_or_project = domain.reflect_or_project
    project = domain.project
    # The membership test of ``contains``, inline as in ``run_chain``: one
    # scalar check clears a step whose rows are all inside (a NaN fails
    # it), and only rows outside the region pay for the operator's call.
    center = domain.center if domain.center.any() else None
    in2 = domain.inner_radius * domain.inner_radius
    out2 = domain.outer_radius * domain.outer_radius
    for k in range(n):
        fx, g = value_and_gradient(x)
        f_vals[live, k] = fx
        if traj is not None:
            traj[live, k] = x
        if noisy:
            j = k % _NOISE_BLOCK
            if j == 0:
                m = min(_NOISE_BLOCK, n - k)
                noise = np.empty((m, B, d))
                for i, r in enumerate(rngs):
                    noise[:, i] = _noise_matrix(r, m, d, first.noise)
                noise *= scale
            x_raw = x - eta * g + noise[j]
        else:
            x_raw = x - eta * g
        v = x_raw if center is None else x_raw - center
        rho2 = np.vecdot(v, v)
        if not (in2 <= rho2.min() and rho2.max() <= out2):
            for i in np.flatnonzero(~((in2 <= rho2) & (rho2 <= out2))).tolist():
                b = rows[i]
                events[b, k] = True
                if is_rgld:
                    x_raw[i], _, fallbacks[b, k] = reflect_or_project(x_raw[i])
                else:
                    x_raw[i] = project(x_raw[i])
        if not noisy:
            # Bytes, not ``==``, as in ``run_chain``.
            fixed = (x_raw.view(np.int64) == x.view(np.int64)).all(axis=1)
            if fixed.any():
                done = rows[fixed]
                computed[done] = k + 1
                finals[done] = x_raw[fixed]
                x_raw, rows = x_raw[~fixed], rows[~fixed]
                live = rows
        x = x_raw
        if not rows.size:
            break
    finals[rows] = x
    return _records(configs, bounds, x0, finals, f_vals, events, fallbacks, traj, computed)
