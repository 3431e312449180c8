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

Two loops run the update. ``run_batch`` takes one config and a list of
seeds and advances its chains, one per seed, together on a ``(B, d)``
array (the objective's ``value_and_gradient`` takes the rows and gives
each the bits of its point call), tests membership inline, with the bits
of the region's ``contains``, and calls the operator only for rows
outside the region.
``run_chain`` runs a lone chain as a batch of one, except a lone
``rgld`` or ``pgld`` chain on a one-dimensional ``Quadratic`` (gibbs1d,
``_runs_on_floats``), which carries only its iterate, a Python float:
the gradient, the update, the membership test and, at the walls, the
region's operators run on floats, whose IEEE double operations give the
bits of numpy's on ``(1,)`` arrays without its per-call cost; a block's
values are one ``value_many`` call on its iterates. Each chain draws its
noise from its own generator in blocks of steps. Per step, on one core
of a 2-core x86-64 host, the float loop costs 0.2 us with its noise
draw (5 us as a batch of one, so multi-seed runners run such chains
alone), and a chain on the 2-D mixture 10 us as a batch of one and
14 us for a batch of 20. Both loops write ``(B, steps)`` arrays and
hand them to ``_records``, which completes early-stopped rows, rejects
non-finite values (so numpy's overflow and invalid-value warnings are
off in the loops), takes running minima and builds each row's
``RunRecord``. A chain's record is the same bit for bit whatever batch
it runs in.

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
from dataclasses import dataclass, replace
from itertools import chain, repeat

import numpy as np

from rgld.geometry import FeasibleDomain
from rgld.objectives import Objective, Quadratic, check_dimension

__all__ = [
    "METHODS",
    "MAX_STEPS",
    "ChainConfig",
    "RunRecord",
    "step_size_bound",
    "run_chain",
    "run_batch",
]

METHODS = ("rgld", "pgld", "pg")
NOISE_KINDS = ("rademacher", "gaussian")
# The longest chain: a chain's record holds 18 bytes per step (value,
# running minimum and two flags), 18 GB at this bound.
MAX_STEPS = 10**9
# Steps of noise a chain draws at a time: the stream is the same
# as one draw of every step, without holding it all.
_NOISE_BLOCK = 4096


@dataclass(frozen=True)
class ChainConfig:
    """All hyperparameters of one chain; frozen (vary it with ``replace``).

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


def _kicks(rng: np.random.Generator, n: int, d: int, config: ChainConfig) -> np.ndarray:
    """``n`` steps of a noisy chain's noise, scaled by ``sqrt(2 eta / beta)``."""
    if config.noise == "rademacher":
        xi = rng.integers(0, 2, size=(n, d)).astype(np.float64) * 2.0 - 1.0
    else:
        xi = rng.standard_normal((n, d))
    xi *= math.sqrt(2.0 * config.eta / config.beta)
    return xi


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


def _validate(config: ChainConfig, seeds, obj: Objective, domain: FeasibleDomain) -> bool:
    """Check a batch, the chain ``config`` describes for each of ``seeds``,
    before its first step; return whether the step-size bound holds.

    The config is checked once, then the seeds as integers in
    ``[0, 2**64)``, then ``x0``, and last the step-size bound, with one
    ``lipschitz_bounds`` call. A message starts with the field at fault.
    """
    if config.method not in METHODS:
        raise ValueError(f"method: expected one of {METHODS}, got {config.method!r}")
    if not 0 < config.eta < math.inf:
        raise ValueError(f"eta: must be positive and finite, got {config.eta}")
    if not math.isfinite(config.beta):
        raise ValueError(f"beta: must be finite, got {config.beta}")
    if config.steps < 1:
        raise ValueError(f"steps: must be at least 1, got {config.steps}")
    if config.steps > MAX_STEPS:
        raise ValueError(f"steps: must be at most {MAX_STEPS}, got {config.steps}")
    check_dimension(obj, domain)
    needs_noise = config.method != "pg"
    if needs_noise:
        if not config.beta > 0:
            raise ValueError(f"beta: must be positive, got {config.beta}")
        if config.noise not in NOISE_KINDS:
            raise ValueError(f"noise: expected one of {NOISE_KINDS}, got {config.noise!r}")
    if not seeds:
        raise ValueError("seeds: a batch needs at least one seed")
    # One type test per type, not per seed: ``min`` then orders integers.
    if any(t is bool or not issubclass(t, numbers.Integral)
           for t in {type(s) for s in seeds}) or min(seeds) < 0:
        seed = next(s for s in seeds if isinstance(s, bool)
                    or not isinstance(s, numbers.Integral) or s < 0)
        raise ValueError(f"seed: must be a non-negative integer, got {seed!r}")
    if max(seeds) >= 2**64:
        raise ValueError(f"seed: must be below 2**64, got {max(seeds)}")
    if config.x0 is not None:
        x0 = np.asarray(config.x0, dtype=np.float64)
        if x0.shape != (domain.dim,):
            raise ValueError(f"x0: expected shape ({domain.dim},), got {x0.shape}")
        if not np.all(np.isfinite(x0)):
            raise ValueError(f"x0: must be finite, got {x0}")
        dist = domain.distance_to_set(x0)
        if dist > domain.reflection_margin:
            raise ValueError(
                f"x0: point at distance {dist:.6g} from the region exceeds the "
                f"reflection margin {domain.reflection_margin:.6g}"
            )
    bound_ok = not needs_noise or (step_size_bound(obj, domain, config.eta, config.beta)
                                   <= domain.reflection_margin)
    if not bound_ok and config.enforce_step_bound:
        raise ValueError(
            "eta: step-size bound eta*L + sqrt(2*eta*d/beta) exceeds the "
            "reflection margin; reduce eta or set enforce_step_bound=False "
            "to accept the projection fallback explicitly"
        )
    return bound_ok


def _start(config: ChainConfig, seed: int, domain: FeasibleDomain):
    """The generator of the chain with ``seed`` and its start point, drawn
    before any noise."""
    rng = np.random.default_rng(seed)
    if config.x0 is None:
        return rng, domain.sample_uniform(rng)
    # Entry projection is shared by all methods so chains with equal seeds
    # stay coupled; it is not counted as a boundary event.
    return rng, domain.project(np.asarray(config.x0, dtype=np.float64))


def _runs_on_floats(config: ChainConfig, obj: Objective) -> bool:
    """Whether ``run_chain`` runs the chain on Python floats: a noisy
    chain on a one-dimensional ``Quadratic``."""
    return config.method != "pg" and obj.dim == 1 and type(obj) is Quadratic


def _reject_non_finite(config, seeds, f_values: np.ndarray, finals: np.ndarray) -> None:
    """Raise ``ValueError`` naming the first chain, by row, with a
    non-finite value or final point, and its first non-finite iterate
    (``steps`` for the final point)."""
    if np.isfinite(f_values).all() and np.isfinite(finals).all():
        return
    for seed, f, x in zip(seeds, f_values, finals):
        bad = np.flatnonzero(~np.isfinite(f))
        if bad.size or not np.isfinite(x).all():
            step = int(bad[0]) if bad.size else f.shape[0]
            raise ValueError(
                f"{config.method} chain, seed {seed}: iterate {step} is not "
                f"finite; eta={config.eta} is too large for this objective"
            )


def _arrays(B: int, n: int, d: int, trajectory: bool):
    """A step loop's ``(B, n)`` values, event and fallback flags, and its
    ``(B, n, d)`` trajectory when ``trajectory`` is set, else None."""
    return (np.empty((B, n)), np.zeros((B, n), dtype=bool), np.zeros((B, n), dtype=bool),
            np.empty((B, n, d)) if trajectory else None)


def _records(config, seeds, bound_ok, starts, finals, f_vals, events, fallbacks, traj,
             computed) -> list[RunRecord]:
    """The records of a step loop's ``(B, steps)`` arrays, row ``b`` for
    ``seeds[b]`` under ``config`` with that seed, each with the batch's
    ``bound_ok``. A row that stopped at its fixed point after
    ``computed[b]`` updates repeats its last value, event flag and point.
    """
    n = f_vals.shape[1]
    for b, c in enumerate(computed):
        if c < n:
            f_vals[b, c:] = f_vals[b, c - 1]
            events[b, c:] = events[b, c - 1]
            if traj is not None:
                traj[b, c:] = finals[b]
    _reject_non_finite(config, seeds, f_vals, finals)
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
            config=replace(config, seed=seed),
            step_bound_satisfied=bound_ok,
        )
        for b, seed in enumerate(seeds)
    ]


@np.errstate(over="ignore", invalid="ignore")
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

    Any chain but a float chain (``_runs_on_floats``) is
    ``run_batch(config, [config.seed], obj, domain)[0]``.
    """
    if not _runs_on_floats(config, obj):
        return run_batch(config, [config.seed], obj, domain)[0]
    bound_ok = _validate(config, [config.seed], obj, domain)
    rng, x = _start(config, config.seed, domain)
    n, is_rgld = config.steps, config.method == "rgld"
    f_vals, events, fallbacks, traj = _arrays(1, n, 1, config.record_trajectory)
    # The loop writes through row views.
    f_row, event_row, fallback_row = f_vals[0], events[0], fallbacks[0]
    traj_row = None if traj is None else traj[0]

    reflect_or_project, project = domain.reflect_or_project, domain.project
    in2 = domain.inner_radius * domain.inner_radius
    out2 = domain.outer_radius * domain.outer_radius
    # The step carries only the iterate, a float. The gradient is the
    # quadratic's ``scale * x``, the membership test that of ``contains``;
    # the operators take the float at the walls. A block's values are one
    # rows call, which gives each the bits of its point call. The step
    # index is needed only at a wall: ``a + len(xs) - 1``.
    c, xf, eta, q = domain.center.item(), x.item(), config.eta, obj.scale
    for a in range(0, n, _NOISE_BLOCK):
        kicks = _kicks(rng, min(_NOISE_BLOCK, n - a), 1, config)[:, 0].tolist()
        xs = []
        append = xs.append
        for kick in kicks:
            append(xf)
            x_raw = xf - eta * (q * xf) + kick
            v = x_raw - c
            if in2 <= v * v <= out2:
                xf = x_raw
            else:
                k = a + len(xs) - 1
                event_row[k] = True
                if is_rgld:
                    xf, _, fallback_row[k] = reflect_or_project(x_raw)
                else:
                    xf = project(x_raw)
        X = np.array(xs)[:, None]
        f_row[a:a + len(xs)] = obj.value_many(X)
        if traj_row is not None:
            traj_row[a:a + len(xs)] = X
    return _records(config, [config.seed], bound_ok, x.copy()[None], np.array([[xf]]),
                    f_vals, events, fallbacks, traj, [n])[0]


@np.errstate(over="ignore", invalid="ignore")
def run_batch(config: ChainConfig, seeds, obj: Objective,
              domain: FeasibleDomain) -> list[RunRecord]:
    """Execute the chain ``config`` describes for each of ``seeds``, a
    sequence, together (``config.seed`` is not read); returns one record
    per seed.

    The batch is checked once (``_validate``) before the first step.
    Record ``i`` is the record ``run_chain`` describes for
    ``replace(config, seed=seeds[i])``, bit for bit, and the records'
    arrays are rows of shared ``(B, steps)`` arrays. Each update is
    computed for all rows at once; a row that left the region is
    constrained by the scalar operator. A noise-free row leaves the batch
    at its first fixed point.
    """
    bound_ok = _validate(config, seeds, obj, domain)
    rngs, starts = zip(*(_start(config, s, domain) for s in seeds))

    B, n, d = len(seeds), config.steps, domain.dim
    is_rgld, noisy = config.method == "rgld", config.method != "pg"

    # The noise of the block from step ``a``, one ``(B, d)`` kick per
    # step; pg draws none.
    def kicks(a):
        m = min(_NOISE_BLOCK, n - a)
        if not noisy:
            return repeat(None, m)
        block = np.empty((m, B, d))
        for i, r in enumerate(rngs):
            block[:, i] = _kicks(r, m, d, config)
        return block

    f_vals, events, fallbacks, traj = _arrays(B, n, d, config.record_trajectory)
    computed = [n] * B
    # The loop writes no array in place but its fresh ``x_raw``.
    x = x0 = np.array(starts)
    finals = np.empty_like(x)
    # Chains still computing, by row of ``x``. Only noise-free rows leave;
    # until one does, ``live`` writes the records' columns through views.
    rows, live = list(range(B)), slice(None)
    w = x.itemsize * d  # bytes per row

    value_and_gradient = obj.value_and_gradient
    reflect_or_project, project = domain.reflect_or_project, domain.project
    # The membership test of ``contains``, inline: one check of the least
    # and greatest squared norms clears a step whose rows are all inside,
    # and only rows outside the region pay for the operator's call. At
    # the origin ``x - center`` has the squared norm of ``x`` bit for
    # bit, so the subtraction is skipped. A NaN row stays NaN whether or
    # not it reaches the operator.
    center = domain.center if domain.center.any() else None
    in2 = domain.inner_radius * domain.inner_radius
    out2 = domain.outer_radius * domain.outer_radius
    # A 0-d array multiplies rows with less call overhead than a float,
    # and gives the same bits.
    eta = np.array(config.eta)
    steps = chain.from_iterable(enumerate(kicks(a), a) for a in range(0, n, _NOISE_BLOCK))
    for k, kick in steps:
        fx, g = value_and_gradient(x)
        f_vals[live, k] = fx
        if traj is not None:
            traj[live, k] = x
        x_raw = x - eta * g
        if noisy:
            x_raw += kick
        v = x_raw if center is None else x_raw - center
        r2 = np.vecdot(v, v).tolist()
        if not (in2 <= min(r2) and max(r2) <= out2):
            for i in [i for i, r in enumerate(r2) if not in2 <= r <= out2]:
                b = rows[i]
                events[b, k] = True
                if is_rgld:
                    x_raw[i], _, fallbacks[b, k] = reflect_or_project(x_raw[i])
                else:
                    x_raw[i] = project(x_raw[i])
        if not noisy:
            # Bytes, not ``==``: -0.0 equals 0.0 but need not repeat the
            # same later bits.
            new, old = x_raw.tobytes(), x.tobytes()
            fixed = [j // w for j in range(0, len(new), w) if new[j:j + w] == old[j:j + w]]
            if fixed:
                for i in fixed:
                    computed[rows[i]] = k + 1
                    finals[rows[i]] = x_raw[i]
                keep = [i for i in range(len(rows)) if i not in fixed]
                x_raw, rows = x_raw[keep], [rows[i] for i in keep]
                live = np.array(rows, dtype=np.intp)
        x = x_raw
        if not rows:
            break
    finals[rows] = x
    return _records(config, seeds, bound_ok, x0, finals, f_vals, events, fallbacks, traj,
                    computed)
