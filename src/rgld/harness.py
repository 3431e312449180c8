"""Benchmark presets, multi-seed experiment runner, and CSV emission.

Presets pin the feasible region, objective, and hyperparameters of the
benchmark problems. ``run_experiment`` executes every distinct (method,
seed) chain (a chain that reads no seed runs once for all seeds), writes
one CSV per (method, seed) plus one aggregate CSV per method, and is
byte-deterministic for a fixed spec: all output is written after the
chains complete.

Chains run in this process, one method at a time: a method's distinct
chains run together as one batch (``dynamics.run_batch``). A lone chain
(one seed, or a seed-free chain shared by all seeds) goes through
``dynamics.run_chain``, which runs it as a batch of one, and so does
each chain that ``run_chain`` runs on Python floats (gibbs1d's, faster
alone). Every way gives the same bytes.

Chain CSV schema: ``step,f,cummin,reflected,fallback`` where row ``k``
holds the objective and running minimum at iterate ``k`` and the flags
for the update leaving iterate ``k``. Aggregate CSV schema:
``step,q25,q50,q75`` of the optimization error (running minimum minus
the known minimum over the region) across seeds. Oracle CSV schema
(``export_cells_csv``): ``cell,mid_0[,mid_1],probability``. Floats are
printed with 17 significant digits so values round-trip exactly.

Every CSV goes through one block-streamed writer. A row's text after
its leading columns is formatted once per run of rows whose bits are
equal in those columns (``cummin`` and the flags; the quartiles). Both
row writers take the steps' digits, each followed by a fixed tail, from
one uint8 matrix per block (``_step_digits``). A block of chain rows is
then one ``%``-format of its ``f`` texts and tails into a template that
holds the digits (the last template is kept for the next chain CSV),
where an ``f`` value in fixed notation with a fraction digit is a head
string and an int found by integer arithmetic, any other its ``%.17g``
text (``_float_text``): about 0.4 s for gibbs1d's 10**6 rows on a
2-core x86-64 host. The aggregate rows of a run within a block are one
slice of the digits' bytes, each step's tail a NUL, with the NUL
replaced by the run's text: about 0.12 s for 10**6 rows. Seeds that
share one record get one formatted chain CSV and byte copies of it.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from pathlib import Path

import numpy as np

from rgld.dynamics import ChainConfig, RunRecord, _runs_on_floats, _validate, run_batch, run_chain
from rgld.geometry import Ball, FeasibleDomain, SphericalShell
from rgld.measure import GibbsOracle, bin_samples, tv_distance
from rgld.objectives import (
    GaussianMixture,
    Objective,
    Quadratic,
    Rastrigin,
    Rosenbrock,
    make_grid_gaussian_mixture,
)

__all__ = [
    "ExperimentSpec",
    "AggregateCurve",
    "PRESETS",
    "GM_OBJECTIVE_SEED",
    "TV_BINS",
    "MAX_SEEDS",
    "preset_gm2d",
    "preset_gm2d_pgld_vs_rgld",
    "preset_rosenbrock",
    "preset_rastrigin",
    "preset_gibbs1d",
    "spec_from_file",
    "spec_from_dict",
    "run_experiment",
    "run_chains",
    "checked_out_dir",
    "rastrigin_min_on_shell",
    "export_cells_csv",
]

# Pinned seed of the benchmark mixture's weights, chosen so that plain
# projected descent from the benchmark start gets trapped in a local
# minimum far above the dominant mode (not every draw traps it).
GM_OBJECTIVE_SEED = 6

# Oracle cells per axis for total variation.
TV_BINS = 256

# The most seeds a run may have, from a spec, a preset or ``--seeds``:
# each is a chain and a CSV file.
MAX_SEEDS = 100_000

# The longest spec name in UTF-8 bytes: every file a run writes is named
# by it and at most 40 more bytes, and a file name holds 255.
_NAME_BYTES = 200

# Rows per CSV write and errors per quartile block: large enough to
# amortise the per-call cost, small enough to bound the temporaries.
_BLOCK_ROWS = 1 << 14
# The fewest steps per quartile block: each block slices every record
# once, so with many seeds a width of ``_BLOCK_ROWS // S`` would cost
# n * S^2 / 2^14 slices. A block of S * 256 errors is never more than the
# records' own running minima when they have 256 steps or more.
_MIN_COLS = 256


@dataclass(frozen=True)
class ExperimentSpec:
    """A fully pinned experiment: problem, methods, and chain settings.

    Frozen, and checked when it is built, so every spec is valid however
    it is made (a preset, ``spec_from_dict`` or ``dataclasses.replace``):
    ``name`` starts the name of every file a run writes, so it holds at
    most 200 bytes of UTF-8 and no ``/`` or NUL; seeds (at most
    ``MAX_SEEDS``) and methods are non-empty and distinct; ``min_f`` is
    finite when set; each method's config (``chain_config``) and the
    seeds pass ``dynamics._validate``, one call per method, which checks
    the seeds as integers; TV prefixes are distinct and in ``1..steps``.
    A message starts with the field at fault.
    """

    name: str
    objective: Objective
    domain: FeasibleDomain
    methods: tuple[str, ...]
    eta: float
    beta: float
    steps: int
    # 20 seeds give stable medians for the comparative criteria.
    seeds: tuple[int, ...] = tuple(range(20))
    x0: np.ndarray | None = None
    noise: str = "rademacher"
    min_f: float | None = None
    enforce_step_bound: bool = True
    # Trajectory prefixes to score by total variation against a quadrature
    # oracle of ``TV_BINS`` cells per axis; none means no oracle and no TV.
    tv_prefixes: tuple[int, ...] = ()

    def __post_init__(self):
        try:
            size = len(self.name.encode())
        except UnicodeEncodeError:  # a lone surrogate, which JSON can spell
            size = math.inf
        if size > _NAME_BYTES or "/" in self.name or "\0" in self.name:
            raise ValueError(f"name: must be a file name part of at most {_NAME_BYTES} "
                             f"bytes, without '/' or NUL, got {self.name!r}")
        for field, noun in (("seeds", "seed"), ("methods", "method")):
            if not getattr(self, field):
                raise ValueError(f"{field}: at least one {noun} is required")
        if len(self.seeds) > MAX_SEEDS:
            raise ValueError(f"seeds: at most {MAX_SEEDS} seeds, got {len(self.seeds)}")
        # A repeated seed or method would name one output file twice, and a
        # repeated prefix would write two TV rows with one label.
        for field, values, text in (("seeds", self.seeds, "seed {}"),
                                    ("methods", self.methods, "{!r}"),
                                    ("tv_prefixes", self.tv_prefixes, "{}")):
            seen = set()
            for v in values:
                if v in seen:
                    raise ValueError(f"{field}: duplicate " + text.format(v))
                seen.add(v)
        if self.min_f is not None and not math.isfinite(self.min_f):
            raise ValueError(f"min_f: must be finite, got {self.min_f}")
        for method in self.methods:
            _validate(self.chain_config(method), self.seeds, self.objective, self.domain)
        bad = [p for p in self.tv_prefixes if not 1 <= p <= self.steps]
        if bad:
            raise ValueError(f"tv_prefixes: {bad} outside 1..steps={self.steps}")

    def chain_config(self, method: str) -> ChainConfig:
        """The config of the method's chains; the chain of seed ``s`` is
        ``replace(config, seed=s)``."""
        return ChainConfig(
            method=method,
            eta=self.eta,
            beta=self.beta,
            steps=self.steps,
            noise=self.noise,
            x0=self.x0,
            record_trajectory=bool(self.tv_prefixes),
            enforce_step_bound=self.enforce_step_bound,
        )


@dataclass
class AggregateCurve:
    """Quartiles of the per-step optimization error across seeds."""

    q25: np.ndarray
    q50: np.ndarray
    q75: np.ndarray

    @classmethod
    def from_records(cls, records: list[RunRecord], min_f: float | None) -> "AggregateCurve":
        base = 0.0 if min_f is None else min_f
        S = len(records)
        if S == 1:
            # The quartiles of one value are that value, bit for bit.
            err = records[0].cumulative_min - base
            return cls(q25=err, q50=err, q75=err)
        # numpy's linear percentile, with its bits: the p-quantile of S
        # errors lies at the virtual index S*p + (1 - p) - 1 of the sorted
        # errors, between the order statistics lo and lo + 1, which one
        # partition with numpy's own kth places.
        lerps = [(math.floor(v), v - math.floor(v))
                 for v in (S * p + (1 - p) - 1 for p in (0.25, 0.5, 0.75))]
        kth = sorted({0, -1, *(lo + i for lo, _ in lerps for i in (0, 1))})
        n = records[0].cumulative_min.shape[0]
        q = np.empty((3, n))
        # Columns are independent, so column blocks give the same bits with
        # far less scratch: ``_BLOCK_ROWS`` errors per block, or
        # ``_MIN_COLS`` columns when there are many seeds.
        cols = max(_MIN_COLS, _BLOCK_ROWS // S)
        for a in range(0, n, cols):
            errs = np.stack([r.cumulative_min[a:a + cols] - base for r in records])
            errs.partition(kth, axis=0)
            for row, (lo, t) in zip(q, lerps):
                below, above = errs[lo], errs[lo + 1]
                d = above - below
                row[a:a + cols] = below + d * t if t < 0.5 else above - d * (1 - t)
        return cls(q25=q[0], q50=q[1], q75=q[2])


def preset_gm2d() -> ExperimentSpec:
    """Grid Gaussian mixture on the planar shell between radii 0.9 and 4.

    The published benchmark: eta 0.05, beta 1.0, start at (0.5, 0.5).
    Sweep variants use beta in {1.0, 8.0} and eta around 0.05. The
    published hyperparameters violate the conservative worst-case
    step-size bound (the mixture's gradient bound is loose), so the
    admissibility check is disabled and safety is asserted post-hoc via
    the fallback counter.
    """
    gm = make_grid_gaussian_mixture(GM_OBJECTIVE_SEED)
    return ExperimentSpec(
        name="gm2d",
        objective=gm,
        domain=SphericalShell(np.zeros(2), 0.9, 4.0),
        methods=("pg", "rgld"),
        eta=0.05,
        beta=1.0,
        steps=10_000,
        x0=np.array([0.5, 0.5]),
        min_f=gm.global_min_value,
        enforce_step_bound=False,
    )


def preset_gm2d_pgld_vs_rgld() -> ExperimentSpec:
    """The reflection-versus-projection comparison on the mixture problem."""
    return replace(preset_gm2d(), name="gm2d-pgld-vs-rgld", methods=("pgld", "rgld"))


def preset_rosenbrock(dim: int = 4) -> ExperimentSpec:
    """Rosenbrock on the shell between radii ``0.5 sqrt(d)`` and ``2 sqrt(d)``.

    ``eta`` is ``min(5e-4, 2e-3 / d)`` and ``beta`` is ``0.25 * d``. The
    benchmark grid uses d in {4, 10, 20}; any d >= 2 is accepted for
    custom runs. The step shrinks with d because the gradient grows with
    the shell: at 5e-4, d = 10 falls back to projection on most rgld
    steps, while ``2e-3 / d`` keeps d = 10 and 20 free of fallbacks and
    leaves d <= 4 at 5e-4. Initial points are
    drawn uniformly from the region per seed. The huge worst-case
    gradient bound of this objective fails the conservative step-size
    check even so, so the check is disabled (see gm2d).
    """
    objective = Rosenbrock(dim)  # refuses d < 2
    root_d = math.sqrt(dim)
    return ExperimentSpec(
        name=f"rosenbrock{dim}",
        objective=objective,
        domain=SphericalShell(np.zeros(dim), 0.5 * root_d, 2.0 * root_d),
        methods=("pg", "rgld"),
        eta=min(5e-4, 2e-3 / dim),
        beta=0.25 * dim,
        steps=200_000,
        min_f=0.0,  # the all-ones minimizer has norm sqrt(d), inside the shell
        enforce_step_bound=False,
    )


def preset_rastrigin(dim: int = 2) -> ExperimentSpec:
    """Rastrigin on the shell between radii 0.9 and 5.12.

    ``eta`` is 5e-4 and ``beta`` is ``0.05 * d``; the benchmark grid uses d in
    {2, 3, 5, 10, 20, 30}. The origin (the unconstrained minimizer) lies
    in the excluded cavity, so the error baseline is the constrained
    minimum, reached by moving a single coordinate to the nearest
    one-dimensional local minimizer outside the cavity.
    """
    if dim < 2:
        raise ValueError(f"dim: must be at least 2, got {dim}")  # a shell needs 2
    domain = SphericalShell(np.zeros(dim), 0.9, 5.12)
    return ExperimentSpec(
        name=f"rastrigin{dim}",
        objective=Rastrigin(dim),
        domain=domain,
        methods=("pg", "rgld"),
        eta=5e-4,
        beta=0.05 * dim,
        steps=200_000,
        min_f=rastrigin_min_on_shell(domain),
    )


def preset_gibbs1d() -> ExperimentSpec:
    """Stationarity validation on a one-dimensional quadratic.

    A reflected chain on the unit interval domain with beta 2 and eta
    1e-3, paired with a quadrature oracle; total variation is reported
    over growing trajectory prefixes.
    """
    return ExperimentSpec(
        name="gibbs1d",
        objective=Quadratic(scale=1.0, dim=1),
        domain=Ball(np.zeros(1), 1.0),
        methods=("rgld",),
        eta=1e-3,
        beta=2.0,
        steps=2_000_000,
        seeds=(0,),
        min_f=0.0,
        tv_prefixes=(10_000, 100_000, 1_000_000, 2_000_000),
    )


PRESETS = {
    "gm2d": preset_gm2d,
    "gm2d-pgld-vs-rgld": preset_gm2d_pgld_vs_rgld,
    "rosenbrock": preset_rosenbrock,
    "rastrigin": preset_rastrigin,
    "gibbs1d": preset_gibbs1d,
}


def rastrigin_min_on_shell(domain: SphericalShell) -> float:
    """Minimum of the Rastrigin function over a shell centered at the origin.

    The function is separable and each coordinate term is minimized at 0,
    so the cheapest way to satisfy ``||x|| >= inner_radius`` is to move
    exactly one coordinate off zero; the minimum is ``10 + min g(t)`` over
    feasible ``t``, with ``g(t) = t^2 - 10 cos(2 pi t)``: the least of a
    Newton search on ``g'`` and the ends of a coarse scan's bracket.
    """
    g = lambda t: t * t - 10.0 * math.cos(2.0 * math.pi * t)
    lo, hi = domain.inner_radius, domain.outer_radius
    ts = np.linspace(lo, hi, 4096)
    t = float(ts[int(np.argmin([g(t) for t in ts]))])
    span = (hi - lo) / 4096
    a, b = max(lo, t - span), min(hi, t + span)
    for _ in range(50):  # Newton on g'(t) = 2t + 20 pi sin(2 pi t), kept in [a, b]
        s = 2.0 * math.pi * t
        t = min(max(t - (2.0 * t + 20.0 * math.pi * math.sin(s))
                    / (2.0 + 40.0 * math.pi**2 * math.cos(s)), a), b)
    return 10.0 + min(g(t), g(a), g(b))


# ---------------------------------------------------------------------------
# Config files


def _grid_mixture(seed: int = GM_OBJECTIVE_SEED) -> GaussianMixture:
    if seed < 0:
        raise ValueError(f"objective.seed: must be a non-negative integer, got {seed}")
    return make_grid_gaussian_mixture(seed)


# The trees of a spec, by (tree, kind): the spec itself, and the objective
# and domain trees, which also require ``kind``. Each gives its required
# and optional keys with their JSON values, then its builder, which takes
# the keys as keyword arguments. A JSON value is a type, ``[]`` per list
# level, and `` | null`` if null ("not set") is allowed; an ``object`` is
# the tree its key names.
_TREES = {
    ("spec", None): (
        {"objective": "object", "domain": "object", "methods": "string[]",
         "eta": "number", "beta": "number", "steps": "integer"},
        {"name": "string", "seeds": "integer[]", "x0": "number[] | null",
         "noise": "string", "min_f": "number | null", "enforce_step_bound": "boolean",
         "tv_prefixes": "integer[]"},
        partial(ExperimentSpec, name="custom"),
    ),
    ("objective", "quadratic"): ({"dim": "integer"}, {"scale": "number"}, Quadratic),
    ("objective", "grid-gaussian-mixture"): ({}, {"seed": "integer"}, _grid_mixture),
    ("objective", "gaussian-mixture"): (
        {"weights": "number[]", "means": "number[][]"}, {}, GaussianMixture),
    ("objective", "rosenbrock"): ({"dim": "integer"}, {}, Rosenbrock),
    ("objective", "rastrigin"): ({"dim": "integer"}, {}, Rastrigin),
    ("domain", "ball"): ({"center": "number[]", "radius": "number"}, {}, Ball),
    ("domain", "shell"): (
        {"center": "number[]", "inner_radius": "number", "outer_radius": "number"}, {},
        SphericalShell),
}

# The JSON types of ``_TREES``: the Python types ``json.load`` gives them
# (a bool is not a number), and how an error names one value and a list.
_JSON_TYPES = {
    "integer": (int, "an integer", "a list"),
    "number": ((int, float), "a number", "a list"),
    "string": (str, "a string", "a list of strings"),
    "boolean": (bool, "true or false", "a list"),
}


def _check(field: str, value, json_type: str) -> None:
    """Raise a ``ValueError`` naming ``field``, or the element at fault,
    unless ``value`` has ``json_type``; a number must also lie within the
    range of a double. An ``object`` is checked when it is read."""
    if value is None and json_type.endswith(" | null"):
        return
    json_type = json_type.removesuffix(" | null")
    base = json_type.replace("[]", "")
    if base == "object":
        return
    python_type, noun, list_noun = _JSON_TYPES[base]
    if json_type != base:
        if not isinstance(value, (list, tuple)):  # a tuple is an override's list
            raise ValueError(f"{field}: expected {list_noun}, got {value!r}")
        for i, v in enumerate(value):
            _check(f"{field}[{i}]", v, json_type[:-2])
    elif not isinstance(value, python_type) or (isinstance(value, bool) and base != "boolean"):
        raise ValueError(f"{field}: expected {noun}, got {value!r}")
    elif base == "number" and isinstance(value, int) and abs(value) > sys.float_info.max:
        raise ValueError(f"{field}: expected {noun}, got an integer beyond the largest double")


def _field(key: str, value, json_type: str):
    """A spec tree's value as its ``ExperimentSpec`` field: an object is
    the tree ``key`` names, a number a float, a list of numbers a float
    array, any other list a tuple."""
    if json_type == "object":
        return _read(key, value)
    if value is None:
        return None
    if json_type.startswith("number"):
        return np.asarray(value, dtype=np.float64) if "[]" in json_type else float(value)
    return tuple(value) if "[]" in json_type else value


def _read(field: str, tree):
    """What ``tree``, a ``spec``, ``objective`` or ``domain`` tree
    (``field``), describes. In order: it must be an object, have the keys
    of its ``_TREES`` entry (all unknown and missing keys are named at
    once) and their JSON values; then it is built, the spec from its
    values as fields (``_field``), the others from them as given."""
    if not isinstance(tree, dict):
        raise ValueError(f"{field}: expected an object, got {tree!r}")
    kind = None if field == "spec" else tree.get("kind")
    if not isinstance(kind, (str, type(None))) or (field, kind) not in _TREES:
        raise ValueError(f"unknown {field} kind {kind!r}")
    required, optional, build = _TREES[field, kind]
    types = {**required, **optional}
    unknown = sorted(set(tree) - set(types) - ({"kind"} if kind else set()))
    problems = ([f"unknown key {k!r}" for k in unknown]
                + [f"missing key {k!r}" for k in required if k not in tree])
    if problems:
        raise ValueError(f"{field}: " + ", ".join(problems))
    for key, value in tree.items():
        if key in types:
            _check(f"{field}.{key}", value, types[key])
    # In table order: the objective is built before the domain.
    return build(**{key: _field(key, tree[key], json_type) if field == "spec" else tree[key]
                    for key, json_type in types.items() if key in tree})


def spec_from_dict(d: dict) -> ExperimentSpec:
    """Build a custom experiment from a JSON tree: the keys, their JSON
    values and the kinds of objective and domain are those of ``_TREES``.

    Anything else raises a ``ValueError`` that names the tree, key or
    element at fault, as does a mixture ``seed`` below 0.
    """
    return _read("spec", d)


def _override(values: dict, overrides: dict) -> dict:
    """``values``, a spec's JSON tree or fields, with ``overrides`` set. A
    new ``steps`` keeps the TV prefixes below it and ends them at it;
    prefixes that are not a list of integers are left to the checks."""
    prefixes, steps = values.get("tv_prefixes"), overrides.get("steps")
    values = {**values, **overrides}
    if (steps is not None and prefixes and isinstance(prefixes, (list, tuple))
            and all(isinstance(p, int) for p in prefixes)):
        values["tv_prefixes"] = type(prefixes)([p for p in prefixes if p < steps] + [steps])
    return values


def spec_from_file(path, **overrides) -> ExperimentSpec:
    """Load a custom experiment spec from a JSON file whose tree takes
    ``overrides`` (``_override``) before it is built and checked."""
    with open(path, "r", encoding="utf-8") as fh:
        tree = json.load(fh)
    return spec_from_dict(_override(tree, overrides) if isinstance(tree, dict) else tree)


# ---------------------------------------------------------------------------
# Execution and emission

def run_chains(spec: ExperimentSpec) -> dict[tuple[str, int], RunRecord]:
    """Run every (method, seed) chain of the spec and return the records.

    A method's chains are its config (``spec.chain_config``) and the
    seeds. A chain that ignores the seed (``ChainConfig.depends_on_seed``)
    runs once, and every seed's record shares its arrays under a config
    with that seed. The distinct chains run as one batch, or one at a time
    when there is one or ``run_chain`` runs them on Python floats. The spec
    checked them when it was built. The arrays are marked read-only.
    """
    obj, domain = spec.objective, spec.domain
    records = {}
    for method in spec.methods:
        config = spec.chain_config(method)
        seeds = spec.seeds if config.depends_on_seed else spec.seeds[:1]
        # A lone chain goes through ``run_chain``, the call perfbench traces.
        if len(seeds) == 1 or _runs_on_floats(config, obj):
            batch = [run_chain(replace(config, seed=s), obj, domain) for s in seeds]
        else:
            batch = run_batch(config, seeds, obj, domain)
        for array in [v for r in batch for v in vars(r).values() if isinstance(v, np.ndarray)]:
            array.setflags(write=False)
        if not config.depends_on_seed:
            batch = [replace(batch[0], config=replace(config, seed=s)) for s in spec.seeds]
        records.update(zip([(method, s) for s in spec.seeds], batch))
    return records


def _run_strings(fmt: str, columns) -> tuple[list, list]:
    """The runs of rows whose bits are equal in every column of
    equal-length, non-empty columns: the first row of each run followed by
    the row count, and ``fmt % row`` of each run.

    Runs are split on bit patterns, not ``==``, so ``-0.0`` next to
    ``0.0`` still prints as ``-0`` and ``0``.
    """
    n = len(columns[0])
    starts = np.zeros(n, dtype=bool)
    starts[0] = True
    for c in columns:
        bits = c.view(f"u{c.itemsize}")
        starts[1:] |= bits[1:] != bits[:-1]
    starts = np.flatnonzero(starts)
    strings = [fmt % row for row in zip(*(c[starts].tolist() for c in columns))]
    return starts.tolist() + [n], strings


# Exact powers of ten and five, and powers of ten as doubles, for the
# digits of ``_float_text`` (``16 - x`` for decimal exponents x of -4 .. 15).
_POW10 = 10 ** np.arange(19, dtype=np.int64)
_POW5 = 5 ** np.arange(21, dtype=np.uint64)
_POW10_F = 10.0 ** np.arange(21)


def _digits17(a: np.ndarray, x: np.ndarray):
    """``floor(a * 10**(16 - x))`` for doubles ``a`` in [1e-4, 2**51) and
    decimal exponents ``x`` of -4 .. 15, with ``d`` and ``r`` such that the
    exact product is that floor plus ``d mod 2**r`` over ``2**r``.

    With ``a = m * 2**e`` (``m`` an integer below 2**53) and ``t = 16 - x``,
    the product is ``m * 5**t / 2**r`` for ``r = -(e + t)``, which is at
    least 1 on this range. The double estimate ``qh = rint(a * 10**t)`` is
    within a few units of it, so ``d = m * 5**t - qh * 2**r`` is below
    2**63 in magnitude and exact in wrapping uint64 arithmetic, though
    ``m * 5**t`` is not.
    """
    t = 16 - x
    mant, exp = np.frexp(a)
    m = (mant * 2.0**53).astype(np.uint64)
    r = 53 - exp - t
    qh = np.rint(a * _POW10_F[t]).astype(np.uint64)
    d = (m * _POW5[t] - (qh << r.astype(np.uint64))).view(np.int64)
    return qh.view(np.int64) + (d >> r), d, r


def _float_text(v: np.ndarray) -> tuple[list, list]:
    """Heads and bodies with ``"%s%s" % (heads[i], bodies[i])`` equal to
    ``"%.17g" % v[i]`` for every ``i``.

    A value that ``%.17g`` prints in fixed notation with a fraction digit,
    one of magnitude in [1e-4, 2**51) that is not an integer, gets its 17
    significant digits by integer arithmetic. Its head is the sign,
    integer part, point and leading fraction zeros, one string per
    distinct head, and its body the other fraction digits as an int. Any
    other value (below 1e-4, integer-valued, 2**51 or more, inf or nan)
    gets Python's own text as its head, with an empty body.
    """
    a = np.abs(v)
    # The other rows get digits that are not used.
    a = np.where((a >= 1e-4) & (a < 2.0**51), a, 1.0)
    fast = np.floor(a) != a
    x = np.clip(np.floor(np.log10(a)), -4, 15).astype(np.int64)
    q, d, r = _digits17(a, x)
    # np.log10 can miss the decade next to a power of ten: the unrounded
    # digits tell, since they lie in [10**16, 10**17) at the right exponent.
    # Both clips keep a broken build's digits (``rgld check``) in the tables.
    off = (q >= _POW10[17]).astype(np.int64) - (q < _POW10[16])
    moved = np.flatnonzero(off)
    if moved.size:
        x[moved] = np.clip(x[moved] + off[moved], -4, 15)
        q[moved], d[moved], r[moved] = _digits17(a[moved], x[moved])
    # Round half to even. No double in [1e-4, 2**51) rounds up to 10**17:
    # the largest below each power of ten is too far from it.
    rest, half = d & ((1 << r) - 1), 1 << (r - 1)
    q += (rest > half) | ((rest == half) & (q & 1 == 1))
    # s is q without its trailing zeros, z their count. A fast value is no
    # integer, and its 17 digits round-trip, so a fraction digit is left.
    s, z = q.copy(), np.zeros_like(q)
    i = np.flatnonzero(fast & (s % 10 == 0))
    while i.size:
        s[i] //= 10
        z[i] += 1
        i = i[s[i] % 10 == 0]
    shown = 16 - x - z  # fraction digits printed
    body = s % _POW10[np.minimum(shown, 18)]
    whole = q // _POW10[np.minimum(16 - x, 18)]
    # 1 + the leading zeros of the fraction.
    point = shown + 1 - np.searchsorted(_POW10, body, "right")
    keys, inverse = np.unique((whole * 2 + (v < 0)) * 32 + point, return_inverse=True)
    table = np.array([("-" if k & 32 else "") + str(k >> 6) + "." + "0" * ((k & 31) - 1)
                      for k in keys.tolist()], dtype=object)
    heads, bodies = table[inverse].tolist(), body.tolist()
    other = np.flatnonzero(~fast)
    for i, value in zip(other.tolist(), v[other].tolist()):
        heads[i], bodies[i] = "%.17g" % value, ""
    return heads, bodies


def _write_csv(path, header: str, n: int, rows) -> None:
    """Write ``header`` and ``n`` rows to ``path``, streamed in blocks.

    ``rows(a, b)`` returns the text of rows ``a .. b-1``, each ending in a
    newline, as one ASCII ``str`` or bytes-like object, so no more than
    one block of text is held in memory at a time.
    """
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for a in range(0, n, _BLOCK_ROWS):
            block = rows(a, min(a + _BLOCK_ROWS, n))
            fh.write(block.encode() if isinstance(block, str) else block)


def _step_digits(a: int, b: int, tail: bytes = b""):
    """The steps ``a .. b-1`` as ASCII digits, each followed by ``tail``,
    cut where the width grows (at powers of ten): ``(lo, hi, rows)`` per
    piece, ``rows`` a uint8 matrix with one row per step."""
    cuts = [a, *(c for c in _POW10.tolist() if a < c < b), b]
    for lo, hi in zip(cuts, cuts[1:]):
        w = len(str(lo))
        rows = np.empty((hi - lo, w + len(tail)), dtype=np.uint8)
        rows[:, w:] = np.frombuffer(tail, dtype=np.uint8)
        # The digit of place p holds for p steps at a time: one value per
        # such run, repeated over the run's steps within lo .. hi-1.
        for c in range(w):
            p = 10 ** (w - 1 - c)
            run = np.arange(lo // p, (hi - 1) // p + 2)
            rows[:, c] = np.repeat(run[:-1] % 10 + 48, np.diff(np.clip(run * p, lo, hi)))
        yield lo, hi, rows


@lru_cache(maxsize=1)
def _chain_template(a: int, b: int) -> str:
    """The ``%`` template of chain rows ``a .. b-1``: each step's digits
    and ``,%s%s%s``. The last one is kept: a run's chain CSVs share their
    blocks."""
    return b"".join(t.tobytes() for _, _, t in _step_digits(a, b, b",%s%s%s")).decode()


def _write_chain_csv(path, record: RunRecord) -> None:
    """One row per step: the step and ``f`` (``_float_text``), then a tail
    formatted once per run of equal ``cummin`` and flags. A block of rows
    is one ``%`` call, whose template holds the steps' digits."""
    f = record.f_value
    bounds, tails = _run_strings(",%.17g,%d,%d\n", [
        record.cumulative_min, record.boundary_events, record.fallback_events,
    ])
    tails = np.repeat(np.array(tails, dtype=object), np.diff(bounds))

    def rows(a, b):
        args = [None] * (3 * (b - a))
        args[0::3], args[1::3] = _float_text(f[a:b])
        args[2::3] = tails[a:b].tolist()
        return _chain_template(a, b) % tuple(args)

    _write_csv(path, "step,f,cummin,reflected,fallback", f.size, rows)


def _write_aggregate_csv(path, curve: AggregateCurve) -> None:
    """One row per step: the step, then its quartiles formatted once per
    run of equal quartiles. The rows of a run within a block's piece of
    one step width are one slice of the steps' digits, each followed by a
    NUL (``_step_digits``), with the NUL replaced by the run's text."""
    bounds, tails = _run_strings(",%.17g,%.17g,%.17g\n", [curve.q25, curve.q50, curve.q75])
    tails = [t.encode() for t in tails]

    def rows(a, b):
        parts = []
        for lo, hi, digits in _step_digits(a, b, b"\0"):
            text, w = digits.tobytes(), digits.shape[1]
            for k in range(bisect_right(bounds, lo) - 1, bisect_left(bounds, hi)):
                # The run's rows in this piece; the slice stops at its end.
                c, e = max(bounds[k] - lo, 0), bounds[k + 1] - lo
                parts.append(text[c * w:e * w].replace(b"\0", tails[k]))
        return b"".join(parts)

    _write_csv(path, "step,q25,q50,q75", bounds[-1], rows)


def export_cells_csv(path, oracle: GibbsOracle) -> None:
    """Write one row per oracle cell: its index, midpoint coordinates and
    probability."""
    dim = len(oracle.edges)
    header = "cell," + ",".join(f"mid_{i}" for i in range(dim)) + ",probability"
    columns = [oracle.midpoints[:, i] for i in range(dim)] + [oracle.probabilities]
    row = ("%d" + ",%.17g" * (dim + 1) + "\n").__mod__
    _write_csv(path, header, oracle.n_cells, lambda a, b: "".join(map(
        row, zip(range(a, b), *(c[a:b].tolist() for c in columns)))))


def tv_over_prefixes(
    spec: ExperimentSpec, record: RunRecord, oracle: GibbsOracle
) -> list[float]:
    """Total variation of growing trajectory prefixes against the oracle."""
    if record.trajectory is None:
        raise ValueError("record has no trajectory; stationarity needs one")
    return [
        tv_distance(bin_samples(oracle, record.trajectory[:p]), oracle)
        for p in spec.tv_prefixes
    ]


def checked_out_dir(out_dir) -> Path:
    """``out_dir`` as a ``Path``, or a ``ValueError`` unless it, or its
    nearest existing ancestor, is a directory."""
    out = Path(out_dir)
    nearest = next(p for p in (out, *out.parents) if p.exists())
    if not nearest.is_dir():
        made = "" if nearest == out else f", so {str(out)!r} cannot be made"
        raise ValueError(f"out_dir: {str(nearest)!r} is not a directory{made}")
    return out


def run_experiment(spec: ExperimentSpec, out_dir) -> list[Path]:
    """Run the experiment and write its CSV files; returns the paths.

    Emits one chain CSV per (method, seed), one aggregate CSV per method
    and, when ``tv_prefixes`` is set, one total-variation CSV per seed
    against an oracle of ``TV_BINS`` cells per axis. ``out_dir``, or its
    nearest existing ancestor, must be a directory. It and the oracle are
    checked before any chain runs (the spec checked its chains when it was
    built), and every chain runs before ``out_dir`` is created, so a bad
    setting or a chain that raises (a non-finite iterate) leaves no files.
    """
    out = checked_out_dir(out_dir)
    oracle = (GibbsOracle(spec.objective, spec.domain, spec.beta, TV_BINS)
              if spec.tv_prefixes else None)
    records = run_chains(spec)
    out.mkdir(parents=True, exist_ok=True)

    paths: list[Path] = []
    for method in spec.methods:
        # Seeds whose chains read no seed share one record: format it once
        # and copy the file for the others.
        shared = None
        for seed in spec.seeds:
            p = out / f"{spec.name}_{method}_seed{seed}.csv"
            r = records[(method, seed)]
            if shared is None:
                _write_chain_csv(p, r)
                if not r.config.depends_on_seed:
                    shared = p
            else:
                shutil.copyfile(shared, p)
            paths.append(p)
        # The curve is not kept: the TV cell counts below reuse its memory.
        p = out / f"{spec.name}_{method}_aggregate.csv"
        _write_aggregate_csv(p, AggregateCurve.from_records(
            [records[(method, s)] for s in spec.seeds], spec.min_f))
        paths.append(p)
    if oracle is not None:
        row = "%d,%.17g\n".__mod__
        for method in spec.methods:
            for seed in spec.seeds:
                tvs = tv_over_prefixes(spec, records[(method, seed)], oracle)
                p = out / f"{spec.name}_{method}_tv_seed{seed}.csv"
                _write_csv(p, "prefix,tv", len(tvs), lambda a, b: "".join(map(
                    row, zip(spec.tv_prefixes[a:b], tvs[a:b]))))
                paths.append(p)
    return paths
