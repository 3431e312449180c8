"""Command-line entry point.

Subcommands
-----------
run <preset|config.json>
    Execute a benchmark preset or a custom JSON experiment spec and
    write chain/aggregate CSVs. Flags override preset and file values.
oracle <preset|config.json>
    Build the quadrature oracle paired with a preset or spec (dimension
    <= 2), at its beta or ``--beta``, and export its cells as CSV.
check
    Run a compact invariant battery (geometry, the 1-D operators on
    Python floats, gradients, a batch of two seeds and each chain alone
    giving the same bytes, oracle normalization, CSV float text) and exit
    non-zero on any failure. The test suites run its geometry, 1-D
    operator and gradient checks on their own domains, seeds and points.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from rgld import harness
from rgld.dynamics import ChainConfig, run_batch, run_chain
from rgld.geometry import Ball, FeasibleDomain, SphericalShell
from rgld.measure import GibbsOracle
from rgld.objectives import (
    GaussianMixture,
    Quadratic,
    Rastrigin,
    Rosenbrock,
    make_grid_gaussian_mixture,
)

# The presets that take ``--dim``; each factory holds its default.
DIM_PRESETS = ("rosenbrock", "rastrigin")


def _parse_seeds(text: str) -> tuple[int, ...]:
    """Accept ``a..b`` (inclusive, at most ``harness.MAX_SEEDS`` seeds,
    refused before the range is built) or a comma-separated list of
    integers; ``""`` is the empty list, which the spec refuses."""
    try:
        if ".." not in text:
            return tuple(map(int, text.split(","))) if text else ()
        lo, hi = (int(tok) for tok in text.split("..", 1))
    except ValueError:  # an empty item too
        raise argparse.ArgumentTypeError(
            f"expected a range a..b or a comma list of integers, got {text!r}") from None
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    if hi - lo >= harness.MAX_SEEDS:
        raise argparse.ArgumentTypeError(
            f"seed range {text!r} holds more than {harness.MAX_SEEDS} seeds")
    return tuple(range(lo, hi + 1))


def _resolve_spec(args) -> harness.ExperimentSpec:
    target = args.target
    if target not in harness.PRESETS and not Path(target).is_file():
        known = ", ".join(sorted(harness.PRESETS))
        raise ValueError(f"target: unknown preset or missing file {target!r} (presets: {known})")
    if args.dim is not None and target not in DIM_PRESETS:
        kind = "preset" if target in harness.PRESETS else "spec file"
        raise ValueError(f"--dim is not applicable to {kind} {target!r}")
    # Only ``run`` takes the chain flags; ``oracle``'s ``--beta`` is its own.
    flags = vars(args)
    overrides = {key: flags[key] for key in ("eta", "beta", "steps", "seeds")
                 if flags.get(key) is not None}
    # A file's tree takes the flags before it is built: the spec that runs
    # is the one that was checked, and a flag can mend a file.
    if target not in harness.PRESETS:
        return harness.spec_from_file(target, **overrides)
    factory = harness.PRESETS[target]
    spec = factory() if args.dim is None else factory(dim=args.dim)
    return replace(spec, **harness._override({"tv_prefixes": spec.tv_prefixes}, overrides))


def _cmd_run(args) -> int:
    spec = _resolve_spec(args)
    paths = harness.run_experiment(spec, args.out)
    print(f"{spec.name}: wrote {len(paths)} files to {args.out}")
    return 0


def _cmd_oracle(args) -> int:
    spec = _resolve_spec(args)
    out = harness.checked_out_dir(args.out)
    beta = spec.beta if args.oracle_beta is None else args.oracle_beta
    oracle = GibbsOracle(spec.objective, spec.domain, beta, args.bins)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{spec.name}_oracle_{args.bins}.csv"
    harness.export_cells_csv(path, oracle)
    print(f"{spec.name}: oracle with {oracle.n_cells} cells, "
          f"Z={oracle.normalizing_constant:.12g}, wrote {path}")
    return 0


def margin_points(domain, count: int, seed: int) -> list[np.ndarray]:
    """``count`` seeded points within the reflection margin of ``domain``,
    members and exterior points alike, drawn from a box around it."""
    rng = np.random.default_rng(seed)
    span = domain.outer_radius + domain.reflection_margin
    pts = []
    while len(pts) < count:
        x = domain.center + rng.uniform(-1.05 * span, 1.05 * span, size=domain.dim)
        if domain.distance_to_set(x) <= domain.reflection_margin:
            pts.append(x)
    return pts


def check_geometry(domain, points) -> tuple[list[str], str]:
    """The geometry battery on points within the reflection margin: the
    invariants that fail, and the worst error of each as text. projection:
    ``P(x)`` is a member and ``P(P(x))`` is within 1e-12 of it; reflection:
    ``reflect`` moves exactly the exterior points, with no fallback, to
    members as far from ``P(x)`` as ``x`` within 1e-12;
    alignment: ``P(x)`` lies on the ray from the center ``c`` through
    ``x``, ``||x - P(x)|| = | ||x - c|| - ||P(x) - c|| |`` within 1e-10, so
    ``2 P(x) - x`` is the mirror image of ``x`` across the boundary."""
    errors = []
    for x in points:
        p = domain.project(x)
        r, reflected, fell_back = domain.reflect(x)
        d = float(np.linalg.norm(x - p))
        radial = float(np.linalg.norm(x - domain.center) - np.linalg.norm(p - domain.center))
        reflects = (domain.contains(r) and not fell_back and reflected == (d > 0)
                    and (reflected or np.array_equal(r, x)))
        errors.append((
            float(np.linalg.norm(domain.project(p) - p)) if domain.contains(p) else np.inf,
            abs(float(np.linalg.norm(r - p)) - d) if reflects else np.inf,
            abs(d - abs(radial)),
        ))
    worst = np.max(errors, axis=0).tolist()  # a NaN error stays NaN, and fails
    names = ("projection", "reflection", "alignment")
    return ([n for n, w, tol in zip(names, worst, (1e-12, 1e-12, 1e-10)) if not w <= tol],
            ", ".join(f"{n} {w:.2e}" for n, w in zip(names, worst)))


def check_float_operators(domain, points) -> int:
    """How many of the ``(1,)`` points fail to get, from ``project`` and
    ``reflect`` on their Python float, floats with the bits of the point
    calls, the same flags, and the argument itself back exactly
    when the point call returns its argument."""
    bad = 0
    for x in points:
        xf = x.item()
        p, pf = domain.project(x), domain.project(xf)
        (r, *flags), (rf, *flags_f) = domain.reflect(x), domain.reflect(xf)
        bad += not (type(pf) is float and type(rf) is float and flags == flags_f
                    and (pf is xf) == (p is x) and (rf is xf) == (r is x)
                    and np.array([pf, rf]).tobytes() == np.concatenate([p, r]).tobytes())
    return bad


def check_gradient(obj, points) -> tuple[bool, float]:
    """Central differences (step 1e-5) against ``obj.gradient`` at each
    point: the error norm is at most 1e-5 ``||g||``, or 1e-7 where
    ``||g|| < 1e-2``. Returns whether every point passes and the worst
    relative error where ``||g|| >= 1e-2``."""
    ok, worst, h = True, 0.0, 1e-5
    for x in points:
        g = obj.gradient(x)
        fd = np.array([(obj.value(x + e) - obj.value(x - e)) / (2 * h)
                       for e in h * np.eye(obj.dim)])
        norm, err = np.linalg.norm(g), np.linalg.norm(fd - g)
        ok &= err <= (1e-7 if norm < 1e-2 else 1e-5 * norm)
        worst = max(worst, 0.0 if norm < 1e-2 else err / norm)
    return bool(ok), float(worst)


def _cmd_check(_args) -> int:
    failures = 0

    def report(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"{status} {name}{suffix}")
        if not ok:
            failures += 1

    # The unit interval and a 1-D shell (two intervals, built directly:
    # ``SphericalShell`` needs dim >= 2) put both walls at d = 1.
    intervals = [Ball(np.zeros(1), 1.0), FeasibleDomain(np.array([0.7]), 0.3, 1.0)]
    domains = [Ball(np.zeros(2), 2.0), SphericalShell(np.zeros(2), 0.9, 4.0), *intervals]
    report("geometry projection/reflection invariants",
           not any(check_geometry(dom, margin_points(dom, 2000, 7))[0] for dom in domains))

    # A lone 1-D chain constrains Python floats. On the intervals, both
    # walls and the nudge onto the inner one are met; the centers and
    # points 3.5 and 1e200 away (whose square overflows) fall back to
    # projection.
    bad = total = 0
    for dom in intervals:
        c = dom.center.item()
        points = margin_points(dom, 2000, 7) + [
            np.array([c + t]) for t in (0.0, 3.5, -3.5, 1e200, -1e200)]
        with np.errstate(over="ignore"):  # the (1,) call squares 1e200
            bad += check_float_operators(dom, points)
        total += len(points)
    report("1-D float operator", bad == 0, f"{bad} of {total} points differ from the (1,) call")

    rng = np.random.default_rng(7)
    objs = [
        Quadratic(1.0, 2),
        make_grid_gaussian_mixture(harness.GM_OBJECTIVE_SEED),
        Rosenbrock(4),
        Rastrigin(2),
    ]
    report("analytic gradients vs finite differences",
           all(check_gradient(obj, rng.uniform(-1.5, 1.5, size=(20, obj.dim)))[0]
               for obj in objs))

    # A batch of two seeds and each chain alone must give the same bytes,
    # on the mixture's shell, on a 3-D mixture's shell off the origin (the
    # membership test then subtracts the center) and on two intervals:
    # gibbs1d's quadratic, whose lone chain runs on Python floats, and
    # Rastrigin (a hot chain: about a third of its updates reflect). Alone,
    # a chain that is not on floats runs as a batch of one.
    gibbs1d = harness.preset_gibbs1d()
    corners = [(a, b, c) for a in (-1.0, 1.0) for b in (-1.0, 1.0) for c in (-1.0, 1.0)]
    cases = [(objs[1], SphericalShell(np.zeros(2), 0.9, 4.0), 0.05, 1.0),
             (GaussianMixture(np.linspace(0.5, 1.0, 8), corners),
              SphericalShell(np.array([0.5, -0.25, 1.0]), 0.9, 4.0), 0.05, 1.0),
             (gibbs1d.objective, gibbs1d.domain, gibbs1d.eta, gibbs1d.beta),
             (Rastrigin(1), Ball(np.zeros(1), 1.0), 0.01, 1.0)]
    fields = ("f_value", "boundary_events", "fallback_events", "final_point")
    ok = True
    for obj, dom, eta, beta in cases:
        config = ChainConfig(method="rgld", eta=eta, beta=beta, steps=500,
                             enforce_step_bound=False)
        for batched in run_batch(config, (3, 4), obj, dom):
            lone = run_chain(batched.config, obj, dom)
            ok &= all(getattr(batched, f).tobytes() == getattr(lone, f).tobytes()
                      for f in fields)
    report("chain determinism", ok)

    oracle = GibbsOracle(Quadratic(1.0, 1), Ball(np.zeros(1), 1.0), 2.0, 256)
    report(
        "oracle probabilities normalized",
        abs(float(np.sum(oracle.probabilities)) - 1.0) <= 1e-10,
        f"sum={float(np.sum(oracle.probabilities)):.3e}",
    )

    # The CSV writers print floats from digits found with numpy's uint64
    # wrap-around, np.rint and np.log10; a build that differs fails here.
    powers = 10.0 ** np.arange(-8, 18)
    ties = rng.integers(10**15, 2**51, 100).astype(np.float64)
    values = np.concatenate([
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
        ties, ties + 0.25, ties + 0.75,
        [0.01, 0.001, 1e-14, 0.0, 5e-324, np.inf, np.nan],
        rng.integers(0, 2**64, 5000, dtype=np.uint64).view(np.float64),
        np.exp2(rng.uniform(-31.0, 51.0, 5000)),
    ])
    values = np.concatenate([values, -values])
    heads, bodies = harness._float_text(values)
    bad = sum(f"{h}{b}" != "%.17g" % v for h, b, v in zip(heads, bodies, values.tolist()))
    report("CSV float text", bad == 0, f"{bad} of {values.size} values differ from %.17g")

    print("all checks passed" if failures == 0 else f"{failures} check(s) failed")
    return 0 if failures == 0 else 1


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are one line, as configuration errors are."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}; see {self.prog} --help\n")


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(
        prog="rgld",
        description="Constrained Langevin optimization benchmarks "
                    "(reflected and projected chains).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a preset or a JSON experiment spec")
    p_run.add_argument("target", help="preset name or path to a JSON spec")
    p_run.add_argument("--seeds", type=_parse_seeds, default=None,
                       help="seed range a..b (inclusive) or comma list")
    p_run.add_argument("--eta", type=float, default=None)
    p_run.add_argument("--beta", type=float, default=None)
    p_run.add_argument("--steps", type=int, default=None)
    p_run.add_argument("--dim", type=int, default=None,
                       help="dimension for rosenbrock/rastrigin presets")
    p_run.add_argument("--out", default="results")
    # One process runs every chain: 1 is the only value.
    p_run.add_argument("--workers", type=int, choices=(1,), default=1)
    p_run.set_defaults(func=_cmd_run)

    p_or = sub.add_parser("oracle", help="export the Gibbs quadrature oracle")
    p_or.add_argument("target", help="preset name or path to a JSON spec")
    p_or.add_argument("--bins", type=int, default=harness.TV_BINS)
    p_or.add_argument("--dim", type=int, default=None)
    p_or.add_argument("--beta", type=float, default=None, dest="oracle_beta",
                      help="the oracle's inverse temperature (default: the spec's); 0: uniform")
    p_or.add_argument("--out", default="results")
    p_or.set_defaults(func=_cmd_oracle)

    p_chk = sub.add_parser("check", help="run the invariant battery")
    p_chk.set_defaults(func=_cmd_check)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # bad spec, settings or chain configuration
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
