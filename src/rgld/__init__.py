"""Constrained global optimization with reflected gradient Langevin dynamics.

The package bundles the sampler kernels (reflected, projected, and
deterministic projected descent), analytic feasible-region geometry,
benchmark objectives with closed-form gradients, a quadrature oracle for
the stationary Gibbs density on low-dimensional problems, and a
multi-seed benchmark harness with a CLI. Import from the submodules:
``rgld.geometry``, ``rgld.objectives``, ``rgld.dynamics``,
``rgld.measure``, ``rgld.harness`` and ``rgld.cli``.
"""

__version__ = "0.1.0"
