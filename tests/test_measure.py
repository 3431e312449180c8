"""Gibbs quadrature oracle, cell counts, total variation, gap bound."""

import math

import numpy as np
import pytest

from rgld import harness, measure
from rgld.geometry import Ball, FeasibleDomain, SphericalShell
from rgld.harness import export_cells_csv
from rgld.measure import (
    GibbsOracle,
    bin_samples,
    gibbs_mean_f,
    near_optimality_bound,
    total_variation,
    tv_distance,
)
from rgld.objectives import Objective, Quadratic, make_grid_gaussian_mixture

UNIT_BALL1 = Ball(np.zeros(1), 1.0)
GM_SHELL = SphericalShell(np.zeros(2), 0.9, 4.0)


class ConstantObjective(Objective):
    def __init__(self, c: float, dim: int):
        self.c = float(c)
        self.dim = dim

    def value(self, x):
        return self.c

    def gradient(self, x):
        return np.zeros(self.dim)

    def value_many(self, X):
        return np.full(np.asarray(X).shape[0], self.c)


class TestOracle:
    def test_constant_objective_gives_uniform_cells(self):
        oracle = GibbsOracle(ConstantObjective(3.5, 2), GM_SHELL, 1.0, 64)
        inside = oracle.probabilities[oracle.in_domain]
        np.testing.assert_allclose(inside, inside[0])
        assert np.all(oracle.probabilities[~oracle.in_domain] == 0.0)

    def test_zero_beta_gives_uniform_cells(self):
        oracle = GibbsOracle(make_grid_gaussian_mixture(6), GM_SHELL, 0.0, 64)
        inside = oracle.probabilities[oracle.in_domain]
        np.testing.assert_allclose(inside, inside[0])

    def test_normalizing_constant_matches_error_function(self):
        # For f = x^2/2 with beta 2 on [-1, 1], Z is the integral of
        # exp(-x^2), i.e. sqrt(pi) erf(1).
        oracle = GibbsOracle(Quadratic(1.0, 1), UNIT_BALL1, 2.0, 512)
        exact = math.sqrt(math.pi) * math.erf(1.0)
        assert abs(oracle.normalizing_constant - exact) < 1e-4

    def test_probabilities_sum_to_one(self):
        for beta in (0.5, 1.0, 8.0):
            oracle = GibbsOracle(make_grid_gaussian_mixture(6), GM_SHELL, beta, 128)
            assert abs(float(np.sum(oracle.probabilities)) - 1.0) <= 1e-10
            assert oracle.normalizing_constant > 0
            assert math.isfinite(oracle.normalizing_constant)

    def test_refinement_stability_of_z(self):
        # Doubling the resolution twice moves Z by at most 0.5 percent.
        for obj, dom, beta in (
            (Quadratic(1.0, 1), UNIT_BALL1, 2.0),
            (make_grid_gaussian_mixture(6), GM_SHELL, 1.0),
            (make_grid_gaussian_mixture(6), GM_SHELL, 8.0),
        ):
            z128 = GibbsOracle(obj, dom, beta, 128).normalizing_constant
            z512 = GibbsOracle(obj, dom, beta, 512).normalizing_constant
            assert abs(z512 - z128) / z512 < 0.005

    def test_rejects_high_dimension(self):
        dom = SphericalShell(np.zeros(3), 0.9, 4.0)
        with pytest.raises(ValueError, match="^dim: the quadrature oracle supports "
                                             "dimension 1 or 2 only, got 3$"):
            GibbsOracle(ConstantObjective(0.0, 3), dom, 1.0, 64)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="^dimension: objective dimension 2 does not "
                                             "match domain dimension 1$"):
            GibbsOracle(Quadratic(1.0, 2), UNIT_BALL1, 1.0, 64)

    def test_rejects_coarse_grid(self):
        with pytest.raises(ValueError, match="^n_per_axis: must be at least 32, got 16$"):
            GibbsOracle(Quadratic(1.0, 1), UNIT_BALL1, 1.0, 16)

    def test_grid_at_the_cell_bound_is_built(self):
        oracle = GibbsOracle(Quadratic(1.0, 1), UNIT_BALL1, 1.0, measure.MAX_CELLS)
        assert oracle.n_cells == measure.MAX_CELLS

    def test_rejects_grid_with_no_cell_in_the_region(self):
        # The region 0.99 <= |x| <= 1 lies between the outermost midpoints
        # (+-0.96875) and the edges of 32 cells on [-1, 1].
        dom = FeasibleDomain(np.zeros(1), 0.99, 1.0)
        with pytest.raises(ValueError, match="^n_per_axis: no cell midpoint lies in the region$"):
            GibbsOracle(Quadratic(1.0, 1), dom, 1.0, 32)

    def test_row_blocks_give_the_bits_of_one_block(self, monkeypatch):
        # 4096 cells in blocks of 1000: the last block is short.
        def build(rows):
            monkeypatch.setattr(measure, "_ROWS", rows)
            return GibbsOracle(make_grid_gaussian_mixture(6), GM_SHELL, 1.0, 64)
        one, blocks = build(1 << 20), build(1000)
        for field in ("f_values", "probabilities"):
            assert getattr(blocks, field).tobytes() == getattr(one, field).tobytes(), field
        assert blocks.normalizing_constant == one.normalizing_constant


class TestGibbsMean:
    def test_constant(self):
        oracle = GibbsOracle(ConstantObjective(2.25, 2), GM_SHELL, 1.0, 64)
        assert gibbs_mean_f(oracle) == pytest.approx(2.25, rel=1e-12)

    def test_quadratic_closed_form(self):
        # E[x^2/2] under exp(-x^2) restricted to [-1, 1]:
        # integral x^2 exp(-x^2) = sqrt(pi)/2 erf(1) - exp(-1).
        oracle = GibbsOracle(Quadratic(1.0, 1), UNIT_BALL1, 2.0, 512)
        z = math.sqrt(math.pi) * math.erf(1.0)
        second_moment = 0.5 * math.sqrt(math.pi) * math.erf(1.0) - math.exp(-1.0)
        exact = 0.5 * second_moment / z
        assert gibbs_mean_f(oracle) == pytest.approx(exact, abs=1e-5)

    def test_decreases_with_beta(self):
        # d/dbeta E_pi f = -Var_pi f <= 0, so the mean falls toward the
        # minimum as beta grows.
        gm = make_grid_gaussian_mixture(6)
        means = [
            gibbs_mean_f(GibbsOracle(gm, GM_SHELL, b, 256)) for b in (1.0, 2.0, 4.0, 8.0)
        ]
        assert all(a > b for a, b in zip(means, means[1:]))


class TestHistogramAndTV:
    def test_multinomial_sampling_approaches_zero(self):
        # Resampling the oracle itself at the stationarity run's sample
        # size and binning shows the pure-sampling noise floor sits far
        # below the 0.05 total-variation threshold used there.
        oracle = GibbsOracle(Quadratic(1.0, 1), UNIT_BALL1, 2.0, 256)
        rng = np.random.default_rng(0)
        total = 2 * 10**6
        counts = rng.multinomial(total, oracle.probabilities)
        tv = tv_distance(counts, oracle)
        assert tv <= 0.5 * math.sqrt(oracle.n_cells / total) + 0.01
        assert tv < 0.05 / 5

    def test_point_mass_matches_point_mass(self):
        # Odd cell count puts one midpoint exactly at the origin, where a
        # huge beta concentrates essentially all oracle mass; a histogram
        # concentrated in that cell has vanishing distance.
        oracle = GibbsOracle(Quadratic(1e6, 1), UNIT_BALL1, 1e6, 255)
        center_cell = int(np.argmax(oracle.probabilities))
        counts = np.zeros(oracle.n_cells, dtype=np.int64)
        counts[center_cell] = 1000
        assert tv_distance(counts, oracle) < 1e-6

    def test_disjoint_supports(self):
        p = np.array([1.0, 0.0, 0.0])
        q = np.array([0.0, 0.5, 0.5])
        assert total_variation(p, q) == 1.0

    def test_binning_counts_and_feasibility(self):
        oracle = GibbsOracle(Quadratic(1.0, 1), UNIT_BALL1, 2.0, 64)
        samples = np.array([-0.999, -0.5, 0.0, 0.25, 0.9999, 1.0])
        counts = bin_samples(oracle, samples)
        assert counts.shape == (oracle.n_cells,)
        assert int(counts.sum()) == samples.size
        # Every sample lands in a cell, so the frequencies divide by the
        # sample count itself.
        assert tv_distance(counts, oracle) == total_variation(
            counts / samples.size, oracle.probabilities)

    def test_partition_mismatch_rejected(self):
        a = GibbsOracle(Quadratic(1.0, 1), UNIT_BALL1, 2.0, 64)
        b = GibbsOracle(Quadratic(1.0, 1), UNIT_BALL1, 2.0, 128)
        counts = bin_samples(b, np.array([0.0]))
        with pytest.raises(ValueError, match="^counts: expected 64 cells, got shape \\(128,\\)$"):
            tv_distance(counts, a)
        with pytest.raises(ValueError, match="^counts: no sample$"):
            tv_distance(np.zeros(a.n_cells, dtype=np.int64), a)

    def test_metric_properties_on_probability_vectors(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            p, q, r = (rng.dirichlet(np.ones(12)) for _ in range(3))
            assert total_variation(p, q) == pytest.approx(total_variation(q, p))
            assert 0.0 <= total_variation(p, q) <= 1.0
            assert total_variation(p, r) <= (
                total_variation(p, q) + total_variation(q, r) + 1e-12
            )
            assert total_variation(p, p) == 0.0


class TestNearOptimalityBound:
    def test_first_branch_log_four(self):
        # With r = R = 1 and L tiny, the max picks 2/r and the bound is
        # (d/beta) log(4).
        assert near_optimality_bound(1, 1.0, 1.0, 1.0, 1e-9) == pytest.approx(
            math.log(4.0)
        )

    def test_second_branch_doubling_beta(self):
        d, r, R, L = 2, 1.55, 4.0, 3.0
        for beta in (1.0, 2.0):
            arg = 2 * R * max(
                2 / r, L * beta * (r + math.sqrt(r * r + R * R)) / (r * math.log(2))
            )
            assert near_optimality_bound(d, beta, r, R, L) == pytest.approx(
                (d / beta) * math.log(arg)
            )

    def test_positive_for_valid_geometry(self):
        # r <= R forces the log argument above 4.
        rng = np.random.default_rng(2)
        for _ in range(100):
            r = rng.uniform(0.01, 5.0)
            R = r * rng.uniform(1.0, 10.0)
            val = near_optimality_bound(3, rng.uniform(0.1, 50), r, R, rng.uniform(1e-6, 1e3))
            assert val > 0

    def test_bounds_the_gibbs_gap_on_benchmark_problems(self):
        # Quadrature mean versus the known minimum, using the
        # conservative Lipschitz constant.
        cases = []
        q = Quadratic(1.0, 1)
        cases.append((q, UNIT_BALL1, 2.0, 0.0))
        gm = make_grid_gaussian_mixture(6)
        cases.append((gm, GM_SHELL, 1.0, gm.global_min_value))
        for obj, dom, beta, min_f in cases:
            L, _ = obj.lipschitz_bounds(dom)
            bound = near_optimality_bound(
                dom.dim, beta, dom.inscribed_radius, dom.outer_radius, L
            )
            gap = gibbs_mean_f(GibbsOracle(obj, dom, beta, 512)) - min_f
            assert 0 <= gap <= bound

    def test_rejects_nonpositive_arguments(self):
        with pytest.raises(ValueError, match="beta"):
            near_optimality_bound(1, 0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="r "):
            near_optimality_bound(1, 1.0, -1.0, 1.0, 1.0)


def old_cells_text(oracle):
    """The text of the former per-cell f-string writer."""
    dim = len(oracle.edges)
    lines = ["cell," + ",".join(f"mid_{i}" for i in range(dim)) + ",probability"]
    for c in range(oracle.n_cells):
        coords = ",".join(f"{v:.17g}" for v in oracle.midpoints[c])
        lines.append(f"{c},{coords},{oracle.probabilities[c]:.17g}")
    return "\n".join(lines) + "\n"


class TestCellClassification:
    @pytest.mark.parametrize("domain", [
        Ball(np.array([0.3]), 1.7), Ball(np.array([-0.2, 0.7]), 1.3),
        SphericalShell(np.array([0.1, -0.4]), 0.6, 2.0), GM_SHELL,
    ])
    def test_batched_membership_matches_contains(self, domain):
        oracle = GibbsOracle(Quadratic(1.0, domain.dim), domain, 1.0, 96)
        want = [domain.contains(m) for m in oracle.midpoints]
        assert oracle.in_domain.dtype == bool
        assert oracle.in_domain.tolist() == want


class TestExport:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_same_bytes_as_per_cell_rows(self, dim, tmp_path, monkeypatch):
        # Blocks of 1000 rows: the 2-D grid of 64^2 cells spans five.
        monkeypatch.setattr(harness, "_BLOCK_ROWS", 1000)
        domain = UNIT_BALL1 if dim == 1 else GM_SHELL
        obj = Quadratic(1.0, 1) if dim == 1 else make_grid_gaussian_mixture(6)
        oracle = GibbsOracle(obj, domain, 2.0, 64)
        path = tmp_path / "cells.csv"
        export_cells_csv(path, oracle)
        assert path.read_bytes() == old_cells_text(oracle).encode("utf-8")

    def test_cells_csv_roundtrip(self, tmp_path):
        oracle = GibbsOracle(Quadratic(1.0, 1), UNIT_BALL1, 2.0, 64)
        path = tmp_path / "cells.csv"
        export_cells_csv(path, oracle)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "cell,mid_0,probability"
        assert len(lines) == 1 + oracle.n_cells
        probs = [float(row.split(",")[2]) for row in lines[1:]]
        assert sum(probs) == pytest.approx(1.0, abs=1e-9)
