"""Geometry: membership, projection, reflection, derived radii."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rgld import harness
from rgld.cli import check_float_operators, check_geometry, margin_points
from rgld.geometry import (
    Ball,
    FeasibleDomain,
    ReflectionUndefinedError,
    SphericalShell,
    sq_norm,
)

SHELL = SphericalShell(np.zeros(2), 0.9, 4.0)
BALL = Ball(np.zeros(2), 2.0)
SHELL3 = SphericalShell(np.zeros(3), 1.0, 3.0)


class TestContains:
    def test_ball_interior(self):
        assert BALL.contains([1.0, 0.0])

    @pytest.mark.parametrize("shape", [(4, 3), (4, 1), (2, 4, 2), (2, 2, 2)])
    def test_rows_of_another_dimension_rejected(self, shape):
        with pytest.raises(ValueError, match=r"^dim: expected a point or rows of dimension 2"):
            BALL.contains(np.zeros(shape))
        with pytest.raises(ValueError, match=r"^dim: expected a point of dimension 2"):
            BALL.project(np.zeros(shape))

    def test_shell_cavity_excluded(self):
        assert not SHELL.contains([0.5, 0.0])

    def test_boundary_is_member(self):
        assert SHELL.contains([4.0, 0.0])
        assert SHELL.contains([0.9, 0.0])
        assert BALL.contains([2.0, 0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            SHELL.contains([1.0, 0.0, 0.0])


def test_sq_norm_has_the_bits_of_a_point_dot():
    """Per row of a C-contiguous ``(B, d)`` array, ``sq_norm`` has the bits
    of ``v.dot(v)`` at d = 1..100. The contiguity matters: a strided row
    can round differently from its contiguous copy, as ``v.dot(v)`` does
    on a strided point."""
    rng = np.random.default_rng(8)
    for d in range(1, 101):
        V = rng.normal(scale=3.0, size=(200, d))
        rows = sq_norm(V)
        assert rows.shape == (200,)
        assert rows.tobytes() == np.array([v.dot(v) for v in V]).tobytes()
        assert all(sq_norm(v).tobytes() == r.tobytes() for v, r in zip(V, rows))


class TestProject:
    def test_shell_outer_radial(self):
        np.testing.assert_allclose(SHELL.project([5.0, 0.0]), [4.0, 0.0])

    def test_shell_inner_radial(self):
        np.testing.assert_allclose(SHELL.project([0.5, 0.0]), [0.9, 0.0])

    def test_identity_on_members_is_exact(self):
        x = np.array([1.0, 1.0])
        assert np.array_equal(BALL.project(x), x)
        y = np.array([2.5, -1.0])
        assert np.array_equal(SHELL.project(y), y)

    def test_center_tie_break(self):
        p = SHELL.project(np.zeros(2))
        np.testing.assert_array_equal(p, [0.9, 0.0])
        assert SHELL.contains(p)

    def test_ball_exterior(self):
        np.testing.assert_allclose(BALL.project([3.0, 4.0]), [1.2, 1.6])

    @pytest.mark.parametrize("domain", [SphericalShell(np.zeros(2), 0.5, 2.0), BALL],
                             ids=["shell", "ball"])
    @pytest.mark.parametrize("x", [[1e200, 1e200], [-1e300, 1e-300], [1.7e308, -1.7e308]])
    def test_overflowing_squared_norm(self, domain, x):
        # ||x||^2 overflows to inf although x is finite: the nearest point
        # is still on the outer sphere, not the center.
        x = np.array(x)
        with pytest.warns(RuntimeWarning, match="overflow encountered in dot"):
            p = domain.project(x)
        assert domain.contains(p)
        u = x / np.abs(x).max()
        np.testing.assert_allclose(p, domain.outer_radius * u / np.linalg.norm(u),
                                   rtol=1e-15, atol=1e-15)
        with pytest.warns(RuntimeWarning, match="overflow encountered in dot"):
            r, reflected, fallback = domain.reflect_or_project(x)
        assert fallback and np.array_equal(r, p)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            BALL.project([1.0])


class TestReflect:
    def test_shell_outer(self):
        r, moved = SHELL.reflect([5.0, 0.0])
        np.testing.assert_allclose(r, [3.0, 0.0])
        assert moved

    def test_shell_cavity(self):
        r, moved = SHELL.reflect([0.5, 0.0])
        np.testing.assert_allclose(r, [1.3, 0.0])
        assert moved

    def test_identity_on_members_is_exact(self):
        x = np.array([0.3, -0.7])
        r, moved = BALL.reflect(x)
        assert np.array_equal(r, x)
        assert not moved

    def test_overshoot_raises(self):
        # Reflection across the outer sphere would land inside the cavity.
        with pytest.raises(ReflectionUndefinedError):
            SHELL.reflect([7.5, 0.0])
        with pytest.raises(ReflectionUndefinedError):
            BALL.reflect([6.5, 0.0])
        # A Python float at dim 1, as a lone 1-D chain passes it.
        with pytest.raises(ReflectionUndefinedError, match="at distance 2.5 from"):
            Ball(np.zeros(1), 1.0).reflect(3.5)


class TestDistanceToSet:
    def test_examples(self):
        assert SHELL.distance_to_set([5.0, 0.0]) == pytest.approx(1.0)
        assert SHELL.distance_to_set([0.5, 0.0]) == pytest.approx(0.4)

    def test_members_have_zero_distance(self):
        assert SHELL.distance_to_set([2.0, 0.0]) == 0.0
        assert BALL.distance_to_set([0.0, 0.0]) == 0.0


class TestConstruction:
    def test_bad_radii(self):
        with pytest.raises(ValueError):
            Ball(np.zeros(2), 0.0)
        with pytest.raises(ValueError):
            SphericalShell(np.zeros(2), 4.0, 0.9)
        with pytest.raises(ValueError):
            SphericalShell(np.zeros(2), 0.0, 1.0)

    @pytest.mark.parametrize("cls,args,field", [
        (Ball, ([math.nan, 0.0], 1.0), "center"),
        (Ball, ([0.0], math.inf), "radius"),
        (SphericalShell, ([0.0, math.inf], 0.5, 1.0), "center"),
        (SphericalShell, ([0.0, 0.0], 0.5, math.inf), "radii"),
    ], ids=["ball-center-nan", "ball-radius-inf", "shell-center-inf",
            "shell-outer-inf"])
    def test_non_finite_parameters_rejected(self, cls, args, field):
        with pytest.raises(ValueError, match=f"^{field}"):
            cls(*args)

    def test_shell_needs_two_dimensions(self):
        with pytest.raises(ValueError, match="dimension"):
            SphericalShell(np.zeros(1), 0.5, 1.0)

    def test_derived_radii(self):
        assert SHELL.inscribed_radius == pytest.approx((4.0 - 0.9) / 2)
        assert SHELL.reflection_margin == pytest.approx(0.9)
        assert BALL.inscribed_radius == BALL.outer_radius == 2.0
        assert BALL.reflection_margin == 2.0
        wide = SphericalShell(np.zeros(2), 3.0, 4.0)
        assert wide.reflection_margin == pytest.approx(0.5)

    @pytest.mark.parametrize("inner,outer", [
        (2.0, 1.0), (1.0, 1.0), (0.0, 0.0), (-0.5, 1.0), (0.0, -1.0), (math.nan, 1.0),
        (0.5, math.nan), (0.5, math.inf), (-math.inf, 1.0), (math.inf, math.inf)],
        ids=["inverted", "equal", "zero", "negative-inner", "negative-outer", "nan-inner",
             "nan-outer", "inf-outer", "minus-inf-inner", "inf-both"])
    def test_direct_radii_checked(self, inner, outer):
        with pytest.raises(ValueError, match="^radii: "):
            FeasibleDomain(np.zeros(2), inner, outer)

    # (inscribed_radius, reflection_margin) of each preset's region, as
    # ``float.hex``: the values the presets have always had.
    @pytest.mark.parametrize("name,dim,inscribed,margin", [
        ("gm2d", None, "0x1.8cccccccccccdp+0", "0x1.ccccccccccccdp-1"),
        ("gm2d-pgld-vs-rgld", None, "0x1.8cccccccccccdp+0", "0x1.ccccccccccccdp-1"),
        ("rosenbrock", None, "0x1.8000000000000p+0", "0x1.0000000000000p+0"),
        ("rosenbrock", 2, "0x1.0f876ccdf6cdap+0", "0x1.6a09e667f3bcdp-1"),
        ("rosenbrock", 10, "0x1.2f9422c23c47ep+1", "0x1.94c583ada5b53p+0"),
        ("rosenbrock", 20, "0x1.ad5336963eefcp+1", "0x1.1e3779b97f4a8p+1"),
        ("rastrigin", None, "0x1.0e147ae147ae1p+1", "0x1.ccccccccccccdp-1"),
        ("rastrigin", 20, "0x1.0e147ae147ae1p+1", "0x1.ccccccccccccdp-1"),
        ("gibbs1d", None, "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    ])
    def test_preset_derived_radii_bits(self, name, dim, inscribed, margin):
        factory = harness.PRESETS[name]
        dom = (factory() if dim is None else factory(dim=dim)).domain
        assert (dom.inscribed_radius.hex(), dom.reflection_margin.hex()) == (inscribed, margin)

    @pytest.mark.parametrize("center,inner,outer,inscribed,margin", [
        (0.7, 0.3, 1.0, 0.35, 0.3),  # rgld check's two intervals
        (0.1, 0.3, 1.0, 0.35, 0.3),
        (0.0, 0.99, 1.0, 0.5 * (1.0 - 0.99), 0.5 * (1.0 - 0.99)),
    ])
    def test_direct_derived_radii_bits(self, center, inner, outer, inscribed, margin):
        dom = FeasibleDomain(np.array([center]), inner, outer)
        assert (dom.inscribed_radius, dom.reflection_margin) == (inscribed, margin)

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.sampled_from([0.0]) | st.floats(0.1, 5.0), st.floats(0.1, 5.0))
    def test_derived_radii_formulas(self, inner, wall):
        # A ball's are its radius; with a cavity, half the wall and the
        # smaller of that and the inner radius, bit for bit.
        outer = inner + wall
        dom = FeasibleDomain(np.array([-1.5]), inner, outer)
        half = 0.5 * (outer - inner)
        want = (outer, outer) if inner == 0.0 else (half, min(inner, half))
        assert (dom.inscribed_radius, dom.reflection_margin) == want


@functools.cache
def battery(domain, seed):
    """``rgld check``'s geometry battery on 10^4 margin points, run once
    per domain for the three tests below; and how many are exterior."""
    points = margin_points(domain, 10_000, seed)
    return (*check_geometry(domain, points), sum(not domain.contains(x) for x in points))


@pytest.mark.parametrize("domain,seed", [(BALL, 11), (SHELL, 12), (SHELL3, 13)])
class TestProperties:
    def test_projection_idempotent_and_feasible(self, domain, seed):
        failed, detail, _ = battery(domain, seed)
        assert "projection" not in failed, detail

    def test_reflection_isometry_and_feasibility(self, domain, seed):
        failed, detail, _ = battery(domain, seed)
        assert "reflection" not in failed, detail

    def test_normal_alignment(self, domain, seed):
        # P(x) lies on the ray from the center through x, so x - P(x) is
        # normal to the boundary at P(x), for exterior points.
        failed, detail, exterior = battery(domain, seed)
        assert "alignment" not in failed, detail
        assert exterior > 10_000 // 20


def test_alignment_fails_off_the_ray(monkeypatch):
    # A projection turned 1e-3 rad along its sphere still lands on the
    # boundary, but off x's ray: 2 P(x) - x is then no mirror image.
    dom = SphericalShell(np.zeros(2), 0.9, 4.0)
    project, (cos, sin) = dom.project, (math.cos(1e-3), math.sin(1e-3))

    def turned(x):
        p = project(x)
        return p if p is x else np.array([[cos, -sin], [sin, cos]]) @ p

    monkeypatch.setattr(dom, "project", turned)
    failed, detail = check_geometry(dom, margin_points(dom, 2000, 7))
    assert "alignment" in failed, detail


@pytest.mark.parametrize("domain", [BALL, SHELL, SHELL3])
def test_sample_uniform_feasible_and_deterministic(domain):
    rng = np.random.default_rng(5)
    pts = [domain.sample_uniform(rng) for _ in range(500)]
    assert all(domain.contains(p) for p in pts)
    rng2 = np.random.default_rng(5)
    pts2 = [domain.sample_uniform(rng2) for _ in range(500)]
    assert all(np.array_equal(a, b) for a, b in zip(pts, pts2))


def test_sample_uniform_shell_radius_law():
    # Empirical mean of ||x||^d should match uniform mass between the radii.
    dom = SHELL
    rng = np.random.default_rng(21)
    radii = np.array([np.linalg.norm(dom.sample_uniform(rng)) for _ in range(20_000)])
    assert radii.min() >= dom.inner_radius
    assert radii.max() <= dom.outer_radius
    u = (radii**2 - dom.inner_radius**2) / (dom.outer_radius**2 - dom.inner_radius**2)
    assert abs(u.mean() - 0.5) < 0.01


@st.composite
def regions_and_points(draw, reach=0.99):
    """A ball (d = 1..30) or a shell (d = 2..30) and a point whose
    distance from the center is drawn up to ``reach`` reflection margins
    beyond either sphere, or is one ulp inside, on, or one ulp outside
    one of them."""
    dom = _region(draw)
    return dom, _point(draw, dom, reach)


def _region(draw):
    is_ball = draw(st.booleans())
    dim = draw(st.integers(1 if is_ball else 2, 30))
    center = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=dim, max_size=dim)))
    inner = 0.0 if is_ball else draw(st.floats(0.1, 5.0))
    outer = inner + draw(st.floats(0.1, 5.0))
    return Ball(center, outer) if is_ball else SphericalShell(center, inner, outer)


def _point(draw, dom, reach):
    inner, outer = dom.inner_radius, dom.outer_radius
    m = reach * dom.reflection_margin
    spheres = [r for r in (inner, outer) if r > 0]
    near_sphere = [math.nextafter(r, t) for r in spheres for t in (0.0, r, math.inf)]
    rho = draw(st.sampled_from(near_sphere) | st.floats(max(0.0, inner - m), outer + m))
    u = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(dom.dim)
    return dom.center + rho * (u / np.linalg.norm(u))


@st.composite
def regions_and_rows(draw):
    """A region and a ``(B, dim)`` array of points drawn as above up to 3
    margins out, plus a NaN row."""
    dom = _region(draw)
    rows = [_point(draw, dom, 3.0) for _ in range(draw(st.integers(1, 8)))]
    return dom, np.array(rows + [np.full(dom.dim, np.nan)])


PROPERTIES = settings(derandomize=True, database=None, max_examples=300, deadline=None)


@st.composite
def regions_and_far_points(draw):
    """A region and a finite point so far out that its squared distance
    from the center overflows."""
    dom = _region(draw)
    u = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(dom.dim)
    return dom, dom.center + draw(st.floats(1e155, 1e300)) * (u / np.linalg.norm(u))


@st.composite
def intervals_and_points(draw):
    """An interval or a 1-D shell and a ``(1,)`` point drawn as above up to
    3 margins out, at the center, or so far out that its square overflows."""
    c = draw(st.floats(-3.0, 3.0))
    inner = draw(st.sampled_from([0.0]) | st.floats(0.1, 5.0))
    outer = inner + draw(st.floats(0.1, 5.0))
    dom = FeasibleDomain(np.array([c]), inner, outer)
    where = draw(st.sampled_from(["near", "center", "far"]))
    if where == "near":
        return dom, _point(draw, dom, 3.0)
    far = draw(st.floats(1e155, 1e300)) * draw(st.sampled_from([-1.0, 1.0]))
    return dom, np.array([c + (far if where == "far" else 0.0)])


class TestRegionProperties:
    @PROPERTIES
    @given(intervals_and_points())
    def test_float_operators_have_the_point_bits(self, case):
        # A Python float at dim 1 gets a float with the bits and flags of
        # the (1,) call, and itself back exactly when the point does.
        dom, x = case
        with np.errstate(over="ignore"):
            assert check_float_operators(dom, [x]) == 0

    @PROPERTIES
    @given(regions_and_far_points())
    def test_projection_of_overflowing_points(self, case):
        dom, x = case
        v = x - dom.center
        with pytest.warns(RuntimeWarning, match="overflow encountered in dot"):
            p = dom.project(x)
        assert dom.contains(p)
        # On the outer sphere, along the point's own direction.
        assert abs(float(np.linalg.norm(p - dom.center)) - dom.outer_radius) <= 1e-9
        u = v / np.abs(v).max()
        np.testing.assert_allclose((p - dom.center) / dom.outer_radius,
                                   u / np.linalg.norm(u), atol=1e-12)

    @PROPERTIES
    @given(regions_and_rows())
    def test_contains_rows_have_the_point_bits(self, case):
        dom, X = case
        assert dom.contains(X).tolist() == [dom.contains(x) for x in X]
        assert dom.contains(X[:1]).tolist() == [dom.contains(X[0])]

    @PROPERTIES
    @given(regions_and_points())
    def test_projection_feasible_and_idempotent(self, case):
        dom, x = case
        p = dom.project(x)
        assert dom.contains(p)
        assert np.array_equal(dom.project(p), p)

    @PROPERTIES
    @given(regions_and_points())
    def test_reflection_within_margin_feasible_and_isometric(self, case):
        dom, x = case
        p = dom.project(x)
        r, moved = dom.reflect(x)
        assert dom.contains(r)
        assert moved != dom.contains(x)
        scale = max(1.0, float(np.abs(x).max()))
        assert abs(np.linalg.norm(r - p) - np.linalg.norm(x - p)) <= 1e-12 * scale

    @PROPERTIES
    @given(regions_and_points(reach=3.0))
    def test_reflect_agrees_with_reflect_or_project(self, case):
        dom, x = case
        point, reflected, fallback = dom.reflect_or_project(x)
        assert dom.contains(point)
        if fallback:
            assert not reflected
            assert np.array_equal(point, dom.project(x))
            with pytest.raises(ReflectionUndefinedError):
                dom.reflect(x)
        else:
            r, moved = dom.reflect(x)
            assert np.array_equal(r, point)
            assert moved == reflected
