"""Concentration kernels: closed forms, diagonals, reproducing property."""

import tracemalloc

import numpy as np
import pytest
import scipy.special
from scipy.special import jv

from slepkit import (
    DiskBandKernel, bessel_j, bessel_j1_over_x, disk_kernel, fixedm_kernel, gauss_legendre,
    map_rule, sinc_kernel, sqrt_kernel,
)
from slepkit.kernels import _features, _polar_rule, _radial_rule

J1_FIRST_ROOT = 3.8317059702075125  # first positive zero of J_1


def angle_counts(k, span):
    """Angle count M_j of each radius of the polar k-rule: each radius's
    angles start at ky = 0, the only wavevectors on that axis."""
    starts = np.flatnonzero(_polar_rule(k, span)[1] == 0.0)
    return np.diff(np.append(starts, len(_polar_rule(k, span)[1])))


def rule_width(k, span):
    """Column count 2q of the polar k-rule for separations <= span."""
    return 2 * len(_polar_rule(k, span)[0])


class TestSincKernel:
    def test_matches_sine_ratio(self):
        tw = 2.5
        x = np.array([0.0, -0.8])
        xp = np.array([0.1, 0.5])
        want = np.sin(tw * (x - xp)) / (np.pi * (x - xp))
        got = sinc_kernel(tw, x, xp)
        np.testing.assert_allclose(got, want, rtol=1e-14)

    def test_diagonal_limit(self):
        assert sinc_kernel(2.5, 0.7, 0.7) == pytest.approx(2.5 / np.pi, rel=1e-14)

    def test_even_in_separation(self):
        assert sinc_kernel(1.3, 0.2, 0.9) == sinc_kernel(1.3, 0.9, 0.2)


class TestDiskBandKernel:
    def test_call_is_disk_kernel(self):
        rng = np.random.default_rng(3)
        x, xp = rng.uniform(-2, 2, (40, 2)), rng.uniform(-2, 2, (40, 2))
        got = DiskBandKernel(3.5)(x[:, None], xp[None])
        np.testing.assert_array_equal(got, disk_kernel(3.5, x[:, None], xp[None]))

    @pytest.mark.parametrize("z", [1.0, 4.0, 10.0, 25.0, 60.0, 100.0])
    def test_features_reproduce_kernel_far_from_origin(self, z):
        # km-scale coordinates, as on the packaged plateau outline: the phases
        # are taken about the origin passed in, so precision is not lost
        k = 0.0194
        span = z / k
        origin = np.array([4.1e5, -3.7e5])
        rng = np.random.default_rng(int(z))
        r = 0.5 * span * np.sqrt(rng.uniform(size=150))
        t = rng.uniform(0.0, 2.0 * np.pi, 150)
        pts = origin + np.column_stack([r * np.cos(t), r * np.sin(t)])
        pts[:2] = origin + 0.5 * span * np.array([[1.0, 0.0], [-1.0, 0.0]])
        a = _features(_polar_rule(k, span), pts - pts.mean(axis=0))
        assert a.shape == (150, rule_width(k, span))
        want = disk_kernel(k, pts[:, None], pts[None])
        err = np.max(np.abs(a @ a.T - want)) / (k * k / (4.0 * np.pi))
        assert err < 1e-13

    def test_rule_grows_with_span(self):
        sizes = [angle_counts(2.0, s) for s in (0.5, 5.0, 50.0)]
        radial = [len(_radial_rule(2.0, s).nodes) for s in (0.5, 5.0, 50.0)]
        assert radial[0] < radial[1] < radial[2]
        for n_radial, n_angles in zip(radial, sizes):
            # one angle count per radius, tapering towards the origin
            assert len(n_angles) == n_radial
            assert list(n_angles) == sorted(n_angles)
        assert max(sizes[0]) < max(sizes[1]) < max(sizes[2])
        assert rule_width(2.0, 0.5) < rule_width(2.0, 5.0) < rule_width(2.0, 50.0)
        assert rule_width(2.0, 5.0) == 2 * sum(sizes[1])
        assert len(_radial_rule(2.0, 0.0).nodes) == 8
        assert list(angle_counts(2.0, 0.0)) == [1] * 8
        assert rule_width(2.0, 0.0) == 16

    @pytest.mark.parametrize("z, rank", [(10.0, 288), (26.0, 720), (60.0, 1962),
                                         (100.0, 4154)])
    def test_tapered_rule_sizes(self, z, rank):
        # each radius rho_j of the ceil(0.4 K span) + 8 Gauss-Legendre nodes
        # gets the smallest M_j with 2 M_j >= rho_j span and
        # |J_2M_j(rho_j span)| < 1e-15 (k = 2 keeps K span exactly z)
        k = 2.0
        radial = _radial_rule(k, z / k)
        n_angles = angle_counts(k, z / k)
        assert len(radial.nodes) == len(n_angles) == int(np.ceil(0.4 * z)) + 8
        np.testing.assert_array_equal(_polar_rule(k, z / k)[0][np.cumsum(n_angles) - n_angles],
                                      radial.nodes)
        assert rule_width(k, z / k) == 2 * sum(n_angles) == rank
        x = radial.nodes * (z / k)
        np.testing.assert_array_equal(
            x, map_rule(gauss_legendre(len(n_angles)), 0.0, k).nodes * (z / k))
        m = np.array(n_angles)
        assert np.all(2 * m >= x) and np.all(np.abs(jv(2 * m, x)) < 1e-15)
        fewer = m - 1
        minimal = (fewer == 0) | (2 * fewer < x) | (np.abs(jv(2 * fewer, x)) >= 1e-15)
        assert minimal.all()

    def test_validation(self):
        with pytest.raises(ValueError):
            DiskBandKernel(0.0)

    def test_two_public_entry_points(self):
        # the Nystrom layer reads `factor` and `extend`; the origin, span,
        # rules and widths behind them stay private
        assert {name for name in vars(DiskBandKernel) if not name.startswith("_")} == {
            "factor", "extend"}

    @pytest.mark.parametrize("k", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_bandlimit(self, k):
        with pytest.raises(ValueError, match="bandlimit must be positive and finite"):
            DiskBandKernel(k)
        with pytest.raises(ValueError, match="bandlimit must be positive and finite"):
            disk_kernel(k, np.zeros(2), np.ones(2))


class TestDiskKernel:
    def test_closed_form(self):
        k = 3.0
        x = np.array([0.5, 0.2])
        xp = np.array([-0.1, 0.4])
        r = np.hypot(*(x - xp))
        want = k * jv(1, k * r) / (2.0 * np.pi * r)
        assert disk_kernel(k, x, xp) == pytest.approx(want, rel=1e-14)

    def test_diagonal(self):
        k = 3.0
        x = np.array([0.5, 0.2])
        assert disk_kernel(k, x, x) == pytest.approx(k * k / (4 * np.pi), rel=1e-14)

    def test_zero_at_first_bessel_root(self):
        k = 2.0
        r = J1_FIRST_ROOT / k
        x = np.array([0.0, 0.0])
        xp = np.array([r, 0.0])
        assert abs(disk_kernel(k, x, xp)) < 1e-12

    def test_isotropy(self):
        k = 5.0
        a = disk_kernel(k, np.array([0.0, 0.0]), np.array([0.3, 0.4]))
        b = disk_kernel(k, np.array([0.0, 0.0]), np.array([0.5, 0.0]))
        assert a == pytest.approx(b, rel=1e-14)

    def test_reproducing_property(self):
        # integrating the kernel against itself over a large disk returns the
        # kernel (Riemann sum, truncation-limited to about a percent)
        k = 4.0
        n = 240
        lim = 6.0
        xs = np.linspace(-lim, lim, n)
        dx = xs[1] - xs[0]
        gx, gy = np.meshgrid(xs, xs)
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        x1 = np.array([0.2, 0.1])
        x2 = np.array([-0.3, 0.25])
        v1 = disk_kernel(k, x1[None, :], pts)
        v2 = disk_kernel(k, pts, x2[None, :])
        got = np.sum(v1 * v2) * dx * dx
        want = disk_kernel(k, x1, x2)
        assert got == pytest.approx(want, rel=0.01)


def unfused_j1_over_x(x):
    """J_1(x)/x as written before the evaluator kept one working array."""
    x = np.asarray(x, dtype=float)
    small = x < 1e-4
    xs = np.where(small, 1.0, x)
    return np.where(small, 0.5 - x * x / 16.0, scipy.special.j1(xs) / xs)[()]


def unfused_disk_kernel(k, x, xp):
    """disk_kernel as written with a (..., 2) difference array and full temporaries."""
    d = np.asarray(x, dtype=float) - np.asarray(xp, dtype=float)
    r = np.hypot(d[..., 0], d[..., 1])
    return (k * k / (2.0 * np.pi)) * unfused_j1_over_x(k * r)


def plateau_nodes(n):
    """n points spread like a region rule's nodes: km-scale, ~50 km across."""
    rng = np.random.default_rng(n)
    return np.array([4.1e5, -3.7e5]) + rng.uniform(-2.5e4, 2.5e4, (n, 2))


class TestOneWorkingArray:
    """disk_kernel and bessel_j1_over_x work in place, bit for bit as the
    unfused formulas, in a fraction of their memory."""

    @staticmethod
    def assert_same(got, want):
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("x", [
        0.0, 0, 3, np.nextafter(1e-4, 0.0), 1e-4, np.nextafter(1e-4, 1.0), 1e3,
        np.array(0.0), np.array(7.5),
        np.array([0.0, 5e-5, np.nextafter(1e-4, 0.0), 1e-4, np.nextafter(1e-4, 1.0), 2.0]),
        np.linspace(0.0, 1e3, 20001).reshape(1, 20001),
        np.arange(12).reshape(3, 4),
    ], ids=["zero", "int zero", "int", "below 1e-4", "1e-4", "above 1e-4", "1e3", "0-d zero",
            "0-d", "across 1e-4", "up to 1e3", "int block"])
    def test_j1_over_x_bits(self, x):
        self.assert_same(bessel_j1_over_x(x), unfused_j1_over_x(x))

    @pytest.mark.parametrize("case", ["block", "diagonal", "point", "same point", "integer",
                                      "row", "mixed"])
    def test_disk_kernel_bits(self, case):
        pts = plateau_nodes(300)
        k = 0.0194
        x, xp = {"block": (pts[:40, None], pts[None]),
                 "diagonal": (pts, pts),
                 "point": (pts[0], pts[1]),
                 "same point": (pts[3], pts[3]),
                 "integer": (np.array([[3, 1], [0, 0]]), np.array([2, -5])),
                 "row": (pts[7][None, :], pts),
                 "mixed": (pts[:5, None, None], pts[None, :6])}[case]
        k = 2.0 if case == "integer" else k
        self.assert_same(disk_kernel(k, x, xp), unfused_disk_kernel(k, x, xp))
        self.assert_same(DiskBandKernel(k)(x, xp), unfused_disk_kernel(k, x, xp))

    def test_block_peak_below_three_outputs(self):
        # a residual-check block: 312 rows against a 3360-node rule, whose
        # unfused evaluation peaks at about 8 times its output
        pts = plateau_nodes(3360)
        x, xp = pts[:312, None], pts[None]
        tracemalloc.start()
        try:
            out = disk_kernel(0.0194, x, xp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (312, 3360)
        assert peak <= 3 * out.nbytes
        np.testing.assert_array_equal(out, unfused_disk_kernel(0.0194, x, xp))


def pairwise_fixedm_kernel(m, n2d, xi, xip):
    """Reference: the p-rule sum evaluated pair by pair on the broadcast
    arguments, 2 x pairs x q Bessel values."""
    c = 2.0 * np.sqrt(n2d)
    rule = map_rule(gauss_legendre(int(np.ceil(4.0 * np.sqrt(n2d))) + 32), 0.0, 1.0)
    a, b = np.broadcast_arrays(np.asarray(xi, dtype=float), np.asarray(xip, dtype=float))
    ja = jv(m, c * rule.nodes[:, None] * a.ravel()[None, :])
    jb = jv(m, c * rule.nodes[:, None] * b.ravel()[None, :])
    vals = 4.0 * n2d * np.einsum("q,qi,qi->i", rule.weights * rule.nodes, ja, jb)
    return vals.reshape(a.shape)[()]


class TestFixedOrderKernel:
    XI = np.linspace(0.0, 1.0, 13)

    @pytest.mark.parametrize("m", [0, 1, 5, 12])
    @pytest.mark.parametrize("n2d", [3.5, 42.0])
    @pytest.mark.parametrize("args", [
        (0.3, 0.8),                                     # scalars
        (XI, XI),                                       # equal 1D arrays
        (XI[:, None], XI[None, :]),                     # outer
        (XI[:4, None, None], np.array([[0.1, 0.5, 0.9]])),  # mixed broadcast
    ], ids=["scalars", "equal", "outer", "mixed"])
    def test_matches_pairwise_formula(self, m, n2d, args):
        want = pairwise_fixedm_kernel(m, n2d, *args)
        got = fixedm_kernel(m, n2d, *args)
        assert np.shape(got) == np.shape(want)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * np.max(np.abs(want)))

    def test_bessel_values_per_point(self, monkeypatch):
        # an n x n outer call evaluates the Bessel factor on each side's n
        # points only: at most 2 n q values for the q-node p-rule
        n2d, n = 42.0, 96
        q = int(np.ceil(4.0 * np.sqrt(n2d))) + 32
        seen = []

        def counting_jv(*args):
            out = jv(*args)
            seen.append(np.size(out))
            return out

        monkeypatch.setattr(scipy.special, "jv", counting_jv)
        xi = map_rule(gauss_legendre(n), 0.0, 1.0).nodes
        fixedm_kernel(3, n2d, xi[:, None], xi[None, :])
        assert 0 < sum(seen) <= 2 * n * q

    def test_against_dense_quadrature_oracle(self):
        # brute-force the p-integral with a large independent rule
        n2d = 6.0
        a = 2.0 * np.sqrt(n2d)
        rule = gauss_legendre(400)
        p = 0.5 * (rule.nodes + 1.0)
        w = 0.5 * rule.weights
        for m in (0, 1, 4):
            for xi, xip in ((0.2, 0.7), (0.9, 0.9), (0.05, 1.0)):
                want = 4.0 * n2d * np.sum(
                    w * p * jv(m, a * p * xi) * jv(m, a * p * xip))
                got = fixedm_kernel(m, n2d, xi, xip)
                assert got == pytest.approx(want, rel=1e-12)

    def test_symmetric(self):
        assert fixedm_kernel(2, 5.0, 0.3, 0.8) == pytest.approx(
            fixedm_kernel(2, 5.0, 0.8, 0.3), rel=1e-14)

    def test_vectorized(self):
        xi = np.linspace(0.1, 1.0, 7)
        got = fixedm_kernel(0, 3.0, xi, xi)
        for i, x in enumerate(xi):
            assert got[i] == pytest.approx(fixedm_kernel(0, 3.0, x, x), rel=1e-14)


class TestSqrtKernel:
    def test_integer_order(self):
        c = 4.0
        xi, xip = 0.4, 0.9
        t = c * xi * xip
        for m in (0, 1, 3):
            want = jv(m, t) * np.sqrt(t)
            assert sqrt_kernel(m, c, xi, xip) == pytest.approx(want, rel=1e-14)

    def test_half_order_sine_closed_form(self):
        c = 4.0
        xi, xip = 0.4, 0.9
        t = c * xi * xip
        want = np.sqrt(2.0 / np.pi) * np.sin(t)
        assert sqrt_kernel(0.5, c, xi, xip) == pytest.approx(want, rel=1e-14)

    def test_minus_half_order_cosine_closed_form(self):
        c = 4.0
        xi, xip = 0.4, 0.9
        t = c * xi * xip
        want = np.sqrt(2.0 / np.pi) * np.cos(t)
        assert sqrt_kernel(-0.5, c, xi, xip) == pytest.approx(want, rel=1e-14)

    def test_half_orders_match_bessel_route(self):
        # J_{+-1/2}(t) sqrt(t) computed through bessel_j agrees with the
        # dedicated closed forms
        c, xi, xip = 3.0, 0.6, 0.8
        t = c * xi * xip
        assert sqrt_kernel(0.5, c, xi, xip) == pytest.approx(
            bessel_j(0.5, t) * np.sqrt(t), rel=1e-13)
        assert sqrt_kernel(-0.5, c, xi, xip) == pytest.approx(
            bessel_j(-0.5, t) * np.sqrt(t), rel=1e-13)
