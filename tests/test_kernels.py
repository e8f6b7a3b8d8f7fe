"""Concentration kernels: closed forms, diagonals, reproducing property."""

import numpy as np
import pytest
import scipy.special
from scipy.special import jv

from slepkit import (
    DiskBandKernel, bessel_j, disk_kernel, fixedm_kernel, gauss_legendre,
    map_rule, sinc_kernel, sqrt_kernel,
)

J1_FIRST_ROOT = 3.8317059702075125  # first positive zero of J_1


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
        kern = DiskBandKernel(k)
        a = kern.features(pts, pts.mean(axis=0), span)
        assert a.shape == (150, kern.rank(span))
        want = disk_kernel(k, pts[:, None], pts[None])
        err = np.max(np.abs(a @ a.T - want)) / (k * k / (4.0 * np.pi))
        assert err < 1e-13

    def test_rule_grows_with_span(self):
        kern = DiskBandKernel(2.0)
        sizes = [kern.rule_sizes(s) for s in (0.5, 5.0, 50.0)]
        assert sizes[0][0] < sizes[1][0] < sizes[2][0]
        for n_radial, n_angles in sizes:
            # one angle count per radius, tapering towards the origin
            assert len(n_angles) == n_radial
            assert list(n_angles) == sorted(n_angles)
        assert max(sizes[0][1]) < max(sizes[1][1]) < max(sizes[2][1])
        assert kern.rank(0.5) < kern.rank(5.0) < kern.rank(50.0)
        assert kern.rank(5.0) == 2 * sum(sizes[1][1])
        assert kern.rule_sizes(0.0) == (8, (1,) * 8)

    @pytest.mark.parametrize("z, rank", [(10.0, 288), (26.0, 720), (60.0, 1962),
                                         (100.0, 4154)])
    def test_tapered_rule_sizes(self, z, rank):
        # each radius rho_j of the ceil(0.4 K span) + 8 Gauss-Legendre nodes
        # gets the smallest M_j with 2 M_j >= rho_j span and
        # |J_2M_j(rho_j span)| < 1e-15 (k = 2 keeps K span exactly z)
        k = 2.0
        kern = DiskBandKernel(k)
        n_radial, n_angles = kern.rule_sizes(z / k)
        assert n_radial == int(np.ceil(0.4 * z)) + 8
        assert kern.rank(z / k) == 2 * sum(n_angles) == rank
        x = map_rule(gauss_legendre(n_radial), 0.0, k).nodes * (z / k)
        m = np.array(n_angles)
        assert np.all(2 * m >= x) and np.all(np.abs(jv(2 * m, x)) < 1e-15)
        fewer = m - 1
        minimal = (fewer == 0) | (2 * fewer < x) | (np.abs(jv(2 * fewer, x)) >= 1e-15)
        assert minimal.all()

    def test_validation(self):
        with pytest.raises(ValueError):
            DiskBandKernel(0.0)


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
