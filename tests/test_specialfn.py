"""Special-function layer against independent series and sum oracles."""

import math

import numpy as np
import pytest
import scipy.special

from slepkit import bessel_j, bessel_j1_over_x, jacobi_p
from slepkit.specialfn import bessel_j_table


def bessel_series(m, x, terms=60):
    """Power-series oracle: J_m(x) = sum_s (-1)^s (x/2)^(m+2s) / (s! (m+s)!)."""
    total = 0.0
    for s in range(terms):
        total += (-1.0) ** s * (0.5 * x) ** (m + 2 * s) / (
            math.factorial(s) * math.factorial(m + s))
    return total


def jacobi_sum(l, a, x):
    """Explicit-sum oracle for P_l^(a,0)(x)."""
    total = 0.0
    for s in range(l + 1):
        total += (math.comb(l + a, l - s) * math.comb(l, s)
                  * ((x - 1.0) / 2.0) ** s * ((x + 1.0) / 2.0) ** (l - s))
    return total


class TestBesselJ:
    def test_matches_power_series(self):
        for m in (0, 1, 2, 5, 9):
            for x in (0.1, 1.0, 3.7, 8.5):
                assert bessel_j(m, x) == pytest.approx(
                    bessel_series(m, x), abs=1e-12)

    def test_zero_argument(self):
        assert bessel_j(0, 0.0) == 1.0
        for m in (1, 2, 7):
            assert bessel_j(m, 0.0) == 0.0

    def test_half_order_sine_form(self):
        # J_{1/2}(x) = sqrt(2/(pi x)) sin x; at x = pi/2 that is 2/pi
        x = np.pi / 2.0
        assert bessel_j(0.5, x) == pytest.approx(2.0 / np.pi, abs=1e-14)
        xs = np.linspace(0.05, 20.0, 57)
        want = np.sqrt(2.0 / (np.pi * xs)) * np.sin(xs)
        np.testing.assert_allclose(bessel_j(0.5, xs), want, atol=1e-14)

    def test_minus_half_order_cosine_form(self):
        xs = np.linspace(0.05, 20.0, 57)
        want = np.sqrt(2.0 / (np.pi * xs)) * np.cos(xs)
        np.testing.assert_allclose(bessel_j(-0.5, xs), want, atol=1e-14)

    def test_vectorized_matches_scalar(self):
        xs = np.array([0.3, 1.1, 4.0])
        vec = bessel_j(2, xs)
        for i, x in enumerate(xs):
            assert vec[i] == bessel_j(2, float(x))

    def test_rejects_bad_order_and_argument(self):
        with pytest.raises(ValueError):
            bessel_j(0.3, 1.0)
        with pytest.raises(ValueError):
            bessel_j(1, -1.0)
        with pytest.raises(ValueError):
            bessel_j(1, np.inf)

    def test_sum_rule(self):
        # J_0(x)^2 + 2 sum_{n>=1} J_n(x)^2 = 1
        for x in (0.5, 2.0, 7.3, 15.0):
            total = bessel_j(0, x) ** 2
            total += 2.0 * sum(bessel_j(n, x) ** 2 for n in range(1, 40))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_addition_identity(self):
        # J_0(x + y) = sum_k J_k(x) J_{-k}(y) with J_{-k} = (-1)^k J_k,
        # whose k and -k terms pair up into 2 (-1)^k J_k(x) J_k(y)
        x, y = 1.3, 2.1
        total = bessel_j(0, x) * bessel_j(0, y)
        for k in range(1, 40):
            total += 2.0 * (-1.0) ** k * bessel_j(k, x) * bessel_j(k, y)
        assert total == pytest.approx(bessel_j(0, x + y), abs=1e-12)

    def test_derivative_identity(self):
        # d/dx [x J_1(x)] = x J_0(x), checked by central difference
        for x in (0.7, 2.5, 6.0):
            h = 1e-6
            lhs = ((x + h) * bessel_j(1, x + h) - (x - h) * bessel_j(1, x - h)) / (2 * h)
            assert lhs == pytest.approx(x * bessel_j(0, x), abs=1e-6)


class TestBesselTable:
    """Miller's backward recurrence against scipy's jv and against mpmath."""

    XS = np.concatenate([[0.0, 1e-300, 1e-20, 1e-8], np.linspace(0.0, 40.0, 801)[1:],
                         np.random.default_rng(6).uniform(0.0, 40.0, 400)])

    def test_matches_jv(self):
        got = bessel_j_table(60, self.XS)
        assert got.shape == (61, len(self.XS))
        # jv itself (AMOS) is off by up to 1.2e-15 near orders 40 at x = 38;
        # the 1e-15 bound is held against mpmath below
        want = scipy.special.jv(np.arange(61)[:, None], self.XS)
        np.testing.assert_allclose(got, want, rtol=0, atol=2e-15)
        # exact at x = 0, and the leading term at 1e-300 without overflow
        assert np.array_equal(got[:, 0], np.eye(61)[0])
        assert got[0, 1] == 1.0 and got[1, 1] == 5e-301 and np.all(got[2:, 1] == 0.0)

    def test_within_1e_15_of_mpmath(self):
        mp = pytest.importorskip("mpmath")
        xs = np.concatenate([[0.0, 1e-300, 2.404825557695773, 38.25183505955069],
                             np.random.default_rng(7).uniform(0.0, 40.0, 36)])
        want = np.array([[float(mp.besselj(m, mp.mpf(float(x)))) for x in xs]
                         for m in range(61)])
        np.testing.assert_allclose(bessel_j_table(60, xs), want, rtol=0, atol=1e-15)

    def test_shapes_and_domain(self):
        assert bessel_j_table(3, 2.0).shape == (4,)
        assert bessel_j_table(0, np.ones((2, 3))).shape == (1, 2, 3)
        with pytest.raises(ValueError):
            bessel_j_table(2, -1.0)


class TestJ1OverX:
    def test_limit_at_zero(self):
        assert bessel_j1_over_x(0.0) == 0.5

    def test_matches_ratio_away_from_zero(self):
        xs = np.linspace(0.01, 30.0, 101)
        want = np.array([bessel_j(1, x) / x for x in xs])
        np.testing.assert_allclose(bessel_j1_over_x(xs), want, rtol=1e-12)

    def test_series_continuity_at_crossover(self):
        # just above the switch point the ratio branch is used; it must agree
        # with the series value at the same argument to rounding level
        x = 1.01e-4
        series = 0.5 - x * x / 16.0
        assert abs(bessel_j1_over_x(x) - series) < 1e-15


class TestJacobiP:
    def test_matches_explicit_sum(self):
        xs = np.linspace(-1.0, 1.0, 21)
        for l in (0, 1, 2, 5, 12):
            for a in (0, 1, 3, 10):
                want = np.array([jacobi_sum(l, a, x) for x in xs])
                np.testing.assert_allclose(jacobi_p(l, a, xs), want,
                                           rtol=1e-10, atol=1e-10)

    def test_value_at_one(self):
        # P_l^(a,0)(1) = C(l + a, l)
        for l in (0, 3, 7):
            for a in (0, 2, 5):
                assert jacobi_p(l, a, 1.0) == pytest.approx(
                    math.comb(l + a, l), rel=1e-12)

    def test_legendre_specialization(self):
        # a = 0 gives Legendre polynomials: P_2(x) = (3x^2 - 1)/2
        xs = np.linspace(-1, 1, 11)
        np.testing.assert_allclose(jacobi_p(2, 0, xs), 1.5 * xs ** 2 - 0.5,
                                   atol=1e-14)

    def test_rejects_bad_degrees(self):
        with pytest.raises(ValueError):
            jacobi_p(-1, 0, 0.5)
        with pytest.raises(ValueError):
            jacobi_p(2, -1, 0.5)
