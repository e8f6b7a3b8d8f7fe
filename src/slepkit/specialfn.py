"""Bessel and Jacobi building blocks used by every kernel in the toolkit.

All evaluators accept scalars or numpy arrays and broadcast like ufuncs.
"""

import math

import numpy as np

from .errors import _as_int


def _special():
    """scipy.special, imported on first use: the 1D and grid routes never
    evaluate a Bessel function, and a process that runs only those skips its
    load time."""
    import scipy.special

    return scipy.special


def _check_finite_nonneg(x):
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("argument must be finite")
    if np.any(x < 0):
        raise ValueError("argument must be nonnegative")
    return x


def bessel_j(order, x):
    """Bessel function of the first kind J_order(x) for x >= 0.

    Orders: any integer (negative ones via J_{-m} = (-1)^m J_m), or the half
    orders +-1/2 which use their closed sine/cosine forms.  For order -1/2 the
    value diverges at x = 0.
    """
    x = _check_finite_nonneg(x)
    if order == 0.5:
        # sqrt(2/(pi x)) sin x, limit 0 at x = 0
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.sqrt(2.0 / (np.pi * x)) * np.sin(x)
        return np.where(x == 0.0, 0.0, out)[()]
    if order == -0.5:
        with np.errstate(divide="ignore"):
            out = np.sqrt(2.0 / (np.pi * x)) * np.cos(x)
        return out[()]
    m = int(order)
    if m != order:
        raise ValueError("order must be an integer or +-1/2")
    sign = -1.0 if (m < 0 and m % 2 != 0) else 1.0
    return (sign * _special().jv(abs(m), x))[()]


def bessel_j1_over_x(x):
    """J_1(x)/x, continued to 1/2 at x = 0.

    One working array besides x: it starts as x with the cells below 1e-4
    set to 1, takes J_1 and the division by x in place (those cells skipped),
    and the series 1/2 - x^2/16 is evaluated on just those cells.
    """
    x = _check_finite_nonneg(x)
    small = x < 1e-4
    out = np.where(small, 1.0, x)
    _special().j1(out, out=out)
    np.divide(out, x, out=out, where=~small)
    if small.any():
        xs = x[small]
        out[small] = 0.5 - xs * xs / 16.0
    return out[()]


def bessel_tail_order(x, tol):
    """Smallest n >= 1 with (x/2)^n / n! <= tol.

    |J_m(y)| <= (y/2)^m / m!, so |J_m(y)| <= tol for every order m >= n and
    every 0 <= y <= x.
    """
    n = 1
    while x > 0.0 and n * math.log(0.5 * x) - math.lgamma(n + 1) > math.log(tol):
        n += 1
    return n


def bessel_j_table(m_max, x):
    """J_0(x) .. J_m_max(x) for x >= 0, shape (m_max + 1,) + x.shape.

    Miller's backward recurrence (Numerical Recipes 6.5), run on the ratios
    r_k = J_k / J_(k-1) = x / (2k - x r_(k+1)) so that nothing overflows at
    small x, from r = 0 at an even order N past both m_max and the order
    where (x/2)^N / N! falls below 1e-17 for the largest x.  J_0 then follows
    from J_0 + 2 sum_k J_2k = 1 and J_k = J_0 r_1 ... r_k.  One pass serves
    every order and argument: N (len(x)) divisions instead of a jv call per
    value.  A ratio whose denominator rounds to exactly zero is taken at a
    denominator of one rounding unit; the products through it are unchanged
    to rounding.
    """
    x = _check_finite_nonneg(x)
    start = max(int(m_max), bessel_tail_order(float(np.max(x, initial=0.0)), 1e-17))
    start += start % 2
    ratio = np.empty((start + 1,) + x.shape)
    ratio[0] = 1.0
    r = np.zeros_like(x)
    for k in range(start, 0, -1):
        den = 2.0 * k - x * r
        r = ratio[k] = x / np.where(den == 0.0, 2.0 * k * np.finfo(float).eps, den)
    np.cumprod(ratio, axis=0, out=ratio)            # J_k / J_0
    return ratio[:m_max + 1] / (1.0 + 2.0 * np.sum(ratio[2::2], axis=0))


def jacobi_p(l, m, x):
    """Jacobi polynomial P_l^(m,0)(x) by the standard three-term recurrence."""
    l = _as_int(l, 0, np.inf, "degree l must be a nonnegative integer", ValueError)
    m = _as_int(m, 0, np.inf, "parameter m must be a nonnegative integer", ValueError)
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("argument must be finite")
    return _jacobi_sequence(l, m, x)[-1][()]


def _jacobi_sequence(lmax, m, x):
    """All of P_0^(m,0)(x) .. P_lmax^(m,0)(x), vectorized over x."""
    x = np.asarray(x, dtype=float)
    seq = [np.ones_like(x)]
    if lmax >= 1:
        seq.append((m + 1.0) + (m + 2.0) * (x - 1.0) / 2.0)
    for n in range(2, lmax + 1):
        a = 2.0 * n * (n + m) * (2.0 * n + m - 2.0)
        b1 = 2.0 * n + m - 1.0
        b2 = (2.0 * n + m) * (2.0 * n + m - 2.0)
        c = 2.0 * (n + m - 1.0) * (n - 1.0) * (2.0 * n + m)
        seq.append((b1 * (b2 * x + m * m) * seq[-1] - c * seq[-2]) / a)
    return seq
