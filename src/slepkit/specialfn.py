"""Bessel and Jacobi building blocks used by every kernel in the toolkit.

All evaluators accept scalars or numpy arrays and broadcast like ufuncs.
"""

import numpy as np


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
    """J_1(x)/x, continued to 1/2 at x = 0."""
    x = _check_finite_nonneg(x)
    small = x < 1e-4
    xs = np.where(small, 1.0, x)
    out = np.where(small, 0.5 - x * x / 16.0, _special().j1(xs) / xs)
    return out[()]


def jacobi_p(l, m, x):
    """Jacobi polynomial P_l^(m,0)(x) by the standard three-term recurrence."""
    if l < 0 or int(l) != l:
        raise ValueError("degree l must be a nonnegative integer")
    if m < 0 or int(m) != m:
        raise ValueError("parameter m must be a nonnegative integer")
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("argument must be finite")
    return _jacobi_sequence(int(l), int(m), x)[-1][()]


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
