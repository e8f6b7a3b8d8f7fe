"""Reproducing kernels: 1D sinc, planar disk, fixed-order radial, square-root.

All evaluators broadcast over numpy arrays so matrix assembly is one call.
"""

import numpy as np
from scipy import special as _sp

from . import quadrature
from .specialfn import bessel_j1_over_x


def sinc_kernel(tw, x, xp):
    """sin(TW (x - x')) / (pi (x - x')), diagonal value TW/pi."""
    if tw <= 0:
        raise ValueError("time-bandwidth product must be positive")
    d = np.asarray(x, dtype=float) - np.asarray(xp, dtype=float)
    out = np.where(d == 0.0, tw / np.pi,
                   np.sin(tw * np.where(d == 0.0, 1.0, d)) / (np.pi * np.where(d == 0.0, 1.0, d)))
    return out[()]


def disk_kernel(k, x, xp):
    """Isotropic bandlimiting kernel K J_1(K r) / (2 pi r), r = |x - x'|.

    Points are arrays with a trailing axis of length 2; the diagonal value is
    K^2 / (4 pi).
    """
    if k <= 0:
        raise ValueError("bandlimit must be positive")
    d = np.asarray(x, dtype=float) - np.asarray(xp, dtype=float)
    r = np.hypot(d[..., 0], d[..., 1])
    return (k * k / (2.0 * np.pi)) * bessel_j1_over_x(k * r)


class DiskBandKernel:
    """The disk-bandlimit kernel together with its k-space factor.

    Called as kernel(x, x') it is disk_kernel at bandlimit k.  Because
    D(x, x') = (2 pi)^-2 int_{|k'|<K} exp(i k'.(x - x')) dk', a k-space rule
    turns it into A(x) A(x')^T with real cos/sin columns; `features` builds A
    on a polar rule that reproduces the kernel to ~1e-13 relative for every
    separation |x - x'| <= span.
    """

    def __init__(self, k):
        if k <= 0:
            raise ValueError("bandlimit must be positive")
        self.k = float(k)

    def __call__(self, x, xp):
        return disk_kernel(self.k, x, xp)

    def rule_sizes(self, span):
        """(radial, angular) node counts of the polar k-rule for separations <= span.

        Gauss-Legendre in |k| takes ceil(0.4 K span) + 8 nodes.  The M uniform
        angles on [0, pi) pair with their antipodes into a 2M-point trapezoid
        rule on the circle, whose error is 2 J_2M(|k| r); M is the smallest
        value with 2M >= K span and |J_2M(K span)| < 1e-15.
        """
        z = self.k * float(span)
        n_angles = max(1, int(np.ceil(0.5 * z)))
        while abs(_sp.jv(2 * n_angles, z)) >= 1e-15:
            n_angles += 1
        return int(np.ceil(0.4 * z)) + 8, n_angles

    def rank(self, span):
        """Column count 2q of the factor sized for separations <= span."""
        n_radial, n_angles = self.rule_sizes(span)
        return 2 * n_radial * n_angles

    def features(self, points, origin, span):
        """The (n, 2q) factor A with A A^T = kernel on (n, 2) points.

        Phases are taken relative to `origin`, so far-off coordinates keep
        full precision when the origin sits among the points.
        """
        n_radial, n_angles = self.rule_sizes(span)
        radial = quadrature.map_rule(quadrature.gauss_legendre(n_radial), 0.0, self.k)
        theta = np.pi * np.arange(n_angles) / n_angles
        kx = np.outer(radial.nodes, np.cos(theta)).ravel()
        ky = np.outer(radial.nodes, np.sin(theta)).ravel()
        # (2 pi)^-2 rho w_rho (pi / M) per wavevector, times 2 for its antipode
        scale = np.repeat(np.sqrt(radial.nodes * radial.weights / (2.0 * np.pi * n_angles)),
                          n_angles)
        d = np.asarray(points, dtype=float) - np.asarray(origin, dtype=float)
        phase = np.multiply.outer(d[:, 0], kx) + np.multiply.outer(d[:, 1], ky)
        q = len(kx)
        out = np.empty((len(d), 2 * q))
        np.cos(phase, out=out[:, :q])
        np.sin(phase, out=out[:, q:])
        out[:, :q] *= scale
        out[:, q:] *= scale
        return out


def _p_rule(n2d):
    n = int(np.ceil(4.0 * np.sqrt(n2d))) + 32
    return quadrature.map_rule(quadrature.gauss_legendre(n), 0.0, 1.0)


def fixedm_kernel(m, n2d, xi, xip):
    """Fixed-angular-order radial kernel 4 N2D int_0^1 J_m(c p xi) J_m(c p xi') p dp.

    c = 2 sqrt(N2D); the p-integral is evaluated by Gauss-Legendre with
    ceil(4 sqrt(N2D)) + 32 nodes.  Symmetric in (xi, xi').

    The rule makes the kernel a sum over the p-nodes of products
    J_m(c p xi) J_m(c p xi'), so the Bessel factor is evaluated on each
    argument's own points (xi.shape + (q,) values) and the q-sum is taken with
    broadcasting: an (n, 1) x (1, n) outer call costs 2 n q Bessel values, not
    2 n^2 q.
    """
    if n2d < 0:
        raise ValueError("Shannon number must be nonnegative")
    if m < 0 or int(m) != m:
        raise ValueError("order must be a nonnegative integer")
    c = 2.0 * np.sqrt(n2d)
    rule = _p_rule(n2d)
    a, b = np.asarray(xi, dtype=float), np.asarray(xip, dtype=float)
    ja = _sp.jv(m, np.multiply.outer(a, c * rule.nodes))
    jb = ja if b is a or (b.shape == a.shape and np.array_equal(a, b)) else _sp.jv(
        m, np.multiply.outer(b, c * rule.nodes))
    vals = 4.0 * n2d * np.einsum("...q,...q->...", ja * (rule.weights * rule.nodes), jb)
    return vals[()]


def sqrt_kernel(m, c, xi, xip):
    """Square-root kernel J_m(c xi xi') sqrt(c xi xi').

    Iterating this operator reproduces fixedm_kernel (up to the factor c), so
    its eigenvalues gamma give concentration eigenvalues lambda = c gamma^2.
    Orders: integers >= 0, or +-1/2 with the closed sine/cosine forms
    sqrt(2/pi) sin(c xi xi') and sqrt(2/pi) cos(c xi xi').
    """
    if c <= 0:
        raise ValueError("bandwidth parameter c must be positive")
    t = c * np.asarray(xi, dtype=float) * np.asarray(xip, dtype=float)
    if np.any(t < 0):
        raise ValueError("xi and xi' must be nonnegative")
    if m == 0.5:
        return (np.sqrt(2.0 / np.pi) * np.sin(t))[()]
    if m == -0.5:
        return (np.sqrt(2.0 / np.pi) * np.cos(t))[()]
    if m < 0 or int(m) != m:
        raise ValueError("order must be a nonnegative integer or +-1/2")
    return (_sp.jv(m, t) * np.sqrt(t))[()]
