"""Reproducing kernels: 1D sinc, planar disk, fixed-order radial, square-root.

All evaluators broadcast over numpy arrays so matrix assembly is one call.
DiskBandKernel also answers the Nystrom layer's two questions, `factor`
for the eigensolve and `extend` for the extension, and makes every choice
behind them: the origin, the span, the rules and their widths.
"""

import functools

import numpy as np

from . import fredholm, quadrature
from .errors import _as_int, _as_positive
from .specialfn import _special, bessel_j1_over_x, bessel_j_table, bessel_tail_order


def sinc_kernel(tw, x, xp):
    """sin(TW (x - x')) / (pi (x - x')), diagonal value TW/pi."""
    tw = _as_positive(tw, "time-bandwidth product must be positive and finite", ValueError)
    d = np.asarray(x, dtype=float) - np.asarray(xp, dtype=float)
    out = np.where(d == 0.0, tw / np.pi,
                   np.sin(tw * np.where(d == 0.0, 1.0, d)) / (np.pi * np.where(d == 0.0, 1.0, d)))
    return out[()]


def disk_kernel(k, x, xp):
    """Isotropic bandlimiting kernel K J_1(K r) / (2 pi r), r = |x - x'|.

    Points are arrays with a trailing axis of length 2; the diagonal value is
    K^2 / (4 pi).  Besides its output the call holds one working array:
    x - x' per coordinate, with r by hypot and K r taken in place in the
    first, so its peak is about 2.3 times the output.
    """
    k = _as_positive(k, "bandlimit must be positive and finite", ValueError)
    x, xp = np.asarray(x, dtype=float), np.asarray(xp, dtype=float)
    r = np.empty(np.broadcast_shapes(x.shape, xp.shape)[:-1])   # 0-d for two points
    np.subtract(x[..., 0], xp[..., 0], out=r)
    np.hypot(r, x[..., 1] - xp[..., 1], out=r)
    r *= k
    out = bessel_j1_over_x(r)
    out *= k * k / (2.0 * np.pi)
    return out


class DiskBandKernel:
    """The disk-bandlimit kernel and the two factors the Nystrom layer reads.

    Called as kernel(x, x') it is disk_kernel at bandlimit k.  `factor` is
    the eigensolve's factor: the kernel split by angular order about the
    node mean, each order cut to its numerical rank on the disk that holds
    the nodes.  `extend` applies the kernel from the nodes to query points
    through a second factor: since
    D(x, x') = (2 pi)^-2 int_{|k'|<K} exp(i k'.(x - x')) dk', a k-space rule
    turns it into A(x) A(x')^T with real cos/sin columns, on a tapered polar
    rule (_polar_rule, built once per span) that reproduces the kernel to
    ~1e-13 relative for every separation |x - x'| <= span.
    """

    def __init__(self, k):
        self.k = _as_positive(k, "bandlimit must be positive and finite", ValueError)

    def __call__(self, x, xp):
        return disk_kernel(self.k, x, xp)

    def factor(self, nodes, weights):
        """(B, kept): the (n, w) factor with B B^T = W D W on (n, 2) nodes, W = diag(weights).

        About the node mean, with r_max the largest node radius, the kernel
        splits by angular order (the Jacobi-Anger expansion of its k-integral):
        D(x, x') = (2 pi)^-1 sum_m eps_m cos m(phi - phi') I_m(r, r'),
        I_m(r, r') = int_0^K J_m(rho r) J_m(rho r') rho drho, eps_0 = 1 and
        eps_m = 2, with I_m taken on the radial rule of a polar k-rule for
        separations 2 r_max (_radial_rule).  Order m holds one column
        s_j J_m(rho_j r) per radius, s_j = sqrt(eps_m w_j rho_j / 2 pi),
        times cos m phi and sin m phi; those columns are compressed to the
        numerical rank of the disk of radius r_max (_multipole_radial), and
        kept[m] counts the radial functions order m keeps, so
        w = 2 sum(kept) - kept[0].  They are read at the node radii from a
        Chebyshev table through one barycentric matrix, and e^(i m phi) is
        ((dx + i dy) / r)^m.  B is the transpose of a C-ordered (w, n)
        array, so B^T B is one symmetric product.
        """
        d, r, r_max = _radii(nodes, np.mean(nodes, axis=0))
        table, order, kept = _multipole_radial(self.k, r_max)
        interp = _barycentric(r / (r_max or 1.0), *_chebyshev_points(table.shape[1], 0.0, 1.0))
        radial = table @ (interp * np.asarray(weights, dtype=float)[:, None]).T
        # at r = 0 only order 0 contributes: z = 0 there, and z^0 = 1
        turn = np.zeros((len(kept), len(r)), dtype=complex)
        turn[0] = 1.0
        np.divide(d[:, 0] + 1j * d[:, 1], r, out=turn[1:], where=r > 0)
        np.cumprod(turn, axis=0, out=turn)
        n0, wrad = kept[0], len(order)
        out = np.empty((2 * wrad - n0, len(r)))
        np.multiply(radial, turn.real[order], out=out[:wrad])
        np.multiply(radial[n0:], turn.imag[order[n0:]], out=out[wrad:])
        return out.T, kept

    def extend(self, values, nodes, points):
        """A(x) (A(nodes)^T values) at the points x, (m, r) for (n, r) values, or None.

        The polar rule is sized to the largest query-to-node distance about
        the node mean.  A(nodes) is never formed (_node_apply).  When
        `points` is a (ny, nx, 2) tensor grid (x constant down every column,
        y along every row, compared exactly), A(x) is not formed either: 1D
        phase tables synthesize it (_grid_apply), and the factor is taken
        while its width 2q is at most max(n, m).  Other points take it while
        2q <= n.  Past those widths the result is None, and the caller
        evaluates the kernel itself.  Node blocks (their samples, phases and
        sums), query blocks and factor blocks each hold at most
        fredholm.EXTEND_CHUNK entries; only the grid's (nx, q) x table is
        built whole.
        """
        points = np.asarray(points, dtype=float)
        flat, axes = points.reshape(-1, 2), _grid_axes(points)
        origin = np.mean(nodes, axis=0)
        d, _, radius = _radii(nodes, origin)
        span = _radii(flat, origin)[2] + radius
        limit = len(d) if axes is None else max(len(d), len(flat))
        # 2 M_j >= rho_j span and the n_r > 0.4 K span Gauss radii on [0, K]
        # sum to n_r K / 2, so 2q > 0.2 (K span)^2: no rule past that is built
        if 0.2 * (self.k * span) ** 2 > limit:
            return None
        rule = _polar_rule(self.k, span)
        width = 2 * len(rule[0])
        if width > limit:
            return None
        coef = _node_apply(self.k, rule, values, d, fredholm.EXTEND_CHUNK)
        if axes is None:
            return fredholm._chunked(lambda p: _features(rule, p - origin) @ coef,
                                     flat, width, values.shape[1:])
        # a grid row costs q phases of E_y and nx synthesized values
        xs, ys = axes
        dx = xs - origin[0]
        grid = fredholm._chunked(lambda y: _grid_apply(rule, coef, dx, y - origin[1]),
                                 ys, max(width // 2, len(xs)), (len(xs), values.shape[1]))
        return grid.reshape(len(flat), -1)


def _grid_axes(x):
    """(x axis, y axis) of a (ny, nx, 2) array that is a tensor grid, else None."""
    if x.ndim != 3 or x.shape[-1] != 2 or x.size == 0:
        return None
    xs, ys = x[0, :, 0], x[:, 0, 1]
    if np.all(x[..., 0] == xs) and np.all(x[..., 1] == ys[:, None]):
        return xs, ys
    return None


def _radii(points, origin):
    """(offsets, their lengths, the largest length or 0) of (m, 2) points from origin."""
    d = np.asarray(points, dtype=float) - np.asarray(origin, dtype=float)
    r = np.hypot(d[:, 0], d[:, 1])
    return d, r, float(np.max(r, initial=0.0))


def _features(rule, d):
    """The (m, 2q) factor A with A A^T = kernel at the (m, 2) offsets d from the
    origin, on the polar rule (kx, ky, scale).  Taking phases about an origin
    among the points keeps far-off coordinates at full precision."""
    kx, ky, scale = rule
    phase = np.multiply.outer(d[:, 0], kx) + np.multiply.outer(d[:, 1], ky)
    q = len(kx)
    out = np.empty((len(d), 2 * q))
    np.cos(phase, out=out[:, :q])
    np.sin(phase, out=out[:, q:])
    out[:, :q] *= scale
    out[:, q:] *= scale
    return out


def _grid_apply(rule, coef, dx, dy):
    """_features(rule, d) @ coef at the tensor grid of axis offsets dx, dy, shaped (ny, nx, r).

    A factor column pair is scale (cos, sin) of dx kx + dy ky, so with the 1D
    phase tables E_x = exp(i dx kx) (nx, q) and E_y = exp(i dy ky) (ny, q),
    column a of the (2q, r) `coef` gives Re[E_y diag(c_a) E_x^T],
    c_a = scale (coef[:q, a] - i coef[q:, a]): one complex GEMM per column and
    (nx + ny) q phases instead of nx ny 2q.
    """
    kx, ky, scale = rule
    q = len(kx)
    ex = np.exp(1j * np.multiply.outer(dx, kx))
    ey = np.exp(1j * np.multiply.outer(dy, ky))
    chat = scale[:, None] * (coef[:q] - 1j * coef[q:])
    out = np.empty((len(ey), len(ex), coef.shape[1]))
    for a in range(coef.shape[1]):
        out[..., a] = ((ey * chat[:, a]) @ ex.T).real
    return out


def _node_apply(k, rule, values, d, chunk):
    """_features(rule, d)^T @ values, (2q, r), without forming the factor.

    exp(i k.d) = exp(i kx d_x) exp(i ky d_y) at the (n, 2) node offsets d.
    X_x = scale exp(i kx d_x) at each of the n_x distinct abscissas x, and
    E = exp(i w_j d_y) at the N points w_j of the ky interpolation L
    (_ky_rule).  Column pair k is (Re, Im) of sum_x X_x[k] (L Z_x)[k], Z_x
    summing E[p] (x) values[p] over the nodes at abscissa x: n N r + q N n_x r
    products and n_x q phases, not n 2q cos/sin values.  Blocks of whole
    abscissas hold at most `chunk` entries (one abscissa at least), so
    blocking changes only the order of the sum over abscissas.
    """
    kx, ky, scale = rule
    xs, at, counts = np.unique(d[:, 0], return_inverse=True, return_counts=True)
    omega, interp = _ky_rule(k, ky, d[:, 1])
    (q, terms), r = interp.shape, values.shape[1]
    order, ends = np.argsort(at, kind="stable"), np.cumsum(counts)
    # an abscissa holds its nodes' E and E (x) V rows and its X, Z and L Z rows
    step, c = max(1, chunk // (2 * (counts.max() * terms * (r + 1) + (terms + q) * r + q))), 0
    for lo in range(0, len(xs), step):
        block, first = slice(lo, lo + step), ends[lo] - counts[lo]
        rows = order[first:ends[block][-1]]
        # (N, abscissas, r): the Z_x side by side, for one real GEMM with L
        z = np.add.reduceat(_samples(d[rows, 1], omega).T[:, :, None] * values[rows],
                            ends[block] - counts[block] - first, axis=1)
        lz = (interp @ z.reshape(terms, -1).view(float)).view(complex)
        phases = scale * np.exp(1j * np.multiply.outer(xs[block], kx))
        c = c + np.einsum("xk,kxr->kr", phases, lz.reshape((q,) + z.shape[1:]))
    return np.concatenate([c.real, c.imag])


def _samples(dy, omega):
    """exp(i w_j dy) at every offset dy and point w_j, (len(dy), len(omega))."""
    angle = np.multiply.outer(dy, omega)
    return np.cos(angle) + 1j * np.sin(angle)


def _ky_rule(k, ky, dy):
    """(w, L) interpolating exp(i ky dy) in ky to about 1e-16 for the offsets dy.

    ky lies in [0, k], where exp(i w dy) is entire in w with Chebyshev
    coefficients 2 |J_n(k |dy| / 2)| about k / 2.  |J_n(x)| <= (x / 2)^n / n!,
    so N first-kind Chebyshev points w_j of [0, k] suffice, N the smallest
    count with that bound at most 1e-17 for x = k max|dy| / 2.  L (q, N)
    holds the barycentric weights from the w_j to each wavevector's ky.  It
    costs q N divisions, so it is rebuilt per call rather than kept.
    """
    omega, bary = _chebyshev_points(
        bessel_tail_order(0.5 * k * np.max(np.abs(dy), initial=0.0), 1e-17), 0.0, k)
    return omega, _barycentric(ky, omega, bary)


def _chebyshev_points(count, lo, hi):
    """The `count` first-kind Chebyshev points of [lo, hi] and their barycentric weights."""
    angle = (2 * np.arange(count) + 1) * np.pi / (2 * count)
    return lo + 0.5 * (hi - lo) * (1.0 + np.cos(angle)), (-1.0) ** np.arange(count) * np.sin(angle)


def _barycentric(t, points, bary):
    """The (len(t), len(points)) matrix interpolating from `points` to the points t."""
    diff = np.asarray(t)[:, None] - points
    with np.errstate(divide="ignore", invalid="ignore"):
        interp = bary / diff
        interp /= np.sum(interp, axis=1, keepdims=True)
    hit = np.any(diff == 0.0, axis=1)   # a t on a point takes that point's value
    interp[hit] = diff[hit] == 0.0
    return interp


def _multipole_radial(k, r_max):
    """(H, order, kept): the compressed radial functions of the multipole factor.

    In t = r / r_max, order m's columns have the Gram over the unit disk
    G_m = A_m^T A_m, A_m[i, j] = sqrt(v_i u_i) J_m(rho_j r_max u_i) sqrt(w_j rho_j)
    on a Gauss rule (u_i, v_i) in t: the disk Gram of radius r_max over
    r_max^2, in which eps_m cancels.  Its integrand is entire in t with
    Chebyshev coefficients below (K r_max / 2)^n / n!, so with n the 1e-17
    bound the rule takes ceil((n + 2) / 2) points, exact through degree
    n + 1.  The eigenvectors V_m with mu > 1e-16 K^2 / 4, 1e-16 of the disk
    operator's trace over r_max^2, are kept; kept[m] counts them, and the
    orders end at the first that keeps none.  mu <= trace G_m <=
    (K^2 / 4) max|J_m|^2, so no order whose J_m stays below 1e-9 on
    [0, K r_max] can keep one, and the Bessel tables stop there; only the
    orders before the first whose trace is below the cut are diagonalized.
    Each kept column's radial function sum_j s_j V_m[j, b] J_m(rho_j r) is
    tabulated on the P first-kind Chebyshev points of t in [0, 1], P the
    1e-17 bound at K r_max / 2 (its Chebyshev coefficients fall as
    J_n(K r_max / 2)):
    H is (w_radial, P), rows in order of m, and order[b] is row b's order.
    """
    x = k * r_max
    radial = _radial_rule(k, 2.0 * r_max)
    scaled = radial.nodes * r_max
    rule = quadrature.map_rule(quadrature.gauss_legendre((bessel_tail_order(x, 1e-17) + 3) // 2),
                               0.0, 1.0)
    a = bessel_j_table(bessel_tail_order(x, 1e-9), np.multiply.outer(rule.nodes, scaled))
    a *= np.sqrt(rule.nodes * rule.weights)[:, None] * np.sqrt(radial.weights * radial.nodes)
    floor = 1e-16 * k * k / 4.0
    a = a[:np.argmin(np.einsum("mij,mij->m", a, a) > floor)]   # mu <= trace G_m
    mu, vecs = np.linalg.eigh(np.matmul(a.transpose(0, 2, 1), a))
    keep = mu > floor
    keep = keep[:np.argmin(np.append(np.any(keep, axis=1), False))]
    eps = np.where(np.arange(len(keep)) == 0, 1.0, 2.0)[:, None]
    scale = np.sqrt(eps * radial.weights * radial.nodes / (2.0 * np.pi))    # s_j of order m
    coef = vecs[:len(keep)] * scale[..., None]
    points = _chebyshev_points(bessel_tail_order(0.5 * x, 1e-17), 0.0, 1.0)[0]
    table = np.matmul(coef.transpose(0, 2, 1),
                      bessel_j_table(len(keep) - 1, np.multiply.outer(scaled, points)))
    return table[keep], np.nonzero(keep)[0], tuple(np.sum(keep, axis=1).tolist())


def _radial_rule(k, span):
    """Gauss-Legendre rule in |k| on [0, k]: ceil(0.4 k span) + 8 nodes rho_j."""
    return quadrature.map_rule(quadrature.gauss_legendre(int(np.ceil(0.4 * k * span)) + 8),
                               0.0, k)


@functools.lru_cache(maxsize=16)
def _polar_rule(k, span):
    """(kx, ky, scale) of the tapered polar k-rule for separations <= span,
    read-only as the cache shares them; its factor has 2q = 2 len(kx) columns.

    Radius rho_j of _radial_rule carries M_j angles pi m / M_j on [0, pi),
    the first at ky = 0.  With their antipodes they form a 2M_j-point
    trapezoid rule on that circle, whose error is 2 J_2M_j(rho_j r), so M_j
    is the smallest count with 2M_j >= rho_j span and
    |J_2M_j(rho_j span)| < 1e-15.  One jv search covers all radii at once:
    candidate orders 2M from ceil(rho_j span / 2) up, in a window that
    doubles until every radius meets the bound (|J_2M(x)| decreases in M
    once 2M >= x).  The bound falls within about 5 (rho_j span)^(1/3)
    orders of the start, the width of the Bessel transition, so the first
    window nearly always suffices.  Each wavevector's scale is
    sqrt(rho_j w_j / (2 pi M_j)): (2 pi)^-2 rho_j w_j (pi / M_j), times 2
    for its antipode.
    """
    radial = _radial_rule(k, span)
    x = radial.nodes * span
    first = np.maximum(1.0, np.ceil(0.5 * x))[:, None]
    width = 8 + int(6.0 * np.cbrt(np.max(x)))
    jv = _special().jv
    while True:
        m = first + np.arange(width)
        small = np.abs(jv(2.0 * m, x[:, None])) < 1e-15
        if np.all(small[:, -1]):
            break
        width *= 2
    n_angles = m[np.arange(len(x)), np.argmax(small, axis=1)].astype(int)
    theta = np.concatenate([np.pi * np.arange(count) / count for count in n_angles])
    rho = np.repeat(radial.nodes, n_angles)
    scale = np.repeat(np.sqrt(radial.nodes * radial.weights / (2.0 * np.pi * n_angles)),
                      n_angles)
    kx, ky = rho * np.cos(theta), rho * np.sin(theta)
    for a in (kx, ky, scale):
        a.flags.writeable = False
    return kx, ky, scale


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
    n2d = _as_positive(n2d, "Shannon number must be finite and >= 0", ValueError, zero=True)
    m = _as_int(m, 0, np.inf, "order must be a nonnegative integer", ValueError)
    c = 2.0 * np.sqrt(n2d)
    rule = _p_rule(n2d)
    a, b = np.asarray(xi, dtype=float), np.asarray(xip, dtype=float)
    jv = _special().jv
    ja = jv(m, np.multiply.outer(a, c * rule.nodes))
    jb = ja if b is a or (b.shape == a.shape and np.array_equal(a, b)) else jv(
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
    c = _as_positive(c, "bandwidth parameter c must be positive and finite", ValueError)
    t = c * np.asarray(xi, dtype=float) * np.asarray(xip, dtype=float)
    if np.any(t < 0):
        raise ValueError("xi and xi' must be nonnegative")
    if m == 0.5:
        return (np.sqrt(2.0 / np.pi) * np.sin(t))[()]
    if m == -0.5:
        return (np.sqrt(2.0 / np.pi) * np.cos(t))[()]
    if m < 0 or int(m) != m:
        raise ValueError("order must be a nonnegative integer or +-1/2")
    return (_special().jv(m, t) * np.sqrt(t))[()]
