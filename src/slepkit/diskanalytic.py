"""Circularly symmetric planar concentration, solved per angular order.

For each order m the radial eigenfunctions are expanded in a Jacobi basis
whose coefficients are eigenvectors of a tridiagonal matrix, at negligible
cost.  The coefficients also give each eigenvalue, lambda = c gamma^2 from
d_0, and each branch's norm, through Jacobi orthogonality, in closed form; no
quadrature of the radial kernel is run.  Checked by the per-order sum rule
(eigenvalues against n2d_m), the route holds to 2e-10 up to N = 400 and loses
accuracy as N grows past that; assemble_disk_basis raises past SUM_RULE_TOL.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import DegenerateNormalizationError, ExtensionError, NumericalError
from .errors import _as_count, _as_int, _as_positive
from .specialfn import _jacobi_sequence, _special

# angular orders assemble_disk_basis visits at most when max_order is not given
MAX_ORDER = 300
# phi_space and phi_bessel drop the series terms past the last coefficient
# above this share of the largest one
SERIES_TRIM = 1e-18
# assemble_disk_basis raises when an order's eigenvalues miss its partial
# Shannon number n2d_m by more than this.  The worst miss over the orders of
# assemble_disk_basis(2 sqrt(N), 1, 10) grows with N: 3.4e-13 at N = 100,
# 5.4e-11 at 400, 7.5e-9 at 500, 2.8e-7 at 580 and 5.4e-4 at 1000
SUM_RULE_TOL = 1e-8


@dataclass
class FixedOrderBranch:
    d: np.ndarray        # Jacobi coefficients, sum(d) = 1
    chi: float           # Sturm-Liouville eigenvalue
    gamma: float         # square-root-kernel eigenvalue
    lam: float           # concentration eigenvalue c gamma^2, closed form
    norm_sq: float       # int_0^1 phi^2 dxi for the raw series, closed form
    # always None: there is no quadrature route; kept because the benchmark's
    # count hook for fixed_order_solution (perfbench/tracing.py) reads it
    lam_quad: float = None


@dataclass
class FixedOrderSolution:
    m: float             # a nonnegative integer, or -1/2 or +1/2 (the interval)
    c: float
    l_max: int
    branches: list       # FixedOrderBranch, lambda descending


@dataclass
class DiskEntry:
    m: int
    kind: str            # "cos" or "sin"; m = 0 uses "cos" (angular factor 1)
    branch: int
    lam: float
    solution: FixedOrderSolution


@dataclass
class DiskBasis:
    K: float
    R: float
    n2d: float
    entries: list
    eigenvalues: np.ndarray
    solutions: dict = field(default_factory=dict)


def default_l_max(c):
    """Series truncation: max(84, ceil(2c) + 40)."""
    return max(84, int(np.ceil(2.0 * c)) + 40)


def coeff_tridiagonal(m, c, l_max):
    """Eigenpairs of the radial coefficient problem as two arrays (chi, d):
    chi ascending, and d with one branch per row.

    The defining tridiagonal matrix is non-symmetric but has positive products
    of paired off-diagonal entries, so a diagonal similarity transform makes it
    symmetric and eigh_tridiagonal applies; eigenvectors are mapped back and
    each row of d is normalized to sum(d) = 1.  The m = 0, l = 0 diagonal
    entry takes the limit value 0 for the m^2/((2l+m)(2l+m+2)) term.  Orders
    -1/2 and +1/2 give the interval's even and odd functions (Slepian 1964).
    """
    c = _as_positive(c, "bandwidth parameter c must be positive and finite", ValueError)
    if m not in (-0.5, 0.5) and (m < 0 or int(m) != m):
        raise ValueError("order must be a nonnegative integer or +-1/2")
    l_max = _as_int(l_max, 1, np.inf, "l_max must be an integer >= 1", ValueError)
    l = np.arange(l_max + 1, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        bracket = 1.0 + m * m / ((2.0 * l + m) * (2.0 * l + m + 2.0))
    if m == 0:
        bracket[0] = 1.0
    diag = (2.0 * l + m + 0.5) * (2.0 * l + m + 1.5) + 0.5 * c * c * bracket
    lo = l[:-1]
    sub = -c * c * (m + lo + 1.0) ** 2 / ((2.0 * lo + m + 1.0) * (2.0 * lo + m + 2.0))
    sup = -c * c * (lo + 1.0) ** 2 / ((2.0 * lo + m + 2.0) * (2.0 * lo + m + 3.0))
    sym_off = -np.sqrt(sub * sup)
    scale = np.concatenate([[1.0], np.cumprod(np.sqrt(sub / sup))])
    try:
        chi, vecs = scipy.linalg.eigh_tridiagonal(diag, sym_off)
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError(f"coefficient tridiagonal eigensolve failed: {exc}") from exc
    # one branch per C-ordered row, so each sum runs as a 1D sum would
    d = np.ascontiguousarray((scale[:, None] * vecs).T)
    s = d.sum(axis=1)
    flat = np.abs(s) < 1e-14 * np.max(np.abs(d), axis=1)
    if np.any(flat):
        raise DegenerateNormalizationError(
            f"coefficient sum vanished for branch {np.argmax(flat)} (m={m}, c={c})")
    return chi, d / s[:, None]


def gamma_lambda(d, m, c):
    """Closed-form (gamma, lambda) from normalized coefficients.

    gamma = c^(m+1/2) d_0 / (2^(m+1) (m+1)! sum(d)); lambda = 2 gamma^2 sqrt(N2D)
    with N2D = c^2/4, i.e. lambda = c gamma^2.  A 2D d holds one branch per
    row and gives arrays.  Raises NumericalError where c^(m+1/2) or (m+1)!
    overflows (m >= 170 at any c).
    """
    d = np.asarray(d, dtype=float)
    s = d.sum(axis=-1)
    if np.any(np.abs(s) < 1e-14 * np.max(np.abs(d), axis=-1)):
        raise DegenerateNormalizationError("coefficient sum too small")
    try:
        gamma = float(c) ** (m + 0.5) * d[..., 0] / (2.0 ** (m + 1) * math.gamma(m + 2.0) * s)
    except OverflowError:
        raise NumericalError(
            f"order m={m} at c={float(c)!r}: c^(m+1/2) or (m+1)! overflows a double") from None
    return gamma[()], (c * gamma * gamma)[()]


def fixed_order_solution(m, c, l_max=None):
    """Solve the order-m radial problem from its coefficients alone.

    Each branch takes lambda = c gamma^2 from gamma_lambda; branches are kept
    in chi order while lambda > 1e-16, and sorted by lambda descending.
    norm_sq is the closed form sum_l w_l^2 / (2 (2l + m + 1)) over the series
    weights w_l of phi_space, from int_{-1}^{1} (1 - u)^m P_l^(m,0) P_l'^(m,0)
    du = 2^(m+1)/(2l + m + 1) delta_ll' with u = 1 - 2 xi^2.  The series is
    solved once, at l_max or default_l_max(c); if the coefficient tail of a
    kept branch is above 1e-12 of its peak a RuntimeWarning says so.
    m = -1/2 and +1/2 (the interval) are kept as given.
    """
    chi, d = coeff_tridiagonal(m, c, default_l_max(c) if l_max is None else l_max)
    lm = d.shape[1] - 1
    gamma, lam = gamma_lambda(d, m, c)
    keep = int(np.argmax(np.append(lam <= 1e-16, True)))
    worst = np.max(np.abs(d[:keep, -1]) / np.max(np.abs(d[:keep]), axis=1), initial=0.0)
    if worst >= 1e-12:
        warnings.warn(
            f"order m={m} at c={c!r}: series coefficients decayed only to "
            f"{worst:.3g} of their peak at l_max={lm}; pass a larger l_max",
            RuntimeWarning, stacklevel=2)
    order = np.argsort(-lam[:keep], kind="stable")
    d = d[order]
    w = _series_weights(d, m)
    norm_sq = np.sum(w * w / (2.0 * (2.0 * np.arange(lm + 1) + m + 1.0)), axis=1)
    branches = [FixedOrderBranch(dj, float(chi[j]), float(gamma[j]), float(lam[j]), float(nsq))
                for j, dj, nsq in zip(order, d, norm_sq)]
    return FixedOrderSolution(m=m, c=float(c), l_max=lm, branches=branches)


def _series_weights(d, m):
    """Weights d_l m! l!/(l+m)! of P_l^(m,0) in phi_space (and of the Bessel
    terms in phi_bessel) along the last axis of d, from prod_{i<=l} i/(m+i)."""
    i = np.arange(1.0, np.shape(d)[-1])
    return d * np.concatenate([[1.0], np.cumprod(i / (m + i))])


def _series_terms(d):
    """How many leading terms the series of phi sum, along the last axis of d:
    up to the last d_l with |d_l| > SERIES_TRIM max|d|.  For m >= 0 no
    dropped term exceeds |d_l| in size: the weight m! l!/(l+m)! cancels the
    bound |P_l^(m,0)| <= (l+m)!/(m! l!) on [-1, 1], and |J| <= 1 with
    xi^(m+1/2) <= 1 inside the disk.  At m = -1/2, |P_l| <= 1 and the weight
    is below sqrt(pi (l + 1))."""
    big = np.abs(d) > SERIES_TRIM * np.max(np.abs(d), axis=-1, keepdims=True)
    return np.shape(d)[-1] - np.argmax(big[..., ::-1], axis=-1)


def phi_space(solution, branch, xi):
    """Jacobi series for the scaled radial eigenfunction phi on [0, 1].

    phi(xi) = m! xi^(m+1/2) sum_l d_l (l!/(l+m)!) P_l^(m,0)(1 - 2 xi^2),
    summed over the _series_terms(d) leading terms.  A sequence of branches
    gives one row each, over its own terms of one shared Jacobi sequence.
    """
    m, d = solution.m, np.array([solution.branches[j].d for j in np.atleast_1d(branch)])
    terms = _series_terms(d)
    w = np.where(np.arange(d.shape[1]) < terms[:, None], _series_weights(d, m), 0.0)
    xi = np.asarray(xi, dtype=float)
    u = 1.0 - 2.0 * xi * xi
    acc = np.zeros((len(d),) + u.shape)
    for cl, pl in zip(w.T, _jacobi_sequence(terms.max() - 1, m, u)):
        acc += cl.reshape((-1,) + (1,) * u.ndim) * pl
    with np.errstate(invalid="ignore"):
        out = xi ** (m + 0.5) * acc
    return out if np.ndim(branch) else out[0][()]


def phi_bessel(solution, branch, xi):
    """Bessel series for phi, valid on [0, 1] and beyond (the extension).

    phi(xi) = (m!/gamma) sum_l d_l (l!/(l+m)!) J_(m+2l+1)(c xi) / sqrt(c xi),
    summed over the _series_terms(d) leading terms.
    """
    br = solution.branches[branch]
    if abs(br.gamma) <= 1e-14:
        raise ExtensionError("gamma too small for the Bessel series")
    m, c, terms = solution.m, solution.c, _series_terms(br.d)
    xi = np.asarray(xi, dtype=float)
    t = c * xi
    safe = np.where(t == 0.0, 1.0, t)
    orders = m + 2.0 * np.arange(terms) + 1.0
    vals = _special().jv(orders[:, None], np.atleast_1d(t).ravel()[None, :])
    acc = (_series_weights(br.d[:terms], m) @ vals).reshape(np.shape(t))
    out = np.where(t == 0.0, 0.0, acc / np.sqrt(safe)) / br.gamma
    return out[()]


def n2d_m(m, n2d):
    """Per-order partial Shannon number, closed Bessel form; a = 2 sqrt(N2D)."""
    m = _as_int(m, 0, np.inf, "order must be a nonnegative integer", ValueError)
    n2d = _as_positive(n2d, "Shannon number must be finite and >= 0", ValueError, zero=True)
    if n2d == 0:
        return 0.0
    a = 2.0 * np.sqrt(n2d)
    jv = _special().jv
    jm, jm1 = jv(m, a), jv(m + 1, a)
    total = 2.0 * n2d * (jm * jm + jm1 * jm1) - (2.0 * m + 1.0) * np.sqrt(n2d) * jm * jm1
    if m > 0:
        tail = 1.0 - jv(0, a) ** 2 - 2.0 * sum(jv(n, a) ** 2 for n in range(1, m + 1))
        total -= 0.5 * m * tail
    return float(total)


def assemble_disk_basis(K, R, count, max_order=None):
    """Mixed-order concentrated basis on the disk of radius R at bandlimit K.

    Solves fixed-order problems for ascending m until both the per-order
    Shannon number drops below 1e-3 and the best eigenvalue below 1e-6, and
    raises NumericalError on an order whose eigenvalues sum to more than
    SUM_RULE_TOL away from its per-order Shannon number n2d_m; emits
    cos/sin doublets for m > 0 and ranks everything by lambda descending
    (cos before sin, then smaller m on exact ties).  max_order caps the
    angular orders visited when given; without it the search stops at
    MAX_ORDER with a RuntimeWarning if the stop rule was never met.  A top
    eigenvalue above 1 by more than 1e-12 also raises a RuntimeWarning.
    """
    K, R = (_as_positive(v, "bandlimit and radius must be positive and finite", ValueError)
            for v in (K, R))
    count = _as_count(count)
    m_cap = MAX_ORDER if max_order is None else _as_int(
        max_order, 0, np.inf, "max_order must be a nonnegative integer", ValueError)
    c = K * R
    n2d = c * c / 4.0
    entries = []
    solutions = {}
    m = 0
    while m <= m_cap:
        sol = fixed_order_solution(m, c)
        solutions[m] = sol
        share = n2d_m(m, n2d)
        total = sum(br.lam for br in sol.branches)
        if abs(total - share) > SUM_RULE_TOL:
            raise NumericalError(
                f"order m={m} at c={float(c)!r}: eigenvalues sum to {total!r}, not to "
                f"the per-order Shannon number {share!r}; the coefficient solve has "
                f"lost accuracy at N = {float(n2d):.6g}")
        for j, br in enumerate(sol.branches):
            entries.append(DiskEntry(m=m, kind="cos", branch=j, lam=br.lam, solution=sol))
            if m > 0:
                entries.append(DiskEntry(m=m, kind="sin", branch=j, lam=br.lam, solution=sol))
        top = sol.branches[0].lam if sol.branches else 0.0
        if share < 1e-3 and top < 1e-6 and len(entries) >= count:
            break
        m += 1
    if m > m_cap and max_order is None:
        warnings.warn(
            f"K={K!r}, R={R!r} (c={c!r}): stopped at order m={m_cap} without "
            f"meeting the stop rule (per-order Shannon number < 1e-3, top "
            f"eigenvalue < 1e-6, {count} entries); pass max_order",
            RuntimeWarning, stacklevel=2)
    entries.sort(key=lambda e: (-e.lam, e.m, 0 if e.kind == "cos" else 1, e.branch))
    if len(entries) < count:
        raise ValueError(f"only {len(entries)} basis entries resolvable, need {count}")
    entries = entries[:count]
    excess = entries[0].lam - 1.0
    if excess > 1e-12:   # past rounding, the threshold of solve_region_disk
        warnings.warn(f"top eigenvalue exceeds 1 by {excess:.3g} at N = {float(n2d):.6g}: the "
                      f"coefficient solve is losing accuracy", RuntimeWarning, stacklevel=2)
    return DiskBasis(K=K, R=R, n2d=n2d, entries=entries,
                     eigenvalues=np.array([e.lam for e in entries]),
                     solutions=solutions)


def evaluate_disk_entry(basis, index, points):
    """Basis function `index` at planar points (trailing axis x, y).

    Radial part from the Jacobi series inside the disk and the Bessel series
    outside; angular part 1 (m = 0) or sqrt(2) cos/sin(m theta); normalized to
    unit whole-plane energy, so the in-disk energy equals lambda.
    """
    entry = basis.entries[index]
    m = entry.m
    pts = np.asarray(points, dtype=float)
    x, y = pts[..., 0], pts[..., 1]
    radial = _radial_profile(basis, index, np.hypot(x, y))
    if m == 0:
        return radial
    theta = np.arctan2(y, x)
    return radial * (np.sqrt(2.0) * (np.cos(m * theta) if entry.kind == "cos"
                                     else np.sin(m * theta)))


def _radial_profile(basis, index, r):
    """Radial factor of basis function `index` at radii r, amplitude included.

    The dual series of _phi at xi = r / R, divided by sqrt(xi); at xi = 0
    the limit is sum(d) = 1 for m = 0 and 0 above.
    """
    entry = basis.entries[index]
    sol, j, m = entry.solution, entry.branch, entry.m
    xi = np.asarray(r, dtype=float) / basis.R
    radial = _phi(sol, j, xi)
    with np.errstate(divide="ignore", invalid="ignore"):
        psi = np.where(xi == 0.0, 1.0 if m == 0 else 0.0,
                       radial / np.sqrt(np.where(xi == 0.0, 1.0, xi)))
    amp = np.sqrt(entry.lam / (2.0 * np.pi * basis.R ** 2 * sol.branches[j].norm_sq))
    return (amp * psi)[()]


def _phi(solution, branch, xi):
    """phi of one branch at xi >= 0: the Jacobi series (phi_space) on [0, 1]
    and the Bessel series (phi_bessel) past it, each evaluated once per
    distinct xi and gathered back onto the shape of xi."""
    xi = np.asarray(xi, dtype=float)
    uniq, back = np.unique(xi.ravel(), return_inverse=True)
    inside = uniq <= 1.0
    phi = np.empty_like(uniq)
    phi[inside] = phi_space(solution, branch, uniq[inside])
    if np.any(~inside):
        phi[~inside] = phi_bessel(solution, branch, uniq[~inside])
    return phi[back].reshape(xi.shape)
