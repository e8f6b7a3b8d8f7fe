"""Circularly symmetric planar concentration, solved per angular order.

For each order m the radial eigenfunctions are expanded in a Jacobi basis
whose coefficients are eigenvectors of a tridiagonal matrix, giving machine
precision at negligible cost.  The coefficients also give each eigenvalue,
lambda = c gamma^2 from d_0, and each branch's norm, through Jacobi
orthogonality, in closed form; no quadrature of the radial kernel is run.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import DegenerateNormalizationError, ExtensionError, NumericalError
from .specialfn import _jacobi_sequence, _special

# angular orders assemble_disk_basis visits at most when max_order is not given
MAX_ORDER = 300
# branches fixed_order_solution keeps per order at most
MAX_BRANCHES = 48
# phi_space and phi_bessel drop the series terms past the last coefficient
# above this share of the largest one
SERIES_TRIM = 1e-18


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
    m: int
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
    """Series truncation: max(84, ceil(2c) + 40), grown until coefficients decay."""
    return max(84, int(np.ceil(2.0 * c)) + 40)


def coeff_tridiagonal(m, c, l_max):
    """Eigenpairs (chi, d) of the radial coefficient problem, ascending chi.

    The defining tridiagonal matrix is non-symmetric but has positive products
    of paired off-diagonal entries, so a diagonal similarity transform makes it
    symmetric and eigh_tridiagonal applies; eigenvectors are mapped back and
    normalized to sum(d) = 1.  The m = 0, l = 0 diagonal entry takes the limit
    value 0 for the m^2/((2l+m)(2l+m+2)) term.
    """
    if c <= 0:
        raise ValueError("bandwidth parameter c must be positive")
    if m < 0 or int(m) != m:
        raise ValueError("order must be a nonnegative integer")
    if l_max < 1:
        raise ValueError("l_max must be at least 1")
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
    out = []
    for j in range(l_max + 1):
        d = scale * vecs[:, j]
        s = d.sum()
        if abs(s) < 1e-14 * np.max(np.abs(d)):
            raise DegenerateNormalizationError(
                f"coefficient sum vanished for branch {j} (m={m}, c={c})")
        out.append((float(chi[j]), d / s))
    return out


def gamma_lambda(d, m, c):
    """Closed-form (gamma, lambda) from normalized coefficients.

    gamma = c^(m+1/2) d_0 / (2^(m+1) (m+1)! sum(d)); lambda = 2 gamma^2 sqrt(N2D)
    with N2D = c^2/4, i.e. lambda = c gamma^2.
    """
    d = np.asarray(d, dtype=float)
    s = d.sum()
    if abs(s) < 1e-14 * np.max(np.abs(d)):
        raise DegenerateNormalizationError("coefficient sum too small")
    gamma = c ** (m + 0.5) * d[0] / (2.0 ** (m + 1) * math.gamma(m + 2.0) * s)
    return float(gamma), float(c * gamma * gamma)


def fixed_order_solution(m, c, l_max=None):
    """Solve the order-m radial problem from its coefficients alone.

    Each branch takes lambda = c gamma^2 from gamma_lambda; branches are kept
    in chi order while lambda > 1e-16, at most MAX_BRANCHES of them, and
    sorted by lambda descending.  norm_sq is the closed form
    sum_l w_l^2 / (2 (2l + m + 1)) over the series weights w_l of phi_space,
    from int_{-1}^{1} (1 - u)^m P_l^(m,0) P_l'^(m,0) du = 2^(m+1)/(2l + m + 1)
    delta_ll' with u = 1 - 2 xi^2.  Without an explicit l_max the series
    grows by 40 terms up to four times; if the coefficient tail is still
    above 1e-12 a RuntimeWarning says so.
    """
    lm = default_l_max(c) if l_max is None else int(l_max)
    for grow in range(5):
        pairs = coeff_tridiagonal(m, c, lm)
        probe = [d for _, d in pairs[:MAX_BRANCHES]]
        worst = max(abs(d[-1]) / np.max(np.abs(d)) for d in probe)
        if worst < 1e-12 or l_max is not None:
            break
        if grow == 4:
            warnings.warn(
                f"order m={m} at c={c!r}: series coefficients decayed only to "
                f"{worst:.3g} of their peak at l_max={lm}; pass a larger l_max",
                RuntimeWarning, stacklevel=2)
            break
        lm += 40
    jacobi_norm = 2.0 * (2.0 * np.arange(lm + 1) + m + 1.0)
    branches = []
    for chi, d in pairs[:MAX_BRANCHES]:
        gamma, lam = gamma_lambda(d, m, c)
        if lam <= 1e-16:
            break
        w = _series_weights(d, m)
        branches.append(FixedOrderBranch(
            d=d, chi=chi, gamma=gamma, lam=lam,
            norm_sq=float(np.sum(w * w / jacobi_norm))))
    branches.sort(key=lambda b: -b.lam)
    return FixedOrderSolution(m=int(m), c=float(c), l_max=lm, branches=branches)


def _series_weights(d, m):
    """Weights d_l m! l!/(l+m)! of P_l^(m,0) in phi_space (and of the Bessel
    terms in phi_bessel)."""
    l = np.arange(len(d))
    gammaln = _special().gammaln
    return d * np.exp(gammaln(m + 1.0) + gammaln(l + 1.0) - gammaln(l + m + 1.0))


def _series_terms(d):
    """How many leading terms the series of phi sum: up to the last d_l with
    |d_l| > SERIES_TRIM max|d|.  No dropped term exceeds |d_l| in size: the
    weight m! l!/(l+m)! cancels the bound |P_l^(m,0)| <= (l+m)!/(m! l!) on
    [-1, 1], and |J| <= 1 with xi^(m+1/2) <= 1 inside the disk."""
    return int(np.flatnonzero(np.abs(d) > SERIES_TRIM * np.max(np.abs(d)))[-1]) + 1


def phi_space(solution, branch, xi):
    """Jacobi series for the scaled radial eigenfunction phi on [0, 1].

    phi(xi) = m! xi^(m+1/2) sum_l d_l (l!/(l+m)!) P_l^(m,0)(1 - 2 xi^2),
    summed over the _series_terms(d) leading terms.
    """
    br = solution.branches[branch]
    m, terms = solution.m, _series_terms(br.d)
    xi = np.asarray(xi, dtype=float)
    u = 1.0 - 2.0 * xi * xi
    seq = _jacobi_sequence(terms - 1, m, u)
    acc = np.zeros_like(u)
    for cl, pl in zip(_series_weights(br.d[:terms], m), seq):
        acc += cl * pl
    with np.errstate(invalid="ignore"):
        out = xi ** (m + 0.5) * acc
    return out[()]


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
    if n2d < 0:
        raise ValueError("Shannon number must be nonnegative")
    if m < 0 or int(m) != m:
        raise ValueError("order must be a nonnegative integer")
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
    Shannon number drops below 1e-3 and the best eigenvalue below 1e-6; emits
    cos/sin doublets for m > 0 and ranks everything by lambda descending
    (cos before sin, then smaller m on exact ties).  max_order caps the
    angular orders visited when given; without it the search stops at
    MAX_ORDER with a RuntimeWarning if the stop rule was never met.
    """
    if K <= 0 or R <= 0:
        raise ValueError("bandlimit and radius must be positive")
    if count < 1:
        raise ValueError("count must be positive")
    m_cap = MAX_ORDER if max_order is None else int(max_order)
    if m_cap < 0:
        raise ValueError("max_order must be non-negative")
    c = K * R
    n2d = c * c / 4.0
    entries = []
    solutions = {}
    m = 0
    while m <= m_cap:
        sol = fixed_order_solution(m, c)
        solutions[m] = sol
        for j, br in enumerate(sol.branches):
            entries.append(DiskEntry(m=m, kind="cos", branch=j, lam=br.lam, solution=sol))
            if m > 0:
                entries.append(DiskEntry(m=m, kind="sin", branch=j, lam=br.lam, solution=sol))
        top = sol.branches[0].lam if sol.branches else 0.0
        if n2d_m(m, n2d) < 1e-3 and top < 1e-6 and len(entries) >= count:
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
    return DiskBasis(K=float(K), R=float(R), n2d=n2d, entries=entries,
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

    The Jacobi series inside the disk, the Bessel series outside, divided by
    sqrt(xi); at xi = 0 the limit is sum(d) = 1 for m = 0 and 0 above.  Both
    series are evaluated once per distinct radius and gathered back onto r.
    """
    entry = basis.entries[index]
    sol, j, m = entry.solution, entry.branch, entry.m
    r = np.asarray(r, dtype=float)
    radii, back = np.unique(r.ravel(), return_inverse=True)
    xi = radii / basis.R
    inside = xi <= 1.0
    radial = np.empty_like(xi)
    radial[inside] = phi_space(sol, j, xi[inside])
    if np.any(~inside):
        radial[~inside] = phi_bessel(sol, j, xi[~inside])
    with np.errstate(divide="ignore", invalid="ignore"):
        psi = np.where(xi == 0.0, 1.0 if m == 0 else 0.0,
                       radial / np.sqrt(np.where(xi == 0.0, 1.0, xi)))
    amp = np.sqrt(entry.lam / (2.0 * np.pi * basis.R ** 2 * sol.branches[j].norm_sq))
    return (amp * psi)[back].reshape(r.shape)[()]
