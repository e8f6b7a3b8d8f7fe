"""One-dimensional concentration: the interval route and DPSS."""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import diskanalytic, fredholm, quadrature
from .errors import _as_count


@dataclass
class Basis1D:
    tw: float
    eigenvalues: np.ndarray   # (count,) descending
    node_samples: np.ndarray  # (count, n), quadrature norm of row alpha = lambda_alpha
    nodes: np.ndarray
    weights: np.ndarray
    shannon: float
    trace: float              # sum of lambda over every kept branch
    entries: list             # (FixedOrderSolution, branch) of each row


@dataclass
class DpssSet:
    N: int
    W: float
    sequences: np.ndarray  # (count, N), orthonormal
    chi: np.ndarray        # tridiagonal eigenvalues, descending
    eigenvalues: np.ndarray  # concentration lambdas by Rayleigh quotient


def shannon_1d(t_half, w):
    """1D Shannon number 2 T W / pi for the interval [-T, T], band [-W, W]."""
    if t_half <= 0 or w <= 0:
        raise ValueError("T and W must be positive")
    return 2.0 * t_half * w / np.pi


def solve_1d(tw, n_nodes=128, count=None):
    """Concentration eigenfunctions on [-1, 1] at time-bandwidth product TW.

    The even and odd eigenfunctions are the disk route's radial functions of
    orders -1/2 and +1/2 at c = TW (Slepian 1964): lambda comes in closed form
    and n_nodes only places the samples.  The branches of both orders are
    merged by descending lambda, exact ties even before odd and then by
    branch, and sampled at the Gauss-Legendre nodes as evaluate_1d gives
    them.  The trace is the sum of lambda over every kept branch.
    count=None keeps every branch (lambda > 1e-16), at most n_nodes; a larger
    count raises.  Parity alternates with rank (top even) save among
    eigenvalues equal to rounding: near 1 at TW >= 60, up to 4e-14 above it.
    """
    if not (np.isfinite(tw) and tw > 0):
        raise ValueError("time-bandwidth product must be positive and finite")
    rule = quadrature.gauss_legendre(n_nodes)
    x = rule.nodes
    sols = [diskanalytic.fixed_order_solution(m, tw) for m in (-0.5, 0.5)]
    branches = [(sol, j) for sol in sols for j in range(len(sol.branches))]
    lam = np.array([sol.branches[j].lam for sol, j in branches])
    kept = min(len(lam), n_nodes)
    count = kept if count is None else _as_count(count)
    if not 1 <= count <= kept:
        raise ValueError(f"count={count} must lie in [1, {kept}]: TW={tw!r} has {len(lam)} "
                         f"branches with lambda > 1e-16, sampled at n_nodes={n_nodes}")
    order = np.argsort(-lam, kind="stable")[:count]
    entries = [branches[i] for i in order]
    samples = np.empty((count, n_nodes))
    for sol, sign in zip(sols, (1.0, np.sign(x))):
        rows = [i for i, (s, _) in enumerate(entries) if s is sol]
        if rows:
            picks = [entries[i][1] for i in rows]
            amp = np.array([_amplitude(sol, j) for j in picks])
            samples[rows] = amp[:, None] * diskanalytic.phi_space(sol, picks, np.abs(x)) * sign
    return Basis1D(
        tw=float(tw), eigenvalues=lam[order], node_samples=samples, nodes=x,
        weights=rule.weights, shannon=2.0 * tw / np.pi, trace=float(np.sum(lam)),
        entries=entries)


def evaluate_1d(basis, index, x):
    """Interval eigenfunction `index` of a Basis1D at points x, on [-1, 1]
    and past it.

    phi of the row's order at |x| (diskanalytic._phi: the Jacobi series
    inside, the Bessel series outside), times sign(x) for the odd order +1/2,
    at amplitude sqrt(lambda / (2 norm_sq)): unit energy on the whole line and
    energy lambda on [-1, 1].  The series' own normalization sum(d) = 1 fixes
    the sign: even rows are positive at x = 0, odd rows just right of it.
    """
    sol, j = basis.entries[index]
    x = np.asarray(x, dtype=float)
    vals = _amplitude(sol, j) * diskanalytic._phi(sol, j, np.abs(x))
    return (vals * np.sign(x) if sol.m > 0 else vals)[()]


def _amplitude(solution, branch):
    """sqrt(lambda / (2 norm_sq)): the scale of phi that gives unit energy on
    the whole line, from the branch's closed-form norm on [0, 1]."""
    br = solution.branches[branch]
    return np.sqrt(br.lam / (2.0 * br.norm_sq))


def sinc_matrix(n, w):
    """Discrete concentration matrix sin(2 pi W (i-j)) / (pi (i-j)), diag 2W."""
    idx = np.arange(n)
    d = idx[:, None] - idx[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        mat = np.sin(2.0 * np.pi * w * d) / (np.pi * d)
    np.fill_diagonal(mat, 2.0 * w)
    return mat


def dpss(n, w, count):
    """Discrete prolate spheroidal sequences of length n, half-bandwidth w.

    Takes the top `count` pairs of the classical symmetric tridiagonal that
    commutes with the discrete sinc matrix (diagonal
    ((n-1-2x)/2)^2 cos 2 pi w, off-diagonal (x+1)(n-x-1)/2; Slepian 1978):
    only those pairs while count < fredholm.SUBSET_FRACTION n, else all n
    from the full solve, which is then faster.  They are ordered by
    descending eigenvalue chi and signed by the Nystrom rule
    (fredholm._canonical): positive at the midpoint (n - 1) // 2.  Each
    concentration eigenvalue is the Rayleigh quotient s^T C s of the sinc
    matrix C, summed along its Toeplitz diagonals:
    lambda = 2w r(0) + 2 sum_{d>=1} c(d) r(d), with c(d) = sin(2 pi w d) / (pi d)
    and r the autocorrelation of s from one real FFT of length 2n.
    sinc_matrix is never built.
    """
    if n < 2 or int(n) != n:
        raise ValueError("sequence length must be an integer >= 2")
    if not 0.0 < w < 0.5:
        raise ValueError("half-bandwidth must lie in (0, 1/2)")
    n, count = int(n), _as_count(count, n)
    x = np.arange(n)
    diag = ((n - 1.0 - 2.0 * x) / 2.0) ** 2 * np.cos(2.0 * np.pi * w)
    off = (x[:-1] + 1.0) * (n - 1.0 - x[:-1]) / 2.0
    if count < fredholm.SUBSET_FRACTION * n:
        chi, vecs = scipy.linalg.eigh_tridiagonal(
            diag, off, select="i", select_range=(n - count, n - 1))
    else:
        chi, vecs = scipy.linalg.eigh_tridiagonal(diag, off)
        chi, vecs = chi[n - count:], vecs[:, n - count:]
    chi, seqs = fredholm._canonical(chi, vecs.T, x, np.ones(n))
    spec = np.fft.rfft(seqs, n=2 * n, axis=1)
    r = np.fft.irfft(spec.real ** 2 + spec.imag ** 2, n=2 * n, axis=1)[:, :n]
    d = np.arange(1, n)
    c = np.sin(2.0 * np.pi * w * d) / (np.pi * d)
    lam = 2.0 * w * r[:, 0] + 2.0 * (r[:, 1:] @ c)
    return DpssSet(N=n, W=float(w), sequences=seqs, chi=chi, eigenvalues=lam)
