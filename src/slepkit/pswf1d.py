"""One-dimensional concentration: the interval route and DPSS."""

from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.linalg

from . import diskanalytic, fredholm, quadrature
from .kernels import sinc_kernel


@dataclass
class Basis1D:
    tw: float
    eigenvalues: np.ndarray   # (count,) descending
    node_samples: np.ndarray  # (count, n), quadrature norm of row alpha = lambda_alpha
    nodes: np.ndarray
    weights: np.ndarray
    shannon: float
    trace: float
    solution: fredholm.NystromSolution


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
    and n_nodes only places the samples.  The branches of both orders, merged
    by lambda, are sampled at the Gauss-Legendre nodes (odd ones times
    sign(x)) and scaled to quadrature norm lambda_alpha (whole-line norm 1).
    count=None keeps every branch (lambda > 1e-16), at most n_nodes; a larger
    count raises.  Parity alternates with rank (top even) save among
    eigenvalues equal to rounding: near 1 at TW >= 60, up to 4e-14 above it.
    """
    if tw <= 0:
        raise ValueError("time-bandwidth product must be positive")
    rule = quadrature.gauss_legendre(n_nodes)
    x, weights = rule.nodes, rule.weights
    sols = [diskanalytic.fixed_order_solution(m, tw) for m in (-0.5, 0.5)]
    lam = np.array([br.lam for sol in sols for br in sol.branches])
    kept = min(len(lam), n_nodes)
    count = kept if count is None else count
    if not 1 <= count <= kept:
        raise ValueError(f"count={count} must lie in [1, {kept}]: TW={tw!r} has {len(lam)} "
                         f"branches with lambda > 1e-16, sampled at n_nodes={n_nodes}")
    top = np.isin(np.arange(len(lam)), np.argsort(-lam, kind="stable")[:count])
    picks = np.split(top, [len(sols[0].branches)])
    rows = np.concatenate([diskanalytic.phi_space(sol, np.flatnonzero(p), np.abs(x)) * sign
                           for sol, p, sign in zip(sols, picks, (1.0, np.sign(x))) if p.any()])
    vals, samples = fredholm._canonical(lam[top], rows / np.sqrt((rows * rows) @ weights)[:, None],
                                        x, weights)
    sol = fredholm.NystromSolution(
        eigenvalues=vals, node_samples=samples, nodes=x, weights=weights,
        kernel=partial(sinc_kernel, tw), trace=float(weights @ sinc_kernel(tw, x, x)),
        extra={"route": "jacobi"})
    return Basis1D(
        tw=float(tw), eigenvalues=vals, node_samples=fredholm.eigennormalized_samples(sol),
        nodes=x, weights=weights, shannon=2.0 * tw / np.pi, trace=sol.trace, solution=sol)


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

    Solves only the top `count` pairs of the classical symmetric tridiagonal
    that commutes with the discrete sinc matrix (diagonal
    ((n-1-2x)/2)^2 cos 2 pi w, off-diagonal (x+1)(n-x-1)/2; Slepian 1978),
    ordered by descending eigenvalue chi and signed by the Nystrom rule
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
    if not 1 <= count <= n:
        raise ValueError("count must lie in [1, n]")
    n, count = int(n), int(count)
    x = np.arange(n)
    diag = ((n - 1.0 - 2.0 * x) / 2.0) ** 2 * np.cos(2.0 * np.pi * w)
    off = (x[:-1] + 1.0) * (n - 1.0 - x[:-1]) / 2.0
    chi, vecs = scipy.linalg.eigh_tridiagonal(
        diag, off, select="i", select_range=(n - count, n - 1))
    chi, seqs = fredholm._canonical(chi, vecs.T, x, np.ones(n))
    spec = np.fft.rfft(seqs, n=2 * n, axis=1)
    r = np.fft.irfft(spec.real ** 2 + spec.imag ** 2, n=2 * n, axis=1)[:, :n]
    d = np.arange(1, n)
    c = np.sin(2.0 * np.pi * w * d) / (np.pi * d)
    lam = 2.0 * w * r[:, 0] + 2.0 * (r[:, 1:] @ c)
    return DpssSet(N=n, W=float(w), sequences=seqs, chi=chi, eigenvalues=lam)
