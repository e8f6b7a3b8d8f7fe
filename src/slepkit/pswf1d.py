"""One-dimensional concentration: sinc-kernel Nystrom solve and DPSS."""

from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.linalg

from . import fredholm, quadrature
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

    Nystrom solve of the sinc-kernel equation on Gauss-Legendre nodes; node
    samples are scaled so the interval norm of eigenfunction alpha equals
    lambda_alpha (whole-line norm 1).  Parity alternates with rank, the top
    eigenfunction being even.
    """
    if tw <= 0:
        raise ValueError("time-bandwidth product must be positive")
    if count is None:
        count = n_nodes
    rule = quadrature.gauss_legendre(n_nodes)
    sol = fredholm.nystrom_eigs(partial(sinc_kernel, tw), rule, count,
                                kernel_tag=f"sinc1d(TW={tw})")
    return Basis1D(
        tw=float(tw), eigenvalues=sol.eigenvalues,
        node_samples=fredholm.eigennormalized_samples(sol),
        nodes=sol.nodes, weights=sol.weights,
        shannon=2.0 * tw / np.pi, trace=sol.trace, solution=sol)


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
    ordered by descending eigenvalue chi.  Each concentration eigenvalue is
    the Rayleigh quotient s^T C s of the sinc matrix C, summed along its
    Toeplitz diagonals: lambda = 2w r(0) + 2 sum_{d>=1} c(d) r(d), with
    c(d) = sin(2 pi w d) / (pi d) and r the autocorrelation of s from one
    real FFT of length 2n.  sinc_matrix is never built.
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
    chi, seqs = chi[::-1], vecs[:, ::-1].T.copy()
    # deterministic sign: positive at (or nearest past) the midpoint
    mid = (n - 1) // 2
    for row in seqs:
        anchor = row[mid]
        if abs(anchor) <= 1e-12:
            big = np.nonzero(np.abs(row) > 1e-8)[0]
            anchor = row[big[0]] if len(big) else 1.0
        if anchor < 0:
            row *= -1.0
    spec = np.fft.rfft(seqs, n=2 * n, axis=1)
    r = np.fft.irfft(spec.real ** 2 + spec.imag ** 2, n=2 * n, axis=1)[:, :n]
    d = np.arange(1, n)
    c = np.sin(2.0 * np.pi * w * d) / (np.pi * d)
    lam = 2.0 * w * r[:, 0] + 2.0 * (r[:, 1:] @ c)
    return DpssSet(N=n, W=float(w), sequences=seqs, chi=chi, eigenvalues=lam)
