"""Generic Nystrom solver for symmetric Fredholm eigenproblems.

Discretize on a positive quadrature rule, symmetrize with sqrt-weight
similarity, solve, and extend eigenfunctions off the nodes through the
kernel.  A kernel may offer two methods: `factor(nodes, sw)`, a factor B with
B B^T = diag(sw) K diag(sw) for sw = sqrt(weights), whose Gram the solve
diagonalizes, and `extend(values, nodes, points)`, the kernel applied from
the nodes to points, or None where the kernel must be evaluated.  Every choice behind either is
the kernel's; this module checks only that the factor holds the pairs asked
for and keeps them orthonormal.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import ExtensionError, NumericalError, _as_count

# entries per block when extending to many points or building a lower triangle;
# a kernel block holds its output plus about 1.3 times that in scratch
EXTEND_CHUNK = 2097152
# below this share of the largest kept eigenvalue, factor samples are orthonormalized by QR
FACTOR_FLOOR = 1e-8
# an eigensolve asks for the top `count` of m pairs only while count is below
# SUBSET_FRACTION * m; past it the full solve is faster.  Measured with one
# thread on a 2-core VM: dense index subsets (LAPACK evr) against the full
# divide and conquer (evd) cross at count/m = 0.10-0.16 for m = 80-800, and
# tridiagonal ones (stebz + stein) against the full MRRR (stemr) at 0.08-0.10
# for n = 64-1024
SUBSET_FRACTION = 0.1


@dataclass
class NystromSolution:
    eigenvalues: np.ndarray   # (count,) descending
    node_samples: np.ndarray  # (count, n), weighted-Gram orthonormal
    nodes: np.ndarray
    weights: np.ndarray
    kernel: object            # callable kernel(points_a, points_b)
    trace: float = 0.0        # sum_i w_i kernel(x_i, x_i), the full discrete trace
    extra: dict = field(default_factory=dict)   # how the spectrum was computed

    def kernel_apply(self, rows, x):
        """sum_j w_j kernel(x, x_j) rows[a, j] at points x, shape (m, len(rows)).

        `x` is (...) for a 1D rule and (..., 2) for a planar one; output rows
        follow the points in C order.  A kernel with an `extend` method gets
        the points as given and the weighted rows (n, r), and returns the
        block itself or None (DiskBandKernel.extend: through its k-space
        factor).  Otherwise the kernel is evaluated on blocks of at most
        EXTEND_CHUNK entries.
        """
        kernel, nodes = self.kernel, self.nodes
        wr = (self.weights * np.atleast_2d(rows)).T            # (n, r)
        x = np.asarray(x, dtype=float)
        out = kernel.extend(wr, nodes, x) if hasattr(kernel, "extend") else None
        if out is not None:
            return out
        x = x.reshape(-1, 2) if nodes.ndim == 2 else x.ravel()
        return _chunked(lambda p: kernel(p[:, None], nodes[None]) @ wr, x, len(nodes),
                        wr.shape[1:])


def _chunked(block, x, width, tail):
    """block(x[lo:hi]) stacked into shape (len(x),) + tail, in slices whose
    transient blocks of `width` entries per item hold at most EXTEND_CHUNK."""
    out, step = np.empty((len(x),) + tuple(tail)), max(1, EXTEND_CHUNK // max(1, width))
    for lo in range(0, len(x), step):
        out[lo:lo + step] = block(x[lo:lo + step])
    return out


def _as_rule(rule):
    """Accept QuadratureRule1D / RegionQuadrature / (nodes, weights) pairs."""
    if hasattr(rule, "nodes") and hasattr(rule, "weights"):
        return np.asarray(rule.nodes, dtype=float), np.asarray(rule.weights, dtype=float)
    nodes, weights = rule
    return np.asarray(nodes, dtype=float), np.asarray(weights, dtype=float)


def _fix_signs(samples, nodes, weights):
    """Deterministic sign: positive at the node nearest the weighted centroid,
    or, where that sample is below 1e-12, at the first above 1e-8."""
    if nodes.ndim == 1:
        centroid = np.sum(weights * nodes) / np.sum(weights)
        i0 = int(np.argmin(np.abs(nodes - centroid)))
    else:
        centroid = weights @ nodes / np.sum(weights)
        i0 = int(np.argmin(np.sum((nodes - centroid) ** 2, axis=1)))
    for row in samples:
        anchor = row[i0]
        if abs(anchor) > 1e-12:
            if anchor < 0:
                row *= -1.0
            continue
        big = np.nonzero(np.abs(row) > 1e-8)[0]
        if len(big) and row[big[0]] < 0:
            row *= -1.0
    return samples


def _canonical(vals, samples, nodes, weights):
    """Eigenpairs, given in any order, in the one output form of every route.

    Eigenvalues descend; exact ties go by the index of each row's
    largest-magnitude sample, earlier first; signs follow _fix_signs at the
    (nodes, weights) centroid.  Returns new arrays: vals and the C-ordered
    rows of samples.
    """
    order = np.lexsort((np.argmax(np.abs(samples), axis=1), -vals))
    return vals[order], _fix_signs(samples[order], nodes, weights)


def _eigh(mat, count):
    """Top `count` pairs (ascending) of a symmetric matrix.

    An index subset is asked for while count < SUBSET_FRACTION m, else the
    full divide-and-conquer solve runs.  LAPACK's index-subset drivers can
    come back short on an exact cluster (the identity-like Gram of an
    all-pass band), so a short subset is solved again in full; a solve that
    still misses pairs raises.
    """
    m = len(mat)
    try:
        if count < SUBSET_FRACTION * m:
            vals, vecs = scipy.linalg.eigh(mat, subset_by_index=[m - count, m - 1])
            if len(vals) >= count:
                return vals, vecs
        vals, vecs = scipy.linalg.eigh(mat, driver="evd")
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError(f"dense symmetric eigensolve failed: {exc}") from exc
    vals, vecs = vals[m - count:], vecs[:, m - count:]
    if len(vals) < count:
        raise NumericalError(
            f"dense symmetric eigensolve returned {len(vals)} of {count} pairs")
    return vals, vecs


def _gram_eigs(gram, count):
    """Top `count` pairs (ascending) of a symmetric PSD Gram, and its pivoted rank.

    LAPACK's pivoted Cholesky (dpstrf, with its own stopping rule) factors
    G = P L L^T P^T + S and stops at the numerical rank r, where no diagonal
    entry of the Schur complement S exceeds m eps max G_ii (m = len(G)).  The
    r x r matrix L^T L has the nonzero eigenvalues of P L L^T P^T, and its
    eigenvectors w map back to v = P L w / sqrt(lambda), divided by the
    computed norm of P L w so that rounding in lambda leaves v unit.  S is
    positive semidefinite, so truncating it lowers each eigenvalue by at most
    ||S|| <= trace S <= (m - r) m eps max G_ii.  The cost is m r^2 for the
    factor, r^3 for the eigensolve and m r count for the map, r pairs for
    count=None.  When r < count, or dpstrf rejects its arguments, the whole
    Gram goes to _eigh instead; the rank returned is then r, or m if dpstrf failed.
    """
    c, piv, rank, info = scipy.linalg.lapack.dpstrf(gram, lower=1)
    rank = rank if info >= 0 else len(gram)
    count = rank if count is None else count
    if info < 0 or rank < count:
        return _eigh(gram, count) + (rank,)
    low = np.tril(c[:, :rank])
    vals, w = _eigh(low.T @ low, count)
    vecs = np.empty((len(gram), count))
    vecs[piv - 1] = low @ w
    return vals, vecs / np.linalg.norm(vecs, axis=0), rank


def _lower_matrix(n, rows):
    """The n x n matrix whose lower triangle rows(lo, hi) gives, zeros above.

    rows(lo, hi) gives rows lo..hi-1 over columns 0..hi-1, in blocks of at
    most EXTEND_CHUNK entries; its entries above the diagonal are dropped.
    LAPACK's symmetric eigensolvers, and so _eigh, read the lower triangle only.
    """
    out, step = np.zeros((n, n)), max(1, EXTEND_CHUNK // n)
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        np.copyto(out[lo:hi, :hi], rows(lo, hi), where=np.arange(hi) <= np.arange(lo, hi)[:, None])
    return out


def _node_eigs(kernel, nodes, sw, count):
    """Top `count` pairs (ascending) of sqrt(W) K sqrt(W) from the kernel matrix,
    the only n x n array: its lower triangle alone, in row blocks of kernel
    entries weighted as (K sw_i) sw_j (_lower_matrix)."""
    def rows(lo, hi):
        block = kernel(nodes[lo:hi, None], nodes[None, :hi])
        if not np.all(np.isfinite(block)):
            raise NumericalError("kernel matrix has non-finite entries")
        block = block * sw[lo:hi, None]
        block *= sw[:hi]
        return block

    return _eigh(_lower_matrix(len(sw), rows), count)


def _factored_eigs(kernel, nodes, sw, count):
    """Top `count` pairs (ascending) of B B^T, B = sqrt(W) A, and their record.

    B is `kernel.factor(nodes, sw)`, with sqrt(W) folded in, w columns; a
    count above w raises.  Its Gram B^T B is diagonalized, cut first to its
    numerical rank r by pivoted Cholesky (_gram_eigs), and count=None keeps r
    pairs.  Each v maps to u = B v / sqrt(lambda), which loses orthogonality
    as 1e-17 / lambda: when the smallest pair kept falls below FACTOR_FLOOR
    times the largest, QR orthonormalizes the B v instead, largest first.
    """
    b, kept = kernel.factor(nodes, sw)
    if not np.all(np.isfinite(b)):
        raise NumericalError("kernel factor has non-finite entries")
    if count is not None and count > b.shape[1]:
        raise ValueError(f"count {count} exceeds the kernel factor's width {b.shape[1]}")
    vals, v, rank = _gram_eigs(b.T @ b, count)
    extra = {"route": "factored", "rank": b.shape[1], "kept": kept, "gram_rank": rank}
    if vals[0] >= FACTOR_FLOOR * vals[-1]:
        return vals, (b @ v) / np.sqrt(vals), extra
    return vals, np.linalg.qr((b @ v)[:, ::-1])[0][:, ::-1], extra


def nystrom_eigs(kernel, rule, count):
    """Top `count` eigenpairs of the quadrature-discretized kernel operator.

    Diagonalizes sqrt(W) K sqrt(W) and maps eigenvectors back through
    f = f~ / sqrt(w), which leaves them orthonormal in the weighted Gram.
    Only the top `count` pairs are computed: a plain kernel's by a subset
    eigh of the n x n matrix (all n for count=None), a factored kernel's
    from its factor alone (_factored_eigs; count=None keeps the pairs it
    resolves), with `extra` recording the factor's width `rank`, the
    kernel's record `kept` and the numerical rank `gram_rank` of B^T B.
    The trace is sum_i w_i kernel(x_i, x_i).  Output is deterministic
    (_canonical): eigenvalues descending, exact ties broken by the index of
    the largest-magnitude node sample, signs fixed at the centroid.
    """
    nodes, weights = _as_rule(rule)
    n = len(weights)
    if np.any(weights <= 0):
        raise ValueError("all quadrature weights must be positive")
    count = count if count is None else _as_count(count, n)
    sw = np.sqrt(weights)
    if hasattr(kernel, "factor"):
        vals, vecs, extra = _factored_eigs(kernel, nodes, sw, count)
    else:
        vals, vecs = _node_eigs(kernel, nodes, sw, n if count is None else count)
        extra = {"route": "dense"}
    top, samples = _canonical(vals, (vecs / sw[:, None]).T, nodes, weights)
    return NystromSolution(
        eigenvalues=top, node_samples=samples, nodes=nodes, weights=weights,
        kernel=kernel, trace=float(weights @ kernel(nodes, nodes)), extra=extra)


def eigennormalized_samples(solution):
    """Samples rescaled so the quadrature norm over the domain equals lambda.

    With the weighted Gram orthonormal, multiplying row alpha by
    sqrt(lambda_alpha) makes sum_j w_j f_alpha(x_j)^2 = lambda_alpha, which is
    the whole-plane-unit normalization of a concentration eigenfunction.
    """
    lam = np.clip(solution.eigenvalues, 0.0, None)
    return solution.node_samples * np.sqrt(lam)[:, None]


def nystrom_extend(solution, index, x):
    """Evaluate eigenfunction `index` anywhere via the Nystrom identity.

    f(x) = (1/lambda) sum_j w_j kernel(x, x_j) f(x_j).  Raises for eigenvalues
    at or below 1e-12, where the division amplifies quadrature noise.  A
    sequence of indices extends them all in one kernel pass; the result then
    gains a leading axis over the indices.  Points go to `kernel_apply` as
    given, so a (ny, nx, 2) tensor grid extends through the kernel's 1D phase
    tables; a single point with a single index gives a float.
    """
    lam = np.atleast_1d(solution.eigenvalues[index])
    low = lam <= 1e-12
    if np.any(low):
        raise ExtensionError(f"eigenvalue {lam[low][0]!r} too small for stable extension")
    pts = np.asarray(x, dtype=float)
    shape = np.shape(index) + pts.shape[:pts.ndim + 1 - solution.nodes.ndim]
    out = (solution.kernel_apply(solution.node_samples[index], pts) / lam).T.reshape(shape)
    return float(out) if out.ndim == 0 else out
