"""Generic Nystrom solver for symmetric Fredholm eigenproblems.

Discretize on a positive quadrature rule, symmetrize with sqrt-weight
similarity, solve, and extend eigenfunctions off the nodes through the
kernel.  Kernels with a `features` factor (kernel = A A^T, A of width 2q) are
solved and extended through A without forming the n x n kernel matrix.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import ExtensionError, NumericalError

# kernel or factor entries evaluated at once when extending to many points
EXTEND_CHUNK = 2097152
# smallest kept eigenvalue, relative to the largest, solved through the factor
FACTOR_FLOOR = 1e-8


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

        `x` is (m,) for a 1D rule and (..., 2) for a planar one; output rows
        follow the points in C order.  A factored kernel goes through
        A(x) (A(nodes)^T W rows^T) on a k-rule sized to the largest
        query-to-node distance.  A(nodes) is never formed: the node side is
        `DiskBandKernel.node_apply`.  When `x` is a (ny, nx, 2) tensor grid
        (x constant down every column, y along every row, compared exactly),
        A(x) is not formed either: the kernel's 1D phase tables synthesize
        it, and the factor is taken while its width 2q is at most max(n, m).  Other points take it while 2q <= n.  Past those
        widths, and for plain kernels, the extension goes through the kernel
        itself.  Node blocks (their samples, phases and sums), query blocks
        and kernel blocks each hold at most EXTEND_CHUNK entries; only the
        grid's (nx, q) x table is built whole.
        """
        kernel, nodes = self.kernel, self.nodes
        wr = (self.weights * np.atleast_2d(rows)).T            # (n, r)
        x = np.asarray(x, dtype=float)
        axes = _grid_axes(x) if nodes.ndim == 2 else None
        x = x.reshape(-1, 2) if nodes.ndim == 2 else x.ravel()
        if hasattr(kernel, "features"):
            origin = np.mean(nodes, axis=0)
            span = _radius(x, origin) + _radius(nodes, origin)
            width = kernel.rank(span)
            if width <= (len(nodes) if axes is None else max(len(nodes), len(x))):
                coef = kernel.node_apply(wr, nodes, origin, span, EXTEND_CHUNK)
                if axes is None:
                    return _chunked(lambda p: kernel.features(p, origin, span) @ coef,
                                    x, width, wr.shape[1:])
                # a grid row costs q phases of E_y and nx synthesized values
                xs, ys = axes
                grid = _chunked(lambda y: kernel.grid_apply(coef, xs, y, origin, span),
                                ys, max(width // 2, len(xs)), (len(xs), wr.shape[1]))
                return grid.reshape(len(x), -1)
        return _chunked(lambda p: kernel(p[:, None], nodes[None]) @ wr, x, len(nodes),
                        wr.shape[1:])


def _grid_axes(x):
    """(x axis, y axis) of a (ny, nx, 2) array that is a tensor grid, else None."""
    if x.ndim != 3 or x.shape[-1] != 2 or x.size == 0:
        return None
    xs, ys = x[0, :, 0], x[:, 0, 1]
    if np.all(x[..., 0] == xs) and np.all(x[..., 1] == ys[:, None]):
        return xs, ys
    return None


def _radius(points, origin):
    """Largest distance from origin over (m, 2) points, 0 for none."""
    return float(np.max(np.hypot(*(points - origin).T), initial=0.0))


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


def _kernel_matrix(kernel, nodes):
    if nodes.ndim == 1:
        return np.asarray(kernel(nodes[:, None], nodes[None, :]), dtype=float)
    return np.asarray(kernel(nodes[:, None, :], nodes[None, :, :]), dtype=float)


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

    LAPACK's index-subset drivers can come back short on an exact cluster
    (the identity-like Gram of an all-pass band), so a short subset is
    solved again in full; a solve that still misses pairs raises.
    """
    m = len(mat)
    subset = None if count == m else [m - count, m - 1]
    try:
        vals, vecs = scipy.linalg.eigh(mat, subset_by_index=subset)
        if len(vals) < count:
            vals, vecs = scipy.linalg.eigh(mat)
            vals, vecs = vals[m - count:], vecs[:, m - count:]
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError(f"dense symmetric eigensolve failed: {exc}") from exc
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
    factor, r^3 for the eigensolve and m r count for the map.  When r < count,
    or dpstrf rejects its arguments, the whole Gram goes to _eigh instead; the
    rank returned is then r, or m if dpstrf failed.
    """
    c, piv, rank, info = scipy.linalg.lapack.dpstrf(gram, lower=1)
    if info < 0 or rank < count:
        return _eigh(gram, count) + (rank if info >= 0 else len(gram),)
    low = np.tril(c[:, :rank])
    vals, w = _eigh(low.T @ low, count)
    vecs = np.empty((len(gram), count))
    vecs[piv - 1] = low @ w
    return vals, vecs / np.linalg.norm(vecs, axis=0), rank


def _node_eigs(kernel, nodes, sw, count):
    """Top `count` pairs (ascending) of sqrt(W) K sqrt(W) from the kernel
    matrix, and diag K."""
    kmat = _kernel_matrix(kernel, nodes)
    if not np.all(np.isfinite(kmat)):
        raise NumericalError("kernel matrix has non-finite entries")
    sym = kmat * sw[:, None] * sw[None, :]
    sym = 0.5 * (sym + sym.T)
    vals, vecs = _eigh(sym, count)
    return vals, vecs, np.diagonal(kmat)


def _factored_eigs(kernel, nodes, sw, count):
    """Top `count` pairs (ascending) of B B^T, B = sqrt(W) A, and diag K.

    B comes from `kernel.node_factor`, with sqrt(W) folded into its ky
    samples.  The factor's Gram B^T B (2q x 2q) is diagonalized while it is
    no larger than the node count and holds `count` pairs, cut first to its
    numerical rank by pivoted Cholesky (_gram_eigs: each eigenvalue moves by
    at most the trace of the discarded Schur complement), and its
    eigenvectors map to u = B v / sqrt(lambda).  That map loses orthogonality as 1e-17 / lambda,
    so when the smallest pair kept falls below FACTOR_FLOOR times the largest,
    or the factor is the wider side, the top pairs come from the n x n kernel
    matrix instead, which is then the cheaper and exact Gram.
    """
    n = len(sw)
    origin = np.mean(nodes, axis=0)
    span = 2.0 * _radius(nodes, origin)
    rank = kernel.rank(span)
    extra = {"route": "factored", "rank": rank, "k_rule": kernel.rule_sizes(span),
             "gram": "nodes"}
    if count <= rank <= n:
        # (Re, Im) pairs side by side: B with its columns permuted, same B B^T
        f, extra["abscissas"], extra["cheb_terms"] = kernel.node_factor(nodes, origin, span, sw)
        b = f.view(float)
        if not np.all(np.isfinite(b)):
            raise NumericalError("kernel factor has non-finite entries")
        vals, v, extra["gram_rank"] = _gram_eigs(b.T @ b, count)
        if vals[0] >= FACTOR_FLOOR * vals[-1]:
            extra["gram"] = "factor"
            diag = np.asarray(kernel(nodes, nodes), dtype=float)
            return vals, (b @ v) / np.sqrt(vals), diag, extra
    return _node_eigs(kernel, nodes, sw, count) + (extra,)


def nystrom_eigs(kernel, rule, count):
    """Top `count` eigenpairs of the quadrature-discretized kernel operator.

    Diagonalizes sqrt(W) K sqrt(W) and maps eigenvectors back through
    f = f~ / sqrt(w), which leaves them orthonormal in the weighted Gram.
    Only the top `count` pairs are computed.  A plain kernel gets a subset
    dense eigh of the n x n matrix.  A kernel with `features` (planar nodes
    only) is factored as sqrt(W) K sqrt(W) = B B^T, and the smaller Gram is
    solved; `extra` records the factor's width `rank`, its k-rule sizes, the
    side used ("factor" for B^T B, "nodes" for the n x n kernel matrix) and,
    when B was built, the numerical rank `gram_rank` that pivoted Cholesky
    found in B^T B, the count `abscissas` of distinct node abscissas and the
    Chebyshev term count `cheb_terms` in ky that B was synthesized from.  The
    trace is sum_i w_i kernel(x_i, x_i) either way.  Output is deterministic
    (_canonical): eigenvalues descending, exact ties broken by the index of
    the largest-magnitude node sample, signs fixed at the centroid.
    """
    nodes, weights = _as_rule(rule)
    n = len(weights)
    if np.any(weights <= 0):
        raise ValueError("all quadrature weights must be positive")
    if not 1 <= count <= n:
        raise ValueError("count must lie in [1, number of nodes]")
    sw = np.sqrt(weights)
    if hasattr(kernel, "features"):
        vals, vecs, diag, extra = _factored_eigs(kernel, nodes, sw, count)
    else:
        vals, vecs, diag = _node_eigs(kernel, nodes, sw, count)
        extra = {"route": "dense"}
    top, samples = _canonical(vals, (vecs / sw[:, None]).T, nodes, weights)
    return NystromSolution(
        eigenvalues=top, node_samples=samples, nodes=nodes, weights=weights,
        kernel=kernel, trace=float(weights @ diag), extra=extra)


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
    gains a leading axis over the indices.  Planar points keep their shape
    on the way to `kernel_apply`, so a (ny, nx, 2) tensor grid extends
    through the kernel's 1D phase tables.
    """
    lam = np.atleast_1d(solution.eigenvalues[index])
    low = lam <= 1e-12
    if np.any(low):
        raise ExtensionError(f"eigenvalue {lam[low][0]!r} too small for stable extension")
    pts = np.asarray(x, dtype=float)
    if solution.nodes.ndim == 1:
        scalar = pts.ndim == 0
        shape = np.atleast_1d(pts).shape
        pts = np.atleast_1d(pts).ravel()
    else:
        scalar = pts.ndim == 1
        shape = pts.shape[:-1]
        pts = np.atleast_2d(pts)
    out = (solution.kernel_apply(solution.node_samples[index], pts) / lam).T
    if np.ndim(index) == 0:
        return float(out[0, 0]) if scalar else out[0].reshape(shape)
    return out[:, 0] if scalar else out.reshape((len(lam),) + shape)
