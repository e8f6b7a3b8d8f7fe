"""Concentration eigenproblems for arbitrary spatial and spectral domains.

Everything lives on a discrete grid: the spatial indicator and the spectral
indicator become projection matrices, and the unitary FFT moves between the
two.  Any region shape and any Hermitian-symmetric wavenumber set work.  The
operator P F* L F P over the n support cells and its dual L F P F* L over the
b band cells share their nonzero spectrum; solve() diagonalizes the smaller
Gram, read off one DFT of the other side's mask.  apply() runs the operator
matrix-free through a pruned FFT: only the grid rows that hold support cells
and the half-plane wavenumber columns that hold band cells are transformed,
with the same bits as the full real 2D FFT composition.  The residuals of a
band-side solve sum directly over the band cells instead; those of a
support-side solve use the pruned FFT.
"""

from dataclasses import dataclass, field
import warnings

import numpy as np

from .errors import ConfigurationError, _as_count, _as_positive
from .fredholm import _canonical, _eigh, _gram_eigs, _lower_matrix
from .geometry import Region, _reflect, contains_many
from .planeslep import GridSpec, _centered_grid, _half_power, _power_field

__all__ = [
    "OperatorProblem", "GridBasis", "build_problem", "apply", "solve",
    "weighted_periodogram_sum",
]


@dataclass
class OperatorProblem:
    """A composed projection operator discretized on an embedding grid.

    spectral_mask is stored in unshifted FFT index order so it multiplies the
    raw transform directly.  It must be Hermitian-symmetric (equal to its point
    reflection through k = 0): that makes P F* L F P real-symmetric, so apply()
    realizes it exactly with real FFTs on the half plane kx >= 0.
    """
    grid: GridSpec
    spatial_mask: np.ndarray   # bool (ny, nx)
    spectral_mask: np.ndarray  # bool (ny, nx), FFT order

    def __post_init__(self):
        shape = (self.grid.ny, self.grid.nx)
        self.spatial_mask = np.asarray(self.spatial_mask, dtype=bool)
        self.spectral_mask = np.asarray(self.spectral_mask, dtype=bool)
        if self.spatial_mask.shape != shape or self.spectral_mask.shape != shape:
            raise ConfigurationError("masks must match the grid shape")
        if not self.spatial_mask.any():
            raise ConfigurationError("spatial mask is empty; enlarge the grid")
        if not self.spectral_mask.any():
            raise ConfigurationError("spectral mask is empty; refine the grid")
        if not np.array_equal(self.spectral_mask, _reflect(self.spectral_mask)):
            raise ConfigurationError("spectral mask must be symmetric through k=0")


@dataclass
class GridBasis:
    """Eigenpairs of a composed projection operator, grid-sampled.

    fields have unit grid-l2 norm and are exactly zero outside the spatial
    mask; their signs follow the Nystrom rule (positive at the support cell
    nearest the support centroid).  residuals hold max|A f - lambda f| of each
    field: with A = B B^T applied by direct sums over the band cells when the
    band Gram was solved, through the pruned FFTs when the support one was.
    They agree with apply() to rounding (1e-15 on the README wedge).  extra
    records how the spectrum was computed: the Gram diagonalized (`gram`,
    "band" or "support"), the band factor's rank bound `rank` (the band cell
    count b), the band Gram's numerical rank `gram_rank` found by pivoted
    Cholesky (band side only), and the pruned transform sizes (`rows` along
    x, `columns` along y).
    """
    problem: OperatorProblem
    eigenvalues: np.ndarray        # real, descending
    fields: np.ndarray             # (count, ny, nx)
    residuals: np.ndarray
    extra: dict = field(default_factory=dict)


def build_problem(region, domain, grid_spacing, embed_factor=3.0):
    """Rasterize a region and a spectral domain onto one computation grid.

    The grid spans the region's bounding box scaled by embed_factor about its
    center, at the requested spacing; the spectral mask lives on the conjugate
    wavenumber grid and is forced exactly Hermitian-symmetric by OR-ing it
    with its own point reflection.  A disk whose K, or a polygon with a
    vertex whose |kx| or |ky|, exceeds the largest |k| that axis of the grid
    holds (pi / grid_spacing on an even side) is clipped there, with a
    RuntimeWarning naming grid_spacing; mask domains live on the grid.
    """
    grid_spacing = _as_positive(grid_spacing, "grid spacing must be positive and finite",
                                ConfigurationError)
    rule = "embed factor must be finite and at least 1"
    embed_factor = _as_positive(embed_factor, rule, ConfigurationError)
    if embed_factor < 1:
        raise ConfigurationError(f"{rule}, not {embed_factor!r}")
    grid = _centered_grid(region, embed_factor, grid_spacing)
    nx, ny = grid.nx, grid.ny

    spatial = contains_many(region, grid.points()).reshape(ny, nx)
    if not spatial.any():
        raise ConfigurationError("no grid point falls inside the region")

    kx = 2.0 * np.pi * np.fft.fftfreq(nx, grid_spacing)
    ky = 2.0 * np.pi * np.fft.fftfreq(ny, grid_spacing)
    if domain.kind in ("disk", "polygons"):
        reach = (np.full(2, domain.bandlimit) if domain.kind == "disk" else
                 np.max([np.max(np.abs(p), axis=0) for p in domain.polygons], axis=0))
        held = np.array([np.max(np.abs(kx)), np.max(np.abs(ky))])
        if np.any(reach > held):
            warnings.warn(
                f"the spectral domain reaches |kx| = {reach[0]:.6g}, |ky| = {reach[1]:.6g}, "
                f"past the largest |kx| = {held[0]:.6g}, |ky| = {held[1]:.6g} that "
                f"grid_spacing={grid_spacing!r} holds, and is clipped there; "
                "lower grid_spacing", RuntimeWarning, stacklevel=2)
    spectral = _rasterize_spectral(domain, kx, ky)
    spectral |= _reflect(spectral)
    if not spectral.any():
        raise ConfigurationError("no wavenumber cell falls inside the domain")
    return OperatorProblem(grid=grid, spatial_mask=spatial,
                           spectral_mask=spectral)


def _rasterize_spectral(domain, kx, ky):
    """Boolean mask over the FFT-ordered wavenumber grid, cell centers inside."""
    kxx, kyy = np.meshgrid(kx, ky)
    if domain.kind == "disk":
        return kxx * kxx + kyy * kyy <= domain.bandlimit ** 2
    if domain.kind == "polygons":
        pts = np.column_stack([kxx.ravel(), kyy.ravel()])
        mask = np.zeros(len(pts), dtype=bool)
        for poly in domain.polygons:
            mask |= contains_many(Region.polygon(poly), pts)
        return mask.reshape(kxx.shape)
    if domain.kind == "mask":
        # read through its own axes: the grid's, in FFT or centred order
        for shift, unshift in ((np.asarray, np.array), (np.fft.fftshift, np.fft.ifftshift)):
            if all(len(got) == len(want) and np.allclose(
                    got, shift(want), rtol=0.0, atol=1e-9 * np.max(np.abs(want)))
                   for got, want in ((domain.kx, kx), (domain.ky, ky))):
                return unshift(domain.mask)
        raise ConfigurationError(
            f"mask domain axes must be the {len(ky)} x {len(kx)} grid's wavenumbers "
            "2 pi fftfreq(n, spacing), in FFT or centred (fftshift) order")
    raise ConfigurationError(f"unknown spectral domain kind {domain.kind!r}")


def _support_operator(problem):
    """The flat indices of the support cells and P F* L F P acting on them.

    The operator maps the values at the support cells (row-major) to the
    values of its output there; everywhere else the output is zero.  It runs
    the 1D passes of rfft2/irfft2 (norm="ortho") pruned to where they matter:
    rfft along x on the support rows only, then fft, the band mask and ifft
    along y on the half-plane columns holding band cells only, then irfft
    along x back on the support rows.  Every skipped row is zero on input and
    unread on output, and every skipped column is zero after the mask, so the
    output equals the full-grid composition bit for bit.  Also returns the
    pruned sizes (support rows, band columns).
    """
    ny, nx = problem.grid.ny, problem.grid.nx
    cells = np.flatnonzero(problem.spatial_mask)
    rows = np.flatnonzero(problem.spatial_mask.any(axis=1))
    local = np.flatnonzero(problem.spatial_mask[rows])
    half = problem.spectral_mask[:, :nx // 2 + 1]
    cols = np.flatnonzero(half.any(axis=0))
    band = half[:, cols]

    def op(v):
        block = np.zeros(len(rows) * nx)
        block[local] = v
        spec = np.zeros((ny, len(cols)), dtype=complex)
        spec[rows] = np.fft.rfft(block.reshape(len(rows), nx), axis=1,
                                 norm="ortho")[:, cols]
        spec = np.fft.fft(spec, axis=0, norm="ortho")
        spec *= band
        spec = np.fft.ifft(spec, axis=0, norm="ortho")
        out = np.zeros((len(rows), nx // 2 + 1), dtype=complex)
        out[:, cols] = spec[rows]
        return np.fft.irfft(out, n=nx, axis=1, norm="ortho").ravel()[local]

    return cells, op, (len(rows), len(cols))


def apply(problem, field):
    """Apply the composed operator P F* L F P to one real field."""
    field = np.asarray(field)
    if np.iscomplexobj(field):
        raise ConfigurationError(
            "the operator is real; apply it to the real and imaginary parts")
    shape = (problem.grid.ny, problem.grid.nx)
    if field.shape != shape:
        raise ConfigurationError(
            f"field shape {field.shape} does not match the grid {shape}")
    cells, op, _ = _support_operator(problem)
    out = np.zeros(field.size)
    out[cells] = op(field.ravel()[cells])
    return out.reshape(shape)


def solve(problem, count):
    """Top `count` eigenpairs of the composed operator, by a direct solve.

    A = P F* L F P on the n support cells equals B B^T for a real band factor
    B of b columns (b band cells), which is never built: the b x b Gram
    B^T B comes from the DFT of spatial_mask, taken only on the columns it
    reads, when b <= n, else A itself from ifft2(spectral_mask), its lower
    triangle only (fredholm._lower_matrix), each read at index differences.
    The band Gram is cut to its numerical rank by pivoted Cholesky before
    its eigensolve (fredholm._gram_eigs), which lowers each eigenvalue by at
    most the trace of the discarded Schur complement.  Either side leaves
    through fredholm._canonical, the Nystrom routes' order, tie rule and
    sign rule.  Eigenvalues lie in [0, 1] because both projections are
    orthogonal; null-space rounding below 0 is clipped after ordering.  Each
    field's residual applies A one field at a time: on the band side by
    direct sums over the b band cells (_band_operator, which reads neither
    the Gram nor its eigenvectors), on the support side through the pruned
    FFT of apply().
    """
    count = _as_count(count, error=ConfigurationError)
    ny, nx = problem.grid.ny, problem.grid.nx
    cells, matvec, (rows, columns) = _support_operator(problem)
    n, b = len(cells), int(problem.spectral_mask.sum())
    if count > min(n, b):
        raise ConfigurationError(
            f"count {count} exceeds the operator's rank: {n} cells inside the "
            f"region, band factor of rank {b}")
    extra = {"gram": "band" if b <= n else "support", "rank": b, "rows": rows,
             "columns": columns}
    iy, ix = np.divmod(cells, nx)
    if b <= n:
        vals, samples, extra["gram_rank"], matvec = _band_eigs(problem, count)
    else:
        # read at (iy_a - iy_b, ix_a - ix_b), whose negative indices wrap mod (ny, nx)
        table = np.fft.ifft2(problem.spectral_mask).real
        vals, vecs = _eigh(_lower_matrix(n, lambda lo, hi: table[
            np.subtract.outer(iy[lo:hi], iy[:hi]), np.subtract.outer(ix[lo:hi], ix[:hi])]), count)
        samples = vecs.T
    points = np.column_stack([problem.grid.x_axis()[ix], problem.grid.y_axis()[iy]])
    vals, samples = _canonical(vals, samples, points, np.ones(n))
    vals = np.maximum(vals, 0.0)
    resid = np.array([np.max(np.abs(matvec(v) - lam * v))
                      for lam, v in zip(vals, samples)])
    fields = np.zeros((count, ny * nx))
    fields[:, cells] = samples
    return GridBasis(problem=problem, eigenvalues=vals,
                     fields=fields.reshape(count, ny, nx), residuals=resid,
                     extra=extra)


def _pairwise(table, iy, ix, sign):
    """table[(iy_a + sign iy_b) mod ny, (ix_a + sign ix_b) mod nx], all a, b."""
    ny, nx = table.shape
    return table[np.add.outer(iy, sign * iy) % ny,
                 np.add.outer(ix, sign * ix) % nx]


def _band_cells(problem):
    """(ky, kx, pair) of one cell of each +-k band pair and of each
    self-conjugate band cell (pair False), in FFT index order."""
    ny, nx = problem.grid.ny, problem.grid.nx
    ky, kx = np.nonzero(problem.spectral_mask)
    flat, mirror = ky * nx + kx, (-ky % ny) * nx + (-kx % nx)
    keep = flat <= mirror
    return ky[keep], kx[keep], (flat != mirror)[keep]


def _band_table(mask, kx):
    """fft2(mask) / (nx ny) on the columns (kx_a +- kx_b) mod nx, zero elsewhere.

    rfft along x runs on the rows holding a support cell, and fft along y only
    on the half-plane columns c <= nx//2 that the wanted columns need; a
    wanted column c > nx//2 is folded onto nx - c through M(-k) = conj M(k).
    That is never more work than fft2, however wide the band.
    """
    ny, nx = mask.shape
    ux = np.unique(kx)
    wanted = np.unique(np.concatenate([np.add.outer(ux, ux).ravel(),
                                       np.subtract.outer(ux, ux).ravel()]) % nx)
    fold = wanted > nx // 2
    cols = np.unique(np.where(fold, nx - wanted, wanted))
    rows = np.flatnonzero(mask.any(axis=1))
    half = np.zeros((ny, len(cols)), dtype=complex)
    half[rows] = np.fft.rfft(mask[rows].astype(float), axis=1)[:, cols]
    table = np.zeros((ny, nx), dtype=complex)
    table[:, cols] = np.fft.fft(half, axis=0) / (nx * ny)
    folded = wanted[fold]
    table[:, folded] = np.roll(table[::-1, nx - folded], 1, axis=0).conj()
    return table


def _band_eigs(problem, count):
    """Top `count` pairs of B^T B, descending, as samples on the support cells,
    the Gram's pivoted rank, and A = B B^T on the support cells as a
    one-field product (_band_operator).

    B has a cos and a sin column, scaled by sqrt(2 / (nx ny)), for one cell k
    of each +-k band pair, and a cos column scaled by 1 / sqrt(nx ny) for each
    self-conjugate cell.  With M = fft2(spatial_mask) / (nx ny), the support
    sums of cos cos, sin sin and cos sin are Re[M(k-k') +- M(k+k')] / 2 and
    Im[M(k-k') - M(k+k')] / 2.  M is computed only on the columns those
    index differences and sums reach (_band_table).  The Gram goes through
    fredholm._gram_eigs: pivoted Cholesky cuts it to its numerical rank r
    (falling back to the whole b x b Gram when r < count), so the eigensolve
    costs b r^2 + r^3 instead of b^3.  Each eigenvector v maps
    to B v through separable phase tables, and QR orthonormalizes those
    samples largest pair first: that strips the error the larger pairs leak
    into B v, which grows as 1 / sqrt(lambda) relative to it.
    """
    ny, nx = problem.grid.ny, problem.grid.nx
    ky, kx, pair = _band_cells(problem)
    scale = np.where(pair, np.sqrt(2.0), 1.0)

    table = _band_table(problem.spatial_mask, kx)
    diff, total = _pairwise(table, ky, kx, -1), _pairwise(table, ky, kx, 1)
    half = 0.5 * np.outer(scale, scale)
    cs = (half * (diff.imag - total.imag))[:, pair]
    gram = np.block([
        [half * (diff.real + total.real), cs],
        [cs.T, (half * (diff.real - total.real))[np.ix_(pair, pair)]]])
    del diff, total
    vals, vecs, rank = _gram_eigs(gram, count)
    vals, vecs = vals[::-1], vecs[:, ::-1]

    # B v = Re sum_k w_k e^{i k.x}, w = scale (v_cos - i v_sin) / sqrt(nx ny)
    w = vecs[:len(ky)].astype(complex)
    w[pair] -= 1j * vecs[len(ky):]
    w *= (scale / np.sqrt(nx * ny))[:, None]
    support_rows = np.flatnonzero(problem.spatial_mask.any(axis=1))
    uy, jy = np.unique(ky, return_inverse=True)
    ux, jx = np.unique(kx, return_inverse=True)
    coef = np.zeros((count, len(uy), len(ux)), dtype=complex)
    coef[:, jy, jx] = w.T
    ey = np.exp(2j * np.pi * (np.outer(support_rows, uy) % ny) / ny)
    ex = np.exp(2j * np.pi * (np.outer(ux, np.arange(nx)) % nx) / nx)
    synth = (ey @ coef @ ex).real.reshape(count, -1)
    local = np.flatnonzero(problem.spatial_mask[support_rows])
    samples = np.linalg.qr(synth[:, local].T)[0].T
    return vals, samples, rank, _band_operator(ey, ex, jy, jx, scale ** 2 / (nx * ny), local)


def _band_operator(ey, ex, jy, jx, weight, local):
    """A = B B^T on the support cells, by direct sums over the band cells.

    Forward, z_k = sum_x f(x) e^{-i k.x}; back, sum_k weight_k Re[z_k e^{i k.x}],
    where weight is 2 / (nx ny) for a +-k pair and 1 / (nx ny) for a
    self-conjugate cell.  Both sums run through the separable phase tables of
    _band_eigs: ey = e^{i ky y} over the support rows and the distinct band
    ky, ex = e^{i kx x} over the distinct band kx and every column, with
    (jy, jx) each cell's place in them; `local` are the support cells' flat
    indices within the support rows.  The x side runs in real arithmetic on
    the real field: per field that is 8 r nx u_x + 16 r u_y u_x flops on r
    support rows and u_x, u_y distinct band kx, ky, against the pruned FFT's
    r nx log nx + q ny log ny (on the README wedge r = 128, nx = 417,
    u_x = 6, u_y = 4).
    """
    cos, sin = np.ascontiguousarray(ex.real), np.ascontiguousarray(ex.imag)
    eyh = ey.conj().T
    rows, nx = len(ey), ex.shape[1]

    def op(v):
        block = np.zeros(rows * nx)
        block[local] = v
        block = block.reshape(rows, nx)
        z = np.zeros((ey.shape[1], len(ex)), dtype=complex)
        z[jy, jx] = weight * (eyh @ (block @ cos.T - 1j * (block @ sin.T)))[jy, jx]
        u = ey @ z
        return (u.real @ cos - u.imag @ sin).ravel()[local]

    return op


def weighted_periodogram_sum(basis, count):
    """Eigenvalue-weighted periodogram stack sum_a lambda_a |H_a(k)|^2.

    Each field's half-plane power (planeslep._half_power, scaled by
    (dx dy)^2 as in periodogram) is weighted and added one field at a time;
    the sum is unfolded and zero-centered once.  With count = 1 the result is
    lambda_0 times periodogram(field 0) bit for bit.
    """
    count = _as_count(count, len(basis.eigenvalues))
    grid = basis.problem.grid
    scale = (grid.dx * grid.dy) ** 2
    return _power_field(grid, sum(lam * (_half_power(values) * scale) for lam, values
                                  in zip(basis.eigenvalues[:count], basis.fields)))
