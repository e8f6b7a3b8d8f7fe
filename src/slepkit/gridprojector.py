"""Concentration eigenproblems for arbitrary spatial and spectral domains.

Everything lives on a discrete grid: the spatial indicator and the spectral
indicator become projection matrices, the unitary FFT moves between the two,
and the composed operator is diagonalized matrix-free with a Lanczos-type
iteration.  Any region shape and any Hermitian-symmetric wavenumber set work.
Each apply transforms only the grid rows that hold support cells and only the
half-plane wavenumber columns that hold band cells (a pruned FFT): the skipped
transforms have all-zero input or unread output, so the result is the full
real 2D FFT composition to the last bit.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg

from .errors import ConfigurationError, NumericalError
from .fredholm import _fix_signs
from .geometry import Region, contains_many
from .planeslep import GridField, GridSpec, _centered_grid, periodogram

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
    field.  extra records how the spectrum was computed: the Krylov subspace
    size `ncv`, the operator applies made by the eigensolver (`matvecs`), and
    the pruned transform sizes (`rows` along x, `columns` along y).
    """
    problem: OperatorProblem
    eigenvalues: np.ndarray        # real, descending
    fields: np.ndarray             # (count, ny, nx)
    residuals: np.ndarray
    seed: int
    extra: dict = field(default_factory=dict)


def _reflect(mask):
    """Point reflection through k = 0 of an FFT-ordered mask."""
    r = mask[::-1, ::-1]
    return np.roll(np.roll(r, 1, axis=0), 1, axis=1)


def build_problem(region, domain, grid_spacing, embed_factor=3.0):
    """Rasterize a region and a spectral domain onto one computation grid.

    The grid spans the region's bounding box scaled by embed_factor about its
    center, at the requested spacing; the spectral mask lives on the conjugate
    wavenumber grid and is forced exactly Hermitian-symmetric by OR-ing it
    with its own point reflection.
    """
    grid_spacing = float(grid_spacing)
    embed_factor = float(embed_factor)
    if grid_spacing <= 0:
        raise ConfigurationError("grid spacing must be positive")
    if embed_factor < 1:
        raise ConfigurationError("embed factor must be at least 1")
    grid = _centered_grid(region, embed_factor, grid_spacing)
    nx, ny = grid.nx, grid.ny

    spatial = contains_many(region, grid.points()).reshape(ny, nx)
    if not spatial.any():
        raise ConfigurationError("no grid point falls inside the region")

    kx = 2.0 * np.pi * np.fft.fftfreq(nx, grid_spacing)
    ky = 2.0 * np.pi * np.fft.fftfreq(ny, grid_spacing)
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
        if domain.mask.shape != kxx.shape:
            raise ConfigurationError(
                f"mask domain shape {domain.mask.shape} does not match the "
                f"wavenumber grid {kxx.shape}")
        return domain.mask.copy()
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


def solve(problem, count, seed=0, tol=1e-10, maxiter=None):
    """Top `count` eigenpairs of the composed operator, matrix-free.

    A Lanczos-type iteration runs on vectors over the support cells only; the
    start vector is drawn from `seed` over the whole grid and gathered there,
    making the run deterministic.  Eigenvalues land in [0, 1] up to solver
    slack because both projections are orthogonal.
    """
    count = int(count)
    if count < 1:
        raise ConfigurationError("count must be at least 1")
    ny, nx = problem.grid.ny, problem.grid.nx
    cells, matvec, (rows, columns) = _support_operator(problem)
    n = len(cells)
    if count > n - 2:
        raise ConfigurationError(
            f"count {count} too large for {n} cells inside the region")
    if maxiter is None:
        maxiter = int(10 * count * np.sqrt(nx * ny)) + 100

    matvecs = 0

    def counted(v):
        nonlocal matvecs
        matvecs += 1
        return matvec(v)

    op = scipy.sparse.linalg.LinearOperator((n, n), matvec=counted, dtype=float)
    rng = np.random.RandomState(int(seed))
    v0 = rng.standard_normal(nx * ny)[cells]
    v0 /= np.linalg.norm(v0)
    # the spectrum clusters at 1 with a cluster roughly as wide as the
    # discrete Shannon number; the Krylov subspace must span it to converge
    shannon = (n * problem.spectral_mask.sum()) / (nx * ny)
    rank_cap = int(min(n, problem.spectral_mask.sum()))
    ncv = max(2 * count + 1, 20, int(np.ceil(shannon)) + count + 10)
    ncv = min(ncv, rank_cap + count, n - 1)
    ncv = max(ncv, count + 2)
    try:
        vals, vecs = scipy.sparse.linalg.eigsh(
            op, k=count, which="LA", v0=v0, tol=tol, maxiter=maxiter, ncv=ncv)
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        raise NumericalError(
            f"eigensolver stalled after {maxiter} iterations; "
            f"{len(exc.eigenvalues)} of {count} pairs converged") from exc

    order = np.argsort(-vals, kind="stable")
    vals, samples = vals[order], vecs[:, order].T
    _fix_signs(samples, problem.grid.points()[cells], np.ones(n))
    resid = np.array([np.max(np.abs(matvec(v) - lam * v))
                      for lam, v in zip(vals, samples)])
    fields = np.zeros((count, ny * nx))
    fields[:, cells] = samples
    return GridBasis(problem=problem, eigenvalues=vals,
                     fields=fields.reshape(count, ny, nx), residuals=resid,
                     seed=int(seed),
                     extra={"ncv": ncv, "matvecs": matvecs, "rows": rows,
                            "columns": columns})


def weighted_periodogram_sum(basis, count):
    """Eigenvalue-weighted periodogram stack sum_a lambda_a |H_a(k)|^2."""
    count = int(count)
    if not 1 <= count <= len(basis.eigenvalues):
        raise ValueError("count must lie in [1, number of eigenpairs]")
    grid = basis.problem.grid
    total = None
    for i in range(count):
        pg = periodogram(GridField(grid, basis.fields[i]))
        term = basis.eigenvalues[i] * pg.values
        total = term if total is None else total + term
    return GridField(pg.grid, total)
