"""Concentration bases for arbitrary planar regions under a disk bandlimit.

Builds the region quadrature, discretizes the isotropic bandlimiting kernel,
and diagonalizes it; the resulting eigenfunctions can be extended onto any
grid, Fourier-analyzed, and summed into coverage maps.  Grid fields round-trip
through a flat binary format with a text sidecar, or a headered text table.
"""

from array import array
from dataclasses import dataclass
import os
import warnings

import numpy as np

from .errors import ConfigurationError, _as_count
from .fredholm import eigennormalized_samples, nystrom_eigs, nystrom_extend
from .geometry import area, contains_many
from .kernels import DiskBandKernel
from .quadrature import region_quadrature

__all__ = [
    "GridSpec", "GridField", "SlepianBasis", "shannon_2d", "solve_region_disk",
    "evaluate_g", "evaluate_h", "region_mask", "periodogram", "weighted_sumsq",
    "write_grid", "read_grid", "write_grid_text", "read_grid_text",
]


@dataclass
class GridSpec:
    """A uniform rectangular grid: origin corner, spacings, point counts."""
    x0: float
    y0: float
    dx: float
    dy: float
    nx: int
    ny: int

    def __post_init__(self):
        self.x0, self.y0 = float(self.x0), float(self.y0)
        self.dx, self.dy = float(self.dx), float(self.dy)
        for count in (self.nx, self.ny):
            if isinstance(count, (bool, np.bool_)) or not float(count).is_integer():
                raise ConfigurationError(f"grid dimensions must be integers, not {count!r}")
        self.nx, self.ny = int(self.nx), int(self.ny)
        if not np.all(np.isfinite([self.x0, self.y0, self.dx, self.dy])):
            raise ConfigurationError("grid origin and spacings must be finite")
        if self.dx <= 0 or self.dy <= 0:
            raise ConfigurationError("grid spacings must be positive")
        if self.nx < 1 or self.ny < 1:
            raise ConfigurationError("grid dimensions must be at least 1")

    def x_axis(self):
        return self.x0 + self.dx * np.arange(self.nx)

    def y_axis(self):
        return self.y0 + self.dy * np.arange(self.ny)

    def points(self):
        """All grid points as an (ny*nx, 2) array, x varying fastest."""
        xx, yy = np.meshgrid(self.x_axis(), self.y_axis())
        return np.column_stack([xx.ravel(), yy.ravel()])


def _centered_grid(region, factor, spacing):
    """The grid at `spacing` over the region's bounding box scaled by `factor`.

    The box is scaled about its center and each axis gets the most points that
    fit in the scaled extent (at least two), placed symmetrically about it.
    """
    xmin, xmax, ymin, ymax = region.bounding_box()

    def axis(lo, hi):
        n = max(2, int(np.floor(factor * (hi - lo) / spacing + 1e-9)) + 1)
        return 0.5 * (lo + hi) - 0.5 * (n - 1) * spacing, n

    (x0, nx), (y0, ny) = axis(xmin, xmax), axis(ymin, ymax)
    return GridSpec(x0=x0, y0=y0, dx=spacing, dy=spacing, nx=nx, ny=ny)


@dataclass
class GridField:
    """Values sampled on a GridSpec; values[iy, ix] sits at (x0+ix*dx, y0+iy*dy)."""
    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.shape != (self.grid.ny, self.grid.nx):
            raise ConfigurationError(
                f"values shape {self.values.shape} does not match grid "
                f"({self.grid.ny}, {self.grid.nx})")


@dataclass
class SlepianBasis:
    """Concentration eigenfunctions of a region under an isotropic bandlimit.

    node_samples carry the whole-plane-unit normalization: the quadrature
    estimate of the region energy of row alpha equals eigenvalues[alpha].
    """
    region: object
    k: float                 # bandlimit radius, rad per length unit
    quadrature: object
    eigenvalues: np.ndarray  # descending
    node_samples: np.ndarray
    shannon: float
    trace: float
    normalization: str       # "whole-plane-unit"
    solution: object         # underlying Nystrom solution, region-orthonormal


def shannon_2d(k, region_area):
    """Expected count of well-concentrated functions: K^2 A / (4 pi)."""
    k, region_area = float(k), float(region_area)
    if not (np.isfinite(k) and np.isfinite(region_area) and k > 0 and region_area > 0):
        raise ValueError("bandlimit and area must be positive and finite")
    return k * k * region_area / (4.0 * np.pi)


def solve_region_disk(region, k, n_quad=32, count=None):
    """Diagonalize the disk-bandlimit kernel over a region's quadrature.

    Keeps the top `count` eigenpairs: count=None keeps the r pairs the
    kernel's factor resolves, and a count above its width w raises.  The
    kernel is factored by angular order about the node mean
    (DiskBandKernel.factor): each order's radial functions are cut to the
    numerical rank of the disk that holds the nodes, which leaves w columns,
    about a third of a polar k-rule's, so the cost grows linearly in the
    node count n (n w^2 for the Gram) and no n x n array is built.  Pivoted
    Cholesky cuts the w x w Gram to its numerical rank r before the
    eigensolve (fredholm._gram_eigs), which then costs w r^2 + r^3 and
    lowers each eigenvalue by at most the trace of the discarded Schur
    complement.  `solution.extra` records w as `rank`, r as `gram_rank` and
    the radial functions kept per order as `kept`.  The stored trace is the
    full quadrature trace of the kernel, an estimate of the Shannon number
    whatever the count.  A top eigenvalue above 1 means the quadrature
    under-resolves the kernel; that is reported as a RuntimeWarning naming
    n_quad.
    """
    kernel = DiskBandKernel(k)      # rejects a bandlimit that is not positive and finite
    k = kernel.k
    rule = region_quadrature(region, n_quad)
    sol = nystrom_eigs(kernel, rule, count)
    excess = sol.eigenvalues[0] - 1.0
    if excess > 1e-12:   # past rounding
        warnings.warn(f"top eigenvalue exceeds 1 by {excess:.3g}: n_quad={n_quad} is too coarse "
                      f"for K={k!r} over this region; raise n_quad", RuntimeWarning, stacklevel=2)
    return SlepianBasis(
        region=region, k=k, quadrature=rule,
        eigenvalues=sol.eigenvalues.copy(),
        node_samples=eigennormalized_samples(sol),
        shannon=shannon_2d(k, area(region)),
        trace=sol.trace, normalization="whole-plane-unit", solution=sol)


def evaluate_g(basis, index, grid):
    """Bandlimited eigenfunction `index` sampled everywhere on a grid.

    A sequence of indices gives a list of fields, all extended in one pass.
    The points go to the extension shaped (ny, nx, 2), so a factored kernel
    synthesizes them from 1D phase tables (see NystromSolution.kernel_apply)
    instead of evaluating the factor at every grid point.
    """
    return _extend_on_grid(basis, index, grid, _grid_points(grid))


def _grid_points(grid):
    """The grid's points shaped (ny, nx, 2), x varying fastest."""
    return grid.points().reshape(grid.ny, grid.nx, 2)


def _extend_on_grid(basis, index, grid, pts):
    scale = np.sqrt(np.clip(basis.eigenvalues[index], 0.0, None))
    vals = scale[..., None, None] * nystrom_extend(basis.solution, index, pts)
    if np.ndim(index) == 0:
        return GridField(grid, vals)
    return [GridField(grid, v) for v in vals]


def evaluate_h(basis, index, grid, g=None, inside=None):
    """The space-limited twin: equal to g inside the region, exactly 0 outside.

    As in evaluate_g, a sequence of indices gives a list of fields.  `g` (the
    evaluate_g result for `index`) and `inside` (the region mask on the
    grid, shaped (ny, nx)) are computed here, from one set of grid points,
    unless the caller already has them.
    """
    pts = _grid_points(grid) if g is None or inside is None else None
    if g is None:
        g = _extend_on_grid(basis, index, grid, pts)
    if inside is None:
        inside = contains_many(basis.region, pts.reshape(-1, 2)).reshape(grid.ny, grid.nx)
    one = np.ndim(index) == 0
    h = [GridField(grid, np.where(inside, f.values, 0.0)) for f in ([g] if one else g)]
    return h[0] if one else h


def region_mask(region, grid):
    """Boolean (ny, nx) mask of the grid points inside the region."""
    return contains_many(region, grid.points()).reshape(grid.ny, grid.nx)


def periodogram(field):
    """Squared Fourier magnitude of a real field on the conjugate wavenumber grid.

    H(k) = dx dy * DFT(values); the output grid is zero-centered with spacings
    2 pi / (n d).  Parseval holds exactly: sum |H|^2 dkx dky / (2 pi)^2 equals
    sum h^2 dx dy.  Only the half plane kx >= 0 is transformed (_half_power);
    the other half is its point reflection, since |H(-k)| = |H(k)| for a real
    field.
    """
    if np.iscomplexobj(field.values):
        raise ValueError("periodogram expects a real-valued field")
    g = field.grid
    return _power_field(g, _half_power(field.values) * (g.dx * g.dy) ** 2)


def _half_power(values):
    """|DFT|^2 of a real (ny, nx) array on the half plane kx >= 0, unshifted.

    rfft along x runs only on the rows that hold a nonzero value, then fft
    along y on the nx//2 + 1 columns: r rfft(nx) + (nx//2 + 1) fft(ny) for r
    nonzero rows, against ny fft(nx) + nx fft(ny) for the full fft2.
    """
    ny, nx = values.shape
    rows = np.flatnonzero(values.any(axis=1))
    spec = np.zeros((ny, nx // 2 + 1), dtype=complex)
    spec[rows] = np.fft.rfft(values[rows], axis=1)
    spec = np.fft.fft(spec, axis=0)
    return spec.real ** 2 + spec.imag ** 2


def _power_field(g, half):
    """A half-plane power from _half_power, unfolded onto the full wavenumber
    grid of the space grid g by point reflection and zero-centered."""
    nx = g.nx
    mirror = np.roll(half[::-1], 1, axis=0)          # row ky holds row -ky
    full = np.concatenate([half, mirror[:, (nx - 1) // 2:0:-1]], axis=1)
    kx = 2.0 * np.pi * np.fft.fftshift(np.fft.fftfreq(g.nx, g.dx))
    ky = 2.0 * np.pi * np.fft.fftshift(np.fft.fftfreq(g.ny, g.dy))
    kgrid = GridSpec(x0=float(kx[0]), y0=float(ky[0]),
                     dx=2.0 * np.pi / (g.nx * g.dx),
                     dy=2.0 * np.pi / (g.ny * g.dy), nx=g.nx, ny=g.ny)
    return GridField(kgrid, np.fft.fftshift(full))


def weighted_sumsq(basis, grid, count, g=None):
    """Eigenvalue-weighted sum of squares sum_a lambda_a g_a(x)^2 on a grid.

    Deep inside the region this plateaus near shannon / area; far outside it
    collapses toward zero.  `g` (the evaluate_g fields of indices 0..count-1)
    is computed here unless the caller already has it, so a count that
    reaches an eigenvalue at or below 1e-12 raises ExtensionError either way.
    """
    count = _as_count(count, len(basis.eigenvalues))
    if g is None:
        g = evaluate_g(basis, list(range(count)), grid)
    if len(g) != count:
        raise ValueError(f"g holds {len(g)} fields, count is {count}")
    lam = np.clip(basis.eigenvalues[:count], 0.0, None)
    vals = np.stack([f.values for f in g])
    return GridField(grid, np.tensordot(lam, vals * vals, axes=1))


def write_grid(field, path, name="field"):
    """Flat binary export: 8-byte little-endian reals, row-major, plus sidecar.

    The sidecar (path + ".hdr") records origin, spacings, dimensions, the field
    name, and rendering metadata (the max|v|/100 display floor and how many
    cells fall below it); the data file is written untouched.
    """
    vals = np.asarray(field.values)
    if np.iscomplexobj(vals):
        raise ConfigurationError("binary grid export is defined for real fields")
    g = field.grid
    data = np.ascontiguousarray(vals, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(data.tobytes())
    peak = float(np.max(np.abs(vals))) if vals.size else 0.0
    floor = peak / 100.0
    lines = [
        f"name = {name}",
        f"x0 = {g.x0!r}",
        f"y0 = {g.y0!r}",
        f"dx = {g.dx!r}",
        f"dy = {g.dy!r}",
        f"nx = {g.nx}",
        f"ny = {g.ny}",
        f"render_floor = {floor!r}",
        f"n_below_floor = {int(np.sum(np.abs(vals) < floor))}",
    ]
    with open(str(path) + ".hdr", "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_grid(path):
    """Read a binary grid written by write_grid; returns (GridField, name).

    A sidecar without one of the origin, spacing or dimension lines, or with
    one that does not parse, raises ConfigurationError naming the file and key.
    """
    hdr = str(path) + ".hdr"
    with open(hdr) as fh:
        pairs = [line.partition("=") for line in fh if line.strip()]
    meta = {key.strip(): value.strip() for key, _, value in pairs}
    fields = {}
    for key, kind in (("x0", float), ("y0", float), ("dx", float), ("dy", float),
                      ("nx", int), ("ny", int)):
        if key not in meta:
            raise ConfigurationError(f"{hdr}: no '{key} = ...' line")
        try:
            fields[key] = kind(meta[key])
        except ValueError:
            raise ConfigurationError(f"{hdr}: cannot read {key} = {meta[key]!r}") from None
    spec = GridSpec(**fields)
    expected = spec.nx * spec.ny * 8
    size = os.path.getsize(path)
    if size != expected:
        raise ConfigurationError(
            f"{path}: {size} bytes on disk, sidecar implies {expected}")
    data = np.fromfile(path, dtype="<f8").reshape(spec.ny, spec.nx)
    return GridField(spec, data), meta.get("name", "field")


def write_grid_text(field, path):
    """Headered text export: first line '# x y value', rows space-separated.

    Values are written by repr (shortest round-trip); rows go out one grid
    row at a time, so the whole table is never held in memory.
    """
    vals = np.asarray(field.values)
    if np.iscomplexobj(vals):
        raise ConfigurationError("text grid export is defined for real fields")
    g = field.grid
    vals = vals.astype(float, copy=False)
    # every x is formatted once; a run of +0.0 cells, most of a field outside
    # its region, is one join over those x reprs, and only the other cells
    # (-0.0, nan and every nonzero) call repr
    xs = [repr(x) for x in g.x_axis().tolist()]
    other = np.signbit(vals)
    other |= vals != 0.0
    slots = []
    with open(path, "w") as fh:
        fh.write("# x y value\n")
        for y, row, keep in zip(g.y_axis().tolist(), vals, other):
            mid = f" {y!r} "
            zero = mid + "0.0\n"
            cells = np.flatnonzero(keep).tolist()
            slots.clear()
            start = 0
            for i, v in zip(cells, map(repr, row[cells].tolist())):
                if i > start:
                    slots += (zero.join(xs[start:i]), zero)
                slots.append(f"{xs[i]}{mid}{v}\n")
                start = i + 1
            if start < len(xs):
                slots += (zero.join(xs[start:]), zero)
            fh.write("".join(slots))


def read_grid_text(path):
    """Read a '# x y value' table back into a GridField (row-major in y).

    Rows may come in any order: each value goes to the cell its (x, y) names.
    Every cell must appear once, and each axis must be evenly spaced: its
    steps may differ from the mean step by at most 8 ulps of the largest
    |coordinate| plus 1e-9 of the span, as every write_grid_text table does.
    Otherwise ConfigurationError is raised.
    """
    flat = array("d")
    with open(path) as fh:
        for ln, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if len(parts) != 3:
                raise ConfigurationError(f"{path}:{ln}: expected 'x y value'")
            flat.extend(map(float, parts))
    if not flat:
        raise ConfigurationError(f"{path}: no data rows")
    arr = np.frombuffer(flat, dtype=float).reshape(-1, 3)
    xs, ix = np.unique(arr[:, 0], return_inverse=True)
    ys, iy = np.unique(arr[:, 1], return_inverse=True)
    nx, ny = len(xs), len(ys)
    cell = iy * nx + ix
    hits = np.bincount(cell, minlength=nx * ny)
    if np.any(hits > 1):
        i = int(np.argmax(hits > 1))
        raise ConfigurationError(
            f"{path}: cell ({float(xs[i % nx])!r}, {float(ys[i // nx])!r}) appears "
            f"{hits[i]} times")
    if nx * ny != len(arr):
        raise ConfigurationError(f"{path}: rows do not form a complete grid")
    steps = [_axis_step(path, name, axis) for name, axis in (("x", xs), ("y", ys))]
    spec = GridSpec(x0=float(xs[0]), y0=float(ys[0]), dx=steps[0], dy=steps[1], nx=nx, ny=ny)
    vals = np.empty(nx * ny)
    vals[cell] = arr[:, 2]
    return GridField(spec, vals.reshape(ny, nx))


def _axis_step(path, name, axis):
    """Mean step of the sorted distinct coordinates `axis` (1.0 for one point);
    raises ConfigurationError where a step is off it by more than 8 ulps of
    the largest |coordinate| plus 1e-9 of the span."""
    if len(axis) == 1:
        return 1.0
    # the span over the point count spreads the axis rounding evenly
    span = float(axis[-1] - axis[0])
    step = span / (len(axis) - 1)
    worst = float(np.max(np.abs(np.diff(axis) - step)))
    if worst > 8.0 * np.spacing(np.max(np.abs(axis))) + 1e-9 * span:
        raise ConfigurationError(
            f"{path}: {name} axis is not evenly spaced (a step is {worst!r} off "
            f"the mean step {step!r})")
    return step
