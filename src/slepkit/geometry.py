"""Planar spatial regions and spectral domains.

Regions are either simple polygons (positively oriented, first vertex not
repeated) or disks.  Spectral domains live in the wavenumber plane and are
disks, polygon collections, or boolean masks on a stated k-grid.
"""

import numpy as np

from .errors import InvalidRegionError


def _as_vertex_array(vertices):
    v = np.asarray(vertices, dtype=float)
    if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
        raise InvalidRegionError("polygon needs an (n, 2) array with n >= 3")
    if not np.all(np.isfinite(v)):
        raise InvalidRegionError("polygon vertices must be finite")
    return v


def _signed_area(v):
    x, y = v[:, 0], v[:, 1]
    return 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)


def _orient(ax, ay, bx, by, cx, cy):
    # twice the signed area of triangle abc
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _self_intersects(v):
    """True if any two non-adjacent edges of the closed polygon touch."""
    n = len(v)
    a, b = v, np.roll(v, -1, axis=0)
    ax, ay = a[:, 0][:, None], a[:, 1][:, None]
    bx, by = b[:, 0][:, None], b[:, 1][:, None]
    cx, cy = a[:, 0][None, :], a[:, 1][None, :]
    dx, dy = b[:, 0][None, :], b[:, 1][None, :]
    d1 = _orient(ax, ay, bx, by, cx, cy)
    d2 = _orient(ax, ay, bx, by, dx, dy)
    d3 = _orient(cx, cy, dx, dy, ax, ay)
    d4 = _orient(cx, cy, dx, dy, bx, by)
    scale = np.max(np.abs(v)) + 1.0
    tol = 1e-14 * scale * scale
    proper = ((d1 > tol) & (d2 < -tol) | (d1 < -tol) & (d2 > tol)) & (
        (d3 > tol) & (d4 < -tol) | (d3 < -tol) & (d4 > tol)
    )
    # touching counts as intersection too for non-adjacent pairs
    def on_seg(px, py, qx, qy, rx, ry, d):
        return (np.abs(d) <= tol) & (rx <= np.maximum(px, qx) + tol) & (
            rx >= np.minimum(px, qx) - tol) & (ry <= np.maximum(py, qy) + tol) & (
            ry >= np.minimum(py, qy) - tol)

    touch = (on_seg(ax, ay, bx, by, cx, cy, d1) | on_seg(ax, ay, bx, by, dx, dy, d2) |
             on_seg(cx, cy, dx, dy, ax, ay, d3) | on_seg(cx, cy, dx, dy, bx, by, d4))
    bad = proper | touch
    # adjacency on the ring: |i-j| in {0, 1, n-1}
    idx = np.arange(n)
    diff = np.abs(idx[:, None] - idx[None, :])
    adjacent = (diff == 0) | (diff == 1) | (diff == n - 1)
    return bool(np.any(bad & ~adjacent))


class Region:
    """A simple polygon or a disk in the spatial plane."""

    def __init__(self, kind, vertices=None, center=None, radius=None):
        self.kind = kind
        self.vertices = vertices
        self.center = center
        self.radius = radius

    @classmethod
    def polygon(cls, vertices):
        v = _as_vertex_array(vertices)
        edge = np.roll(v, -1, axis=0) - v
        if np.any(np.hypot(edge[:, 0], edge[:, 1]) == 0.0):
            raise InvalidRegionError("polygon has a zero-length edge")
        area2 = _signed_area(v)
        scale = np.max(np.abs(v)) + 1.0
        if abs(area2) < 1e-14 * scale * scale:
            raise InvalidRegionError("polygon is degenerate (zero area)")
        if area2 < 0:
            v = v[::-1].copy()
        if _self_intersects(v):
            raise InvalidRegionError("polygon boundary intersects itself")
        v.setflags(write=False)
        return cls("polygon", vertices=v)

    @classmethod
    def disk(cls, center, radius):
        cx, cy = float(center[0]), float(center[1])
        radius = float(radius)
        if not (np.isfinite(radius) and radius > 0 and np.isfinite(cx) and np.isfinite(cy)):
            raise InvalidRegionError("disk needs finite center and radius > 0")
        return cls("disk", center=(cx, cy), radius=radius)

    def bounding_box(self):
        """(xmin, xmax, ymin, ymax)."""
        if self.kind == "disk":
            (cx, cy), r = self.center, self.radius
            return (cx - r, cx + r, cy - r, cy + r)
        v = self.vertices
        return (v[:, 0].min(), v[:, 0].max(), v[:, 1].min(), v[:, 1].max())

    def __repr__(self):
        if self.kind == "disk":
            return f"Region.disk(center={self.center}, radius={self.radius})"
        return f"Region.polygon(<{len(self.vertices)} vertices>)"


def area(region):
    """Enclosed area: shoelace total for polygons, pi r^2 for disks."""
    if region.kind == "disk":
        return np.pi * region.radius ** 2
    a = _signed_area(region.vertices)
    if a <= 0:
        raise InvalidRegionError("polygon area must be positive")
    return float(a)


def contains(region, point):
    """Boundary-inclusive membership of a single point."""
    p = np.asarray(point, dtype=float)
    return bool(contains_many(region, p.reshape(1, 2))[0])


def contains_many(region, points):
    """Vectorized boundary-inclusive membership; points is (m, 2).

    For polygons the edge loop runs only on the points inside the vertex
    bounding box widened by the boundary tolerance; every other point is
    outside and off the boundary.
    """
    pts = np.asarray(points, dtype=float)
    px, py = pts[:, 0], pts[:, 1]
    if region.kind == "disk":
        (cx, cy), r = region.center, region.radius
        return (px - cx) ** 2 + (py - cy) ** 2 <= r * r
    v = region.vertices
    n = len(v)
    scale = np.max(np.abs(v)) + 1.0
    tol = 1e-12 * scale
    xmin, xmax, ymin, ymax = region.bounding_box()
    near = np.flatnonzero((px >= xmin - tol) & (px <= xmax + tol) &
                          (py >= ymin - tol) & (py <= ymax + tol))
    result = np.zeros(len(pts), dtype=bool)
    px, py = px[near], py[near]
    inside = np.zeros(len(near), dtype=bool)
    onb = np.zeros(len(near), dtype=bool)
    x0, y0 = v[-1]
    for i in range(n):
        x1, y1 = v[i]
        # boundary: within tol of the segment (x0,y0)-(x1,y1)
        ex, ey = x1 - x0, y1 - y0
        elen2 = ex * ex + ey * ey
        t = np.clip(((px - x0) * ex + (py - y0) * ey) / elen2, 0.0, 1.0)
        d2 = (px - (x0 + t * ex)) ** 2 + (py - (y0 + t * ey)) ** 2
        onb |= d2 <= tol * tol
        # even-odd ray cast (upward ray in y, strict on one side)
        cond = (y0 > py) != (y1 > py)
        if np.any(cond):
            xin = x0 + (py[cond] - y0) * ex / ey
            inside[cond] ^= px[cond] < xin
        x0, y0 = x1, y1
    result[near] = inside | onb
    return result


def y_extents(region, x):
    """Disjoint closed y-intervals of the vertical slice at abscissa x.

    Returns a list of (lo, hi) pairs, sorted and non-overlapping; empty if the
    slice misses the region.  If x sits exactly on a polygon vertex abscissa,
    the slice is shifted by 1e-12 of the bounding-box width toward the box
    center and recomputed.
    """
    return _slice_extents(region, [float(x)])[0]


def _slice_extents(region, xs):
    """y_extents at every abscissa of the 1D sequence xs, as a list of lists.

    A polygon's edge crossings are found for all abscissas at once, in one
    (abscissas x edges) array; each crossing is the same expression a single
    slice evaluates, so the extents do not depend on which abscissas share
    the call.
    """
    xs = np.asarray(xs, dtype=float)
    xmin, xmax, _, _ = region.bounding_box()
    inside = ((xs >= xmin) & (xs <= xmax)).tolist()
    if region.kind == "disk":
        (cx, cy), r = region.center, region.radius
        s2 = r * r - (xs - cx) ** 2
        s = np.sqrt(np.maximum(s2, 0.0))
        return [[(lo, hi)] if ok and pos else [] for ok, pos, lo, hi in
                zip(inside, (s2 > 0.0).tolist(), (cy - s).tolist(), (cy + s).tolist())]
    v = region.vertices
    step = 1e-12 * (xmax - xmin)
    xs = np.where((xs <= xmin) | (xs >= xmax), np.clip(xs, xmin + step, xmax - step), xs)
    direction = np.where(xs <= 0.5 * (xmin + xmax), 1.0, -1.0)
    for _ in range(16):
        on_vertex = np.isin(xs, v[:, 0])
        if not np.any(on_vertex):
            break
        xs = np.where(on_vertex, xs + direction * step, xs)
    # edge (v[i-1], v[i]) crosses the slice where its ends straddle x
    x0, y0 = np.roll(v, 1, axis=0).T
    x1, y1 = v.T
    x = xs[:, None]
    cross = (x0 - x) * (x1 - x) < 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ys = np.sort(np.where(cross, y0 + (x - x0) * (y1 - y0) / (x1 - x0), np.inf), axis=1)
    out = []
    for ok, count, row in zip(inside, np.sum(cross, axis=1).tolist(), ys.tolist()):
        spans = []
        for lo, hi in zip(row[0:count:2], row[1:count:2]) if ok else ():
            if spans and lo <= spans[-1][1]:
                spans[-1] = (spans[-1][0], max(hi, spans[-1][1]))
            else:
                spans.append((lo, hi))
        out.append(spans)
    return out


def _periodic_cubic(t, y, ts):
    """Periodic C2 cubic through (t_i, y_i), y[-1] == y[0], evaluated at ts.

    First-derivative (Hermite) form: the knot derivatives s_i solve the m x m
    cyclic system dx_i s_{i-1} + 2(dx_{i-1} + dx_i) s_i + dx_{i-1} s_{i+1} =
    3(dx_i slope_{i-1} + dx_{i-1} slope_i), indices mod m.  m is a vertex
    count, so a dense solve is cheap.  ts must lie in [t_0, t_m].
    """
    dx = np.diff(t)
    slope = np.diff(y, axis=0) / dx[:, None]
    m = len(dx)
    i = np.arange(m)
    dx_prev = np.roll(dx, 1)
    a = np.zeros((m, m))
    a[i, i] = 2.0 * (dx_prev + dx)
    a[i, i - 1] = dx
    a[i, (i + 1) % m] = dx_prev
    s = np.linalg.solve(a, 3.0 * (dx[:, None] * np.roll(slope, 1, axis=0)
                                  + dx_prev[:, None] * slope))
    s_next = np.roll(s, -1, axis=0)
    c3 = (s + s_next - 2.0 * slope) / dx[:, None]
    c2 = (slope - s) / dx[:, None] - c3
    c3 /= dx[:, None]
    k = np.minimum(np.searchsorted(t, ts, side="right") - 1, m - 1)
    u = (ts - t[k])[:, None]
    return ((c3[k] * u + c2[k]) * u + s[k]) * u + y[k]


def spline_boundary(vertices, n):
    """Close vertices with a periodic cubic spline and resample to n points.

    Chord-length parameterization; the returned Region is the polygon of the
    n resampled boundary points (first point not repeated).  n must be an
    integer no smaller than the vertex count.  The spline is the C2 periodic
    cubic through the vertices, solved and evaluated in numpy; it agrees
    with scipy.interpolate.CubicSpline(bc_type="periodic") to rounding, and
    scipy.interpolate is never imported.
    """
    v = _as_vertex_array(vertices)
    if not np.isfinite(n) or int(n) != n:
        raise ValueError("resample count must be an integer")
    n = int(n)
    if n < len(v):
        raise ValueError("resample count must be at least the vertex count")
    closed = np.vstack([v, v[:1]])
    chord = np.hypot(*np.diff(closed, axis=0).T)
    if np.any(chord == 0.0):
        raise InvalidRegionError("repeated consecutive vertices")
    t = np.concatenate([[0.0], np.cumsum(chord)])
    pts = _periodic_cubic(t, closed, t[-1] * np.arange(n) / n)
    try:
        return Region.polygon(pts)
    except InvalidRegionError as exc:
        raise InvalidRegionError(
            f"splined boundary is not a simple polygon ({exc}); "
            "use fewer resample points or smoother input vertices") from exc


def scale_to_area(region, target_area=4.0 * np.pi):
    """Similarity-scale a region about the origin to a prescribed area.

    Returns (scaled_region, factor) with factor = sqrt(target / current).
    """
    if target_area <= 0:
        raise ValueError("target area must be positive")
    factor = float(np.sqrt(target_area / area(region)))
    if region.kind == "disk":
        (cx, cy), r = region.center, region.radius
        return Region.disk((cx * factor, cy * factor), r * factor), factor
    return Region.polygon(region.vertices * factor), factor


class SpectralDomain:
    """A wavenumber-plane domain: disk, polygon set, or boolean grid mask."""

    def __init__(self, kind, bandlimit=None, polygons=None, mask=None, kx=None, ky=None):
        self.kind = kind
        self.bandlimit = bandlimit
        self.polygons = polygons
        self.mask = mask
        self.kx = kx
        self.ky = ky

    @classmethod
    def disk(cls, bandlimit):
        bandlimit = float(bandlimit)
        if not (np.isfinite(bandlimit) and bandlimit > 0):
            raise ValueError("bandlimit must be finite and positive")
        return cls("disk", bandlimit=bandlimit)

    @classmethod
    def polygon_set(cls, polygons):
        regs = [Region.polygon(p) for p in polygons]
        if not regs:
            raise ValueError("polygon set must be non-empty")
        return cls("polygons", polygons=[r.vertices for r in regs])

    @classmethod
    def grid_mask(cls, mask, kx, ky):
        """mask[iy, ix] at wavenumber (kx[ix], ky[iy]); build_problem takes it
        on its grid's axes 2 pi fftfreq(n, spacing), in FFT or centred order."""
        mask = np.asarray(mask, dtype=bool)
        kx = np.asarray(kx, dtype=float)
        ky = np.asarray(ky, dtype=float)
        if mask.shape != (len(ky), len(kx)):
            raise ValueError("mask shape must be (len(ky), len(kx))")
        return cls("mask", mask=mask, kx=kx, ky=ky)

    def __repr__(self):
        if self.kind == "disk":
            return f"SpectralDomain.disk(bandlimit={self.bandlimit})"
        if self.kind == "polygons":
            return f"SpectralDomain.polygon_set(<{len(self.polygons)} polygons>)"
        return f"SpectralDomain.grid_mask(<{self.mask.shape} mask>)"


def _polygon_matches(a, b, tol):
    """True if vertex cycles a and b coincide up to a cyclic shift."""
    if len(a) != len(b):
        return False
    n = len(a)
    for s in range(n):
        if np.all(np.abs(np.roll(b, -s, axis=0) - a) <= tol):
            return True
    return False


def _reflect(mask):
    """Point reflection through k = 0 of a mask on FFT-ordered axes.

    Index i goes to -i mod n along each axis, so on an even side the -n/2
    row (or column) maps to itself.
    """
    return np.roll(mask[::-1, ::-1], (1, 1), axis=(0, 1))


def _is_fft_axis(k, shift):
    """True if shift(k) is some grid's 2 pi fftfreq(n, h) axis: an integer
    multiple of one step per FFT index, to 1e-9 of its largest |k|."""
    index = np.fft.fftfreq(len(k), 1.0 / len(k))
    top = np.max(np.abs(index))
    step = np.max(np.abs(k)) / top if top else 0.0
    return np.allclose(k, shift(step * index), rtol=0.0, atol=1e-9 * np.max(np.abs(k)))


def hermitian_symmetrize(domain):
    """Union of a spectral domain with its point reflection through k = 0.

    Disks are returned unchanged; polygon sets gain reflected copies of any
    polygon whose reflection is missing; masks are OR-ed with their
    reflection.  A mask on a grid's 2 pi fftfreq axes, in FFT or centred
    (fftshift) order and on any side, is reflected as build_problem reflects
    it, periodically: on an even side the -n/2 row and column map to
    themselves.  Other axes must be symmetric about zero, and the mask is
    then flipped.  Idempotent.
    """
    if domain.kind == "disk":
        return domain
    if domain.kind == "polygons":
        polys = [p.copy() for p in domain.polygons]
        scale = max(np.max(np.abs(p)) for p in polys) + 1.0
        tol = 1e-12 * scale
        out = list(polys)
        for p in polys:
            refl = -p  # point reflection preserves orientation
            if not any(_polygon_matches(refl, q, tol) for q in out):
                out.append(refl)
        return SpectralDomain.polygon_set(out)
    kx, ky, mask = domain.kx, domain.ky, domain.mask
    for shift, unshift in ((np.asarray, np.asarray), (np.fft.fftshift, np.fft.ifftshift)):
        if _is_fft_axis(kx, shift) and _is_fft_axis(ky, shift):
            return SpectralDomain.grid_mask(mask | shift(_reflect(unshift(mask))), kx, ky)
    if not (np.allclose(kx, -kx[::-1], atol=1e-12 * (np.max(np.abs(kx)) + 1)) and
            np.allclose(ky, -ky[::-1], atol=1e-12 * (np.max(np.abs(ky)) + 1))):
        raise ValueError("grid mask axes must be symmetric about zero, or a grid's "
                         "2 pi fftfreq axes in FFT or centred order")
    return SpectralDomain.grid_mask(mask | mask[::-1, ::-1], kx, ky)


def wedge_domain(orientation, half_angle, k_max):
    """Hermitian pair of triangular wedges with apex at the origin.

    Each wedge is the triangle (0,0), k_max*e(orientation - half_angle),
    k_max*e(orientation + half_angle); the reflected partner makes the pair
    symmetric under k -> -k.
    """
    if not (0 < half_angle < np.pi / 2):
        raise ValueError("half_angle must lie in (0, pi/2)")
    if k_max <= 0:
        raise ValueError("k_max must be positive")
    a0, a1 = orientation - half_angle, orientation + half_angle
    tri = np.array([
        [0.0, 0.0],
        [k_max * np.cos(a0), k_max * np.sin(a0)],
        [k_max * np.cos(a1), k_max * np.sin(a1)],
    ])
    return hermitian_symmetrize(SpectralDomain.polygon_set([tri]))


def read_region(path):
    """Parse a boundary file: one 'x,y' vertex per line, '#' comments allowed."""
    verts = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ValueError(f"{path}: line {lineno}: expected 'x,y', got {raw.strip()!r}")
            try:
                verts.append((float(parts[0]), float(parts[1])))
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: could not parse numbers in {raw.strip()!r}") from None
    if len(verts) < 3:
        raise ValueError(f"{path}: fewer than 3 vertices")
    return Region.polygon(np.array(verts))


def write_region(path, region):
    """Write a polygon boundary in the same 'x,y' text format."""
    if region.kind != "polygon":
        raise ValueError("only polygon regions can be written as boundary files")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# polygon boundary, one x,y vertex per line\n")
        for x, y in region.vertices:
            fh.write(f"{float(x)!r},{float(y)!r}\n")
