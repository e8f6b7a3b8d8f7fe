"""Regions, membership, extents, splines, spectral domains, boundary files."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import slepkit
from slepkit import (
    InvalidRegionError, Region, SpectralDomain, area, contains, contains_many,
    hermitian_symmetrize, read_region, scale_to_area, spline_boundary,
    wedge_domain, write_region, y_extents,
)

SQUARE = [(0, 0), (2, 0), (2, 2), (0, 2)]
# blocky C: notch cut into the right side, gives two y-extent intervals
C_SHAPE = [(0, 0), (3, 0), (3, 1), (1, 1), (1, 2), (3, 2), (3, 3), (0, 3)]


def crossing_oracle(vertices, point):
    """Independent even-odd ray cast, horizontal ray to +x."""
    v = np.asarray(vertices, dtype=float)
    x, y = point
    inside = False
    n = len(v)
    for i in range(n):
        x1, y1 = v[i]
        x2, y2 = v[(i + 1) % n]
        if (y1 > y) != (y2 > y):
            xc = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if xc > x:
                inside = not inside
    return inside


def membership_oracle(vertices, point):
    """Per-point boundary-inclusive membership: within 1e-12 (max|v| + 1) of an
    edge, else the crossing oracle."""
    v = np.asarray(vertices, dtype=float)
    p = np.asarray(point, dtype=float)
    tol = 1e-12 * (np.max(np.abs(v)) + 1.0)
    for a, b in zip(v, np.roll(v, -1, axis=0)):
        d = b - a
        t = min(max(float((p - a) @ d / (d @ d)), 0.0), 1.0)
        if np.hypot(*(p - a - t * d)) <= tol:
            return True
    return crossing_oracle(v, p)


@st.composite
def star_polygons(draw, min_size=5, max_size=12, center=50.0, log_scale=st.just(0.0)):
    # vertices sorted by angle about a center; with at least 5 of them every
    # angular gap is below pi, so the polygon is simple and star-shaped about
    # that center.  Radii are scaled by 10**log_scale.
    n = draw(st.integers(min_size, max_size))
    gaps = np.array(draw(st.lists(st.floats(0.3, 1.0), min_size=n, max_size=n)))
    radii = np.array(draw(st.lists(st.floats(0.3, 2.0), min_size=n, max_size=n)))
    cx, cy = draw(st.floats(-center, center)), draw(st.floats(-center, center))
    radii = radii * 10.0 ** draw(log_scale)
    theta = 2.0 * np.pi * np.cumsum(gaps) / np.sum(gaps)
    return np.column_stack([cx + radii * np.cos(theta), cy + radii * np.sin(theta)])


class TestRegionConstruction:
    def test_clockwise_input_is_normalized(self):
        ccw = Region.polygon(SQUARE)
        cw = Region.polygon(SQUARE[::-1])
        assert area(ccw) == area(cw) == pytest.approx(4.0)

    def test_vertices_are_write_protected(self):
        reg = Region.polygon(SQUARE)
        with pytest.raises(ValueError):
            reg.vertices[0, 0] = 99.0

    def test_rejects_degenerate(self):
        with pytest.raises(InvalidRegionError):
            Region.polygon([(0, 0), (1, 0), (2, 0)])
        with pytest.raises(InvalidRegionError):
            Region.polygon([(0, 0), (1, 0)])
        with pytest.raises(InvalidRegionError):
            Region.polygon([(0, 0), (0, 0), (1, 0), (1, 1)])

    def test_rejects_self_intersection(self):
        bowtie = [(0, 0), (2, 2), (2, 0), (0, 2)]
        with pytest.raises(InvalidRegionError):
            Region.polygon(bowtie)

    def test_disk_validation(self):
        with pytest.raises(InvalidRegionError):
            Region.disk((0, 0), -1.0)
        with pytest.raises(InvalidRegionError):
            Region.disk((np.nan, 0), 1.0)

    def test_bounding_box(self):
        assert Region.polygon(C_SHAPE).bounding_box() == (0, 3, 0, 3)
        assert Region.disk((1, 2), 0.5).bounding_box() == (0.5, 1.5, 1.5, 2.5)


class TestMembership:
    def test_against_crossing_oracle(self):
        rng = np.random.RandomState(11)
        for verts in (SQUARE, C_SHAPE):
            reg = Region.polygon(verts)
            pts = rng.uniform(-0.5, 3.5, size=(400, 2))
            got = contains_many(reg, pts)
            want = np.array([crossing_oracle(verts, p) for p in pts])
            # skip points within a hair of an edge where conventions differ
            keep = np.ones(len(pts), dtype=bool)
            v = np.asarray(verts, dtype=float)
            for i in range(len(v)):
                a, b = v[i], v[(i + 1) % len(v)]
                d = b - a
                t = np.clip(((pts - a) @ d) / (d @ d), 0.0, 1.0)
                dist = np.hypot(*(pts - (a + t[:, None] * d)).T)
                keep &= dist > 1e-9
            assert np.array_equal(got[keep], want[keep])

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(verts=star_polygons(),
           unit=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                         min_size=1, max_size=30),
           gap=st.sampled_from([2.0, 1e6, 1e12]))
    def test_star_polygons_match_per_point_oracle(self, verts, unit, gap):
        try:
            reg = Region.polygon(verts)
        except InvalidRegionError:
            assume(False)
        tol = 1e-12 * (np.max(np.abs(verts)) + 1.0)
        xmin, xmax, ymin, ymax = reg.bounding_box()
        w, h = xmax - xmin, ymax - ymin
        xc, yc = 0.5 * (xmin + xmax), 0.5 * (ymin + ymax)
        # on the boundary: vertices, edge midpoints, and vertices moved half
        # the tolerance along x (some of them just outside the bounding box)
        on = np.vstack([verts, 0.5 * (verts + np.roll(verts, 1, axis=0)),
                        verts + [0.5 * tol, 0.0], verts - [0.5 * tol, 0.0]])
        # off it: beyond each side of the box, `gap` tolerances away
        d = gap * tol
        off = [(xmin - d, yc), (xmax + d, yc), (xc, ymin - d), (xc, ymax + d),
               (xmin - d, ymin - d), (xmax + d, ymax + d)]
        u = np.array(unit)
        around = np.column_stack([xmin - 0.25 * w + 1.5 * w * u[:, 0],
                                  ymin - 0.25 * h + 1.5 * h * u[:, 1]])
        pts = np.vstack([on, off, around])
        want = np.array([membership_oracle(verts, p) for p in pts])
        assert np.array_equal(contains_many(reg, pts), want)
        assert want[:len(on)].all()
        assert not want[len(on):len(on) + len(off)].any()

    def test_boundary_is_inside(self):
        reg = Region.polygon(SQUARE)
        assert contains(reg, (0.0, 1.0))
        assert contains(reg, (2.0, 2.0))
        assert contains(reg, (1.0, 0.0))

    def test_disk_membership(self):
        disk = Region.disk((1.0, 1.0), 2.0)
        assert contains(disk, (1.0, 3.0))
        assert not contains(disk, (1.0, 3.0 + 1e-9))

    def test_monte_carlo_area(self):
        rng = np.random.RandomState(5)
        reg = Region.polygon(C_SHAPE)
        n = 1_000_000
        pts = rng.uniform(0.0, 3.0, size=(n, 2))
        frac = np.mean(contains_many(reg, pts))
        est = 9.0 * frac
        a = area(reg)  # 7 for this shape
        sigma = 9.0 * np.sqrt(frac * (1 - frac) / n)
        assert abs(est - a) < 3.0 * sigma
        assert a == pytest.approx(7.0)


class TestExtents:
    def test_two_interval_cross_section(self):
        reg = Region.polygon(C_SHAPE)
        spans = y_extents(reg, 2.0)
        assert len(spans) == 2
        (a0, b0), (a1, b1) = spans
        assert (a0, b0) == pytest.approx((0.0, 1.0))
        assert (a1, b1) == pytest.approx((2.0, 3.0))

    def test_single_interval(self):
        reg = Region.polygon(C_SHAPE)
        spans = y_extents(reg, 0.5)
        assert len(spans) == 1
        assert spans[0] == pytest.approx((0.0, 3.0))

    def test_extent_integral_recovers_area(self):
        reg = Region.polygon(C_SHAPE)
        xs = np.linspace(1e-9, 3.0 - 1e-9, 6001)
        widths = [sum(b - a for a, b in y_extents(reg, x)) for x in xs]
        est = np.trapezoid(widths, xs)
        assert est == pytest.approx(area(reg), abs=2e-3)

    def test_disk_extents(self):
        disk = Region.disk((0.0, 0.0), 1.0)
        spans = y_extents(disk, 0.6)
        assert len(spans) == 1
        h = np.sqrt(1 - 0.36)
        assert spans[0] == pytest.approx((-h, h), abs=1e-12)

    def test_outside_is_empty(self):
        assert y_extents(Region.polygon(SQUARE), 5.0) == []

    @pytest.mark.parametrize("name", ["plateau", "star", "spline", "c-shape"])
    def test_matches_edge_loop(self, name, plateau_region):
        # the vectorized crossings repeat the edge loop's arithmetic, so the
        # extents are bit-identical (test_quadrature checks the rules built on them)
        rng = np.random.default_rng(17)
        theta = np.sort(rng.uniform(0.0, 2.0 * np.pi, 23))
        star = np.column_stack([np.cos(theta), np.sin(theta)]) * rng.uniform(0.4, 1.5, (23, 1))
        phi = 2.0 * np.pi * np.arange(9) / 9
        knots = np.column_stack([np.cos(phi), np.sin(phi)]) * rng.uniform(0.8, 1.2, (9, 1))
        region = {"plateau": lambda: plateau_region,
                  "star": lambda: Region.polygon(star + [3.0, -2.0]),
                  "spline": lambda: spline_boundary(knots, 120),
                  "c-shape": lambda: Region.polygon(C_SHAPE)}[name]()
        xmin, xmax, _, _ = region.bounding_box()
        xs = np.concatenate([region.vertices[:, 0], np.linspace(xmin, xmax, 97),
                             rng.uniform(xmin, xmax, 50)])
        for x in xs:
            assert y_extents(region, x) == edge_loop_extents(region, x)
        # all abscissas in one call give each the extents of its own call
        assert slepkit.geometry._slice_extents(region, xs) == [y_extents(region, x) for x in xs]


def edge_loop_extents(region, x):
    """y_extents of a polygon with the crossings found one edge at a time."""
    x = float(x)
    xmin, xmax, _, _ = region.bounding_box()
    if x < xmin or x > xmax:
        return []
    v = region.vertices
    step = 1e-12 * (xmax - xmin)
    if x <= xmin or x >= xmax:
        x = np.clip(x, xmin + step, xmax - step)
    direction = 1.0 if x <= 0.5 * (xmin + xmax) else -1.0
    for _ in range(16):
        if not np.any(v[:, 0] == x):
            break
        x += direction * step
    ys = []
    x0, y0 = v[-1]
    for x1, y1 in v:
        if (x0 - x) * (x1 - x) < 0.0:
            ys.append(y0 + (x - x0) * (y1 - y0) / (x1 - x0))
        x0, y0 = x1, y1
    ys.sort()
    out = []
    for lo, hi in zip(ys[0::2], ys[1::2]):
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(hi, out[-1][1]))
        else:
            out.append((lo, hi))
    return out


def cubic_spline_oracle(vertices, n):
    """scipy's periodic CubicSpline through the closed vertices, chord-length
    parameterized and sampled at n equal steps, as spline_boundary samples."""
    from scipy.interpolate import CubicSpline

    v = np.asarray(vertices, dtype=float)
    closed = np.vstack([v, v[:1]])
    t = np.concatenate([[0.0], np.cumsum(np.hypot(*np.diff(closed, axis=0).T))])
    return CubicSpline(t, closed, bc_type="periodic", axis=0)(t[-1] * np.arange(n) / n)


class TestSpline:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(verts=star_polygons(3, 40, center=1e4, log_scale=st.floats(-3.0, 3.0)),
           spread=st.floats(0.0, 1.0))
    @example(verts=np.array([(0.0, 0.0), (3.0, 0.0), (1.0, 2.0)]), spread=0.0)
    @example(verts=np.array([(0.0, 0.0), (3.0, 0.0), (1.0, 2.0)]), spread=1.0)
    def test_matches_scipy_periodic_spline(self, verts, spread):
        # from len(v) to 5 len(v) points; the triangle gives the 3 x 3 cyclic
        # system, whose corner entries are the wrap-around ones
        n = len(verts) + round(spread * 4 * len(verts))
        want = cubic_spline_oracle(verts, n)
        try:
            got = spline_boundary(verts, n).vertices
        except InvalidRegionError:
            # many-knot stars spline into loops: rejected only where the
            # oracle's polygon is not simple either
            with pytest.raises(InvalidRegionError):
                Region.polygon(want)
            return
        # through Region.polygon, which turns clockwise outlines around
        want = Region.polygon(want).vertices
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(verts))

    def test_resample_count_must_be_integral(self):
        with pytest.raises(ValueError, match="integer"):
            spline_boundary(SQUARE, 12.5)
        got = spline_boundary(SQUARE, np.float64(8.0)).vertices
        np.testing.assert_array_equal(got, spline_boundary(SQUARE, 8).vertices)
        assert got.shape == (8, 2)

    @pytest.mark.parametrize("n", [float("inf"), float("-inf"), float("nan")])
    def test_resample_count_must_be_finite(self, n):
        with pytest.raises(ValueError, match="resample count must be an integer"):
            spline_boundary(SQUARE, n)

    def test_knots_reproduced(self):
        # a regular polygon has equal chords, so every fourth resampled
        # point of a 4x resampling lands back on a knot
        theta = np.linspace(0, 2 * np.pi, 12, endpoint=False)
        knots = np.column_stack([np.cos(theta), np.sin(theta)])
        out = spline_boundary(knots, 48)
        np.testing.assert_allclose(out.vertices[::4], knots, atol=1e-9)

    def test_resampled_circle_area_converges(self):
        theta = np.linspace(0, 2 * np.pi, 16, endpoint=False)
        knots = np.column_stack([np.cos(theta), np.sin(theta)])
        reg = spline_boundary(knots, 256)
        assert area(reg) == pytest.approx(np.pi, rel=1e-3)


class TestScaleToArea:
    def test_polygon_default_target(self):
        reg, factor = scale_to_area(Region.polygon(SQUARE))
        assert area(reg) == pytest.approx(4.0 * np.pi, rel=1e-14)
        assert factor == pytest.approx(np.sqrt(np.pi))

    def test_disk(self):
        reg, _ = scale_to_area(Region.disk((0, 0), 2.0), np.pi)
        assert reg.radius == pytest.approx(1.0)


class TestSpectralDomains:
    def test_disk_domain_validation(self):
        with pytest.raises(ValueError):
            SpectralDomain.disk(0.0)

    def test_wedge_pair_is_antipodal(self):
        dom = wedge_domain(np.pi / 6, 0.2, 1.5)
        assert dom.kind == "polygons"
        assert len(dom.polygons) == 2
        a, b = dom.polygons
        # the partner is the point reflection of the first triangle
        flipped = -np.asarray(a)
        match = any(
            np.allclose(np.roll(np.asarray(b), s, axis=0)[::o], flipped, atol=1e-12)
            for s in range(len(b)) for o in (1, -1))
        assert match

    def test_hermitian_symmetrize_polygons_idempotent(self):
        dom = wedge_domain(0.4, 0.15, 1.0)
        again = hermitian_symmetrize(dom)
        assert len(again.polygons) == len(dom.polygons)

    def test_hermitian_symmetrize_adds_missing_partner(self):
        tri = [(0.1, 0.1), (1.0, 0.2), (0.5, 0.9)]
        dom = SpectralDomain.polygon_set([tri])
        sym = hermitian_symmetrize(dom)
        assert len(sym.polygons) == 2

    def test_hermitian_symmetrize_mask(self):
        kx = np.array([-1.0, 0.0, 1.0])
        ky = np.array([-1.0, 0.0, 1.0])
        mask = np.zeros((3, 3), dtype=bool)
        mask[0, 2] = True  # (kx=1, ky=-1) without its partner
        sym = hermitian_symmetrize(SpectralDomain.grid_mask(mask, kx, ky))
        assert sym.mask[0, 2] and sym.mask[2, 0]

    def test_hermitian_symmetrize_mask_on_even_centred_axes(self):
        # fftshift(2 pi fftfreq(4, 0.5)) = (-2, -1, 0, 1) pi: the reflection is
        # periodic, so the -2 pi row and column map to themselves
        k = np.fft.fftshift(2 * np.pi * np.fft.fftfreq(4, 0.5))
        mask = np.zeros((4, 4), dtype=bool)
        mask[0, 3] = mask[1, 2] = True   # (kx, ky) = (pi, -2 pi), (0, -pi)
        sym = hermitian_symmetrize(SpectralDomain.grid_mask(mask, k, k)).mask
        assert set(zip(*np.nonzero(sym))) == {(0, 3), (0, 1), (1, 2), (3, 2)}

    def test_mask_axes_must_be_symmetric(self):
        kx = np.array([0.0, 1.0])
        ky = np.array([-1.0, 0.0, 1.0])
        mask = np.ones((3, 2), dtype=bool)
        with pytest.raises(ValueError):
            hermitian_symmetrize(SpectralDomain.grid_mask(mask, kx, ky))


class TestBoundaryFiles:
    def test_round_trip(self, tmp_path):
        reg = Region.polygon(C_SHAPE)
        p = tmp_path / "c.xy"
        write_region(str(p), reg)
        back = read_region(str(p))
        np.testing.assert_allclose(back.vertices, reg.vertices)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "r.xy"
        p.write_text("# header\n0,0\n\n1,0\n# mid\n1,1\n0,1\n")
        reg = read_region(str(p))
        assert area(reg) == pytest.approx(1.0)

    def test_malformed_line_reports_number(self, tmp_path):
        p = tmp_path / "bad.xy"
        p.write_text("0,0\n1,0\noops\n0,1\n")
        with pytest.raises(ValueError, match="line 3"):
            read_region(str(p))

    def test_packaged_plateau_boundary(self, plateau_region):
        a = area(plateau_region)
        assert abs(a - 334e3) <= 5e3
        assert len(plateau_region.vertices) == 28
