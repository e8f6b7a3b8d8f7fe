"""Arbitrary-region concentration on the plane plus grid export round trips."""

import dataclasses
from functools import partial
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slepkit import (
    ConfigurationError, DiskBandKernel, ExtensionError, GridField, GridSpec, Region, area,
    disk_kernel, evaluate_g, evaluate_h, nystrom_eigs, nystrom_extend, periodogram, read_grid,
    read_grid_text, region_mask, scale_to_area, shannon_2d, solve_region_disk,
    weighted_sumsq, write_grid, write_grid_text,
)
from slepkit import kernels
from slepkit.kernels import _polar_rule, _radii


class TestGridSpec:
    def test_axes_and_points(self):
        g = GridSpec(x0=-1.0, y0=2.0, dx=0.5, dy=0.25, nx=3, ny=2)
        np.testing.assert_allclose(g.x_axis(), [-1.0, -0.5, 0.0])
        np.testing.assert_allclose(g.y_axis(), [2.0, 2.25])
        pts = g.points()
        assert pts.shape == (6, 2)
        # x varies fastest, matching row-major (ny, nx) value layout
        np.testing.assert_allclose(pts[:3, 0], [-1.0, -0.5, 0.0])
        np.testing.assert_allclose(pts[:3, 1], 2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(x0=0, y0=0, dx=-0.1, dy=0.1, nx=4, ny=4)
        with pytest.raises(ValueError):
            GridSpec(x0=0, y0=0, dx=0.1, dy=0.1, nx=0, ny=4)
        # counts are not truncated or taken from booleans
        for nx, ny in ((2.7, 3), (3, True), (np.True_, 2), (2, np.float64(3.5)),
                       (np.nan, 2), (2, np.inf)):
            with pytest.raises(ConfigurationError, match="must be integers"):
                GridSpec(x0=0, y0=0, dx=0.1, dy=0.1, nx=nx, ny=ny)
        g = GridSpec(x0=0, y0=0, dx=0.1, dy=0.1, nx=3.0, ny=np.int64(2))
        assert (g.nx, g.ny) == (3, 2) and type(g.nx) is int and type(g.ny) is int
        # NaN passes dx <= 0, and an infinite origin leaves every point infinite
        with pytest.raises(ConfigurationError, match="must be finite"):
            GridSpec(x0=0, y0=np.inf, dx=np.nan, dy=1, nx=2, ny=2)
        for key in ("x0", "y0", "dx", "dy"):
            for bad in (np.nan, np.inf, -np.inf):
                fields = {**dict(x0=0.0, y0=0.0, dx=0.1, dy=0.1, nx=2, ny=2), key: bad}
                with pytest.raises(ConfigurationError, match="must be finite"):
                    GridSpec(**fields)
        with pytest.raises(ValueError):
            GridField(GridSpec(x0=0, y0=0, dx=1, dy=1, nx=3, ny=3),
                      np.zeros((2, 3)))


class TestShannon2d:
    def test_values(self):
        assert shannon_2d(2.0, np.pi) == pytest.approx(1.0)
        # doubling the bandlimit quadruples the count
        assert shannon_2d(4.0, np.pi) == pytest.approx(4.0)
        with pytest.raises(ValueError):
            shannon_2d(0.0, 1.0)
        with pytest.raises(ValueError):
            shannon_2d(1.0, -2.0)

    @pytest.mark.parametrize("k, a", [(np.nan, 1.0), (np.inf, 1.0), (1.0, np.nan),
                                      (1.0, np.inf)])
    def test_rejects_non_finite(self, k, a):
        with pytest.raises(ValueError, match="must be positive and finite"):
            shannon_2d(k, a)

    def test_plateau_boundary(self, plateau_region):
        got = shannon_2d(0.0194, area(plateau_region))
        assert got == pytest.approx(10.0, abs=0.05)


class TestRegionSolve:
    @pytest.mark.parametrize("k", [np.nan, np.inf])
    def test_rejects_non_finite_bandlimit(self, k, unit_disk):
        with pytest.raises(ValueError, match="bandlimit must be positive and finite"):
            solve_region_disk(unit_disk, k, n_quad=8, count=2)

    def test_trace_matches_shannon(self, plateau_region):
        basis = solve_region_disk(plateau_region, 0.0194, n_quad=24, count=8)
        assert basis.trace == pytest.approx(basis.shannon, rel=1e-3)
        assert basis.normalization == "whole-plane-unit"

    def test_eigenvalues_bounded_and_sorted(self, disk42_nystrom):
        lam = disk42_nystrom.eigenvalues
        assert lam[0] < 1.0
        assert np.all(lam > -1e-12)
        assert np.all(np.diff(lam) <= 1e-14)

    def test_region_gram_is_diag_lambda(self, disk42_nystrom):
        b = disk42_nystrom
        s = b.node_samples[:30]
        gram = s @ (b.quadrature.weights[:, None] * s.T)
        np.testing.assert_allclose(gram, np.diag(b.eigenvalues[:30]),
                                   atol=1e-10)

    def test_matches_fixed_order_route(self, disk42_nystrom, disk42_analytic):
        # two completely independent constructions of the same spectrum
        np.testing.assert_allclose(disk42_nystrom.eigenvalues[:10],
                                   disk42_analytic.eigenvalues[:10],
                                   atol=1e-6)

    def test_validation(self, unit_disk):
        with pytest.raises(ValueError):
            solve_region_disk(unit_disk, -2.0)
        for count in (2.5, True):
            with pytest.raises(ValueError, match="must be an integer"):
                solve_region_disk(unit_disk, 4.0, n_quad=8, count=count)
        basis = solve_region_disk(unit_disk, 4.0, n_quad=8, count=np.int64(3))
        assert len(basis.eigenvalues) == 3

    def test_coarse_quadrature_warns(self, plateau_region):
        # N = 25 on the plateau outline at area 4 pi: 24 nodes per dimension
        # under-resolve the kernel and push the top eigenvalue above 1
        region = scale_to_area(plateau_region, 4.0 * np.pi)[0]
        with pytest.warns(RuntimeWarning, match="n_quad=24 is too coarse"):
            coarse = solve_region_disk(region, 5.0, n_quad=24, count=4)
        assert coarse.eigenvalues[0] > 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fine = solve_region_disk(region, 5.0, n_quad=48, count=4)
        assert fine.eigenvalues[0] <= 1.0

    def test_records_factor(self, disk42_nystrom):
        extra = disk42_nystrom.solution.extra
        assert extra["route"] == "factored"
        kept = extra["kept"]
        assert extra["rank"] == kept[0] + 2 * sum(kept[1:])
        # 1024 nodes, a 248-column multipole factor, against 720 columns of
        # the polar k-rule: its Gram is the smaller one
        nodes = disk42_nystrom.solution.nodes
        span = 2.0 * _radii(nodes, np.mean(nodes, axis=0))[2]
        assert 2 * len(_polar_rule(disk42_nystrom.k, span)[0]) == 720
        assert extra["rank"] == 248 < len(disk42_nystrom.quadrature.weights)

    def test_default_count_stays_lean(self, plateau_region):
        # N = 20 on the plateau outline at area 4 pi, 3360 nodes: the default
        # count keeps the pairs the factor resolves and builds no n x n array
        # (the kernel matrix alone is 90 MB)
        region = scale_to_area(plateau_region, 4.0 * np.pi)[0]
        k = np.sqrt(20.0)
        tracemalloc.start()
        try:
            basis = solve_region_disk(region, k, n_quad=48)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n, count = len(basis.quadrature.weights), len(basis.eigenvalues)
        assert n == 3360 and count == basis.solution.extra["gram_rank"] < n
        assert peak < 40e6
        dense = nystrom_eigs(partial(disk_kernel, k), basis.quadrature, count)
        np.testing.assert_allclose(basis.eigenvalues, dense.eigenvalues, rtol=0, atol=1e-12)


@pytest.fixture(scope="module")
def small_basis(unit_disk):
    return solve_region_disk(unit_disk, 2 * np.sqrt(10.0), n_quad=24, count=12)


@pytest.fixture(scope="module")
def basis10(unit_disk):
    return solve_region_disk(unit_disk, 2 * np.sqrt(10.0), n_quad=24, count=24)


class TestEvaluation:
    def test_g_reproduces_node_samples(self, small_basis):
        b = small_basis
        nodes = b.quadrature.nodes
        grid = GridSpec(x0=0, y0=0, dx=1, dy=1, nx=len(nodes), ny=1)
        # evaluate through the extension machinery directly at the nodes
        from slepkit import nystrom_extend
        for i in (0, 3):
            vals = np.sqrt(b.eigenvalues[i]) * nystrom_extend(b.solution, i,
                                                              nodes)
            np.testing.assert_allclose(vals, b.node_samples[i], atol=1e-9)

    def test_g_whole_plane_energy(self, small_basis):
        grid = GridSpec(x0=-4.0, y0=-4.0, dx=0.05, dy=0.05, nx=161, ny=161)
        g0 = evaluate_g(small_basis, 0, grid)
        energy = np.sum(g0.values ** 2) * grid.dx * grid.dy
        assert energy == pytest.approx(1.0, abs=0.02)

    def test_g_peaks_inside_region(self, small_basis):
        grid = GridSpec(x0=-2.0, y0=-2.0, dx=0.05, dy=0.05, nx=81, ny=81)
        g0 = evaluate_g(small_basis, 0, grid)
        iy, ix = np.unravel_index(np.argmax(np.abs(g0.values)),
                                  g0.values.shape)
        x, y = grid.x_axis()[ix], grid.y_axis()[iy]
        assert np.hypot(x, y) < 1.0

    def test_h_from_given_g_and_mask(self, small_basis):
        grid = GridSpec(x0=-1.5, y0=-1.5, dx=0.1, dy=0.1, nx=31, ny=31)
        g = evaluate_g(small_basis, 2, grid)
        inside = region_mask(small_basis.region, grid)
        h = evaluate_h(small_basis, 2, grid, g=g)
        np.testing.assert_array_equal(h.values, np.where(inside, g.values, 0.0))
        np.testing.assert_array_equal(h.values, evaluate_h(small_basis, 2, grid).values)

    def test_h_builds_grid_points_once(self, small_basis, monkeypatch):
        grid = GridSpec(x0=-1.5, y0=-1.5, dx=0.1, dy=0.1, nx=31, ny=31)
        calls = []
        points = GridSpec.points
        monkeypatch.setattr(GridSpec, "points", lambda self: calls.append(self) or points(self))
        evaluate_h(small_basis, 1, grid)
        assert calls == [grid]

    def test_h_of_many_indices(self, small_basis):
        # a sequence of indices gives a list of fields, as evaluate_g does
        grid = GridSpec(x0=-1.7, y0=-1.3, dx=0.11, dy=0.13, nx=29, ny=23)
        inside = region_mask(small_basis.region, grid)
        gs = evaluate_g(small_basis, [0, 5, 11], grid)
        for hs in (evaluate_h(small_basis, [0, 5, 11], grid),
                   evaluate_h(small_basis, [0, 5, 11], grid, g=gs)):
            assert isinstance(hs, list) and len(hs) == 3
            for g, h in zip(gs, hs):
                assert h.grid == grid
                np.testing.assert_array_equal(h.values, np.where(inside, g.values, 0.0))

    def test_h_rejects_a_given_g_that_does_not_match(self, small_basis):
        # one field per index, each on the grid asked for: no truncation to
        # the shorter of the two and no field from another grid
        grid = GridSpec(x0=-1.5, y0=-1.5, dx=0.1, dy=0.1, nx=31, ny=31)
        other = GridSpec(x0=-1.4, y0=-1.5, dx=0.1, dy=0.1, nx=31, ny=31)
        gs = evaluate_g(small_basis, [0, 1], grid)
        with pytest.raises(ValueError, match="g holds 1 fields, count is 2"):
            evaluate_h(small_basis, [0, 1], grid, g=gs[:1])
        with pytest.raises(ValueError, match="g holds a field off the grid"):
            evaluate_h(small_basis, [0, 1], other, g=gs)
        with pytest.raises(ValueError, match="g holds a field off the grid"):
            evaluate_h(small_basis, 0, other, g=gs[0])

    def test_g_of_many_indices(self, small_basis):
        grid = GridSpec(x0=-1.7, y0=-1.3, dx=0.11, dy=0.13, nx=29, ny=23)
        many = evaluate_g(small_basis, [0, 5, 11], grid)
        for i, g in zip((0, 5, 11), many):
            want = evaluate_g(small_basis, i, grid).values
            assert g.grid == grid
            np.testing.assert_allclose(g.values, want, rtol=0,
                                       atol=1e-14 * np.max(np.abs(want)))

    def test_wide_rule_grid_skips_the_kernel(self, disk42_nystrom, monkeypatch):
        # the 121^2 grid of acceptance 06 needs a 2398-column rule, wider than
        # the 1024 nodes but not than the grid, so no Bessel value is computed
        basis = disk42_nystrom
        grid = GridSpec(x0=-3.0, y0=-3.0, dx=0.05, dy=0.05, nx=121, ny=121)
        nodes = basis.quadrature.nodes
        span = _radii(grid.points(), nodes.mean(axis=0))[2] + _radii(nodes, nodes.mean(axis=0))[2]
        assert len(nodes) < 2 * len(_polar_rule(basis.k, span)[0]) == 2398 < grid.nx * grid.ny
        calls = []

        def spy(self, x, xp):
            calls.append(np.shape(x))
            return disk_kernel(self.k, x, xp)

        monkeypatch.setattr(DiskBandKernel, "__call__", spy)
        fields = evaluate_g(basis, [0, 4, 9], grid)
        assert calls == []
        monkeypatch.undo()
        plain = dataclasses.replace(basis.solution, kernel=partial(disk_kernel, basis.k))
        sample = np.arange(0, grid.nx * grid.ny, 37)
        for i, g in zip((0, 4, 9), fields):
            want = np.sqrt(basis.eigenvalues[i]) * nystrom_extend(plain, i, grid.points()[sample])
            np.testing.assert_allclose(g.values.ravel()[sample], want, rtol=0,
                                       atol=1e-12 * np.max(np.abs(g.values)))

    def test_g_of_many_indices_refuses_tiny_lambda(self, unit_disk):
        basis = solve_region_disk(unit_disk, 2.0, n_quad=12, count=40)
        tiny = int(np.argmax(basis.eigenvalues <= 1e-12))
        assert basis.eigenvalues[tiny] <= 1e-12
        grid = GridSpec(x0=0, y0=0, dx=0.1, dy=0.1, nx=3, ny=2)
        for index in ([0, tiny], [tiny, 0]):
            with pytest.raises(ExtensionError):
                evaluate_g(basis, index, grid)

    def test_h_zero_outside_and_energy_lambda(self, small_basis, unit_disk):
        grid = GridSpec(x0=-2.0, y0=-2.0, dx=0.02, dy=0.02, nx=201, ny=201)
        h0 = evaluate_h(small_basis, 0, grid)
        pts = grid.points()
        outside = np.hypot(pts[:, 0], pts[:, 1]).reshape(201, 201) > 1.0
        assert np.all(h0.values[outside] == 0.0)
        energy = np.sum(h0.values ** 2) * grid.dx * grid.dy
        assert energy == pytest.approx(small_basis.eigenvalues[0], abs=0.02)


class TestPeriodogram:
    def test_parseval_exact(self):
        rng = np.random.default_rng(11)
        grid = GridSpec(x0=-1.0, y0=-2.0, dx=0.1, dy=0.2, nx=32, ny=16)
        field = GridField(grid, rng.standard_normal((16, 32)))
        p = periodogram(field)
        lhs = np.sum(p.values) * p.grid.dx * p.grid.dy / (2 * np.pi) ** 2
        rhs = np.sum(field.values ** 2) * grid.dx * grid.dy
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(nx=st.integers(1, 40), ny=st.integers(1, 40),
           dx=st.floats(1e-3, 1e3), dy=st.floats(1e-3, 1e3),
           seed=st.integers(0, 2 ** 16))
    def test_parseval_on_any_grid(self, nx, ny, dx, dy, seed):
        # odd and even sides, one-cell axes and unequal spacings alike
        grid = GridSpec(x0=-0.5 * nx * dx, y0=0.0, dx=dx, dy=dy, nx=nx, ny=ny)
        field = GridField(grid, np.random.default_rng(seed).standard_normal((ny, nx)))
        p = periodogram(field)
        lhs = np.sum(p.values) * p.grid.dx * p.grid.dy / (2 * np.pi) ** 2
        rhs = np.sum(field.values ** 2) * dx * dy
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_constant_field_concentrates_at_origin(self):
        grid = GridSpec(x0=0.0, y0=0.0, dx=0.1, dy=0.1, nx=16, ny=16)
        p = periodogram(GridField(grid, np.ones((16, 16))))
        ik = np.unravel_index(np.argmax(p.values), p.values.shape)
        assert p.grid.x_axis()[ik[1]] == pytest.approx(0.0, abs=1e-12)
        assert p.grid.y_axis()[ik[0]] == pytest.approx(0.0, abs=1e-12)
        mask = p.values > 1e-9 * p.values.max()
        assert np.sum(mask) == 1

    def test_plane_wave_twin_peaks(self):
        grid = GridSpec(x0=0.0, y0=0.0, dx=0.25, dy=0.25, nx=64, ny=64)
        k0 = 3 * 2 * np.pi / (64 * 0.25)  # commensurate wavenumber
        x = grid.points()[:, 0].reshape(64, 64)
        p = periodogram(GridField(grid, np.cos(k0 * x)))
        mask = p.values > 1e-9 * p.values.max()
        assert np.sum(mask) == 2
        kxs = np.sort(np.broadcast_to(p.grid.x_axis(), (64, 64))[mask])
        np.testing.assert_allclose(kxs, [-k0, k0], atol=1e-12)

    def test_wavenumber_spacing(self):
        grid = GridSpec(x0=0.0, y0=0.0, dx=0.5, dy=0.25, nx=20, ny=40)
        p = periodogram(GridField(grid, np.zeros((40, 20))))
        assert p.grid.dx == pytest.approx(2 * np.pi / (20 * 0.5))
        assert p.grid.dy == pytest.approx(2 * np.pi / (40 * 0.25))
        assert 0.0 in np.round(p.grid.x_axis(), 12)

    def test_band_fraction_equals_lambda(self, unit_disk):
        # the space-limited twin h leaks exactly 1 - lambda of its spectral
        # energy outside the bandlimit circle
        k = 2 * np.sqrt(10.0)
        basis = solve_region_disk(unit_disk, k, n_quad=24, count=4)
        grid = GridSpec(x0=-6.0, y0=-6.0, dx=0.04, dy=0.04, nx=300, ny=300)
        h0 = evaluate_h(basis, 0, grid)
        p = periodogram(h0)
        kpts = p.grid.points()
        inband = (np.hypot(kpts[:, 0], kpts[:, 1]) <= k).reshape(300, 300)
        frac = np.sum(p.values[inband]) / np.sum(p.values)
        lam0 = basis.eigenvalues[0]
        assert frac == pytest.approx(lam0, abs=0.02 * lam0)

    def test_rejects_complex(self):
        grid = GridSpec(x0=0, y0=0, dx=1, dy=1, nx=4, ny=4)
        with pytest.raises(ValueError):
            periodogram(GridField(grid, np.zeros((4, 4), dtype=complex)))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(nx=st.integers(1, 40), ny=st.integers(1, 40),
           dx=st.floats(1e-2, 1e2), dy=st.floats(1e-2, 1e2),
           rows=st.sampled_from(["random", "single", "none"]),
           seed=st.integers(0, 2 ** 16))
    def test_matches_full_fft2(self, nx, ny, dx, dy, rows, seed):
        # oracle: the full complex transform, shifted and squared; odd and
        # even sides, fields with random all-zero rows, with one nonzero
        # row, and all-zero fields
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((ny, nx))
        if rows == "random":
            values[rng.random(ny) < 0.5] = 0.0
        elif rows == "single":
            values[np.arange(ny) != rng.integers(ny)] = 0.0
        else:
            values[:] = 0.0
        grid = GridSpec(x0=0.0, y0=0.0, dx=dx, dy=dy, nx=nx, ny=ny)
        got = periodogram(GridField(grid, values)).values
        want = np.abs(np.fft.fftshift(np.fft.fft2(values)) * dx * dy) ** 2
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(want)

    def test_runs_no_fft2(self, monkeypatch):
        # only the half plane is transformed, and only on nonzero rows
        def fft2(*args, **kwargs):
            raise AssertionError("fft2 called")

        monkeypatch.setattr(np.fft, "fft2", fft2)
        grid = GridSpec(x0=0.0, y0=0.0, dx=0.5, dy=0.5, nx=9, ny=6)
        periodogram(GridField(grid, np.ones((6, 9))))


class TestWeightedSumsq:
    def test_interior_plateau(self, basis10):
        # with ~2 N2D terms the weighted sum of squares approaches
        # shannon / area deep inside the region
        grid = GridSpec(x0=0.0, y0=0.0, dx=1.0, dy=1.0, nx=1, ny=1)
        val = weighted_sumsq(basis10, grid, 20).values[0, 0]
        plateau = basis10.shannon / area(basis10.region)
        assert val == pytest.approx(plateau, rel=0.1)

    def test_far_field_collapses(self, basis10):
        grid = GridSpec(x0=4.0, y0=4.0, dx=0.5, dy=0.5, nx=2, ny=2)
        vals = weighted_sumsq(basis10, grid, 20).values
        plateau = basis10.shannon / area(basis10.region)
        assert np.max(vals) < 0.05 * plateau

    def test_monotone_in_count(self, basis10):
        grid = GridSpec(x0=0.1, y0=-0.2, dx=1.0, dy=1.0, nx=1, ny=1)
        vals = [weighted_sumsq(basis10, grid, c).values[0, 0]
                for c in (1, 5, 10, 20)]
        assert np.all(np.diff(vals) > 0)

    def test_count_validation(self, basis10):
        grid = GridSpec(x0=0, y0=0, dx=1, dy=1, nx=1, ny=1)
        with pytest.raises(ValueError):
            weighted_sumsq(basis10, grid, 0)
        with pytest.raises(ValueError):
            weighted_sumsq(basis10, grid, 999)
        for count in (2.5, True):
            with pytest.raises(ValueError, match="must be an integer"):
                weighted_sumsq(basis10, grid, count)
        np.testing.assert_array_equal(weighted_sumsq(basis10, grid, 2.0).values,
                                      weighted_sumsq(basis10, grid, 2).values)

    def test_from_given_g(self, basis10):
        grid = GridSpec(x0=-1.9, y0=-1.4, dx=0.21, dy=0.17, nx=19, ny=17)
        g = evaluate_g(basis10, list(range(20)), grid)
        want = weighted_sumsq(basis10, grid, 20).values
        got = weighted_sumsq(basis10, grid, 20, g=g).values
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
        with pytest.raises(ValueError):
            weighted_sumsq(basis10, grid, 19, g=g)

    def test_given_g_must_lie_on_the_grid(self, basis10):
        grid = GridSpec(x0=-1.9, y0=-1.4, dx=0.21, dy=0.17, nx=19, ny=17)
        other = GridSpec(x0=-1.9, y0=-1.4, dx=0.2, dy=0.17, nx=19, ny=17)
        g = evaluate_g(basis10, list(range(3)), other)
        with pytest.raises(ValueError, match="g holds a field off the grid"):
            weighted_sumsq(basis10, grid, 3, g=g)

    def test_one_formula_for_both_call_forms(self, plateau_region):
        # the fields come from evaluate_g either way, so the sums share their bits
        basis = solve_region_disk(plateau_region, 0.0194, n_quad=24, count=20)
        xmin, xmax, ymin, ymax = plateau_region.bounding_box()
        grid = GridSpec(x0=xmin, y0=ymin, dx=(xmax - xmin) / 40, dy=(ymax - ymin) / 40,
                        nx=41, ny=41)
        g = evaluate_g(basis, list(range(20)), grid)
        np.testing.assert_array_equal(weighted_sumsq(basis, grid, 20).values,
                                      weighted_sumsq(basis, grid, 20, g=g).values)


class TestGridIO:
    @pytest.fixture()
    def field(self):
        rng = np.random.default_rng(3)
        grid = GridSpec(x0=-1.5, y0=0.25, dx=0.125, dy=0.5, nx=7, ny=5)
        return GridField(grid, rng.standard_normal((5, 7)))

    def test_binary_round_trip(self, field, tmp_path):
        path = tmp_path / "f.bin"
        write_grid(field, path, name="unit-test")
        back, name = read_grid(path)
        assert name == "unit-test"
        assert np.array_equal(back.values, field.values)
        assert back.grid == field.grid

    def test_sidecar_render_metadata(self, field, tmp_path):
        path = tmp_path / "f.bin"
        write_grid(field, path)
        text = (tmp_path / "f.bin.hdr").read_text()
        assert "render_floor = " in text
        assert "n_below_floor = " in text
        floor = float(next(l.split("=")[1] for l in text.splitlines()
                           if l.startswith("render_floor")))
        assert floor == pytest.approx(np.max(np.abs(field.values)) / 100.0)

    def test_size_mismatch_detected(self, field, tmp_path):
        path = tmp_path / "f.bin"
        write_grid(field, path)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(ConfigurationError):
            read_grid(path)

    def test_text_round_trip(self, field, tmp_path):
        path = tmp_path / "f.txt"
        write_grid_text(field, path)
        back = read_grid_text(path)
        assert np.array_equal(back.values, field.values)
        np.testing.assert_allclose(
            [back.grid.x0, back.grid.y0, back.grid.dx, back.grid.dy],
            [field.grid.x0, field.grid.y0, field.grid.dx, field.grid.dy],
            rtol=0, atol=0)

    def test_text_spacing_from_axis_span(self, tmp_path):
        # dx and dy are not binary fractions; the read-back axes must not
        # accumulate the rounding of one printed step over the whole axis
        grid = GridSpec(x0=-7.0, y0=3.3, dx=0.1 / 3, dy=np.pi / 97,
                        nx=417, ny=386)
        path = tmp_path / "f.txt"
        write_grid_text(GridField(grid, np.zeros((386, 417))), path)
        back = read_grid_text(path).grid
        for want, got in ((grid.x_axis(), back.x_axis()),
                          (grid.y_axis(), back.y_axis())):
            ulp = np.spacing(np.max(np.abs(want)))
            assert np.max(np.abs(got - want)) <= 2 * ulp

    def test_text_header_line(self, field, tmp_path):
        path = tmp_path / "f.txt"
        write_grid_text(field, path)
        assert path.read_text().splitlines()[0] == "# x y value"

    def test_complex_rejected(self, tmp_path):
        grid = GridSpec(x0=0, y0=0, dx=1, dy=1, nx=2, ny=2)
        f = GridField(grid, np.zeros((2, 2), dtype=complex))
        with pytest.raises(ConfigurationError):
            write_grid(f, tmp_path / "c.bin")
        with pytest.raises(ConfigurationError):
            write_grid_text(f, tmp_path / "c.txt")

    def test_malformed_text_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# x y value\n1.0 2.0\n")
        with pytest.raises(ConfigurationError, match=r"bad\.txt:2:"):
            read_grid_text(path)
        path.write_text("# x y value\n\n")
        with pytest.raises(ConfigurationError, match="no data rows"):
            read_grid_text(path)

    def test_text_rows_placed_by_coordinates(self, field, tmp_path):
        # a 3 x 2 table of 10 x + y written y fastest, and a shuffled table,
        # read back cell for cell as their x-fastest writes do
        def table(rows):
            return "# x y value\n" + "".join(f"{x!r} {y!r} {v!r}\n" for x, y, v in rows)

        cells = [(float(x), float(y), 10.0 * x + y) for y in (0, 1) for x in (0, 1, 2)]
        path = tmp_path / "yfast.txt"
        path.write_text(table(sorted(cells)))
        back = read_grid_text(path)
        np.testing.assert_array_equal(back.values, [[0.0, 10.0, 20.0], [1.0, 11.0, 21.0]])
        path.write_text(table(cells))
        np.testing.assert_array_equal(read_grid_text(path).values, back.values)
        written = tmp_path / "f.txt"
        write_grid_text(field, written)
        lines = written.read_text().splitlines()
        order = np.random.default_rng(4).permutation(len(lines) - 1) + 1
        path.write_text("\n".join([lines[0]] + [lines[i] for i in order]) + "\n")
        shuffled = read_grid_text(path)
        assert np.array_equal(shuffled.values, field.values)
        assert shuffled.grid == read_grid_text(written).grid

    @pytest.mark.parametrize("rows, message", [
        ([(0, 0), (1, 0), (3, 0)], r"x axis is not evenly spaced"),
        ([(0, 0), (0, 1), (0, 1.5)], r"y axis is not evenly spaced"),
        ([(0, 0), (1, 0), (1, 0), (0, 1)], r"cell \(1\.0, 0\.0\) appears 2 times"),
        ([(0, 0), (1, 0), (0, 1), (1, 1), (1, 1), (0, 0)], r"appears 2 times"),
    ], ids=["uneven-x", "uneven-y", "repeated", "repeated-complete"])
    def test_text_uneven_or_repeated_rejected(self, rows, message, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("".join(f"{x} {y} 1.0\n" for x, y in rows))
        with pytest.raises(ConfigurationError, match=message):
            read_grid_text(path)

    def test_text_axes_of_every_write_accepted(self, tmp_path):
        # written axes are x0 + dx * i; offsets far larger than the span
        # leave steps a few ulps of the coordinates apart
        rng = np.random.default_rng(11)
        path = tmp_path / "f.txt"
        for _ in range(40):
            grid = GridSpec(x0=rng.uniform(-1, 1) * 10.0 ** rng.uniform(-3, 7),
                            y0=rng.uniform(-1, 1) * 10.0 ** rng.uniform(-3, 7),
                            dx=10.0 ** rng.uniform(-4, 2), dy=10.0 ** rng.uniform(-4, 2),
                            nx=int(rng.integers(2, 60)), ny=int(rng.integers(2, 60)))
            vals = rng.standard_normal((grid.ny, grid.nx))
            write_grid_text(GridField(grid, vals), path)
            assert np.array_equal(read_grid_text(path).values, vals)

    @pytest.mark.parametrize("edit, message", [
        (lambda t: t.replace("nx = 7\n", ""), r"f\.bin\.hdr: no 'nx = \.\.\.' line"),
        (lambda t: t.replace("dy = 0.5\n", ""), r"f\.bin\.hdr: no 'dy = \.\.\.' line"),
        (lambda t: t.replace("ny = 5", "ny = five"), r"f\.bin\.hdr: cannot read ny = 'five'"),
        (lambda t: t.replace("x0 = -1.5", "x0 = -1.5.0"), r"cannot read x0 = '-1\.5\.0'"),
        (lambda t: t.replace("dx = 0.125", "dx = nan"), "must be finite"),
    ], ids=["no-nx", "no-dy", "bad-ny", "bad-x0", "nan-dx"])
    def test_bad_sidecar_named(self, field, edit, message, tmp_path):
        path = tmp_path / "f.bin"
        write_grid(field, path)
        hdr = tmp_path / "f.bin.hdr"
        hdr.write_text(edit(hdr.read_text()))
        with pytest.raises(ConfigurationError, match=message):
            read_grid(path)

    def test_text_bytes_match_per_cell_format(self, tmp_path):
        rng = np.random.default_rng(5)
        grid = GridSpec(x0=-1.2345678901, y0=0.1 + 0.2, dx=0.1 / 3, dy=np.pi / 97,
                        nx=13, ny=9)
        vals = rng.standard_normal((9, 13)) * 10.0 ** rng.integers(-20, 20, (9, 13))
        vals[0, 0], vals[1, 2] = 0.0, -0.0
        # the +0.0 shortcut leaves every other value to repr: -0.0, nan, +-inf,
        # subnormals and the smallest normals; a row of +0.0 and a row without
        vals[2, :7] = [np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
                       np.nextafter(0.0, -1.0)]
        vals[3] = 0.0
        vals[4] = -0.0
        path = tmp_path / "f.txt"
        write_grid_text(GridField(grid, vals), path)
        xs, ys = grid.x_axis(), grid.y_axis()
        want = "# x y value\n" + "".join(
            f"{float(xs[ix])!r} {float(ys[iy])!r} {float(vals[iy, ix])!r}\n"
            for iy in range(grid.ny) for ix in range(grid.nx))
        assert path.read_bytes() == want.encode()


def per_cell_text(field):
    """Oracle: the per-cell formatter write_grid_text used before it wrote
    runs of +0.0 by one join, kept whole as the bytes it must reproduce."""
    vals = np.asarray(field.values).astype(float, copy=False)
    g = field.grid
    xs = [repr(x) for x in g.x_axis().tolist()]
    plus_zero = (vals == 0.0) & ~np.signbit(vals)
    out = ["# x y value\n"]
    for y, row, zero in zip(g.y_axis().tolist(), vals, plus_zero):
        mid = f" {y!r} "
        out.append("".join([f"{x}{mid}0.0\n" if z else f"{x}{mid}{v!r}\n"
                            for x, v, z in zip(xs, row.tolist(), zero.tolist())]))
    return "".join(out)


class TestGridTextRuns:
    GRID = GridSpec(x0=-1.2345678901, y0=0.1 + 0.2, dx=0.1 / 3, dy=np.pi / 97, nx=23, ny=11)

    @staticmethod
    def rows():
        rng = np.random.default_rng(19)
        vals = np.zeros((11, 23))
        vals[1] = rng.standard_normal(23)                       # dense
        vals[2, 9:] = rng.standard_normal(14)                   # zero run at the start
        vals[3, :15] = rng.standard_normal(15)                  # zero run at the end
        vals[4, ::2] = rng.standard_normal(12)                  # alternating
        vals[5] = -0.0                                          # -0.0 is not a run
        vals[6, [0, 3, 4, 10, 22]] = [np.nan, -0.0, np.inf, -np.inf, 5e-324]
        vals[7, 11] = 1e-300                                    # one cell mid-row
        vals[8, 0], vals[9, 22] = -2.5, 1e300                   # one cell at each end
        vals[10, 5:18] = rng.standard_normal(13) * 1e-17        # a support-like block
        return vals                                             # row 0 all +0.0

    def test_rows_match_per_cell_format(self, tmp_path):
        field = GridField(self.GRID, self.rows())
        path = tmp_path / "f.txt"
        write_grid_text(field, path)
        assert path.read_bytes() == per_cell_text(field).encode()

    @pytest.mark.parametrize("density", [0.0, 0.05, 0.5, 0.95, 1.0])
    def test_random_sparsity_matches_per_cell_format(self, density, tmp_path):
        rng = np.random.default_rng(int(density * 100))
        vals = rng.standard_normal((11, 23)) * (rng.random((11, 23)) < density)
        field = GridField(self.GRID, vals)
        path = tmp_path / "f.txt"
        write_grid_text(field, path)
        assert path.read_bytes() == per_cell_text(field).encode()

    def test_integer_values_match_per_cell_format(self, tmp_path):
        vals = np.arange(-30, 23 * 11 - 30).reshape(11, 23) * (np.arange(23) % 3 == 0)
        field = GridField(self.GRID, vals)
        path = tmp_path / "f.txt"
        write_grid_text(field, path)
        assert path.read_bytes() == per_cell_text(field).encode()

    def test_streams_rows(self, tmp_path):
        # the README wedge grid (417 x 386) with a dense 120 x 110 block: the
        # file is about 6 MB, and the writer holds about one row of it
        grid = GridSpec(x0=-1040.0 - 1 / 3, y0=-965.0 + 1 / 7, dx=5.0, dy=5.0, nx=417, ny=386)
        vals = np.zeros((386, 417))
        vals[130:250, 150:260] = np.random.default_rng(4).standard_normal((120, 110))
        field = GridField(grid, vals)
        path = tmp_path / "f.txt"
        tracemalloc.start()
        try:
            write_grid_text(field, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 5_000_000
        assert peak < size / 10
        assert path.read_bytes() == per_cell_text(field).encode()


class TestExtensionRoutes:
    """Extension through the k-space factor near the region, through the
    exact kernel where the factor would be wider than the node count; the
    points are those of the disk coverage acceptance test."""
    NEAR = np.array([[0.0, 0.0], [0.3, 0.2], [-0.4, 0.35], [0.5, -0.3]])
    FAR = np.array([[3.0, 0.0], [0.0, -3.2], [2.5, 2.5]])

    @pytest.fixture(scope="class")
    def basis(self, unit_disk):
        return solve_region_disk(unit_disk, 2.0 * np.sqrt(42.0), n_quad=32, count=84)

    @staticmethod
    def exact_rows(basis, count, pts):
        sol = basis.solution
        kmat = disk_kernel(basis.k, pts[:, None], sol.nodes[None])
        return kmat @ (sol.weights * sol.node_samples[:count]).T

    @pytest.mark.parametrize("where, factored", [("NEAR", True), ("FAR", False)])
    def test_branch_and_values(self, basis, monkeypatch, where, factored):
        pts = getattr(self, where)
        calls = []
        features = kernels._features

        def spy(*args):
            calls.append(args)
            return features(*args)

        monkeypatch.setattr(kernels, "_features", spy)
        count = len(basis.eigenvalues)
        want = self.exact_rows(basis, count, pts)
        got = basis.solution.kernel_apply(basis.solution.node_samples[:count], pts)
        assert bool(calls) == factored
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))
        grid = GridSpec(x0=float(pts[0, 0]), y0=float(pts[0, 1]), dx=1, dy=1, nx=1, ny=1)
        sumsq = weighted_sumsq(basis, grid, count).values[0, 0]
        assert sumsq == pytest.approx(np.sum(want[0] ** 2), rel=1e-10)
        f0 = nystrom_extend(basis.solution, 0, pts)
        np.testing.assert_allclose(f0, want[:, 0] / basis.eigenvalues[0], rtol=0,
                                   atol=1e-12 * np.max(np.abs(basis.solution.node_samples[0])))
