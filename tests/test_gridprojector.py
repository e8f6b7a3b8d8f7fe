"""Grid-discretized concentration operators for arbitrary mask pairs."""

import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from slepkit import (
    ConfigurationError, GridField, NumericalError, Region, SpectralDomain,
    apply_operator, build_problem, hermitian_symmetrize, periodogram, read_region, solve,
    wedge_domain, weighted_periodogram_sum,
)
from slepkit import cli, fredholm, gridprojector
from conftest import all_pass_problem as all_pass_grid_problem, boundary_path
from test_fredholm import assert_gram_pairs
from test_geometry import star_polygons

SQUARE = Region.polygon([(-1, -1), (1, -1), (1, 1), (-1, 1)])
NOTCHED = Region.polygon([(0, 0), (3, 0), (3, 1), (1, 1), (1, 2), (3, 2),
                          (3, 3), (0, 3)])
ASYM = Region.polygon([(-1.2, -0.8), (1.0, -1.0), (1.3, 0.9), (-0.9, 1.1)])
RECT = Region.polygon([(-1.0, -0.6), (1.0, -0.6), (1.0, 0.6), (-1.0, 0.6)])


def reflect(mask):
    # point reflection through k = 0 in unshifted FFT index order
    return np.roll(np.roll(mask[::-1, ::-1], 1, axis=0), 1, axis=1)


def fft_axes(grid):
    """(kx, ky): the grid's wavenumbers 2 pi fftfreq, in FFT order."""
    return (2 * np.pi * np.fft.fftfreq(grid.nx, grid.dx),
            2 * np.pi * np.fft.fftfreq(grid.ny, grid.dy))


def complex_apply(problem, field):
    """Oracle: P F* L F P in full complex arithmetic, real part kept."""
    p, l = problem.spatial_mask, problem.spectral_mask
    v = np.fft.fft2(np.where(p, field, 0.0), norm="ortho")
    v = np.fft.ifft2(np.where(l, v, 0.0), norm="ortho")
    return np.where(p, v, 0.0).real


def rfft2_apply(problem, field):
    """Oracle: P F* L F P through full-grid rfft2/irfft2 on the half plane."""
    ny, nx = problem.grid.ny, problem.grid.nx
    spec = np.fft.rfft2(np.where(problem.spatial_mask, field, 0.0), norm="ortho")
    spec *= problem.spectral_mask[:, :nx // 2 + 1]
    out = np.fft.irfft2(spec, s=(ny, nx), norm="ortho")
    return np.where(problem.spatial_mask, out, 0.0)


def all_pass_problem():
    return all_pass_grid_problem(SQUARE, 0.2, 2.5)


def mask_problem(spacing, seed, region=SQUARE, cells=None, embed=2.5):
    # a random wavenumber set (each cell kept with probability 0.2, or
    # `cells` distinct cells), made symmetric through k = 0, on the grid
    # the region gets at this spacing, with that grid's FFT-ordered axes
    grid = build_problem(region, SpectralDomain.disk(1.0), spacing,
                         embed_factor=embed).grid
    rng = np.random.default_rng(seed)
    if cells is None:
        m = rng.random((grid.ny, grid.nx)) < 0.2
    else:
        m = np.zeros(grid.ny * grid.nx, dtype=bool)
        m[rng.choice(m.size, min(cells, m.size), replace=False)] = True
        m = m.reshape(grid.ny, grid.nx)
    dom = SpectralDomain.grid_mask(m | reflect(m), *fft_axes(grid))
    return build_problem(region, dom, spacing, embed_factor=embed)


def dense_operator(problem):
    """Oracle: P F* L F P on the support cells, one complex_apply per column."""
    cells = np.flatnonzero(problem.spatial_mask)
    cols = []
    for c in cells:
        e = np.zeros(problem.spatial_mask.size)
        e[c] = 1.0
        cols.append(complex_apply(problem, e.reshape(problem.spatial_mask.shape))
                    .ravel()[cells])
    return np.array(cols).T


# (builder, (nx % 2, ny % 2)): disk, wedge and mask domains on every parity
ORACLE_PROBLEMS = {
    "disk-odd": (lambda: build_problem(Region.disk((0.0, 0.0), 1.0),
                                       SpectralDomain.disk(2.0), 0.25), (1, 1)),
    "disk-even": (lambda: build_problem(Region.disk((0.3, -0.2), 1.0),
                                        SpectralDomain.disk(2.5), 0.16), (0, 0)),
    "wedge-even-odd": (lambda: build_problem(ASYM, wedge_domain(0.5, 0.3, 6.0),
                                             0.2, embed_factor=2.5), (0, 1)),
    "wedge-odd-even": (lambda: build_problem(ASYM, wedge_domain(-0.5, 0.3, 6.0),
                                             0.19, embed_factor=2.5), (1, 0)),
    "mask-even": (lambda: mask_problem(0.2, 1), (0, 0)),
    "mask-odd": (lambda: mask_problem(0.19, 2), (1, 1)),
}


# band-side problems for the residual check: the README grid example (the
# plateau under a wedge, 417 x 386) and the two disk bands above
BAND_PROBLEMS = {
    "readme-wedge": lambda: build_problem(
        read_region(boundary_path()), wedge_domain(0.5236, 0.26, 0.02), 5.0),
    "disk-even": ORACLE_PROBLEMS["disk-even"][0],
    "disk-odd": ORACLE_PROBLEMS["disk-odd"][0],
}


@pytest.fixture(scope="module")
def disk_problem():
    return build_problem(Region.disk((0.0, 0.0), 1.0), SpectralDomain.disk(2.0),
                         0.25)


@pytest.fixture(scope="module")
def disk_basis(disk_problem):
    return solve(disk_problem, 4)


class TestBuildProblem:
    def test_spectral_disk_mask(self, disk_problem):
        g = disk_problem.grid
        kx = 2 * np.pi * np.fft.fftfreq(g.nx, g.dx)
        ky = 2 * np.pi * np.fft.fftfreq(g.ny, g.dy)
        kxx, kyy = np.meshgrid(kx, ky)
        want = kxx ** 2 + kyy ** 2 <= 4.0
        assert np.array_equal(disk_problem.spectral_mask, want)

    @pytest.mark.parametrize("region, spacing, k", [
        (Region.disk((0.0, 0.0), 1.0), 0.2, 2.0),     # 31 x 31
        (Region.disk((0.3, -0.2), 1.0), 0.16, 2.5),   # 38 x 38
    ])
    def test_grid_mask_read_through_its_axes(self, region, spacing, k):
        # a mask of |k| <= K, given on centred or FFT-ordered axes, selects
        # the cells of the disk domain; on the odd grid a centred mask read
        # in FFT order picked 14 cells reaching |k| = 21.5 instead of 9
        want = build_problem(region, SpectralDomain.disk(k), spacing).spectral_mask
        grid = build_problem(region, SpectralDomain.disk(k), spacing).grid
        if grid.nx % 2:
            assert (grid.nx, grid.ny) == (31, 31) and want.sum() == 9
        for order in (np.fft.fftshift, lambda a: a):
            kx, ky = (order(a) for a in fft_axes(grid))
            mask = kx[None, :] ** 2 + ky[:, None] ** 2 <= k * k
            dom = SpectralDomain.grid_mask(mask, kx, ky)
            assert np.array_equal(build_problem(region, dom, spacing).spectral_mask, want)

    @pytest.mark.parametrize("region, spacing", [
        (Region.disk((0.0, 0.0), 1.0), 0.2),     # 31 x 31
        (Region.disk((0.3, -0.2), 1.0), 0.16),   # 38 x 38
    ])
    def test_hermitian_symmetrize_reflects_as_build_problem(self, region, spacing):
        # a random mask, on centred or FFT-ordered axes, symmetrized first or
        # not: the same spectral mask either way
        grid = build_problem(region, SpectralDomain.disk(1.0), spacing).grid
        mask = np.random.default_rng(grid.nx).random((grid.ny, grid.nx)) < 0.1
        for order in (np.fft.fftshift, lambda a: a):
            dom = SpectralDomain.grid_mask(order(mask), *(order(a) for a in fft_axes(grid)))
            sym = hermitian_symmetrize(dom)
            assert not np.array_equal(sym.mask, dom.mask)
            assert np.array_equal(hermitian_symmetrize(sym).mask, sym.mask)
            assert np.array_equal(build_problem(region, sym, spacing).spectral_mask,
                                  build_problem(region, dom, spacing).spectral_mask)

    def test_band_past_nyquist_warns(self):
        # the unit disk at spacing 0.1 gets a 61 x 61 grid holding |k| <= 30.9:
        # a disk band of K = 60 fills every cell, so every eigenvalue reads 1
        disk = Region.disk((0.0, 0.0), 1.0)
        with pytest.warns(RuntimeWarning, match=r"grid_spacing=0\.1 holds"):
            p = build_problem(disk, SpectralDomain.disk(60.0), 0.1)
        assert p.spectral_mask.shape == (61, 61) and p.spectral_mask.all()
        np.testing.assert_allclose(solve(p, 3).eigenvalues, 1.0, rtol=0, atol=1e-12)
        # one polygon vertex past Nyquist in kx only
        tri = SpectralDomain.polygon_set([[(0.0, 0.0), (31.0, 1.0), (1.0, 2.0)]])
        with pytest.warns(RuntimeWarning, match=r"\|kx\| = 31,"):
            build_problem(disk, hermitian_symmetrize(tri), 0.1)

    def test_shipped_examples_stay_inside_nyquist(self, capsys):
        # the README's grid command and the wedge demo's problem
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["grid", "--boundary", boundary_path(), "--spectral", "wedge",
                             "0.5236", "0.26", "0.02", "--spacing", "5", "--count", "3"]) == 0
            quad = Region.polygon([(-1.2, -0.8), (1.0, -1.0), (1.3, 0.9), (-0.9, 1.1)])
            build_problem(quad, wedge_domain(np.pi / 6, 0.3, 6.0), grid_spacing=0.1)
        capsys.readouterr()

    def test_grid_mask_other_axes_rejected(self, disk_problem):
        g = disk_problem.grid
        kx, ky = fft_axes(g)
        mask = np.ones((g.ny, g.nx), dtype=bool)
        for axes in ((np.arange(g.nx), np.arange(g.ny)), (1.01 * kx, ky),
                     (kx, np.fft.fftshift(ky)), (np.fft.fftshift(kx), ky)):
            with pytest.raises(ConfigurationError, match="axes"):
                build_problem(Region.disk((0.0, 0.0), 1.0),
                              SpectralDomain.grid_mask(mask, *axes), 0.25)
        with pytest.raises(ConfigurationError, match="31 x 31 grid"):
            build_problem(SQUARE, SpectralDomain.grid_mask(mask, kx, ky), 0.2)

    def test_spatial_mask_matches_region(self, disk_problem):
        g = disk_problem.grid
        pts = g.points()
        inside = (np.hypot(pts[:, 0], pts[:, 1]) <= 1.0).reshape(g.ny, g.nx)
        # boundary-grazing cells aside, the masks must agree
        assert np.sum(disk_problem.spatial_mask ^ inside) <= 4

    def test_embed_factor_covers_scaled_bbox(self):
        p = build_problem(SQUARE, SpectralDomain.disk(3.0), 0.1,
                          embed_factor=3.0)
        g = p.grid
        assert g.x_axis()[0] <= -3.0 + 1e-9 and g.x_axis()[-1] >= 3.0 - 1e-9
        assert g.y_axis()[0] <= -3.0 + 1e-9 and g.y_axis()[-1] >= 3.0 - 1e-9

    def test_wedge_mask_hermitian(self):
        p = build_problem(SQUARE, wedge_domain(0.4, 0.3, 6.0), 0.2,
                          embed_factor=2.5)
        m = p.spectral_mask
        assert m.any()
        assert np.array_equal(m, reflect(m))

    def test_any_mask_hermitian(self, disk_problem):
        m = disk_problem.spectral_mask
        assert np.array_equal(m, reflect(m))

    def test_empty_spatial_mask_rejected(self):
        # the bbox center of the notched region lies in the notch and a huge
        # spacing puts both grid nodes outside the region entirely
        with pytest.raises(ConfigurationError):
            build_problem(NOTCHED, SpectralDomain.disk(3.0), 10.0)

    def test_empty_spectral_mask_rejected(self):
        # an off-origin sliver smaller than one wavenumber cell catches nothing
        sliver = SpectralDomain.polygon_set(
            [[(0.45, 0.45), (0.55, 0.45), (0.5, 0.55)]])
        with pytest.raises(ConfigurationError):
            build_problem(SQUARE, sliver, 0.2, embed_factor=2.5)

    def test_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            build_problem(SQUARE, SpectralDomain.disk(2.0), -0.1)
        with pytest.raises(ConfigurationError):
            build_problem(SQUARE, SpectralDomain.disk(2.0), 0.2,
                          embed_factor=0.5)

    @pytest.mark.parametrize("spacing, embed, message", [
        (np.nan, 2.5, "grid spacing must be positive and finite"),
        (np.inf, 2.5, "grid spacing must be positive and finite"),
        (0.2, np.nan, "embed factor must be finite and at least 1"),
        (0.2, np.inf, "embed factor must be finite and at least 1"),
    ])
    def test_non_finite_parameters(self, spacing, embed, message):
        with pytest.raises(ConfigurationError, match=message):
            build_problem(SQUARE, SpectralDomain.disk(2.0), spacing, embed_factor=embed)


class TestApply:
    def test_output_vanishes_off_region(self, disk_problem):
        rng = np.random.default_rng(5)
        g = disk_problem.grid
        out = apply_operator(disk_problem, rng.standard_normal((g.ny, g.nx)))
        assert out.dtype == np.float64
        assert np.all(out[~disk_problem.spatial_mask] == 0.0)

    def test_rayleigh_quotient_contracts(self, disk_problem):
        rng = np.random.default_rng(7)
        g = disk_problem.grid
        v = rng.standard_normal((g.ny, g.nx))
        v = np.where(disk_problem.spatial_mask, v, 0.0)
        quotients = []
        for _ in range(4):
            av = apply_operator(disk_problem, v)
            quotients.append(np.vdot(v, av) / np.vdot(v, v))
            v = av
        q = np.array(quotients)
        assert np.all(q > 0) and np.all(q <= 1 + 1e-12)
        # iterating the projection pushes the quotient up toward lambda_1
        assert np.all(np.diff(q) >= -1e-12)

    def test_self_adjoint(self, disk_problem):
        rng = np.random.default_rng(9)
        g = disk_problem.grid
        u = rng.standard_normal((g.ny, g.nx))
        v = rng.standard_normal((g.ny, g.nx))
        lhs = np.vdot(u, apply_operator(disk_problem, v))
        rhs = np.vdot(apply_operator(disk_problem, u), v)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_shape_mismatch(self, disk_problem):
        with pytest.raises(ConfigurationError):
            apply_operator(disk_problem, np.zeros((3, 3)))

    def test_complex_input_rejected(self, disk_problem):
        g = disk_problem.grid
        with pytest.raises(ConfigurationError):
            apply_operator(disk_problem, np.zeros((g.ny, g.nx), dtype=complex))

    @pytest.mark.parametrize("name", sorted(ORACLE_PROBLEMS))
    def test_matches_complex_composition(self, name):
        make, parity = ORACLE_PROBLEMS[name]
        problem = make()
        g = problem.grid
        assert (g.nx % 2, g.ny % 2) == parity
        v = np.random.default_rng(11).standard_normal((g.ny, g.nx))
        want = complex_apply(problem, v)
        got = apply_operator(problem, v)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("name", sorted(ORACLE_PROBLEMS) + ["all-pass"])
    def test_pruned_transforms_bit_identical(self, name):
        # the pruned 1D passes skip only zero input and unread output, so
        # they reproduce the full-grid real FFT composition exactly
        problem = (all_pass_problem() if name == "all-pass"
                   else ORACLE_PROBLEMS[name][0]())
        g = problem.grid
        v = np.random.default_rng(13).standard_normal((g.ny, g.nx))
        assert np.array_equal(apply_operator(problem, v),
                              rfft2_apply(problem, v))


class TestSolve:
    def test_eigenvalues_in_unit_interval(self, disk_basis):
        lam = disk_basis.eigenvalues
        assert np.all(np.diff(lam) <= 1e-14)
        assert lam[0] <= 1 + 1e-10
        assert lam[-1] >= -1e-10

    def test_fields_unit_norm_and_region_supported(self, disk_basis):
        p = disk_basis.problem
        for f in disk_basis.fields:
            assert np.sum(f * f) == pytest.approx(1.0, rel=1e-12)
            assert np.all(f[~p.spatial_mask] == 0.0)

    def test_fields_are_eigenfunctions(self, disk_basis):
        p = disk_basis.problem
        for lam, f in zip(disk_basis.eigenvalues, disk_basis.fields):
            av = apply_operator(p, f)
            assert np.max(np.abs(av - lam * f)) < 1e-8

    def test_residuals_tiny(self, disk_basis):
        p = disk_basis.problem
        assert np.all(disk_basis.residuals <= 1e-8)
        for lam, f, r in zip(disk_basis.eigenvalues, disk_basis.fields,
                             disk_basis.residuals):
            want = np.max(np.abs(complex_apply(p, f) - lam * f))
            assert r == pytest.approx(want, abs=1e-15)

    @pytest.mark.parametrize("name", sorted(BAND_PROBLEMS))
    def test_band_residuals_match_apply(self, name):
        # the band side applies A = B B^T by direct sums over the band cells
        # (odd x even, even x even and odd x odd grids); its residuals, and
        # its action on any field, match the pruned FFT's
        problem = BAND_PROBLEMS[name]()
        basis = solve(problem, 4)
        assert basis.extra["gram"] == "band"
        want = [np.max(np.abs(apply_operator(problem, f) - lam * f))
                for lam, f in zip(basis.eigenvalues, basis.fields)]
        assert np.max(np.abs(basis.residuals - want)) <= 1e-15
        cells = np.flatnonzero(problem.spatial_mask)
        op = gridprojector._band_eigs(problem, 1)[3]
        v = np.zeros(problem.spatial_mask.size)
        v[cells] = np.random.default_rng(6).standard_normal(len(cells))
        got = op(v[cells])
        want = apply_operator(problem, v.reshape(problem.spatial_mask.shape)).ravel()[cells]
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_band_residuals_run_no_fft(self, disk_problem, monkeypatch):
        # past the band table, the band side's residuals transform nothing
        gram_eigs = fredholm._gram_eigs

        def then_refuse(*args):
            out = gram_eigs(*args)
            for name in ("fft", "ifft", "rfft", "irfft"):
                monkeypatch.setattr(np.fft, name, refuse)
            return out

        def refuse(*args, **kwargs):
            raise AssertionError("FFT called")

        monkeypatch.setattr(gridprojector, "_gram_eigs", then_refuse)
        assert np.all(solve(disk_problem, 3).residuals <= 1e-12)

    def test_deterministic(self, disk_problem):
        a = solve(disk_problem, 3)
        b = solve(disk_problem, 3)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.fields, b.fields)

    @pytest.mark.parametrize("name", sorted(ORACLE_PROBLEMS) + ["all-pass"])
    def test_matches_dense_oracle(self, name):
        # the whole nonzero spectrum, on both Gram sides: band (disk, wedge)
        # and support (mask, all-pass, where the band outnumbers the cells)
        problem = (all_pass_problem() if name == "all-pass"
                   else ORACLE_PROBLEMS[name][0]())
        n, b = problem.spatial_mask.sum(), problem.spectral_mask.sum()
        want = np.linalg.eigvalsh(dense_operator(problem))[::-1]
        basis = solve(problem, min(n, b))
        assert basis.extra["gram"] == ("band" if b <= n else "support")
        assert np.max(np.abs(basis.eigenvalues - want[:min(n, b)])) <= 1e-13
        assert np.all(basis.residuals <= 1e-12)
        f = basis.fields.reshape(min(n, b), -1)
        assert np.max(np.abs(f @ f.T - np.eye(min(n, b)))) <= 1e-12

    def test_null_space_pairs_stay_accurate(self):
        # every band pair of a wide disk band: the tail eigenvalues reach the
        # rounding floor, where B v / sqrt(lambda) alone is swamped by what
        # the larger pairs leak into it (residuals ~4e-9, overlaps ~0.9)
        p = build_problem(Region.disk((0.1, 0.0), 1.0), SpectralDomain.disk(6.0),
                          0.1)
        n, b = p.spatial_mask.sum(), p.spectral_mask.sum()
        assert b < n
        basis = solve(p, b)
        assert basis.extra["gram"] == "band" and basis.eigenvalues[-1] < 1e-15
        assert np.all(basis.eigenvalues >= 0.0)
        assert np.all(basis.residuals <= 1e-12)
        f = basis.fields.reshape(b, -1)
        assert np.max(np.abs(f @ f.T - np.eye(b))) <= 1e-13

    @pytest.mark.parametrize("name", sorted(ORACLE_PROBLEMS))
    def test_band_table_matches_fft2(self, name):
        # every column of M that _pairwise reads, from rfft on the support
        # rows, fft on the half-plane columns and the fold past nx//2
        problem = ORACLE_PROBLEMS[name][0]()
        ny, nx = problem.grid.ny, problem.grid.nx
        _, kx, _ = gridprojector._band_cells(problem)
        read = np.unique(np.concatenate([np.add.outer(kx, kx).ravel(),
                                         np.subtract.outer(kx, kx).ravel()]) % nx)
        assert np.any(read > nx // 2)
        table = gridprojector._band_table(problem.spatial_mask, kx)
        want = np.fft.fft2(problem.spatial_mask) / (nx * ny)
        assert np.max(np.abs(table[:, read] - want[:, read])) <= 1e-15

    @pytest.mark.parametrize("name", ["disk-odd", "mask-even"])
    def test_solve_runs_no_fft2(self, name, monkeypatch):
        # band Gram (disk) and support Gram (mask) alike
        def fft2(*args, **kwargs):
            raise AssertionError("fft2 called")

        problem = ORACLE_PROBLEMS[name][0]()
        monkeypatch.setattr(np.fft, "fft2", fft2)
        solve(problem, 3)

    def test_direct_solve_skips_arpack(self, monkeypatch):
        # the asymmetric wedge problem of acceptance 09
        p = build_problem(ASYM, wedge_domain(0.5, 0.3, 6.0), 0.2,
                          embed_factor=2.5)

        def refuse(*args, **kwargs):
            raise AssertionError("eigsh reached")

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", refuse)
        extra = solve(p, 4).extra
        g = p.grid
        assert extra["rank"] == p.spectral_mask.sum() and extra["gram"] == "band"
        assert extra["columns"] < g.nx // 2 + 1 and extra["rows"] < g.ny
        assert extra["columns"] == np.sum(p.spectral_mask[:, :g.nx // 2 + 1].any(axis=0))
        assert extra["rows"] == np.sum(p.spatial_mask.any(axis=1))

    def test_fields_positive_at_centroid(self):
        # the asymmetric wedge problem of acceptance 09, whose fields tie at
        # +-max|f|: the sign is anchored at the cell nearest the centroid
        p = build_problem(ASYM, wedge_domain(0.5, 0.3, 6.0), 0.2,
                          embed_factor=2.5)
        cells = np.flatnonzero(p.spatial_mask)
        pts = p.grid.points()[cells]
        i0 = cells[np.argmin(np.sum((pts - pts.mean(axis=0)) ** 2, axis=1))]
        fields = solve(p, 4).fields.reshape(4, -1)
        assert np.all(fields[:, i0] > 1e-12)

    @pytest.mark.parametrize("name", ["disk-odd", "mask-even"])
    def test_short_eigensolve_raises(self, name, monkeypatch):
        eigh = scipy.linalg.eigh

        def drop_one(*args, **kwargs):
            vals, vecs = eigh(*args, **kwargs)
            return vals[1:], vecs[:, 1:]

        monkeypatch.setattr(scipy.linalg, "eigh", drop_one)
        with pytest.raises(NumericalError, match="pairs"):
            solve(ORACLE_PROBLEMS[name][0](), 3)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(verts=star_polygons(), spacing=st.floats(0.15, 0.4),
           cells=st.integers(1, 300), seed=st.integers(0, 2 ** 16),
           count=st.integers(1, 40))
    def test_random_problems_in_unit_interval(self, verts, spacing, cells,
                                              seed, count):
        # random star regions under random symmetrized wavenumber sets, from
        # a band of one +-k pair to bands that outnumber the support cells
        p = mask_problem(spacing, seed, Region.polygon(verts), cells, 2.0)
        count = min(count, p.spatial_mask.sum(), p.spectral_mask.sum())
        basis = solve(p, count)
        lam = basis.eigenvalues
        assert np.all(np.diff(lam) <= 0.0)
        assert np.all(lam >= 0.0) and np.all(lam <= 1.0 + 1e-12)
        assert np.all(basis.residuals <= 1e-12)

    def test_all_pass_band_gives_unit_eigenvalues(self):
        p = all_pass_problem()
        assert p.spectral_mask.all()
        lam = solve(p, 3).eigenvalues
        np.testing.assert_allclose(lam, 1.0, atol=1e-10)

    def test_spectral_pairs_from_space_pairs(self, disk_basis):
        # the spacelimited, band-concentrated eigenfunctions of the mirror
        # problem L F P F* L are s = L F h / sqrt(lambda)
        p = disk_basis.problem
        l = p.spectral_mask
        for lam, h in zip(disk_basis.eigenvalues, disk_basis.fields):
            s = np.where(l, np.fft.fft2(h, norm="ortho"), 0.0) / np.sqrt(lam)
            assert np.linalg.norm(s) == pytest.approx(1.0, abs=1e-10)
            assert np.all(s[~l] == 0.0)
            v = np.where(p.spatial_mask, np.fft.ifft2(s, norm="ortho"), 0.0)
            ls = np.where(l, np.fft.fft2(v, norm="ortho"), 0.0)
            assert np.linalg.norm(ls - lam * s) <= 1e-10

    @pytest.mark.parametrize("chunk", [fredholm.EXTEND_CHUNK, 4096])
    @pytest.mark.parametrize("name", ["all-pass", "disk-45"])
    def test_support_gram_same_bits_as_the_full_gather(self, name, chunk, monkeypatch):
        # the support Gram's lower triangle, built in row blocks, solves to
        # the bits of the whole n x n Gram gathered at once
        problem = (all_pass_problem() if name == "all-pass" else build_problem(
            Region.disk((0.0, 0.0), 1.0), SpectralDomain.disk(45.0), 0.06))
        cells = np.flatnonzero(problem.spatial_mask)
        assert problem.spectral_mask.sum() > len(cells)
        monkeypatch.setattr(fredholm, "EXTEND_CHUNK", chunk)
        got = solve(problem, 6)
        table = np.fft.ifft2(problem.spectral_mask).real
        full = gridprojector._pairwise(table, *np.divmod(cells, problem.grid.nx), -1)
        monkeypatch.setattr(gridprojector, "_lower_matrix", lambda n, rows: full)
        want = solve(problem, 6)
        assert got.extra["gram"] == want.extra["gram"] == "support"
        for attr in ("eigenvalues", "fields", "residuals"):
            np.testing.assert_array_equal(getattr(got, attr), getattr(want, attr))

    def test_count_validation(self, disk_problem):
        n = int(disk_problem.spatial_mask.sum())
        with pytest.raises(ConfigurationError):
            solve(disk_problem, 0)
        with pytest.raises(ConfigurationError, match=f"{n} cells"):
            solve(disk_problem, n - 1)
        for count in (2.5, True):
            with pytest.raises(ConfigurationError, match="must be an integer"):
                solve(disk_problem, count)
        assert len(solve(disk_problem, np.int64(2)).eigenvalues) == 2

    @pytest.mark.parametrize("spacing, k_max, side", [(0.05, 9.0, "band"), (0.02, 9.0, "band"),
                                                      (0.05, 40.0, "support")])
    def test_separable_oracle(self, spacing, k_max, side):
        # a rectangle under a square band: both masks are outer products, so
        # the operator is the Kronecker product of one periodic P F* L F P per
        # axis, and its eigenvalues are the products of theirs.  Every pair
        # down to 1e-3 is checked: 51 pairs for the square 9 band (48 in the
        # transition zone [1e-3, 1 - 1e-3]), 563 for the square 40 (265 there)
        square = [(-k_max, -k_max), (k_max, -k_max), (k_max, k_max), (-k_max, k_max)]
        p = build_problem(RECT, SpectralDomain.polygon_set([square]), spacing)
        axes = []
        for mask in (p.spatial_mask, p.spectral_mask):
            rows, cols = mask.any(axis=1), mask.any(axis=0)
            assert np.array_equal(mask, np.outer(rows, cols))
            axes.append((rows, cols))
        (sy, sx), (ly, lx) = axes

        def periodic(support, band):
            # (1/n) sum_{k in band} e^{2 pi i k (a - b) / n} on the support cells
            a, k = np.flatnonzero(support), np.flatnonzero(band)
            phase = 2.0 * np.pi * np.multiply.outer(a[:, None] - a[None], k) / len(support)
            return np.linalg.eigvalsh(np.cos(phase).sum(axis=-1) / len(support))

        want = np.sort(np.outer(periodic(sy, ly), periodic(sx, lx)).ravel())[::-1]
        want = want[want >= 1e-3]
        basis = solve(p, len(want))
        assert basis.extra["gram"] == side
        np.testing.assert_allclose(basis.eigenvalues, want, rtol=0, atol=1e-13)

    def test_count_beyond_rank(self, disk_problem):
        # past the b band cells only null-space noise is left
        b = int(disk_problem.spectral_mask.sum())
        assert len(solve(disk_problem, b).eigenvalues) == b
        with pytest.raises(ConfigurationError, match=f"rank {b}"):
            solve(disk_problem, b + 1)

    def test_wedge_pair_close_but_distinct(self):
        lam = {}
        for sign in (+1, -1):
            dom = wedge_domain(sign * 0.5, 0.3, 6.0)
            p = build_problem(ASYM, dom, 0.2, embed_factor=2.5)
            lam[sign] = solve(p, 3).eigenvalues
        # mirror-image wedges on an asymmetric region: same gross structure,
        # different fine values
        np.testing.assert_allclose(lam[1], lam[-1], atol=0.2)
        assert np.max(np.abs(lam[1] - lam[-1])) > 1e-6


class TestGramEigs:
    """The grid Grams through fredholm._gram_eigs, against numpy's full eigh."""

    @staticmethod
    def band_gram(problem, monkeypatch):
        grams = []

        def spy(gram, count):
            grams.append(gram)
            return fredholm._gram_eigs(gram, count)

        monkeypatch.setattr(gridprojector, "_gram_eigs", spy)
        gridprojector._band_eigs(problem, 1)
        return grams[0]

    @pytest.mark.parametrize("name", sorted(ORACLE_PROBLEMS))
    def test_band_grams(self, name, monkeypatch):
        # every oracle problem's band Gram, whichever side solve() would take
        gram = self.band_gram(ORACLE_PROBLEMS[name][0](), monkeypatch)
        b = len(gram)
        for count in sorted({1, min(6, b), b // 2, b}):
            vals, vecs, rank = fredholm._gram_eigs(gram, count)
            assert rank <= b
            assert_gram_pairs(gram, vals, vecs, count)

    def test_identity_like_gram(self):
        # the all-pass support Gram is the identity to rounding: one exact
        # cluster, every pivot 1, and no pair left out of the factor
        p = all_pass_problem()
        cells = np.flatnonzero(p.spatial_mask)
        gram = gridprojector._pairwise(np.fft.ifft2(p.spectral_mask).real,
                                       *np.divmod(cells, p.grid.nx), -1)
        assert np.max(np.abs(gram - np.eye(len(cells)))) <= 1e-15
        for count in (1, 7, len(cells)):
            vals, vecs, rank = fredholm._gram_eigs(gram, count)
            assert rank == len(cells)
            assert_gram_pairs(gram, vals, vecs, count)

    @pytest.mark.parametrize("name", ["disk-odd", "wedge-even-odd"])
    def test_solve_records_the_band_gram_rank(self, name, monkeypatch):
        problem = ORACLE_PROBLEMS[name][0]()
        gram = self.band_gram(problem, monkeypatch)
        rank = scipy.linalg.lapack.dpstrf(gram, lower=1)[2]
        basis = solve(problem, 3)
        assert basis.extra["gram"] == "band"
        assert basis.extra["gram_rank"] == rank <= basis.extra["rank"]


class TestWeightedPeriodogramSum:
    def test_single_term_identity(self, disk_basis):
        wps = weighted_periodogram_sum(disk_basis, 1)
        pg = periodogram(GridField(disk_basis.problem.grid,
                                   disk_basis.fields[0]))
        assert np.array_equal(wps.values,
                              disk_basis.eigenvalues[0] * pg.values)

    def test_in_mask_fraction_equals_lambda(self, disk_basis):
        pg = periodogram(GridField(disk_basis.problem.grid,
                                   disk_basis.fields[0]))
        mask = np.fft.fftshift(disk_basis.problem.spectral_mask)
        frac = np.sum(pg.values[mask]) / np.sum(pg.values)
        assert frac == pytest.approx(disk_basis.eigenvalues[0], abs=1e-10)

    def test_mass_concentrates_in_mask(self, disk_basis):
        wps = weighted_periodogram_sum(disk_basis, 4)
        mask = np.fft.fftshift(disk_basis.problem.spectral_mask)
        frac = np.sum(wps.values[mask]) / np.sum(wps.values)
        assert frac > float(disk_basis.eigenvalues[-1])

    @pytest.mark.parametrize("name", ["disk-even", "wedge-odd-even"])
    def test_matches_periodogram_loop(self, name):
        problem = ORACLE_PROBLEMS[name][0]()
        basis = solve(problem, 6)
        # the weighted sum as a loop of whole periodograms
        want = None
        for i in range(6):
            pg = periodogram(GridField(problem.grid, basis.fields[i]))
            term = basis.eigenvalues[i] * pg.values
            want = term if want is None else want + term
        got = weighted_periodogram_sum(basis, 6)
        assert got.grid == pg.grid
        assert np.max(np.abs(got.values - want)) <= 1e-13 * np.max(want)

    def test_runs_no_fft2(self, disk_basis, monkeypatch):
        def fft2(*args, **kwargs):
            raise AssertionError("fft2 called")

        monkeypatch.setattr(np.fft, "fft2", fft2)
        weighted_periodogram_sum(disk_basis, 4)

    def test_count_validation(self, disk_basis):
        with pytest.raises(ValueError):
            weighted_periodogram_sum(disk_basis, 0)
        with pytest.raises(ValueError):
            weighted_periodogram_sum(disk_basis, 99)
        for count in (2.5, True):
            with pytest.raises(ValueError, match="must be an integer"):
                weighted_periodogram_sum(disk_basis, count)
        np.testing.assert_array_equal(weighted_periodogram_sum(disk_basis, 2.0).values,
                                      weighted_periodogram_sum(disk_basis, 2).values)
