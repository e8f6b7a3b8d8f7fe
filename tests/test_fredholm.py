"""Nystrom eigensolver: analytic rank-one oracles, Gram, extension, signs."""

import dataclasses
import tracemalloc
from functools import partial

import numpy as np
import pytest
import scipy.linalg
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from slepkit import (
    DiskBandKernel, ExtensionError, GridSpec, NumericalError, Region, RegionQuadrature,
    disk_kernel, eigennormalized_samples, evaluate_1d, evaluate_g, gauss_legendre,
    map_rule, nystrom_eigs, nystrom_extend, read_region, region_quadrature, sinc_kernel,
    solve_1d, solve_region_disk,
)
from slepkit import SpectralDomain, build_problem, dpss, fredholm, kernels, wedge_domain
from slepkit.gridprojector import solve as grid_solve
from slepkit.fredholm import EXTEND_CHUNK, _eigh
from conftest import all_pass_problem, boundary_path
from test_geometry import star_polygons


def radius(points, origin):
    """Largest distance from origin over (m, 2) points, 0 for none."""
    return kernels._radii(points, origin)[2]


def rule_width(k, span):
    """Column count 2q of the polar k-rule for separations <= span."""
    return 2 * len(kernels._polar_rule(k, float(span))[0])


def constant_kernel(x, xp):
    return np.ones(np.broadcast(x, xp).shape)


def product_kernel(x, xp):
    return x * xp


class TestRankOneOracles:
    def test_constant_kernel_on_unit_interval(self):
        # k(x, x') = 1 on [0, 1] has the single eigenpair lambda = 1, f = 1
        rule = map_rule(gauss_legendre(24), 0.0, 1.0)
        sol = nystrom_eigs(constant_kernel, rule, 3)
        assert sol.eigenvalues[0] == pytest.approx(1.0, abs=1e-13)
        np.testing.assert_allclose(sol.eigenvalues[1:], 0.0, atol=1e-13)
        np.testing.assert_allclose(sol.node_samples[0], 1.0, atol=1e-12)

    def test_product_kernel_on_unit_interval(self):
        # k(x, x') = x x' has lambda = int x^2 = 1/3 with f proportional to x
        rule = map_rule(gauss_legendre(24), 0.0, 1.0)
        sol = nystrom_eigs(product_kernel, rule, 2)
        assert sol.eigenvalues[0] == pytest.approx(1.0 / 3.0, abs=1e-14)
        want = np.sqrt(3.0) * rule.nodes  # unit norm on [0, 1]
        np.testing.assert_allclose(sol.node_samples[0], want, atol=1e-12)


class TestSincSpectrum:
    def test_trace_identity(self):
        tw = 3.0
        rule = map_rule(gauss_legendre(64), -1.0, 1.0)
        sol = nystrom_eigs(partial(sinc_kernel, tw), rule, 64)
        diag = np.full(64, tw / np.pi)
        assert sol.trace == pytest.approx(np.sum(rule.weights * diag), rel=1e-13)
        assert np.sum(sol.eigenvalues) == pytest.approx(sol.trace, rel=1e-12)

    def test_refinement_stability(self):
        tw = 3.0
        k = partial(sinc_kernel, tw)
        lam64 = nystrom_eigs(k, map_rule(gauss_legendre(64), -1, 1), 6).eigenvalues
        lam128 = nystrom_eigs(k, map_rule(gauss_legendre(128), -1, 1), 6).eigenvalues
        np.testing.assert_allclose(lam64, lam128, atol=1e-12)

    def test_eigenvalues_descend_in_unit_interval(self):
        tw = 3.0
        sol = nystrom_eigs(partial(sinc_kernel, tw),
                           map_rule(gauss_legendre(80), -1, 1), 12)
        lam = sol.eigenvalues
        assert np.all(np.diff(lam) <= 0)
        assert lam[0] < 1.0
        assert lam[-1] > 0.0

    def test_weighted_gram_orthonormal(self):
        tw = 3.0
        rule = map_rule(gauss_legendre(80), -1, 1)
        sol = nystrom_eigs(partial(sinc_kernel, tw), rule, 10)
        gram = sol.node_samples @ (rule.weights[:, None] * sol.node_samples.T)
        np.testing.assert_allclose(gram, np.eye(10), atol=1e-10)

    def test_eigennormalized_gram_is_diagonal_lambda(self):
        tw = 3.0
        rule = map_rule(gauss_legendre(80), -1, 1)
        sol = nystrom_eigs(partial(sinc_kernel, tw), rule, 10)
        s = eigennormalized_samples(sol)
        gram = s @ (rule.weights[:, None] * s.T)
        np.testing.assert_allclose(gram, np.diag(sol.eigenvalues), atol=1e-10)


class TestExtension:
    def test_reproduces_node_samples(self):
        tw = 2.0
        rule = map_rule(gauss_legendre(48), -1, 1)
        sol = nystrom_eigs(partial(sinc_kernel, tw), rule, 4)
        for i in range(4):
            got = nystrom_extend(sol, i, rule.nodes)
            np.testing.assert_allclose(got, sol.node_samples[i], atol=1e-9)

    def test_against_doubled_rule(self):
        tw = 2.0
        k = partial(sinc_kernel, tw)
        coarse = nystrom_eigs(k, map_rule(gauss_legendre(48), -1, 1), 2)
        fine = nystrom_eigs(k, map_rule(gauss_legendre(96), -1, 1), 2)
        xs = np.linspace(-0.9, 0.9, 33)
        a = nystrom_extend(coarse, 0, xs)
        b = nystrom_extend(fine, 0, xs)
        np.testing.assert_allclose(a, b, atol=1e-6)

    def test_scalar_argument(self):
        rule = map_rule(gauss_legendre(48), -1, 1)
        sol = nystrom_eigs(partial(sinc_kernel, 2.0), rule, 1)
        v = nystrom_extend(sol, 0, 0.25)
        assert np.isscalar(v) or np.ndim(v) == 0

    def test_tiny_eigenvalue_refused(self):
        rule = map_rule(gauss_legendre(24), 0, 1)
        sol = nystrom_eigs(constant_kernel, rule, 3)
        with pytest.raises(ExtensionError):
            nystrom_extend(sol, 2, 0.5)

    @pytest.mark.parametrize("x", [0.25, np.linspace(-0.9, 0.9, 7)])
    def test_many_indices_in_one_pass(self, x):
        # TW = 4 keeps every lambda above 0.1, so the 1/lambda of the
        # extension does not amplify the rounding of the two kernel passes
        rule = map_rule(gauss_legendre(48), -1, 1)
        sol = nystrom_eigs(partial(sinc_kernel, 4.0), rule, 4)
        got = nystrom_extend(sol, [2, 0, 3], x)
        assert np.shape(got) == (3,) + np.shape(x)
        for row, i in zip(got, (2, 0, 3)):
            want = nystrom_extend(sol, i, x)
            np.testing.assert_allclose(row, want, rtol=0, atol=1e-14 * np.max(np.abs(want)))

    def test_tiny_eigenvalue_refused_among_many(self):
        rule = map_rule(gauss_legendre(24), 0, 1)
        sol = nystrom_eigs(constant_kernel, rule, 3)
        with pytest.raises(ExtensionError):
            nystrom_extend(sol, [0, 2], 0.5)

    def test_2d_extension_at_nodes(self):
        disk = Region.disk((0.0, 0.0), 1.0)
        rule = region_quadrature(disk, 12)
        sol = nystrom_eigs(partial(disk_kernel, 3.0), rule, 3)
        got = nystrom_extend(sol, 0, rule.nodes)
        np.testing.assert_allclose(got, sol.node_samples[0], atol=1e-9)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(verts=star_polygons(), kd=st.floats(1.0, 8.0))
    def test_extension_reproduces_node_samples(self, verts, kd):
        # at the nodes the Nystrom identity returns the samples it started
        # from, through the factor (a k-rule no wider than the node count) and
        # through the plain kernel; the error scales with rounding / lambda
        rule = region_quadrature(Region.polygon(verts), 16)
        origin = np.mean(rule.nodes, axis=0)
        k = kd / (2.0 * radius(rule.nodes, origin))
        sol = nystrom_eigs(DiskBandKernel(k), rule, 6)
        assert rule_width(k, 2.0 * radius(rule.nodes, origin)) <= len(rule.weights)
        keep = [i for i, lam in enumerate(sol.eigenvalues) if lam > 1e-8]
        plain = dataclasses.replace(sol, kernel=partial(disk_kernel, k))
        for s in (sol, plain):
            got = nystrom_extend(s, keep, rule.nodes)
            want = s.node_samples[keep]
            err = np.max(np.abs(got - want), axis=1) / np.max(np.abs(want), axis=1)
            assert np.all(err * s.eigenvalues[keep] <= 1e-14)


class TestDeterminism:
    def test_sign_fixed_at_centroid(self):
        tw = 3.0
        rule = map_rule(gauss_legendre(64), -1, 1)
        sol = nystrom_eigs(partial(sinc_kernel, tw), rule, 5)
        # the weighted centroid of [-1, 1] is 0; the nearest node sample of
        # the bell-shaped leading eigenfunction must be positive
        mid = np.argmin(np.abs(rule.nodes))
        assert sol.node_samples[0][mid] > 0

    def test_repeat_solves_identical(self):
        tw = 3.0
        rule = map_rule(gauss_legendre(64), -1, 1)
        a = nystrom_eigs(partial(sinc_kernel, tw), rule, 5)
        b = nystrom_eigs(partial(sinc_kernel, tw), rule, 5)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.node_samples, b.node_samples)


def assert_canonical(vals, samples, nodes, weights):
    """Eigenvalues descend, and each row is positive at the node nearest the
    weighted centroid or, where that sample is below 1e-12, at the first
    sample above 1e-8."""
    assert np.all(np.diff(vals) <= 0)
    nodes = np.asarray(nodes, dtype=float).reshape(len(weights), -1)
    centroid = weights @ nodes / np.sum(weights)
    i0 = np.argmin(np.sum((nodes - centroid) ** 2, axis=1))
    for row in samples:
        anchor = row[i0] if abs(row[i0]) > 1e-12 else row[np.abs(row) > 1e-8][0]
        assert anchor > 0


def route_output(route):
    """(eigenvalues, samples, nodes, weights) of one small solve per route."""
    if route == "solve_region_disk":
        b = solve_region_disk(star_region(), 5.0, n_quad=10, count=12)
        return b.eigenvalues, b.node_samples, b.quadrature.nodes, b.quadrature.weights
    if route == "dpss":
        d = dpss(64, 0.1, 10)
        return d.eigenvalues, d.sequences, np.arange(64), np.ones(64)
    # band side for the wedge, support side for the all-pass band
    region = Region.polygon([(-1.2, -0.8), (1.0, -1.0), (1.3, 0.9), (-0.9, 1.1)])
    if route == "grid-band":
        p = build_problem(region, wedge_domain(0.5, 0.3, 6.0), 0.2, embed_factor=2.5)
    else:
        p = all_pass_problem(region, 0.2, 2.5)
    basis = grid_solve(p, 6)
    assert basis.extra["gram"] == route[5:]
    cells = np.flatnonzero(p.spatial_mask)
    return (basis.eigenvalues, basis.fields.reshape(6, -1)[:, cells],
            p.grid.points()[cells], np.ones(len(cells)))


class TestCanonicalExit:
    """Every eigensolve leaves through fredholm._canonical; solve_1d, which
    runs none, orders by lambda and signs by its series."""

    @pytest.mark.parametrize("route", ["solve_1d", "solve_region_disk", "dpss",
                                       "grid-band", "grid-support"])
    def test_descending_and_signed(self, route):
        if route != "solve_1d":
            assert_canonical(*route_output(route))
            return
        # sum(d) = 1 makes even rows positive at x = 0, odd rows just right of it
        b = solve_1d(3.0, n_nodes=48, count=10)
        assert np.all(np.diff(b.eigenvalues) <= 0)
        for i, (sol, _) in enumerate(b.entries):
            assert evaluate_1d(b, i, 0.0 if sol.m < 0 else 1e-3) > 0

    def test_ties_go_by_peak_index(self):
        # three exact ties, the largest peak index first; one sign flipped
        nodes, weights = np.linspace(-1.0, 1.0, 7), np.ones(7)
        rows = np.array([[0.1, 0, 0, 0.2, 0, 0, 0.9], [1.0, 0, 0, 0, 0, 0, 0],
                         [0, 0.8, 0, -0.5, 0, 0, 0], [0, 0, 0.3, 0.4, 0, 0, 0]])
        vals = np.array([0.5, 0.9, 0.5, 0.5])
        got_vals, got = fredholm._canonical(vals, rows, nodes, weights)
        np.testing.assert_array_equal(got_vals, [0.9, 0.5, 0.5, 0.5])
        np.testing.assert_array_equal(got, [rows[1], -rows[2], rows[3], rows[0]])
        assert got.flags.c_contiguous and np.array_equal(vals, [0.5, 0.9, 0.5, 0.5])

    @pytest.mark.parametrize("seed", range(5))
    def test_order_matches_tie_loop(self, seed):
        # reference: a stable descending sort, then each run of exact ties
        # sorted stably by peak index, as nystrom_eigs once did in a loop
        rng = np.random.default_rng(seed)
        vals = rng.choice([0.1, 0.2, 0.3], 12)
        rows = rng.standard_normal((12, 9))
        order = list(np.argsort(-vals, kind="stable"))
        i = 0
        while i < len(order):
            j = i + 1
            while j < len(order) and vals[order[j]] == vals[order[i]]:
                j += 1
            order[i:j] = sorted(order[i:j], key=lambda r: np.argmax(np.abs(rows[r])))
            i = j
        got_vals, got = fredholm._canonical(vals, rows, np.arange(9.0), np.ones(9))
        np.testing.assert_array_equal(got_vals, vals[order])
        np.testing.assert_array_equal(np.abs(got), np.abs(rows[order]))


class TestValidation:
    def test_count_bounds(self):
        rule = map_rule(gauss_legendre(8), 0, 1)
        with pytest.raises(ValueError):
            nystrom_eigs(constant_kernel, rule, 0)
        with pytest.raises(ValueError):
            nystrom_eigs(constant_kernel, rule, 9)

    def test_rejects_nonpositive_weights(self):
        class FakeRule:
            nodes = np.linspace(0, 1, 5)
            weights = np.array([0.2, -0.1, 0.2, 0.2, 0.2])
        with pytest.raises(ValueError):
            nystrom_eigs(constant_kernel, FakeRule(), 1)


class TestShortEigensolve:
    def test_missing_pair_raises(self, monkeypatch):
        # a plain kernel solves in full, a factored one for a subset of the
        # Gram; either way a solve that comes back a pair short is an error
        eigh = scipy.linalg.eigh

        def drop_one(*args, **kwargs):
            vals, vecs = eigh(*args, **kwargs)
            return vals[1:], vecs[:, 1:]

        monkeypatch.setattr(scipy.linalg, "eigh", drop_one)
        with pytest.raises(NumericalError, match="pairs"):
            nystrom_eigs(partial(sinc_kernel, 3.0),
                         map_rule(gauss_legendre(32), -1, 1), 4)
        with pytest.raises(NumericalError, match="pairs"):
            nystrom_eigs(DiskBandKernel(3.0),
                         region_quadrature(Region.disk((0.0, 0.0), 1.0), 12), 4)

    def test_short_subset_solved_in_full(self, monkeypatch):
        # LAPACK's subset drivers can miss pairs of an exact cluster; the
        # full solve then supplies the top ones.  4 of 60 pairs lies below
        # the crossover, so the subset is asked for first
        a = np.random.default_rng(3).standard_normal((60, 60))
        mat = a @ a.T
        full_vals, full_vecs = np.linalg.eigh(mat)
        eigh = scipy.linalg.eigh
        calls = []

        def short_subsets(mat, subset_by_index=None, **kwargs):
            calls.append(subset_by_index)
            if subset_by_index is not None:
                return np.empty(0), np.empty((len(mat), 0))
            return eigh(mat, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh", short_subsets)
        vals, vecs = _eigh(mat, 4)
        assert calls == [[56, 59], None]
        np.testing.assert_allclose(vals, full_vals[-4:], rtol=1e-13)
        overlap = np.abs(np.sum(vecs * full_vecs[:, -4:], axis=0))
        np.testing.assert_allclose(overlap, 1.0, atol=1e-12)

    @pytest.mark.parametrize("m,count,subset", [
        (60, 5, True), (60, 6, False), (186, 18, True), (186, 19, False), (30, 30, False)])
    def test_subset_below_the_crossover_only(self, monkeypatch, m, count, subset):
        # one rule: an index subset while count < SUBSET_FRACTION m, else
        # the full solve; both give the same top pairs
        a = np.random.default_rng(m + count).standard_normal((m, m))
        mat = a @ a.T
        eigh = scipy.linalg.eigh
        calls = []

        def spy(mat, subset_by_index=None, **kwargs):
            calls.append(subset_by_index)
            return eigh(mat, subset_by_index=subset_by_index, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh", spy)
        vals, vecs = _eigh(mat, count)
        assert calls == ([[m - count, m - 1]] if subset else [None])
        want_vals, want_vecs = np.linalg.eigh(mat)
        np.testing.assert_allclose(vals, want_vals[m - count:], rtol=1e-12)
        overlap = np.abs(np.sum(vecs * want_vecs[:, m - count:], axis=0))
        np.testing.assert_allclose(overlap, 1.0, atol=1e-10)

    def test_plain_kernel_solves_a_subset(self, monkeypatch):
        # a plain kernel asks LAPACK for the top pairs only
        subsets = []
        eigh = scipy.linalg.eigh

        def spy(mat, subset_by_index=None):
            subsets.append((len(mat), subset_by_index))
            return eigh(mat, subset_by_index=subset_by_index)

        monkeypatch.setattr(scipy.linalg, "eigh", spy)
        sol = nystrom_eigs(partial(sinc_kernel, 3.0), gauss_legendre(96), 8)
        assert sol.extra == {"route": "dense"} and len(sol.eigenvalues) == 8
        assert subsets == [(96, [88, 95])]


class TestLowerTriangle:
    """_eigh reads the lower triangle only, which _lower_matrix alone fills."""

    @pytest.mark.parametrize("count, short, solves", [
        (4, False, [[56, 59]]), (30, False, [None]), (4, True, [[56, 59], None])])
    def test_upper_triangle_unread(self, count, short, solves, monkeypatch):
        # the subset solve, the full one, and the full retry of a short
        # subset all ignore 1e300 above the diagonal
        a = np.random.default_rng(count).standard_normal((60, 60))
        mat = np.tril(a @ a.T)
        junk = mat + np.triu(np.full_like(mat, 1e300), 1)
        mat += np.tril(mat, -1).T
        eigh = scipy.linalg.eigh
        calls = []

        def spy(mat, subset_by_index=None, **kwargs):
            calls.append(subset_by_index)
            if short and subset_by_index is not None:
                return np.empty(0), np.empty((len(mat), 0))
            return eigh(mat, subset_by_index=subset_by_index, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh", spy)
        for got, want in zip(_eigh(junk, count), _eigh(mat, count)):
            np.testing.assert_array_equal(got, want)
        assert calls == 2 * solves

    @pytest.mark.parametrize("chunk", [1, 50, 10 ** 6])
    def test_row_blocks_fill_the_lower_triangle(self, chunk, monkeypatch):
        full = np.random.default_rng(chunk).standard_normal((23, 23))
        blocks = []

        def rows(lo, hi):
            blocks.append((lo, hi))
            return full[lo:hi, :hi].copy()

        monkeypatch.setattr(fredholm, "EXTEND_CHUNK", chunk)
        np.testing.assert_array_equal(fredholm._lower_matrix(23, rows), np.tril(full))
        assert [lo for lo, _ in blocks] == [0] + [hi for _, hi in blocks[:-1]]
        assert blocks[-1][1] == 23
        # EXTEND_CHUNK entries of a full row each, and at least one row
        assert all(hi - lo == 1 or (hi - lo) * 23 <= chunk for lo, hi in blocks)


def assert_gram_pairs(gram, vals, vecs, count):
    """Top `count` pairs of a symmetric Gram against numpy.linalg.eigh of it.

    Eigenvalues agree within 1e-13.  Pairs are grouped where the full
    spectrum's gaps fall below 1e-8 of its largest value; on every group inside
    the top `count` the singular values of the overlap with numpy's vectors
    (the absolute overlap for a single pair) lie within 1e-12 of 1.  A group
    cut by the count boundary is checked through residuals and orthogonality;
    a map back through the Cholesky factor loses orthogonality as
    eps lambda_max / sqrt(lambda_a lambda_b), which the bound allows for.
    """
    want_vals, want_vecs = np.linalg.eigh(gram)
    m = len(gram)
    assert vals.shape == (count,) and vecs.shape == (m, count)
    assert np.max(np.abs(vals - want_vals[m - count:])) <= 1e-13
    assert np.max(np.abs(gram @ vecs - vecs * vals)) <= 1e-13
    lam = np.maximum(np.abs(vals), np.finfo(float).tiny)
    slack = 1e-14 * np.max(np.abs(want_vals)) / np.sqrt(np.outer(lam, lam))
    assert np.all(np.abs(vecs.T @ vecs - np.eye(count)) <= 1e-12 + slack)
    cuts = np.flatnonzero(np.diff(want_vals) >= 1e-8 * np.max(np.abs(want_vals))) + 1
    for group in np.split(np.arange(m), cuts):
        if group[0] >= m - count:
            cos = np.linalg.svd(want_vecs[:, group].T @ vecs[:, group - (m - count)],
                                compute_uv=False)
            np.testing.assert_allclose(cos, 1.0, rtol=0, atol=1e-12)


def low_rank_gram(m, rho, seed):
    """m x m PSD Gram of rank rho, eigenvalues spread from 1 down to 1e-3."""
    q = np.linalg.qr(np.random.default_rng(seed).standard_normal((m, rho)))[0]
    gram = (q * np.geomspace(1.0, 1e-3, rho)) @ q.T
    return 0.5 * (gram + gram.T)


class TestGramEigs:
    """Pivoted-Cholesky truncation of PSD Grams against numpy's full eigh."""

    @pytest.fixture
    def sizes(self, monkeypatch):
        # the size of every matrix handed to the dense eigensolver
        seen = []
        eigh = fredholm._eigh

        def spy(mat, count):
            seen.append(len(mat))
            return eigh(mat, count)

        monkeypatch.setattr(fredholm, "_eigh", spy)
        return seen

    @pytest.mark.parametrize("count", [1, 12, 30])
    def test_known_rank_solves_the_cut_gram(self, count, sizes):
        gram = low_rank_gram(80, 30, 4)
        vals, vecs, rank = fredholm._gram_eigs(gram, count)
        assert rank == 30 and sizes == [30]
        assert_gram_pairs(gram, vals, vecs, count)

    def test_count_beyond_rank_falls_back(self, sizes):
        gram = low_rank_gram(80, 30, 5)
        vals, vecs, rank = fredholm._gram_eigs(gram, 36)
        assert rank == 30 and sizes == [80]
        assert_gram_pairs(gram, vals, vecs, 36)

    @pytest.mark.parametrize("name, k, n_quad, count", [
        ("disk", 2.0 * np.sqrt(20.0), 32, 40),
        ("plateau", 0.0194, 24, 20),
        ("star", 6.0, 24, 30),
        ("rectangle", np.sqrt(20.0), 24, 20),
    ])
    def test_region_factor_grams(self, name, k, n_quad, count, sizes):
        region = {"disk": lambda: Region.disk((0.0, 0.0), 1.0),
                  "plateau": lambda: read_region(boundary_path()),
                  "star": star_region,
                  "rectangle": lambda: rectangle_region(10.0, 4.0 * np.pi)}[name]()
        rule = region_quadrature(region, n_quad)
        # the Gram the solve forms: the multipole factor about the node mean
        b = DiskBandKernel(k).factor(rule.nodes, np.sqrt(rule.weights))[0]
        gram = b.T @ b
        vals, vecs, rank = fredholm._gram_eigs(gram, count)
        assert count <= rank < len(gram) and sizes == [rank]
        if name == "rectangle":     # an elongated region: the cut pays most
            assert 2 * rank < len(gram)
        assert_gram_pairs(gram, vals, vecs, count)
        sol = nystrom_eigs(DiskBandKernel(k), rule, count)
        assert sol.extra["gram"] == "factor" and sol.extra["gram_rank"] == rank


def rectangle_region(aspect, area):
    """An aspect:1 rectangle of the given area, centred on the origin."""
    half = 0.5 * np.sqrt(area * aspect)
    return Region.polygon([(-half, -half / aspect), (half, -half / aspect),
                           (half, half / aspect), (-half, half / aspect)])


def star_region():
    theta = 2.0 * np.pi * np.arange(14) / 14
    r = np.where(np.arange(14) % 2 == 0, 1.0, 0.6)
    return Region.polygon(np.column_stack([r * np.cos(theta), r * np.sin(theta)]))


def exact_residual(sol, k):
    """max ||sqrt(W) D sqrt(W) v - lambda v|| / ||v|| with D the exact disk kernel."""
    nodes, w = sol.nodes, sol.weights
    kmat = disk_kernel(k, nodes[:, None], nodes[None])
    v = np.sqrt(w)[:, None] * sol.node_samples.T
    r = np.sqrt(w)[:, None] * (kmat @ (np.sqrt(w)[:, None] * v)) - sol.eigenvalues * v
    return np.max(np.linalg.norm(r, axis=0) / np.linalg.norm(v, axis=0))


class TestFactoredKernel:
    """The k-space factored solve against the dense Bessel-matrix oracle."""

    @pytest.mark.parametrize("name, k, n_quad, count", [
        ("disk", 2.0 * np.sqrt(20.0), 32, 40),
        ("plateau", 0.0194, 24, 20),     # km-scale coordinates
        ("star", 6.0, 24, 30),
    ])
    def test_matches_dense(self, name, k, n_quad, count):
        region = {"disk": lambda: Region.disk((0.0, 0.0), 1.0),
                  "plateau": lambda: read_region(boundary_path()),
                  "star": star_region}[name]()
        rule = region_quadrature(region, n_quad)
        fact = nystrom_eigs(DiskBandKernel(k), rule, count)
        dense = nystrom_eigs(partial(disk_kernel, k), rule, count)
        assert fact.extra["route"] == "factored" and dense.extra == {"route": "dense"}
        assert fact.extra["gram"] == "factor"
        kept = fact.extra["kept"]
        assert min(kept) >= 1
        assert fact.extra["rank"] == kept[0] + 2 * sum(kept[1:]) < len(rule.weights)
        np.testing.assert_allclose(fact.eigenvalues, dense.eigenvalues, rtol=0, atol=1e-12)
        assert fact.trace == pytest.approx(dense.trace, rel=1e-13)
        assert exact_residual(fact, k) <= 1e-8
        w = rule.weights
        gram = fact.node_samples @ (w[:, None] * fact.node_samples.T)
        np.testing.assert_allclose(gram, np.eye(count), atol=1e-10)

    def test_deep_counts_use_the_node_side(self):
        # a low bandlimit gives a narrow factor; pairs past its width, or so
        # deep in the spectrum that u = B v / sqrt(lambda) would lose
        # orthogonality, come from the n x n kernel matrix
        k = 2.0
        rule = region_quadrature(Region.disk((0.0, 0.0), 1.0), 20)
        n = len(rule.weights)
        rank = nystrom_eigs(DiskBandKernel(k), rule, 1).extra["rank"]
        dense = nystrom_eigs(partial(disk_kernel, k), rule, n)
        for count, side in ((10, "factor"), (rank - 10, "nodes"), (rank + 10, "nodes"),
                            (n, "nodes")):
            fact = nystrom_eigs(DiskBandKernel(k), rule, count)
            assert fact.extra["gram"] == side and fact.extra["rank"] == rank < n
            np.testing.assert_allclose(fact.eigenvalues, dense.eigenvalues[:count],
                                       rtol=0, atol=1e-12)
            gram = fact.node_samples @ (rule.weights[:, None] * fact.node_samples.T)
            np.testing.assert_allclose(gram, np.eye(count), atol=1e-9)
            assert fact.trace == pytest.approx(dense.trace, rel=1e-13)
        basis = solve_region_disk(Region.disk((0.0, 0.0), 1.0), k, n_quad=20, count=None)
        assert basis.solution.extra["gram"] == "nodes"
        np.testing.assert_allclose(basis.eigenvalues, dense.eigenvalues, rtol=0, atol=1e-12)

    def test_rule_built_once_per_span(self):
        # the solve builds no polar k-rule, and an extension builds one,
        # however many chunks its points take
        misses = lambda: kernels._polar_rule.cache_info().misses
        kernels._polar_rule.cache_clear()
        rule = region_quadrature(star_region(), 16)
        sol = nystrom_eigs(DiskBandKernel(6.0), rule, 6)
        assert sol.extra["gram"] == "factor" and misses() == 0
        x = np.random.default_rng(2).uniform(-1.0, 1.0, (60000, 2))
        nystrom_extend(sol, 0, x)
        assert misses() == 1
        origin = np.mean(rule.nodes, axis=0)
        width = rule_width(6.0, radius(x, origin) + radius(rule.nodes, origin))
        assert width <= len(rule.weights) and len(x) * width > 10 * EXTEND_CHUNK
        assert misses() == 1
        # a query point at distance 4 builds its rule, wider than the nodes,
        # and goes through the kernel; one at 400 is too far for any rule
        # under 0.2 (K span)^2 columns to fit, so none is built for it
        plain = dataclasses.replace(sol, kernel=partial(disk_kernel, 6.0))
        for point, built in (([4.0, 0.0], 2), ([400.0, 0.0], 2)):
            pts = np.array([point])
            span = radius(pts, origin) + radius(rule.nodes, origin)
            got = nystrom_extend(sol, 0, pts)
            assert misses() == built
            np.testing.assert_array_equal(got, nystrom_extend(plain, 0, pts))
        assert rule_width(6.0, span) > 0.2 * (6.0 * span) ** 2 > len(rule.weights)

    def test_rank_beyond_node_count(self):
        # a coarse rule under a high bandlimit: the 248-column factor is wider
        # than the 64, 100 and 144 nodes, and its Gram, cut to its numerical
        # rank, still gives the top pairs
        k = 2.0 * np.sqrt(42.0)
        for n_quad in (8, 10, 12):
            rule = region_quadrature(Region.disk((0.0, 0.0), 1.0), n_quad)
            fact = nystrom_eigs(DiskBandKernel(k), rule, 10)
            assert fact.extra["rank"] == 248 > len(rule.weights) == n_quad ** 2
            assert fact.extra["gram"] == "factor" and fact.extra["gram_rank"] <= n_quad ** 2
            dense = nystrom_eigs(partial(disk_kernel, k), rule, 10)
            np.testing.assert_allclose(fact.eigenvalues, dense.eigenvalues, rtol=0, atol=1e-12)
            gram = fact.node_samples @ (rule.weights[:, None] * fact.node_samples.T)
            np.testing.assert_allclose(gram, np.eye(10), rtol=0, atol=1e-10)


def tensor_grid(nx, ny, center, spacing):
    """(ny, nx, 2) points of a grid centred at `center`, x varying fastest."""
    xs = center[0] + spacing[0] * (np.arange(nx) - 0.5 * (nx - 1))
    ys = center[1] + spacing[1] * (np.arange(ny) - 0.5 * (ny - 1))
    xx, yy = np.meshgrid(xs, ys)
    return np.stack([xx, yy], axis=-1)


def factor_reference(sol, rows, points):
    """A(points) (A(nodes)^T W rows^T) with A evaluated point by point: the
    scattered factor extension, unchunked."""
    nodes = sol.nodes
    origin = np.mean(nodes, axis=0)
    rule = kernels._polar_rule(sol.kernel.k, radius(points, origin) + radius(nodes, origin))
    coef = kernels._features(rule, nodes - origin).T @ (sol.weights * rows).T
    return kernels._features(rule, points - origin) @ coef


class TestGridExtension:
    """kernel_apply on (ny, nx, 2) tensor grids goes through 1D phase tables."""

    @pytest.fixture(scope="class", params=[(0.0, 0.0), (3000.0, -2000.0)])
    def sol(self, request):
        # 432 nodes; the k-rule is wider than that past offsets of about 5.
        # The shifted copy needs every phase taken about the node centroid.
        region = Region.polygon(star_region().vertices + np.array(request.param))
        return nystrom_eigs(DiskBandKernel(3.0), region_quadrature(region, 16), 8)

    @staticmethod
    def spy(monkeypatch, name):
        calls = []
        helper = getattr(kernels, name)

        def counting(*args):
            calls.append(args)
            return helper(*args)

        monkeypatch.setattr(kernels, name, counting)
        return calls

    @pytest.mark.parametrize("seed, nx, ny, offset", [
        (0, 1, 37, 0.0), (1, 41, 1, 0.5), (2, 23, 19, 0.0), (3, 1, 1, 1.0),
        (4, 40, 30, 9.0), (5, 64, 64, 25.0), (6, 3, 50, 2.0), (7, 17, 29, 4.0),
    ])
    @pytest.mark.parametrize("rows", [1, 8])
    def test_matches_scattered_factor(self, sol, monkeypatch, seed, nx, ny, offset, rows):
        # the offsets 9 and 25 need rules wider than the 432 nodes, which the
        # grid still takes while they are no wider than its point count
        rng = np.random.default_rng(seed)
        direction = rng.normal(size=2)
        center = np.mean(sol.nodes, axis=0) + offset * direction / np.hypot(*direction)
        pts = tensor_grid(nx, ny, center, rng.uniform(0.01, 0.1, 2))
        flat = pts.reshape(-1, 2)
        origin = np.mean(sol.nodes, axis=0)
        rank = rule_width(3.0, radius(flat, origin) + radius(sol.nodes, origin))
        assert rank <= max(len(sol.nodes), len(flat))
        calls = self.spy(monkeypatch, "_grid_apply")
        got = sol.kernel_apply(sol.node_samples[:rows], pts)
        assert len(calls) == 1 and got.shape == (nx * ny, rows)
        want = factor_reference(sol, sol.node_samples[:rows], flat)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.max(np.abs(want)))

    def test_wider_than_grid_and_nodes_uses_kernel(self, sol, monkeypatch):
        pts = tensor_grid(4, 3, np.mean(sol.nodes, axis=0) + (30.0, -10.0), (0.05, 0.05))
        calls = self.spy(monkeypatch, "_grid_apply")
        got = sol.kernel_apply(sol.node_samples, pts)
        assert calls == []
        plain = dataclasses.replace(sol, kernel=partial(disk_kernel, 3.0))
        np.testing.assert_array_equal(got, plain.kernel_apply(sol.node_samples,
                                                              pts.reshape(-1, 2)))

    @pytest.mark.parametrize("axis", [0, 1])
    def test_nudged_point_takes_scattered_path(self, sol, monkeypatch, axis):
        pts = tensor_grid(23, 19, np.mean(sol.nodes, axis=0) + (0.2, -0.1), (0.1, 0.12))
        exact = sol.kernel_apply(sol.node_samples, pts)
        pts[7, 5, axis] = np.nextafter(pts[7, 5, axis], np.inf)
        calls = self.spy(monkeypatch, "_grid_apply")
        got = sol.kernel_apply(sol.node_samples, pts)
        assert calls == [] and got.shape == (19 * 23, 8)
        np.testing.assert_array_equal(got, sol.kernel_apply(sol.node_samples, pts.reshape(-1, 2)))
        # the nudged point itself moves by an ulp of its coordinate
        keep = np.arange(len(got)) != 7 * 23 + 5
        np.testing.assert_allclose(got[keep], exact[keep], rtol=0,
                                   atol=1e-13 * np.max(np.abs(exact)))

    @pytest.mark.parametrize("shaped", [True, False])
    def test_chunked_matches_unchunked(self, sol, monkeypatch, shaped):
        # on the far grid a 942-column rule: one abscissa per node-side block
        # and 10 grid rows per block
        center = np.mean(sol.nodes, axis=0)
        pts = tensor_grid(40, 30, center + (9.0, -3.0), (0.02, 0.02))
        if not shaped:
            pts = tensor_grid(20, 15, center + (0.3, 0.1), (0.1, 0.1)).reshape(-1, 2)
        whole = sol.kernel_apply(sol.node_samples, pts)
        node_blocks = []
        samples = kernels._samples
        monkeypatch.setattr(kernels, "_samples",
                            lambda dy, omega: node_blocks.append(dy) or samples(dy, omega))
        features = self.spy(monkeypatch, "_features")
        grid = self.spy(monkeypatch, "_grid_apply")
        monkeypatch.setattr(fredholm, "EXTEND_CHUNK", 5000)
        got = sol.kernel_apply(sol.node_samples, pts)
        offsets = sol.nodes - center
        assert not any(len(d) == len(offsets) and np.array_equal(d, offsets) for _, d in features)
        query_blocks = len(grid) if shaped else len(features)
        assert len(node_blocks) > 1 and query_blocks > 1
        np.testing.assert_allclose(got, whole, rtol=0, atol=1e-14 * np.max(np.abs(whole)))


def comb_region():
    """A comb opening to the right: abscissas past x = 1 cut three y-extents."""
    return Region.polygon([(0, 0), (3, 0), (3, 1), (1, 1), (1, 2), (3, 2), (3, 3),
                           (1, 3), (1, 4), (3, 4), (3, 5), (0, 5)])


def node_coef_reference(sol, rows, origin, rule):
    """A(nodes)^T W rows^T with A evaluated node by node: the node side as a
    plain factor product, unchunked."""
    return kernels._features(rule, sol.nodes - origin).T @ (sol.weights * rows).T


def bound_terms(x):
    """Smallest n >= 1 with (x / 2)^n / n! <= 1e-17, a bound on |J_n(x)|."""
    n, term = 1, 0.5 * x
    while term > 1e-17:
        n += 1
        term *= 0.5 * x / n
    return n


def assert_reproduces_kernel(kernel, nodes, weights):
    """The multipole factor B about the node mean against sqrt(W) D sqrt(W)
    from the Bessel kernel, to 1e-13 of its largest diagonal; returns B, kept."""
    sw = np.sqrt(weights)
    b, kept = kernel.factor(nodes, sw)
    want = sw[:, None] * disk_kernel(kernel.k, nodes[:, None], nodes[None]) * sw
    assert b.shape == (len(nodes), kept[0] + 2 * sum(kept[1:]))
    np.testing.assert_allclose(b @ b.T, want, rtol=0, atol=1e-13 * np.max(np.diag(want)))
    return b, kept


class TestMultipoleFactor:
    """DiskBandKernel.factor, the factor the region solve reads,
    against the Bessel kernel and against the polar k-rule's width."""

    @pytest.mark.parametrize("name, k, n_quad", [
        ("disk", 2.0 * np.sqrt(20.0), 32),
        ("plateau", 0.0194, 24),          # km-scale coordinates
        ("star", 6.0, 24),
        ("disk", 2.0 * np.sqrt(42.0), 32),
        ("sliver", 3.0, 16),              # 10:1, most of its disk empty
        ("disk", 30.0, 32),               # K D = 60
    ])
    def test_reproduces_kernel_narrower_than_polar_rule(self, name, k, n_quad):
        region = {"disk": lambda: Region.disk((0.0, 0.0), 1.0),
                  "plateau": lambda: read_region(boundary_path()),
                  "star": star_region,
                  "sliver": lambda: Region.polygon([(0, 0), (10, 0), (10, 1), (0, 1)])}[name]()
        rule = region_quadrature(region, n_quad)
        kernel = DiskBandKernel(k)
        b, kept = assert_reproduces_kernel(kernel, rule.nodes, rule.weights)
        assert min(kept) >= 1
        origin = np.mean(rule.nodes, axis=0)
        assert b.shape[1] <= rule_width(k, 2.0 * radius(rule.nodes, origin))

    @pytest.mark.parametrize("name, k, n_quad", [
        ("disk", 2.0 * np.sqrt(42.0), 12), ("plateau", 0.0194, 16), ("star", 6.0, 16)])
    def test_kept_fixes_the_width(self, name, k, n_quad):
        region = {"disk": lambda: Region.disk((0.0, 0.0), 1.0),
                  "plateau": lambda: read_region(boundary_path()),
                  "star": star_region}[name]()
        rule = region_quadrature(region, n_quad)
        kernel, sw = DiskBandKernel(k), np.sqrt(rule.weights)
        b, kept = kernel.factor(rule.nodes, sw)
        assert b.shape[1] == 2 * sum(kept) - kept[0]
        again, _ = kernel.factor(rule.nodes, sw)
        np.testing.assert_array_equal(b, again)

    def test_node_at_the_centre(self):
        # the mean is a node, where only order 0 contributes
        nodes = np.array([[-1.0, 0.5], [0.0, 0.5], [1.0, 0.5], [0.0, -0.5], [0.0, 1.5]])
        b, kept = assert_reproduces_kernel(DiskBandKernel(4.0), nodes, np.full(5, 0.3))
        assert np.all(b[1, kept[0]:] == 0.0) and np.any(b[1, :kept[0]] != 0.0)

    def test_coincident_nodes(self):
        # r_max = 0: one column, sqrt(w_i) K / sqrt(4 pi) at every node
        nodes = np.tile([[2.5, -1.0]], (3, 1))
        b, kept = assert_reproduces_kernel(DiskBandKernel(3.0), nodes, np.array([0.1, 0.2, 0.3]))
        assert kept == (1,) and b.shape == (3, 1)


class TestSegmentContraction:
    """The node side: the multipole factor the solve reads against the Bessel
    kernel, and the extension's synthesis (kernels._node_apply: one
    phase per abscissa and a Chebyshev expansion in ky) against the
    node-by-node factor."""

    @staticmethod
    def check(sol):
        """Check the factor and both node products; returns (abscissas, terms)
        of the _node_apply synthesis at the nodes' own span."""
        kernel, nodes = sol.kernel, sol.nodes
        b, kept = assert_reproduces_kernel(kernel, nodes, sol.weights)
        assert (sol.extra["rank"], sol.extra["kept"]) == (b.shape[1], kept)
        origin = np.mean(nodes, axis=0)
        d, r_max = nodes - origin, radius(nodes, origin)
        # the nodes' own span and one 1.5x wider; r = 1 and r = count
        for span in (2.0 * r_max, 3.0 * r_max):
            rule = kernels._polar_rule(kernel.k, span)
            for rows in (sol.node_samples[:1], sol.node_samples):
                got = kernels._node_apply(kernel.k, rule, (sol.weights * rows).T, d,
                                          fredholm.EXTEND_CHUNK)
                want = node_coef_reference(sol, rows, origin, rule)
                np.testing.assert_allclose(got, want, rtol=0,
                                           atol=1e-14 * np.max(np.abs(want)))
        # the distinct abscissas and the N of the bound that _node_apply reads
        ky = kernels._polar_rule(kernel.k, 2.0 * r_max)[1]
        terms = len(kernels._ky_rule(kernel.k, ky, d[:, 1])[0])
        assert terms == bound_terms(0.5 * kernel.k * np.max(np.abs(d[:, 1])))
        return len(np.unique(d[:, 0])), terms

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(verts=star_polygons(), n_quad=st.integers(1, 10), kd=st.floats(1.0, 12.0))
    def test_star_polygons(self, verts, n_quad, kd):
        rule = region_quadrature(Region.polygon(verts), n_quad)
        k = kd / (2.0 * radius(rule.nodes, np.mean(rule.nodes, axis=0)))
        sol = nystrom_eigs(DiskBandKernel(k), rule, min(6, len(rule.weights)))
        self.check(sol)

    def test_unit_disk(self, disk42_nystrom):
        sol = disk42_nystrom.solution
        assert sol.extra["gram"] == "factor" and self.check(sol)[0] == 32

    def test_plateau_km(self, plateau_region):
        sol = solve_region_disk(plateau_region, 0.0194, n_quad=24, count=20).solution
        rule = region_quadrature(plateau_region, 24)
        assert sol.extra["gram"] == "factor"
        assert self.check(sol)[0] == len(np.unique(rule.nodes[:, 0]))

    def test_several_extents_per_abscissa(self):
        rule = region_quadrature(comb_region(), 9)
        sol = nystrom_eigs(DiskBandKernel(4.0), rule, 12)
        # a block of 9 nodes per extent, and fewer abscissas than blocks
        assert self.check(sol)[0] == len(np.unique(rule.nodes[:, 0])) < len(rule.weights) // 9

    @pytest.mark.parametrize("offset, n_quad", [((30000.0, -20000.0), 7),
                                                ((0.0, 2047.3), 12)])
    def test_far_from_the_coordinate_origin(self, offset, n_quad):
        # far nodes are rounded to ulps of 4e-12, and across y = 2048 the ulp
        # changes within a slice; the phases follow the nodes as rounded
        pentagon = np.array([(0.13, 0.07), (2.71, 0.31), (3.14, 1.93), (1.41, 2.72),
                             (-0.58, 1.62)])
        rule = region_quadrature(Region.polygon(pentagon + offset), n_quad)
        if offset[1] > 0:
            assert np.min(rule.nodes[:, 1]) < 2048.0 < np.max(rule.nodes[:, 1])
        self.check(nystrom_eigs(DiskBandKernel(3.0), rule, 8))

    def test_plain_pairs(self):
        rule = region_quadrature(star_region(), 24)
        sol = nystrom_eigs(DiskBandKernel(6.0), (rule.nodes, rule.weights), 10)
        assert sol.extra["gram"] == "factor"
        self.check(sol)

    def test_rule_without_layout_solves_and_extends(self):
        # the solve reads only nodes and weights: a hand-built rule, and the
        # same rule with its nodes shuffled, give the same spectrum and extension
        rule = region_quadrature(star_region(), 12)
        bare = RegionQuadrature(rule.nodes, rule.weights, rule.region)
        laid, plain = (nystrom_eigs(DiskBandKernel(6.0), r, 10) for r in (rule, bare))
        np.testing.assert_array_equal(plain.eigenvalues, laid.eigenvalues)
        np.testing.assert_array_equal(plain.node_samples, laid.node_samples)
        perm = np.random.default_rng(8).permutation(len(rule.weights))
        shuffled = nystrom_eigs(DiskBandKernel(6.0), (rule.nodes[perm], rule.weights[perm]), 10)
        np.testing.assert_allclose(shuffled.eigenvalues, laid.eigenvalues, rtol=0, atol=1e-13)
        assert self.check(shuffled) == self.check(laid)
        pts = tensor_grid(30, 20, (0.3, -0.2), (0.08, 0.1))
        want = nystrom_extend(laid, list(range(10)), pts)
        np.testing.assert_array_equal(nystrom_extend(plain, list(range(10)), pts), want)
        got = nystrom_extend(shuffled, list(range(10)), pts)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.max(np.abs(want)))

    def test_single_abscissa(self):
        # every node on x = 0.3: one phase row serves them all
        y = map_rule(gauss_legendre(40), -1.5, 2.0)
        nodes = np.column_stack([np.full(40, 0.3), y.nodes])
        sol = nystrom_eigs(DiskBandKernel(5.0), (nodes, y.weights), 3)
        assert self.check(sol)[0] == 1

    def test_nodes_on_one_ordinate(self):
        # every node on y = 0.25: d_y = 0, so one Chebyshev term is exact
        x = map_rule(gauss_legendre(40), -1.5, 2.0)
        nodes = np.column_stack([x.nodes, np.full(40, 0.25)])
        sol = nystrom_eigs(DiskBandKernel(5.0), (nodes, x.weights), 3)
        assert self.check(sol) == (40, 1)

    @pytest.mark.parametrize("x", [0.0, 1e-12, 1e-3, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0,
                                   40.0])
    def test_terms_against_the_bessel_tail(self, x):
        # the bound (x/2)^n / n! keeps N at most 3 above the last order whose
        # |J_n(x)| exceeds 1e-17, and the tail it drops stays below 4e-17
        ky = kernels._polar_rule(2.0, 1.0)[1]
        terms = len(kernels._ky_rule(2.0, ky, np.array([-x, 0.5 * x]))[0])
        assert terms == bound_terms(x)
        j = np.abs(scipy.special.jv(np.arange(terms + 60), x))
        last = np.nonzero(j > 1e-17)[0]
        needed = last[-1] + 1 if len(last) else 0
        assert max(1, needed) <= terms <= needed + 3
        assert 2.0 * np.sum(j[terms:]) <= 4e-17

    def test_solve_and_grid_extension_leave_features_to_queries(self, monkeypatch):
        # the node side never goes through _features: only query points do
        seen = []
        features = kernels._features

        def spy(rule, d):
            seen.append(d)
            return features(rule, d)

        monkeypatch.setattr(kernels, "_features", spy)
        region = Region.polygon(star_region().vertices * 2.0)
        basis = solve_region_disk(region, 3.0, n_quad=16, count=6)
        assert basis.solution.extra["gram"] == "factor" and seen == []
        grid = GridSpec(x0=-2.5, y0=-2.2, dx=0.1, dy=0.11, nx=50, ny=41)
        evaluate_g(basis, [0, 1], grid)
        assert seen == []
        x = np.random.default_rng(3).uniform(-2.0, 2.0, (50, 2))
        nystrom_extend(basis.solution, 0, x)
        nodes = basis.solution.nodes
        origin = np.mean(nodes, axis=0)
        assert len(seen) == 1 and np.array_equal(seen[0], x - origin)
        assert not any(d.shape == nodes.shape and np.array_equal(d, nodes - origin)
                       for d in seen)


class TestNodeMatrix:
    """_node_eigs builds the lower triangle of the weighted kernel matrix only."""

    @pytest.mark.parametrize("n", [5, 512, 1100, 2600])
    def test_same_bits_in_under_three_matrices(self, n, monkeypatch):
        # 2600 nodes take several row blocks, fewer take one
        rng = np.random.default_rng(n)
        nodes = np.array([4.1e5, -3.7e5]) + rng.uniform(-2.5e4, 2.5e4, (n, 2))
        sw = np.sqrt(rng.uniform(1e6, 4e6, n))
        kernel = DiskBandKernel(0.0194)
        seen = {}

        def capture(mat, count):
            seen["peak"] = tracemalloc.get_traced_memory()[1]
            seen["mat"] = mat
            return _eigh(mat, count)

        monkeypatch.setattr(fredholm, "_eigh", capture)
        tracemalloc.start()
        try:
            vals, _ = fredholm._node_eigs(kernel, nodes, sw, 3)
        finally:
            tracemalloc.stop()
        # the plain formula with full-size temporaries: weighted, then symmetrized
        sym = kernel(nodes[:, None], nodes[None]) * sw[:, None] * sw
        np.testing.assert_array_equal(np.tril(seen["mat"]), np.tril(sym))
        assert not np.any(np.triu(seen["mat"], 1))
        want = _eigh(0.5 * (sym + sym.T), 3)[0]
        assert np.max(np.abs(vals - want)) <= 1e-15 * want[-1]
        if n > 1000:     # below that, fixed allocations outweigh the matrix
            assert seen["peak"] <= 8 * n * n + 3 * 8 * EXTEND_CHUNK

    def test_leaves_a_read_only_kernel_result_alone(self):
        nodes = np.linspace(-1.0, 1.0, 7)
        frozen = sinc_kernel(3.0, nodes[:, None], nodes[None])
        frozen.flags.writeable = False
        vals, _ = fredholm._node_eigs(lambda x, xp: frozen, nodes, np.ones(7), 2)
        np.testing.assert_array_equal(frozen, sinc_kernel(3.0, nodes[:, None], nodes[None]))
        np.testing.assert_allclose(vals, np.linalg.eigvalsh(frozen)[-2:], rtol=1e-12)
