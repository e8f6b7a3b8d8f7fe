"""End-to-end acceptance runs: ten numbered criteria, one verdict line each.

Every test times its own complete workload (solves included) against the
stated budget and prints `ACCEPTANCE NN <name>: PASS/FAIL (elapsed)` before
asserting, so a red run still shows the full scoreboard.
"""

import time

import numpy as np
import pytest
import scipy.special

import slepkit
import slepkit.cli
from slepkit import (
    Region, SpectralDomain, apply_operator, area, assemble_disk_basis,
    bessel_j, build_problem, dpss, evaluate_g, fixed_order_solution,
    gauss_legendre, jacobi_p, map_rule, n2d_m, read_region, shannon_2d,
    sinc_matrix, solve, solve_1d, solve_region_disk, sqrt_kernel,
    wedge_domain, GridSpec,
)
from conftest import boundary_path

DISK = Region.disk((0.0, 0.0), 1.0)
K42 = 2.0 * np.sqrt(42.0)


def verdict(num, name, ok, elapsed):
    print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} "
          f"({elapsed:.1f}s)", flush=True)


def boundary_distance(region, points):
    """Distance from each point to the nearest polygon edge."""
    v = region.vertices
    seg_a = v
    seg_b = np.roll(v, -1, axis=0)
    d = np.full(len(points), np.inf)
    for a, b in zip(seg_a, seg_b):
        ab = b - a
        t = np.clip(((points - a) @ ab) / (ab @ ab), 0.0, 1.0)
        proj = a + t[:, None] * ab
        d = np.minimum(d, np.hypot(*(points - proj).T))
    return d


def test_01_shannon_reproduction():
    t0 = time.perf_counter()
    region = read_region(boundary_path())
    a = area(region)
    n2d = shannon_2d(0.0194, a)
    basis = solve_region_disk(region, 0.0194, n_quad=32, count=8)
    trace_rel = abs(basis.trace - n2d) / n2d
    elapsed = time.perf_counter() - t0
    ok = (abs(a - 334e3) <= 5e3 and abs(n2d - 10.0) <= 0.2
          and trace_rel <= 1e-3 and elapsed < 10.0)
    verdict(1, "shannon-reproduction", ok, elapsed)
    assert abs(a - 334e3) <= 5e3, f"area {a}"
    assert abs(n2d - 10.0) <= 0.2, f"shannon {n2d}"
    assert trace_rel <= 1e-3, f"trace relative error {trace_rel}"
    assert elapsed < 10.0


def test_02_disk_eigenvalue_bound():
    t0 = time.perf_counter()
    basis = assemble_disk_basis(K42, 1.0, 30)
    lam = basis.eigenvalues
    elapsed = time.perf_counter() - t0
    ok = (np.all(lam < 1.0) and np.all(lam >= 0.8983 - 1e-3)
          and elapsed < 60.0)
    verdict(2, "disk-eigenvalue-bound", ok, elapsed)
    assert np.all(lam < 1.0), f"max {lam[0]}"
    assert np.all(lam >= 0.8983 - 1e-3), f"min {lam[-1]}"
    assert elapsed < 60.0


def test_03_cross_method_disk_agreement():
    t0 = time.perf_counter()
    analytic = assemble_disk_basis(K42, 1.0, 10).eigenvalues
    nystrom = solve_region_disk(DISK, K42, n_quad=32, count=10).eigenvalues
    analytic_err = np.max(np.abs(analytic - nystrom))

    proj_err = {}
    for spacing in (0.1, 0.05):
        p = build_problem(DISK, SpectralDomain.disk(K42), spacing)
        b = solve(p, 6)
        proj_err[spacing] = np.max(np.abs(b.eigenvalues - nystrom[:6]))
    improvement = proj_err[0.1] / proj_err[0.05]
    elapsed = time.perf_counter() - t0
    ok = (analytic_err <= 1e-4 and proj_err[0.05] <= 5e-3
          and improvement >= 2.0 and elapsed < 180.0)
    verdict(3, "cross-method-disk-agreement", ok, elapsed)
    assert analytic_err <= 1e-4, f"analytic vs nystrom {analytic_err}"
    assert proj_err[0.05] <= 5e-3, f"projector error {proj_err[0.05]}"
    assert improvement >= 2.0, f"refinement improvement {improvement}"
    assert elapsed < 180.0


def test_04_per_order_sums():
    t0 = time.perf_counter()
    worst = 0.0
    for m in range(11):
        sol = fixed_order_solution(m, K42)
        total = sum(br.lam for br in sol.branches)
        worst = max(worst, abs(total - n2d_m(m, 42.0)))
    doublet = n2d_m(0, 42.0) + 2 * sum(n2d_m(m, 42.0) for m in range(1, 61))
    doublet_err = abs(doublet - 42.0)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and doublet_err <= 1e-8 and elapsed < 60.0
    verdict(4, "per-order-sums", ok, elapsed)
    assert worst <= 1e-4, f"per-order sum error {worst}"
    assert doublet_err <= 1e-8, f"doublet sum error {doublet_err}"
    assert elapsed < 60.0


def test_05_step_spectrum():
    t0 = time.perf_counter()
    offsets = {}
    for n2d, count in ((3, 12), (11, 24), (24, 45), (42, 60)):
        basis = assemble_disk_basis(2.0 * np.sqrt(n2d), 1.0, count)
        strong = int(np.sum(basis.eigenvalues >= 0.5))
        offsets[n2d] = abs(strong - n2d)
    elapsed = time.perf_counter() - t0
    ok = max(offsets.values()) <= 3 and elapsed < 120.0
    verdict(5, "step-spectrum", ok, elapsed)
    assert max(offsets.values()) <= 3, f"step offsets {offsets}"
    assert elapsed < 120.0


def test_06_orthogonality_suite():
    t0 = time.perf_counter()
    basis = solve_region_disk(DISK, K42, n_quad=32, count=30)
    lam = basis.eigenvalues
    s = basis.node_samples
    w = basis.quadrature.weights
    gram_r = s @ (w[:, None] * s.T)
    region_err = np.max(np.abs(gram_r - np.diag(lam)))

    # whole-plane cross energies of the ten best-concentrated functions on an
    # extended grid; their energy outside it scales with 1 - lambda, so the
    # truncated Gram sits well inside the stated tolerance
    grid = GridSpec(x0=-3.0, y0=-3.0, dx=0.05, dy=0.05, nx=121, ny=121)
    fields = np.array([evaluate_g(basis, i, grid).values.ravel()
                       for i in range(10)])
    gram_p = fields @ fields.T * grid.dx * grid.dy
    plane_err = np.max(np.abs(gram_p - np.eye(10)))
    open_unit = bool(np.all(lam > 0.0) and np.all(lam < 1.0))
    elapsed = time.perf_counter() - t0
    ok = (region_err <= 1e-8 and plane_err <= 1e-2 and open_unit
          and elapsed < 60.0)
    verdict(6, "orthogonality-suite", ok, elapsed)
    assert region_err <= 1e-8, f"region gram error {region_err}"
    assert plane_err <= 1e-2, f"whole-plane gram error {plane_err}"
    assert open_unit, "eigenvalues must lie strictly inside (0, 1)"
    assert elapsed < 60.0


def test_07_coverage_heuristic():
    t0 = time.perf_counter()
    results = {}

    disk_basis = solve_region_disk(DISK, K42, n_quad=32, count=84)
    plateau = read_region(boundary_path())
    plateau_basis = solve_region_disk(plateau, 0.0194, n_quad=32, count=20)

    for name, basis, deep, far in (
        ("disk", disk_basis,
         np.array([[0.0, 0.0], [0.3, 0.2], [-0.4, 0.35], [0.5, -0.3]]),
         np.array([[3.0, 0.0], [0.0, -3.2], [2.5, 2.5]])),
        ("plateau", plateau_basis,
         np.array([[0.0, 0.0], [-15.0, 0.0], [0.0, -15.0], [15.0, 0.0]]),
         np.array([[1500.0, 0.0], [0.0, -1500.0], [1100.0, 1100.0]])),
    ):
        a = area(basis.region)
        scale = np.sqrt(a)
        if basis.region.kind == "polygon":
            assert np.all(boundary_distance(basis.region, deep) > 0.15 * scale)
            assert np.all(boundary_distance(basis.region, far) > scale)
        count = len(basis.eigenvalues)
        level = basis.shannon / a
        from slepkit import weighted_sumsq
        vals_deep = np.array([
            weighted_sumsq(basis, GridSpec(x0=float(p[0]), y0=float(p[1]),
                                           dx=1, dy=1, nx=1, ny=1),
                           count).values[0, 0] for p in deep])
        vals_far = np.array([
            weighted_sumsq(basis, GridSpec(x0=float(p[0]), y0=float(p[1]),
                                           dx=1, dy=1, nx=1, ny=1),
                           count).values[0, 0] for p in far])
        results[name] = (np.max(np.abs(vals_deep / level - 1.0)),
                         np.max(vals_far / level))
    elapsed = time.perf_counter() - t0
    deep_ok = all(r[0] <= 0.10 for r in results.values())
    far_ok = all(r[1] < 0.05 for r in results.values())
    ok = deep_ok and far_ok and elapsed < 120.0
    verdict(7, "coverage-heuristic", ok, elapsed)
    assert deep_ok, f"deep-interior deviations {results}"
    assert far_ok, f"far-field fractions {results}"
    assert elapsed < 120.0


def test_08_one_dimensional_reductions():
    t0 = time.perf_counter()
    out = dpss(8, 0.1, 8)
    dense = np.linalg.eigvalsh(sinc_matrix(8, 0.1))[::-1]
    dpss_err = np.max(np.abs(out.eigenvalues - dense))

    tw = 4.0
    basis = solve_1d(tw, n_nodes=160, count=10)
    trace_err = abs(basis.trace - 2.0 * tw / np.pi) / (2.0 * tw / np.pi)

    # parity of each 1D eigenfunction read off the node samples directly
    order = np.argsort(basis.nodes)
    parities = []
    for f in basis.node_samples:
        fs = f[order]
        even = np.max(np.abs(fs - fs[::-1]))
        odd = np.max(np.abs(fs + fs[::-1]))
        parities.append("even" if even < odd else "odd")
    lam_even = [l for l, p in zip(basis.eigenvalues, parities) if p == "even"]
    lam_odd = [l for l, p in zip(basis.eigenvalues, parities) if p == "odd"]

    # half-order square-root kernels on [0, 1]: singular values squared,
    # times c, give the parity-split interval eigenvalues at TW = c
    rule = map_rule(gauss_legendre(180), 0.0, 1.0)
    sw = np.sqrt(rule.weights)
    split_err = 0.0
    for half_m, lam_ref in ((-0.5, lam_even), (0.5, lam_odd)):
        kmat = sqrt_kernel(half_m, tw, rule.nodes[:, None], rule.nodes[None, :])
        sig = np.linalg.eigvalsh(sw[:, None] * kmat * sw[None, :])
        lam_k = tw * np.sort(sig * sig)[::-1]
        n = min(len(lam_ref), 4)
        split_err = max(split_err, np.max(np.abs(lam_k[:n] - lam_ref[:n])))
    elapsed = time.perf_counter() - t0
    ok = (dpss_err <= 1e-10 and trace_err <= 1e-8 and split_err <= 1e-8
          and elapsed < 30.0)
    verdict(8, "one-dimensional-reductions", ok, elapsed)
    assert dpss_err <= 1e-10, f"dpss vs dense {dpss_err}"
    assert trace_err <= 1e-8, f"trace error {trace_err}"
    assert split_err <= 1e-8, f"parity split error {split_err}"
    assert elapsed < 30.0


def test_09_projector_contracts(tmp_path):
    t0 = time.perf_counter()
    problem = build_problem(DISK, SpectralDomain.disk(4.0), 0.2)
    rng = np.random.default_rng(0)
    shape = (problem.grid.ny, problem.grid.nx)
    adj_err, ray_lo, ray_hi = 0.0, np.inf, -np.inf
    for _ in range(5):
        u = rng.standard_normal(shape)
        v = rng.standard_normal(shape)
        adj_err = max(adj_err, abs(np.vdot(u, apply_operator(problem, v))
                                   - np.vdot(apply_operator(problem, u), v)))
        vm = np.where(problem.spatial_mask, v, 0.0)
        q = np.vdot(vm, apply_operator(problem, vm)) / np.vdot(vm, vm)
        ray_lo, ray_hi = min(ray_lo, q), max(ray_hi, q)

    asym = Region.polygon([(-1.2, -0.8), (1.0, -1.0), (1.3, 0.9), (-0.9, 1.1)])
    wedge_p = build_problem(asym, wedge_domain(0.5, 0.3, 6.0), 0.2,
                            embed_factor=2.5)
    wedge_b = solve(wedge_p, 4)
    wedge_resid = float(np.max(wedge_b.residuals))

    blobs = []
    for sub in ("r1", "r2"):
        out = tmp_path / sub
        code = slepkit.cli.main([
            "grid", "--boundary", boundary_path(),
            "--spectral", "wedge", "0.5236", "0.26", "0.02",
            "--spacing", "5.0", "--count", "3", "--seed", "11",
            "--out", str(out)])
        assert code == 0
        blobs.append((out / "report.txt").read_bytes()
                     + (out / "field_000.bin").read_bytes())
    identical = blobs[0] == blobs[1]
    elapsed = time.perf_counter() - t0
    ok = (adj_err <= 1e-12 and ray_lo >= 0.0 and ray_hi <= 1.0
          and wedge_resid <= 1e-8 and identical and elapsed < 60.0)
    verdict(9, "projector-contracts", ok, elapsed)
    assert adj_err <= 1e-12, f"adjointness {adj_err}"
    assert 0.0 <= ray_lo and ray_hi <= 1.0, f"rayleigh [{ray_lo}, {ray_hi}]"
    assert wedge_resid <= 1e-8, f"wedge eigen-residual {wedge_resid}"
    assert identical, "same-seed runs must emit byte-identical outputs"
    assert elapsed < 60.0


def test_10_special_function_suite():
    t0 = time.perf_counter()
    x, y = 1.7, 0.9

    sum_rule = abs(bessel_j(0, x) ** 2
                   + 2 * sum(bessel_j(n, x) ** 2 for n in range(1, 60)) - 1.0)
    addition = abs(bessel_j(0, x + y)
                   - (bessel_j(0, x) * bessel_j(0, y)
                      + 2 * sum((-1.0) ** n * bessel_j(n, x) * bessel_j(n, y)
                                for n in range(1, 60))))
    h = 1e-6
    derivative = abs(((x + h) * bessel_j(1, x + h)
                      - (x - h) * bessel_j(1, x - h)) / (2 * h)
                     - x * bessel_j(0, x))
    half = abs(bessel_j(0.5, np.pi / 2) - 2.0 / np.pi)

    rng = np.random.default_rng(2)
    jac = 0.0
    for l, a in ((0, 0.0), (3, 1.0), (6, 2.0)):
        for u in rng.uniform(-1, 1, 5):
            s = np.arange(l + 1)
            explicit = np.sum(scipy.special.comb(l + a, l - s)
                              * scipy.special.comb(l, s)
                              * ((u - 1) / 2) ** s * ((u + 1) / 2) ** (l - s))
            jac = max(jac, abs(jacobi_p(l, a, u) - explicit))
    elapsed = time.perf_counter() - t0
    ok = (sum_rule < 1e-12 and addition < 1e-12 and derivative < 1e-6
          and half < 1e-13 and jac < 1e-10 and elapsed < 10.0)
    verdict(10, "special-function-suite", ok, elapsed)
    assert sum_rule < 1e-12
    assert addition < 1e-12
    assert derivative < 1e-6
    assert half < 1e-13
    assert jac < 1e-10
    assert elapsed < 10.0
