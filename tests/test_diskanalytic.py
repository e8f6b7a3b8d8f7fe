"""Fixed-order disk solutions: dual series, closed-form lambda and norm, sum rules."""

import sys
import warnings
from functools import partial

import numpy as np
import pytest
import scipy.special

from slepkit import (
    Region, assemble_disk_basis, coeff_tridiagonal, evaluate_disk_entry,
    fixed_order_solution, fixedm_kernel, gamma_lambda, gauss_legendre, map_rule,
    n2d_m, nystrom_eigs, phi_bessel, phi_space, region_quadrature, sqrt_kernel,
)
from slepkit import NumericalError, diskanalytic, fredholm, kernels


class TestCoefficients:
    def test_small_bandwidth_limit(self):
        # as c -> 0 the tridiagonal diagonal dominates and
        # chi_l -> (2l + m + 1/2)(2l + m + 3/2)
        for m in (0, 1, 3):
            chis, d = coeff_tridiagonal(m, 1e-8, 12)
            assert d.shape == (13, 13)
            l = np.arange(13.0)
            want = (2 * l + m + 0.5) * (2 * l + m + 1.5)
            np.testing.assert_allclose(chis, want, rtol=1e-10)

    def test_coefficients_decay(self):
        sol = fixed_order_solution(2, 6.0)
        for br in sol.branches[:4]:
            assert abs(br.d[-1]) < 1e-12 * np.max(np.abs(br.d))

    def test_l_max_growth_limit_warns(self, monkeypatch):
        # the series is solved once at l_max, default or given, and a two-term
        # series cannot resolve c = 600; it is not regrown
        monkeypatch.setattr(diskanalytic, "default_l_max", lambda c: 1)
        with pytest.warns(RuntimeWarning, match=r"m=2 at c=600\.0: .* l_max=1;"):
            sol = fixed_order_solution(2, 600.0)
        assert sol.l_max == 1
        assert sol.branches and all(len(br.d) == 2 for br in sol.branches)
        with pytest.warns(RuntimeWarning, match=r"m=2 at c=600\.0: .* l_max=1;"):
            assert fixed_order_solution(2, 600.0, l_max=1).l_max == 1

    def test_gamma_overflow_raises(self):
        # 150^200.5 and 201! overflow a double
        with pytest.raises(NumericalError, match=r"m=200 at c=150\.0"):
            fixed_order_solution(200, 150.0)

    def test_normalization(self):
        chi, d = coeff_tridiagonal(1, 5.0, 60)
        assert chi.shape == (61,) and d.shape == (61, 61)
        np.testing.assert_allclose(d.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            coeff_tridiagonal(0, -1.0, 10)
        with pytest.raises(ValueError):
            coeff_tridiagonal(-1, 2.0, 10)
        with pytest.raises(ValueError):
            coeff_tridiagonal(0, 2.0, 0)

    @pytest.mark.parametrize("c", [np.nan, np.inf])
    def test_rejects_non_finite_bandwidth(self, c):
        with pytest.raises(ValueError, match="must be positive and finite"):
            coeff_tridiagonal(0, c, 10)


class TestDualSeries:
    @pytest.mark.parametrize("m", [1, -0.5, 0.5])
    def test_space_and_bessel_agree_inside(self, m):
        sol = fixed_order_solution(m, 2 * np.sqrt(10.0))
        xi = np.linspace(0.02, 1.0, 40)
        for j in range(3):
            a = phi_space(sol, j, xi)
            b = phi_bessel(sol, j, xi)
            np.testing.assert_allclose(a, b, atol=1e-8 * np.max(np.abs(a)))

    @pytest.mark.parametrize("m", [0, 1, -0.5, 0.5])
    def test_dual_series_continuous_at_the_rim(self, m):
        # _phi switches from the Jacobi to the Bessel series past xi = 1; the
        # second difference across the switch cancels the slope and leaves
        # the jump (1.8e-14 of the value at most here)
        sol = fixed_order_solution(m, 2 * np.sqrt(10.0))
        xi = np.array([1.0 - 1e-12, 1.0, 1.0 + 1e-12])
        for j in range(3):
            below, rim, above = diskanalytic._phi(sol, j, xi)
            assert rim == phi_space(sol, j, 1.0)
            assert abs((above - rim) - (rim - below)) <= 1e-13 * abs(rim)

    def test_branch_sequence_matches_single_branches(self):
        # one shared Jacobi sequence, each row summed to its own trimmed length
        sol = fixed_order_solution(1, 2 * np.sqrt(10.0))
        xi = np.linspace(0.0, 1.0, 33)
        rows = phi_space(sol, [2, 0, 1], xi)
        assert rows.shape == (3, 33)
        for row, j in zip(rows, [2, 0, 1]):
            np.testing.assert_array_equal(row, phi_space(sol, j, xi))

    def test_bessel_series_extends_outside(self):
        sol = fixed_order_solution(0, 4.0)
        vals = phi_bessel(sol, 0, np.array([1.5, 3.0, 6.0]))
        assert np.all(np.isfinite(vals))
        # bandlimited extension decays away from the disk
        assert abs(vals[2]) < abs(vals[0])

    def test_branches_orthogonal(self):
        sol = fixed_order_solution(1, 2 * np.sqrt(10.0))
        rule = map_rule(gauss_legendre(200), 0.0, 1.0)
        p = np.array([phi_space(sol, j, rule.nodes) for j in range(3)])
        gram = p @ (rule.weights[:, None] * p.T)
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) < 1e-12 * np.max(np.diag(gram))


def untrimmed_phi_space(solution, branch, xi):
    """Oracle: the Jacobi series of phi over every coefficient."""
    br = solution.branches[branch]
    m = solution.m
    u = 1.0 - 2.0 * xi * xi
    seq = diskanalytic._jacobi_sequence(len(br.d) - 1, m, u)
    acc = sum(cl * pl for cl, pl in zip(diskanalytic._series_weights(br.d, m), seq))
    return xi ** (m + 0.5) * acc


def untrimmed_phi_bessel(solution, branch, xi):
    """Oracle: the Bessel series of phi over every coefficient, xi > 0."""
    br = solution.branches[branch]
    m, t = solution.m, solution.c * xi
    orders = m + 2.0 * np.arange(len(br.d)) + 1.0
    vals = scipy.special.jv(orders[:, None], t[None, :])
    return diskanalytic._series_weights(br.d, m) @ vals / np.sqrt(t) / br.gamma


class TestSeriesTrim:
    # every (N, m) with at least one branch, and up to three branches each
    CASES = [(n2d, m, j) for n2d in (0.5, 3.5, 42.0, 300.0) for m in (0, 1, 5, 30)
             for j in range(min(3, len(fixed_order_solution(m, 2.0 * np.sqrt(n2d)).branches)))]

    def test_cases_cover_every_shannon_number(self):
        assert {n2d for n2d, _, _ in self.CASES} == {0.5, 3.5, 42.0, 300.0}
        assert len(self.CASES) >= 30

    @pytest.mark.parametrize("n2d, m, j", CASES)
    def test_matches_untrimmed_series(self, n2d, m, j):
        sol = fixed_order_solution(m, 2.0 * np.sqrt(n2d))
        xi = np.linspace(0.0, 1.0, 41)
        want = untrimmed_phi_space(sol, j, xi)
        got = phi_space(sol, j, xi)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
        if abs(sol.branches[j].gamma) <= 1e-14:
            return
        xi = np.linspace(0.05, 3.0, 60)
        want = untrimmed_phi_bessel(sol, j, xi)
        got = phi_bessel(sol, j, xi)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    @pytest.mark.parametrize("n2d", [0.5, 3.5, 42.0, 300.0])
    def test_entries_match_untrimmed_series(self, n2d, monkeypatch):
        # entries of each order in the cases, on a disk of radius 1.3,
        # inside it and out to three radii
        c, radius = 2.0 * np.sqrt(n2d), 1.3
        entries = []
        for m in sorted({m for nn, m, _ in self.CASES if nn == n2d}):
            sol = fixed_order_solution(m, c)
            entries += [diskanalytic.DiskEntry(m=m, kind=kind, branch=j, lam=br.lam,
                                               solution=sol)
                        for j, br in enumerate(sol.branches[:3]) if abs(br.gamma) > 1e-14
                        for kind in ("cos", "sin")]
        basis = diskanalytic.DiskBasis(K=c / radius, R=radius, n2d=n2d, entries=entries,
                                       eigenvalues=np.array([e.lam for e in entries]))
        rng = np.random.default_rng(7)
        r, theta = rng.uniform(0.0, 3.0 * radius, 200), rng.uniform(0.0, 2.0 * np.pi, 200)
        pts = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)
        got = [evaluate_disk_entry(basis, i, pts) for i in range(len(entries))]
        monkeypatch.setattr(diskanalytic, "phi_space", untrimmed_phi_space)
        monkeypatch.setattr(diskanalytic, "phi_bessel", untrimmed_phi_bessel)
        for i, g in enumerate(got):
            want = evaluate_disk_entry(basis, i, pts)
            assert np.max(np.abs(g - want)) <= 1e-15 * np.max(np.abs(want))

    def test_trim_is_exercised(self, monkeypatch):
        sol = fixed_order_solution(0, 2.0 * np.sqrt(3.5))
        degrees = []
        sequence = diskanalytic._jacobi_sequence

        def spy(lmax, m, x):
            degrees.append(lmax)
            return sequence(lmax, m, x)

        monkeypatch.setattr(diskanalytic, "_jacobi_sequence", spy)
        for j in range(len(sol.branches)):
            phi_space(sol, j, np.linspace(0.0, 1.0, 5))
            assert diskanalytic._series_terms(sol.branches[j].d) < sol.l_max + 1
        assert max(degrees) < sol.l_max

    def test_solution_keeps_every_coefficient(self):
        # the trim acts only when evaluating: d and norm_sq span the full
        # series of l_max + 1 terms
        for m in (0, 1, 5):
            sol = fixed_order_solution(m, 2.0 * np.sqrt(3.5))
            assert sol.l_max == diskanalytic.default_l_max(sol.c)
            jacobi_norm = 2.0 * (2.0 * np.arange(sol.l_max + 1) + m + 1.0)
            for br in sol.branches:
                assert len(br.d) == sol.l_max + 1
                w = diskanalytic._series_weights(br.d, m)
                assert br.norm_sq == float(np.sum(w * w / jacobi_norm))


class TestLambdaRoutes:
    def test_formula_is_c_gamma_squared(self):
        sol = fixed_order_solution(0, 5.0)
        for br in sol.branches[:4]:
            assert br.lam == pytest.approx(sol.c * br.gamma ** 2, rel=1e-13)

    def test_gamma_lambda_function(self):
        sol = fixed_order_solution(2, 5.0)
        g, lf = gamma_lambda(sol.branches[0].d, 2, 5.0)
        assert g == pytest.approx(sol.branches[0].gamma, rel=1e-13)
        assert lf == pytest.approx(sol.branches[0].lam, rel=1e-13)

    def test_formula_vs_quadrature(self):
        # a dense Nystrom solve of the radial kernel, built here as an
        # independent oracle, agrees with the closed form where it resolves
        rule = map_rule(gauss_legendre(96), 0.0, 1.0)
        c = 2 * np.sqrt(10.0)
        for m in (0, 1, 4):
            sol = fixed_order_solution(m, c)
            quad = nystrom_eigs(partial(fixedm_kernel, m, c * c / 4.0),
                                (rule.nodes, rule.weights * rule.nodes), 96)
            for br, lq in zip(sol.branches, quad.eigenvalues):
                if br.lam >= 1e-3:
                    assert lq == pytest.approx(br.lam, rel=1e-6)

    @pytest.mark.parametrize("n2d", (0.5, 3.0, 42.0, 100.0))
    def test_lambda_and_retention_match_factor_svd(self, n2d):
        # sigma^2 of the radial factor sqrt(4N) sqrt(w xi) J_m(c p xi) sqrt(w_p p)
        # are the eigenvalues of the order-m kernel; the kept branches are
        # exactly those with sigma^2 > 1e-16, and lambda
        # matches sigma^2 wherever the SVD resolves it
        c = 2.0 * np.sqrt(n2d)
        rule = map_rule(gauss_legendre(int(np.ceil(2.0 * c)) + 60), 0.0, 1.0)
        x, sw = rule.nodes, np.sqrt(rule.weights * rule.nodes)
        for m in (0, 1, 4, 12, 30):
            f = (np.sqrt(4.0 * n2d) * sw[:, None]
                 * scipy.special.jv(m, c * np.outer(x, x)) * sw[None, :])
            ref = np.linalg.svd(f, compute_uv=False) ** 2
            lam = np.array([br.lam for br in fixed_order_solution(m, c).branches])
            want = int(np.sum(ref > 1e-16))
            assert len(lam) == want, f"order {m}"
            ok = ref[:want] >= 1e-13
            np.testing.assert_allclose(lam[ok], ref[:want][ok], rtol=1e-9, atol=0)

    def test_no_branch_cap(self):
        # at N = 4000 order 0 holds 51 eigenvalues above 1e-16 by the factor
        # SVD above, and the solve keeps all of them
        sol = fixed_order_solution(0, 2.0 * np.sqrt(4000.0))
        assert len(sol.branches) == 51
        assert sol.branches[-1].lam > 1e-16

    def test_sqrt_kernel_oracle(self):
        # gammas are the eigenvalues of the square-root kernel; check
        # lambda = c gamma^2 against a dense symmetrized Nystrom solve
        m, c = 1, 2 * np.sqrt(10.0)
        sol = fixed_order_solution(m, c)
        rule = map_rule(gauss_legendre(220), 0.0, 1.0)
        kmat = sqrt_kernel(m, c, rule.nodes[:, None], rule.nodes[None, :])
        sw = np.sqrt(rule.weights)
        g = np.linalg.eigvalsh(sw[:, None] * kmat * sw[None, :])
        g = g[np.argsort(-np.abs(g))]
        for j in range(4):
            assert c * g[j] ** 2 == pytest.approx(sol.branches[j].lam,
                                                  abs=1e-10)


    @pytest.mark.parametrize("m", [-0.5, 0.5])
    @pytest.mark.parametrize("c", [0.5, 4.0, 20.0])
    def test_half_orders_match_half_order_sqrt_kernel(self, m, c):
        # orders -1/2 and +1/2 are the interval's even and odd functions: the
        # oracle of acceptance 08, c sigma^2 of the half-order square-root
        # kernel on [0, 1], gives every kept branch; m stays as given, so
        # phi_space carries xi^0 or xi^1
        sol = fixed_order_solution(m, c)
        assert sol.m == m
        rule = map_rule(gauss_legendre(180), 0.0, 1.0)
        sw = np.sqrt(rule.weights)
        kmat = sqrt_kernel(m, c, rule.nodes[:, None], rule.nodes[None, :])
        sig = np.linalg.eigvalsh(sw[:, None] * kmat * sw[None, :])
        ref = c * np.sort(sig * sig)[::-1]
        lam = np.array([br.lam for br in sol.branches])
        assert lam[-1] > 1e-16 and ref[len(lam)] <= 1e-16
        np.testing.assert_allclose(lam, ref[:len(lam)], rtol=0, atol=1e-13)
        phi = phi_space(sol, 0, np.array([0.0, 1e-3]))
        assert (phi[0] != 0.0) if m < 0 else (phi[0] == 0.0 and phi[1] != 0.0)


    @pytest.mark.parametrize("m", [-0.5, 0.5])
    def test_half_orders_match_extended_precision(self, m):
        # the same recursion in 40 digits: inverse iteration on the
        # non-symmetric tridiagonal, shifted just off each float64 chi
        mp = pytest.importorskip("mpmath")
        c = 60.0
        sol = fixed_order_solution(m, c)
        with mp.workdps(40):
            m_, c_ = mp.mpf(m), mp.mpf(c)
            ls = [mp.mpf(l) for l in range(sol.l_max + 1)]
            diag = [(2 * l + m_ + 0.5) * (2 * l + m_ + 1.5)
                    + c_ ** 2 / 2 * (1 + m_ ** 2 / ((2 * l + m_) * (2 * l + m_ + 2))) for l in ls]
            sub = [-c_ ** 2 * (m_ + l + 1) ** 2 / ((2 * l + m_ + 1) * (2 * l + m_ + 2)) for l in ls]
            sup = [-c_ ** 2 * (l + 1) ** 2 / ((2 * l + m_ + 2) * (2 * l + m_ + 3)) for l in ls]
            for br in sol.branches:
                shift, d = br.chi + mp.mpf("1e-9"), [mp.mpf(1)] * len(ls)
                for _ in range(3):
                    # Thomas algorithm on (M - shift) y = d: sub below, sup above
                    piv, rhs = [diag[0] - shift], [d[0]]
                    for i in range(1, len(ls)):
                        f = sub[i - 1] / piv[-1]
                        piv.append(diag[i] - shift - f * sup[i - 1])
                        rhs.append(d[i] - f * rhs[-1])
                    d = [rhs[-1] / piv[-1]]
                    for i in range(len(ls) - 2, -1, -1):
                        d.insert(0, (rhs[i] - sup[i] * d[0]) / piv[i])
                gamma = c_ ** (m_ + 0.5) * d[0] / (2 ** (m_ + 1) * mp.gamma(m_ + 2) * mp.fsum(d))
                assert abs(br.lam - float(c_ * gamma ** 2)) <= 1e-13

class TestClosedFormNorm:
    @pytest.mark.parametrize("n2d", (0.5, 42.0, 800.0))
    def test_norm_matches_quadrature(self, n2d):
        # norm_sq from Jacobi orthogonality against a Gauss sum of phi^2
        rule = map_rule(gauss_legendre(800), 0.0, 1.0)
        checked = 0
        for m in (0, 5, 60):
            sol = fixed_order_solution(m, 2.0 * np.sqrt(n2d))
            for j, br in enumerate(sol.branches):
                phi = phi_space(sol, j, rule.nodes)
                assert br.norm_sq == pytest.approx(np.sum(rule.weights * phi * phi),
                                                   rel=1e-12, abs=0), (m, j)
                checked += 1
        assert checked > 0

    def test_solve_path_runs_no_kernel_quadrature(self, monkeypatch):
        # assemble_disk_basis never evaluates the radial kernel or runs a
        # Nystrom solve, through whichever module attribute it might reach them
        calls = []
        for target in (kernels.fixedm_kernel, fredholm.nystrom_eigs):
            def spy(*args, _name=target.__name__, **kwargs):
                calls.append(_name)
            for name, mod in list(sys.modules.items()):
                if name == "slepkit" or name.startswith("slepkit."):
                    for attr, obj in list(vars(mod).items()):
                        if obj is target:
                            monkeypatch.setattr(mod, attr, spy)
        basis = assemble_disk_basis(2.0 * np.sqrt(42.0), 1.0, 30)
        evaluate_disk_entry(basis, 0, np.array([[0.3, 0.2], [1.5, 0.0]]))
        assert calls == []


class TestSumRules:
    def test_per_order_eigenvalue_sum(self):
        # sum of all resolvable eigenvalues at fixed m equals the
        # per-order partial Shannon number
        n2d = 10.0
        c = 2 * np.sqrt(n2d)
        for m in (0, 1, 3):
            sol = fixed_order_solution(m, c)
            total = sum(br.lam for br in sol.branches)
            assert total == pytest.approx(n2d_m(m, n2d), abs=1e-4)

    def test_doublet_sum_is_shannon(self):
        # m = 0 once plus cos/sin doublets recover the full Shannon number
        n2d = 10.0
        total = n2d_m(0, n2d) + 2 * sum(n2d_m(m, n2d) for m in range(1, 80))
        assert total == pytest.approx(n2d, abs=1e-8)

    def test_assembly_checks_each_order(self):
        # the coefficient solve loses accuracy with N: every order's sum holds
        # to 2e-10 at N = 400 and misses by 5e-4 at N = 1000
        basis = assemble_disk_basis(2.0 * np.sqrt(400.0), 1.0, 10)
        for m, sol in basis.solutions.items():
            total = sum(br.lam for br in sol.branches)
            assert abs(total - n2d_m(m, basis.n2d)) <= diskanalytic.SUM_RULE_TOL
        with pytest.raises(NumericalError, match=r"per-order Shannon number .* N = 1000"):
            assemble_disk_basis(2.0 * np.sqrt(1000.0), 1.0, 10)

    def test_top_eigenvalue_past_one_warns(self):
        # lambda_0 - 1 grows with N: +2.4e-13 at N = 400 passes, +1.4e-12 at
        # N = 500 is past the 1e-12 that solve_region_disk allows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            basis = assemble_disk_basis(2.0 * np.sqrt(400.0), 1.0, 10)
        assert basis.eigenvalues[0] - 1.0 <= 1e-12
        with pytest.warns(RuntimeWarning, match="top eigenvalue exceeds 1 .* N = 500"):
            basis = assemble_disk_basis(2.0 * np.sqrt(500.0), 1.0, 10)
        assert basis.eigenvalues[0] - 1.0 > 1e-12

    def test_n2d_m_validation(self):
        assert n2d_m(5, 0.0) == 0.0
        with pytest.raises(ValueError):
            n2d_m(0, -1.0)
        with pytest.raises(ValueError):
            n2d_m(-2, 1.0)


class TestAssembledBasis:
    def test_scale_invariance(self):
        a = assemble_disk_basis(3.0, 1.0, 12)
        b = assemble_disk_basis(6.0, 0.5, 12)
        np.testing.assert_allclose(a.eigenvalues, b.eigenvalues, atol=1e-12)
        # whole-plane-unit functions shrink by R and grow by 1/R in amplitude
        pts = np.array([[0.3, 0.1], [0.0, 0.55], [-0.2, -0.4]])
        va = evaluate_disk_entry(a, 0, pts)
        vb = evaluate_disk_entry(b, 0, pts / 2.0)
        np.testing.assert_allclose(vb, 2.0 * va, rtol=1e-10)

    def test_eigenvalue_step(self, disk42_analytic):
        for n2d, basis in ((10.0, assemble_disk_basis(2 * np.sqrt(10.0), 1.0, 30)),
                           (42.0, disk42_analytic)):
            strong = int(np.sum(basis.eigenvalues >= 0.5))
            assert abs(strong - n2d) <= 3

    def test_ordering_and_doublets(self):
        basis = assemble_disk_basis(2 * np.sqrt(10.0), 1.0, 20)
        lam = basis.eigenvalues
        assert np.all(np.diff(lam) <= 1e-15)
        # every m > 0 entry appears as a cos/sin pair with equal lambda
        for e in basis.entries:
            if e.m > 0 and e.kind == "cos":
                partners = [f for f in basis.entries
                            if f.m == e.m and f.branch == e.branch
                            and f.kind == "sin"]
                if partners:
                    assert partners[0].lam == e.lam

    def test_max_order_cap(self):
        basis = assemble_disk_basis(4.0, 1.0, 6, max_order=0)
        assert all(e.m == 0 for e in basis.entries)
        with pytest.raises(ValueError):
            assemble_disk_basis(4.0, 1.0, 6, max_order=-1)

    def test_order_cap_warns(self, monkeypatch):
        # at c = 2 sqrt(10) orders up to m = 2 still hold eigenvalues near 1
        monkeypatch.setattr(diskanalytic, "MAX_ORDER", 2)
        k = 2.0 * np.sqrt(10.0)
        with pytest.warns(RuntimeWarning, match=r"m=2 without meeting"):
            basis = assemble_disk_basis(k, 1.0, 3)
        assert max(basis.solutions) == 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assemble_disk_basis(k, 1.0, 3, max_order=2)

    def test_validation(self):
        with pytest.raises(ValueError):
            assemble_disk_basis(-1.0, 1.0, 4)
        with pytest.raises(ValueError):
            assemble_disk_basis(2.0, 1.0, 0)

    @pytest.mark.parametrize("k, r", [(np.nan, 1.0), (np.inf, 1.0), (2.0, np.nan),
                                      (2.0, np.inf)])
    def test_rejects_non_finite_sizes(self, k, r):
        with pytest.raises(ValueError, match="must be positive and finite"):
            assemble_disk_basis(k, r, 4)


class TestEvaluation:
    def test_center_is_finite(self):
        basis = assemble_disk_basis(4.0, 1.0, 8)
        pts = np.array([[0.0, 0.0], [1e-300, 0.0]])
        for i in range(8):
            v = evaluate_disk_entry(basis, i, pts)
            assert np.all(np.isfinite(v))

    def test_in_disk_energy_equals_lambda(self, unit_disk):
        # whole-plane-unit normalization puts exactly lambda of the energy
        # inside the disk
        basis = assemble_disk_basis(2 * np.sqrt(10.0), 1.0, 10)
        rule = region_quadrature(unit_disk, 48)
        for i in (0, 3, 7):
            v = evaluate_disk_entry(basis, i, rule.nodes)
            inside = np.sum(rule.weights * v * v)
            assert inside == pytest.approx(basis.eigenvalues[i], abs=2e-4)

    def test_whole_plane_energy_is_one(self):
        # radial quadrature out to several radii captures ~all the energy
        basis = assemble_disk_basis(2 * np.sqrt(10.0), 1.0, 4)
        entry = basis.entries[0]
        rule = map_rule(gauss_legendre(600), 0.0, 12.0)
        theta = np.linspace(0, 2 * np.pi, 181)[:-1]
        dth = theta[1] - theta[0]
        pts = np.stack([rule.nodes[:, None] * np.cos(theta)[None, :],
                        rule.nodes[:, None] * np.sin(theta)[None, :]], axis=-1)
        v = evaluate_disk_entry(basis, 0, pts.reshape(-1, 2)).reshape(len(rule.nodes), -1)
        energy = np.sum(rule.weights[:, None] * rule.nodes[:, None] * v * v) * dth
        assert energy == pytest.approx(1.0, abs=2e-3)

    def test_radial_profile_gathers_distinct_radii(self):
        # each distinct radius is evaluated once; the gathered values match a
        # point-by-point evaluation, inside the disk, outside it and at 0, to
        # 1e-15 of the profile's peak (the Bessel series sums its terms in a
        # BLAS order that depends on how many radii go in at once)
        basis = assemble_disk_basis(2 * np.sqrt(10.0), 1.0, 6)
        rng = np.random.default_rng(4)
        r = rng.choice(np.concatenate([[0.0, 1.0], rng.uniform(0.0, 3.0, 30)]), (4, 15))
        for i in range(len(basis.entries)):
            got = diskanalytic._radial_profile(basis, i, r)
            want = np.array([diskanalytic._radial_profile(basis, i, np.array([v]))[0]
                             for v in r.ravel()]).reshape(r.shape)
            assert got.shape == r.shape
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-15 * np.max(np.abs(want)))
        assert np.ndim(diskanalytic._radial_profile(basis, 0, 0.5)) == 0

    def test_angular_parity(self):
        basis = assemble_disk_basis(2 * np.sqrt(10.0), 1.0, 12)
        idx = next(i for i, e in enumerate(basis.entries)
                   if e.m == 1 and e.kind == "sin")
        pts = np.array([[0.4, 0.3], [0.4, -0.3]])
        v = evaluate_disk_entry(basis, idx, pts)
        assert v[0] == pytest.approx(-v[1], rel=1e-12)
