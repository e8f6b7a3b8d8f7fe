"""Interval concentration and discrete tapers: oracles and invariants."""

import warnings
from functools import partial

import numpy as np
import pytest
import scipy.linalg

from slepkit import fredholm, pswf1d
from slepkit import (
    Basis1D, DpssSet, dpss, evaluate_1d, gauss_legendre, nystrom_eigs, nystrom_extend,
    shannon_1d, sinc_kernel, sinc_matrix, solve_1d,
)


class TestShannonNumber:
    def test_formula(self):
        assert shannon_1d(1.0, np.pi) == pytest.approx(2.0)
        assert shannon_1d(2.0, np.pi / 2) == pytest.approx(2.0)
        assert shannon_1d(1.0, np.pi / 2) == pytest.approx(1.0)

    def test_matches_trace(self):
        basis = solve_1d(3.0, n_nodes=96, count=8)
        assert basis.shannon == pytest.approx(2 * 3.0 / np.pi, rel=1e-14)
        assert basis.trace == pytest.approx(basis.shannon, rel=1e-12)


class TestIntervalBasis:
    @pytest.mark.parametrize("tw", [np.nan, np.inf])
    def test_rejects_non_finite_tw(self, tw):
        with pytest.raises(ValueError, match="must be positive and finite"):
            solve_1d(tw)

    def test_eigenvalue_ladder(self):
        basis = solve_1d(4.0, n_nodes=128, count=10)
        lam = basis.eigenvalues
        assert np.all(np.diff(lam) < 0)
        assert lam[0] < 1.0
        # for TW = 4 the Shannon number is ~2.55: two strong, then decay
        assert lam[0] > 0.99
        assert lam[1] > 0.9
        assert lam[6] < 1e-4

    def test_parity_alternation(self):
        # eigenfunctions alternate even/odd on the symmetric interval
        basis = solve_1d(4.0, n_nodes=128, count=6)
        order = np.argsort(basis.nodes)
        for i, f in enumerate(basis.node_samples[:6]):
            fs = f[order]
            sym = fs[::-1] if i % 2 == 0 else -fs[::-1]
            np.testing.assert_allclose(fs, sym, atol=1e-9)

    def test_samples_carry_sqrt_lambda_norm(self):
        basis = solve_1d(3.0, n_nodes=96, count=5)
        gram = basis.node_samples @ (basis.weights[:, None] * basis.node_samples.T)
        np.testing.assert_allclose(gram, np.diag(basis.eigenvalues), atol=1e-10)

    def test_refinement(self):
        a = solve_1d(3.0, n_nodes=96, count=4).eigenvalues
        b = solve_1d(3.0, n_nodes=192, count=4).eigenvalues
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_coarse_rule_still_resolves(self):
        # 128 nodes under-resolve the sinc kernel at TW = 200, but they only
        # place the samples: lambda comes from the coefficient problem.  A
        # dense solve on 600 nodes is the oracle; at this TW its own rounding
        # moves eigenvalues near 0.5 by up to 7e-13 from one rule to the next
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            basis = solve_1d(200, n_nodes=128)
        ref = nystrom_eigs(partial(sinc_kernel, 200.0), gauss_legendre(600),
                           len(basis.eigenvalues))
        np.testing.assert_allclose(basis.eigenvalues, ref.eigenvalues, rtol=0, atol=1e-12)
        assert basis.trace == pytest.approx(basis.shannon, rel=1e-12)

    @pytest.mark.parametrize("tw, n_nodes", [(200, 230), (4.0, 128)])
    def test_resolved_rule_is_quiet(self, tw, n_nodes):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            basis = solve_1d(tw, n_nodes=n_nodes)
        assert basis.eigenvalues[0] <= 1.0 + 4e-14

    @pytest.mark.parametrize("n_nodes", [48, 128])
    @pytest.mark.parametrize("tw", [1.0, 3.0, 20.0, 120.0, 200.0])
    def test_lambda_matches_resolved_dense_solve(self, tw, n_nodes):
        # the oracle is the dense Nystrom solve on ceil(2 TW) + 200 nodes,
        # which n_nodes does not enter; at TW >= 60 the oracle's own rounding
        # reaches 6e-13 near lambda = 0.5 (test_diskanalytic checks the
        # coefficient route to 1e-13 against an extended-precision solve)
        basis = solve_1d(tw, n_nodes=n_nodes)
        ref = nystrom_eigs(partial(sinc_kernel, tw), gauss_legendre(int(np.ceil(2 * tw)) + 200),
                           len(basis.eigenvalues))
        np.testing.assert_allclose(basis.eigenvalues, ref.eigenvalues, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("tw", [3.0, 20.0, 120.0])
    def test_rows_exactly_even_or_odd(self, tw):
        # each row samples one parity's Jacobi series at |x|; eigenvalues
        # within rounding of 1 may come in either parity order
        basis = solve_1d(tw, n_nodes=128)
        order = np.argsort(basis.nodes)
        even = [np.array_equal(f[order], f[order][::-1]) for f in basis.node_samples]
        odd = [np.array_equal(f[order], -f[order][::-1]) for f in basis.node_samples]
        assert all(e != o for e, o in zip(even, odd))
        assert abs(sum(even) - sum(odd)) <= 1

    @pytest.mark.parametrize("tw", [3.0, 4.5, 6.0])
    def test_matches_dense_solve_on_its_rule(self, tw):
        # where 128 nodes resolve the kernel, the dense Nystrom solve on the
        # same nodes gives the same eigenvalues, and the same samples up to
        # each row's sign (the dense solve signs rows at the centroid node)
        basis = solve_1d(tw, n_nodes=128, count=6)
        ref = nystrom_eigs(partial(sinc_kernel, tw), gauss_legendre(128), 6)
        np.testing.assert_allclose(basis.eigenvalues, ref.eigenvalues, rtol=0, atol=1e-12)
        want = fredholm.eigennormalized_samples(ref)
        want *= np.sign(np.sum(basis.node_samples * want, axis=1))[:, None]
        np.testing.assert_allclose(basis.node_samples, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("tw", [20.0, 60.0, 200.0])
    def test_evaluate_1d_extends_through_the_sinc_kernel(self, tw):
        # oracle: the dense solve on ceil(2 TW) + 300 nodes, extended through
        # the sinc kernel; rows with 1e-4 < lambda < 0.999 only, where the
        # oracle's near-degenerate pairs do not mix
        basis = solve_1d(tw, n_nodes=128)
        lam = basis.eigenvalues
        band = np.flatnonzero((lam > 1e-4) & (lam < 0.999))
        ref = nystrom_eigs(partial(sinc_kernel, tw),
                           gauss_legendre(int(np.ceil(2 * tw)) + 300), band[-1] + 1)
        x = np.linspace(-3.0, 3.0, 61)
        for i in band:
            got = evaluate_1d(basis, i, x)
            want = np.sqrt(ref.eigenvalues[i]) * nystrom_extend(ref, i, x)
            np.testing.assert_allclose(got, np.sign(got @ want) * want, rtol=0, atol=1e-11)

    @pytest.mark.parametrize("tw", [3.0, 20.0, 200.0])
    def test_rows_do_not_depend_on_n_nodes(self, tw):
        # the nodes only place the samples: every rule gives the same
        # functions, even rows positive at 0 and odd rows just right of it,
        # and the samples are evaluate_1d at the nodes bit for bit
        x = np.linspace(-1.5, 1.5, 13)
        count = len(solve_1d(tw, n_nodes=48).eigenvalues)
        first = None
        for n_nodes in (48, 49, 128, 129, 256):
            basis = solve_1d(tw, n_nodes=n_nodes, count=count)
            vals = np.array([evaluate_1d(basis, i, x) for i in range(count)])
            first = vals if first is None else first
            np.testing.assert_array_equal(vals, first)
            for i, (sol, _) in enumerate(basis.entries):
                assert evaluate_1d(basis, i, 0.0 if sol.m < 0 else 1e-3) > 0
                np.testing.assert_array_equal(evaluate_1d(basis, i, basis.nodes),
                                              basis.node_samples[i])

    @pytest.mark.parametrize("tw", [60.0, 120.0, 200.0])
    def test_ties_go_even_first_then_by_branch(self, tw):
        # eigenvalues within rounding of 1 tie exactly here; the rows then
        # run by (-lambda, order, branch), as the disk route ranks entries
        basis = solve_1d(tw)
        keys = [(-lam, sol.m, j) for lam, (sol, j) in zip(basis.eigenvalues, basis.entries)]
        assert np.any(np.diff(basis.eigenvalues) == 0)
        assert keys == sorted(keys)

    @pytest.mark.parametrize("tw", [0.5, 1.0, 3.0, 20.0, 60.0, 120.0, 200.0])
    def test_trace_sums_every_branch(self, tw):
        basis = solve_1d(tw, n_nodes=48, count=1)
        assert basis.trace == pytest.approx(2.0 * tw / np.pi, rel=1e-14, abs=0)

    def test_count_past_the_kept_branches_raises(self):
        # TW = 0.5 has 6 branches with lambda > 1e-16 over both parities
        assert len(solve_1d(0.5).eigenvalues) == 6
        with pytest.raises(ValueError, match="has 6 branches"):
            solve_1d(0.5, count=8)
        with pytest.raises(ValueError, match=r"\[1, 48\]"):
            solve_1d(200.0, n_nodes=48, count=49)
        with pytest.raises(ValueError):
            solve_1d(3.0, count=0)
        for count in (2.5, True):
            with pytest.raises(ValueError, match="must be an integer"):
                solve_1d(3.0, count=count)
        assert len(solve_1d(3.0, count=np.float64(2.0)).eigenvalues) == 2

    def test_type(self):
        basis = solve_1d(2.0, count=3)
        assert isinstance(basis, Basis1D)
        assert basis.tw == 2.0


class TestSincMatrix:
    def test_diagonal_and_symmetry(self):
        m = sinc_matrix(16, 0.1)
        np.testing.assert_allclose(np.diag(m), 0.2, atol=1e-15)
        np.testing.assert_allclose(m, m.T, atol=0)

    def test_entries(self):
        m = sinc_matrix(8, 0.15)
        n_, m_ = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
        d = n_ - m_
        with np.errstate(invalid="ignore", divide="ignore"):
            want = np.where(d == 0, 0.3, np.sin(2 * np.pi * 0.15 * d) / (np.pi * d))
        np.testing.assert_allclose(m, want, atol=1e-15)


class TestDpss:
    def test_two_point_analytic(self):
        # N = 2: matrix [[2W, s], [s, 2W]] with s = sin(2 pi W) / pi.
        # Eigenvalues 2W +/- s, eigenvectors (1, 1)/sqrt2 and (1, -1)/sqrt2.
        w = 0.2
        out = dpss(2, w, 2)
        s = np.sin(2 * np.pi * w) / np.pi
        np.testing.assert_allclose(out.eigenvalues, [2 * w + s, 2 * w - s],
                                   atol=1e-14)
        np.testing.assert_allclose(np.abs(out.sequences),
                                   np.full((2, 2), 1 / np.sqrt(2)), atol=1e-14)

    def test_concentration_matches_dense_quadratic_form(self):
        n, w = 24, 0.12
        out = dpss(n, w, 5)
        m = sinc_matrix(n, w)
        for lam, v in zip(out.eigenvalues, out.sequences):
            assert v @ m @ v == pytest.approx(lam, abs=1e-10)

    def test_against_dense_eigh_oracle(self):
        # the tridiagonal commuting route must agree with brute-force eigh
        # of the dense concentration matrix
        n, w = 32, 0.08
        out = dpss(n, w, 4)
        dense_lam = np.linalg.eigvalsh(sinc_matrix(n, w))[::-1][:4]
        np.testing.assert_allclose(out.eigenvalues, dense_lam, atol=1e-10)

    def test_orthonormal_and_sign(self):
        n, w = 40, 0.1
        out = dpss(n, w, 6)
        gram = out.sequences @ out.sequences.T
        np.testing.assert_allclose(gram, np.eye(6), atol=1e-12)
        # first taper positive everywhere, each taper positive mean-slope start
        assert np.all(out.sequences[0] > 0)

    def test_chi_descends_with_eigenvalues(self):
        out = dpss(32, 0.1, 8)
        assert isinstance(out, DpssSet)
        assert np.all(np.diff(out.chi) < 0)
        assert np.all(np.diff(out.eigenvalues) < 0)

    def test_eigenvalue_step(self):
        # roughly 2NW eigenvalues near one
        n, w = 64, 0.1
        k = int(round(2 * n * w))
        out = dpss(n, w, k + 4)
        assert out.eigenvalues[k - 3] > 0.95
        assert out.eigenvalues[k + 2] < 0.1

    @pytest.mark.parametrize("n", [2, 3, 64, 577, 1024])
    def test_matches_full_tridiagonal_solve(self, n):
        # oracle: every eigenpair of the commuting tridiagonal, the top ones
        # kept and signed by the same rule
        w = 0.2 if n < 64 else 0.02
        x = np.arange(n)
        diag = ((n - 1.0 - 2.0 * x) / 2.0) ** 2 * np.cos(2.0 * np.pi * w)
        off = (x[:-1] + 1.0) * (n - 1.0 - x[:-1]) / 2.0
        chi_all, vecs = scipy.linalg.eigh_tridiagonal(diag, off)
        seqs_all = vecs[:, ::-1].T
        for row in seqs_all:
            anchor = row[(n - 1) // 2]
            if abs(anchor) <= 1e-12:
                anchor = row[np.nonzero(np.abs(row) > 1e-8)[0][0]]
            row *= np.sign(anchor)
        conc = sinc_matrix(n, w)
        for count in sorted({1, min(6, n), n}):
            out = dpss(n, w, count)
            chi = chi_all[::-1][:count]
            assert np.max(np.abs(out.chi - chi)) <= 1e-14 * np.max(np.abs(chi))
            assert np.max(np.abs(out.sequences - seqs_all[:count])) <= 1e-10
            dense = np.sum((out.sequences @ conc) * out.sequences, axis=1)
            assert np.max(np.abs(out.eigenvalues - dense)) <= 1e-13

    @pytest.mark.parametrize("count,subset", [(1, True), (25, True), (26, False), (256, False)])
    def test_subset_below_the_crossover_only(self, monkeypatch, count, subset):
        # the rule of fredholm._eigh: the top pairs alone while
        # count < SUBSET_FRACTION n (25.6 at n = 256), else the full solve
        selects = []
        solve = scipy.linalg.eigh_tridiagonal

        def spy(*args, **kwargs):
            selects.append(kwargs.get("select", "a"))
            return solve(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", spy)
        out = dpss(256, 0.02, count)
        assert selects == ["i" if subset else "a"] and len(out.chi) == count

    def test_builds_no_sinc_matrix(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sinc_matrix built")

        monkeypatch.setattr(pswf1d, "sinc_matrix", refuse)
        out = dpss(300, 0.02, 6)
        assert np.all(out.eigenvalues > 0.99)

    def test_validation(self):
        with pytest.raises(ValueError):
            dpss(0, 0.1, 1)
        with pytest.raises(ValueError):
            dpss(16, 0.6, 2)
        with pytest.raises(ValueError):
            dpss(16, 0.1, 17)
        # counts are not truncated or taken from booleans
        for count in (2.5, True, np.True_, np.nan):
            with pytest.raises(ValueError, match="must be an integer"):
                dpss(64, 0.1, count)
        assert len(dpss(64, 0.1, 3.0).eigenvalues) == len(dpss(64, 0.1, np.int64(3)).chi) == 3
