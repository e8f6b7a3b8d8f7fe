"""Command-line interface: report format, argument handling, exit codes."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import slepkit
from slepkit import assemble_disk_basis, cli, evaluate_disk_entry
from slepkit.cli import (
    RunReport, parse_report, read_report, render_report, write_report,
)


def run_cli(argv):
    return cli.main(argv)


@pytest.fixture()
def square_boundary(tmp_path):
    # square of side 2 sqrt(pi) centered at the origin: area 4 pi
    s = float(np.sqrt(np.pi))
    path = tmp_path / "square.xy"
    path.write_text("# square, area 4 pi\n" + "".join(
        f"{x!r},{y!r}\n" for x, y in [(-s, -s), (s, -s), (s, s), (-s, s)]))
    return str(path)


class TestReportFormat:
    def test_round_trip(self):
        r = RunReport(command="disk",
                      parameters={"bandwidth": 2.5, "count": 4, "tag": "x1"},
                      scalars={"shannon": 1.5625, "cells": 12},
                      eigenvalues=[0.9, 0.1, 0.012345678901234567],
                      eigen_meta=[{"m": 0, "kind": "cos"}, {"m": 1},
                                  {"m": 2}])
        back = parse_report(render_report(r))
        assert back == r

    def test_header_and_layout(self):
        text = render_report(RunReport(command="pswf1d",
                                       scalars={"shannon": 2.0},
                                       eigenvalues=[0.5]))
        lines = text.splitlines()
        assert lines[0] == "slepkit-report 1"
        assert lines[1] == "command = pswf1d"
        assert "scalar.shannon = 2.0" in lines
        assert "eigenvalues = [0.5]" in lines

    def test_file_round_trip(self, tmp_path):
        r = RunReport(command="grid", scalars={"nx": 8},
                      eigenvalues=[1.0, 0.25])
        path = tmp_path / "report.txt"
        write_report(r, path)
        assert read_report(path) == r

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_report("not a report\n")
        with pytest.raises(ValueError):
            parse_report("slepkit-report 1\nmystery = 3\n")


class TestPswf1dCommand:
    def test_report_to_stdout(self, capsys):
        assert run_cli(["pswf1d", "--tw", "1.5707963267948966",
                        "--count", "4"]) == 0
        r = parse_report(capsys.readouterr().out)
        assert r.command == "pswf1d"
        assert r.scalars["shannon"] == pytest.approx(1.0, rel=1e-12)
        assert len(r.eigenvalues) == 4

    def test_node_count_insensitive(self, tmp_path):
        for nodes, sub in (("64", "a"), ("128", "b")):
            assert run_cli(["pswf1d", "--tw", "3.0", "--nodes", nodes,
                            "--count", "3", "--out",
                            str(tmp_path / sub)]) == 0
        ra = read_report(tmp_path / "a" / "report.txt")
        rb = read_report(tmp_path / "b" / "report.txt")
        assert abs(ra.eigenvalues[0] - rb.eigenvalues[0]) < 1e-10

    def test_sample_files(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli(["pswf1d", "--tw", "2.0", "--count", "3", "--out",
                        str(out)]) == 0
        files = sorted(p.name for p in out.iterdir())
        assert files == ["report.txt", "samples_000.txt", "samples_001.txt",
                         "samples_002.txt"]
        first = (out / "samples_000.txt").read_text().splitlines()
        assert first[0] == "# x value"
        assert len(first) == 1 + 128  # default node count

    def test_missing_tw_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["pswf1d"])
        assert exc.value.code == 2


class TestDiskCommand:
    def test_conflicting_flags(self, capsys):
        assert run_cli(["disk", "--shannon", "3", "--bandwidth", "2"]) == 2
        assert "conflicts" in capsys.readouterr().err
        assert run_cli(["disk", "--bandwidth", "2"]) == 2  # radius missing

    def test_shannon_parameterization(self, capsys):
        assert run_cli(["disk", "--shannon", "3", "--count", "12"]) == 0
        r = parse_report(capsys.readouterr().out)
        assert r.scalars["shannon"] == pytest.approx(3.0, rel=1e-12)
        strong = sum(1 for v in r.eigenvalues if v >= 0.5)
        assert abs(strong - 3) <= 1

    def test_bandwidth_radius_equivalent(self, capsys):
        assert run_cli(["disk", "--shannon", "10", "--count", "8"]) == 0
        ra = parse_report(capsys.readouterr().out)
        k = repr(float(2.0 * np.sqrt(10.0)))
        assert run_cli(["disk", "--bandwidth", k, "--radius", "1.0",
                        "--count", "8"]) == 0
        rb = parse_report(capsys.readouterr().out)
        np.testing.assert_allclose(ra.eigenvalues, rb.eigenvalues, atol=1e-10)

    def test_lost_accuracy_is_a_numerical_failure(self, capsys):
        # from about N = 580 the coefficient solve misses the per-order sum rule
        assert run_cli(["disk", "--shannon", "6000", "--count", "10"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("slepkit: numerical failure: order m=")
        assert "Traceback" not in err

    def test_eigen_meta_and_profiles(self, tmp_path):
        out = tmp_path / "disk"
        assert run_cli(["disk", "--shannon", "3", "--count", "5", "--out",
                        str(out)]) == 0
        r = read_report(out / "report.txt")
        assert r.eigen_meta[0]["m"] == 0
        assert r.eigen_meta[0]["kind"] == "cos"
        assert set(r.eigen_meta[1]) == {"m", "kind", "branch", "lambda",
                                        "chi", "gamma"}
        prof = np.loadtxt(out / "radial_000.txt")
        assert prof.shape == (201, 2)
        assert prof[0, 1] != 0.0  # m = 0 profile is finite at the center
        # the doublet partners share one radial profile
        p1 = np.loadtxt(out / "radial_001.txt")
        p2 = np.loadtxt(out / "radial_002.txt")
        np.testing.assert_allclose(p1, p2, atol=0)
        # the m = 0 profile is the basis function itself along the x-axis
        basis = assemble_disk_basis(2.0 * np.sqrt(3.0), 1.0, 5)
        on_axis = np.column_stack([prof[:, 0], np.zeros(201)])
        np.testing.assert_array_equal(prof[:, 1], evaluate_disk_entry(basis, 0, on_axis))

    def test_each_radial_profile_evaluated_once(self, tmp_path, monkeypatch):
        # the cos and sin entries of one (m, branch) share a profile: it is
        # evaluated once, and every file holds the bytes the per-entry
        # evaluation wrote
        calls = []
        profile = cli._radial_profile

        def spy(basis, index, r):
            calls.append(index)
            return profile(basis, index, r)

        monkeypatch.setattr(cli, "_radial_profile", spy)
        out = tmp_path / "disk"
        assert run_cli(["disk", "--shannon", "6", "--count", "9", "--out", str(out)]) == 0
        basis = assemble_disk_basis(2.0 * np.sqrt(6.0), 1.0, 9)
        keys = [(e.m, e.branch) for e in basis.entries]
        assert len(calls) == len(set(keys)) < len(keys)
        r = np.linspace(0.0, 2.0, 201)
        for i in range(len(keys)):
            want = "# r value\n" + "".join(
                f"{float(a)!r} {float(b)!r}\n" for a, b in zip(r, profile(basis, i, r)))
            assert (out / f"radial_{i:03d}.txt").read_bytes() == want.encode()


@pytest.mark.parametrize("argv, flag", [
    (["pswf1d", "--tw", "nan"], "--tw"),
    (["pswf1d", "--tw", "inf"], "--tw"),
    (["disk", "--shannon", "nan"], "--shannon"),
    (["disk", "--shannon", "inf"], "--shannon"),
    (["disk", "--bandwidth", "inf", "--radius", "1"], "--bandwidth"),
    (["disk", "--bandwidth", "2", "--radius", "nan"], "--radius"),
    (["region", "--bandwidth", "nan"], "--bandwidth"),
    (["region", "--bandwidth", "inf"], "--bandwidth"),
    (["region", "--bandwidth", "2", "--grid", "nan", "--out", "OUT"], "--grid spacing"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_non_finite_values_are_usage_errors(argv, flag, square_boundary, tmp_path, capsys):
    if argv[0] == "region":
        argv = argv[:1] + ["--boundary", square_boundary] + argv[1:]
    argv = [str(tmp_path / "out") if a == "OUT" else a for a in argv]
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"{flag} must be positive and finite" in captured.err
    assert not (tmp_path / "out").exists()


class TestWriteColumns:
    def test_bytes_match_per_value_repr(self, tmp_path):
        # oracle: the former per-row formatter over numpy scalars
        rng = np.random.default_rng(8)
        a = rng.standard_normal(40) * 10.0 ** rng.integers(-300, 300, 40)
        a[:8] = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -1e-310, 1.0]
        columns = [np.linspace(-1.0, 1.0, 40), a, list(range(40)),
                   rng.standard_normal(40).astype(np.float32)]
        path = tmp_path / "c.txt"
        cli._write_columns(path, "x value n single", columns)
        cols = [np.asarray(c, dtype=float) for c in columns]
        want = "# x value n single\n" + "".join(
            " ".join(repr(float(v)) for v in row) + "\n" for row in zip(*cols))
        assert path.read_bytes() == want.encode()


class TestRegionCommand:
    def test_plateau_shannon(self, capsys):
        from conftest import boundary_path
        assert run_cli(["region", "--boundary", boundary_path(),
                        "--bandwidth", "0.0194", "--nquad", "16",
                        "--count", "4"]) == 0
        r = parse_report(capsys.readouterr().out)
        assert r.scalars["shannon"] == pytest.approx(10.0, abs=0.1)
        assert r.scalars["trace_rel_err"] < 1e-3

    def test_square_shannon(self, square_boundary, capsys):
        assert run_cli(["region", "--boundary", square_boundary,
                        "--bandwidth", "2.0", "--nquad", "12",
                        "--count", "4"]) == 0
        r = parse_report(capsys.readouterr().out)
        assert r.scalars["shannon"] == pytest.approx(4.0, rel=1e-6)
        assert r.scalars["area"] == pytest.approx(4 * np.pi, rel=1e-12)

    def test_grid_outputs(self, square_boundary, tmp_path):
        out = tmp_path / "reg"
        assert run_cli(["region", "--boundary", square_boundary,
                        "--bandwidth", "2.0", "--nquad", "8", "--count", "2",
                        "--grid", "0.9", "--out", str(out)]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert "g_000.bin" in names and "h_001.bin" in names
        assert "pgram_000.bin" in names and "sumsq.bin" in names
        assert "g_000.bin.hdr" in names
        from slepkit import read_grid
        h, _ = read_grid(out / "h_000.bin")
        g, _ = read_grid(out / "g_000.bin")
        s = np.sqrt(np.pi)
        pts = h.grid.points()
        outside = ((np.abs(pts[:, 0]) > s) | (np.abs(pts[:, 1]) > s))
        assert np.all(h.values.ravel()[outside] == 0.0)
        assert np.any(g.values.ravel()[outside] != 0.0)

    def test_grid_exports_repeat_and_h_is_masked_g(self, square_boundary, tmp_path):
        from slepkit import periodogram, read_grid, read_region, region_mask
        blobs = []
        for sub in ("r1", "r2"):
            out = tmp_path / sub
            assert run_cli(["region", "--boundary", square_boundary,
                            "--bandwidth", "2.5", "--nquad", "12", "--count", "3",
                            "--grid", "0.4", "--out", str(out)]) == 0
            blobs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert blobs[0] == blobs[1]
        out = tmp_path / "r1"
        g, _ = read_grid(out / "g_000.bin")
        inside = region_mask(read_region(square_boundary), g.grid)
        for i in range(3):
            g, _ = read_grid(out / f"g_{i:03d}.bin")
            h, _ = read_grid(out / f"h_{i:03d}.bin")
            np.testing.assert_array_equal(h.values, np.where(inside, g.values, 0.0))
            if i == 0:
                pg, _ = read_grid(out / "pgram_000.bin")
                np.testing.assert_array_equal(pg.values, periodogram(h).values)

    def test_grid_export_extends_in_one_pass(self, square_boundary, tmp_path, monkeypatch):
        from slepkit import NystromSolution, read_grid
        sizes = []
        apply = NystromSolution.kernel_apply

        def counting(self, rows, x):
            sizes.append(np.size(x) // 2)
            return apply(self, rows, x)

        monkeypatch.setattr(NystromSolution, "kernel_apply", counting)
        out = tmp_path / "reg"
        assert run_cli(["region", "--boundary", square_boundary,
                        "--bandwidth", "2.5", "--nquad", "12", "--count", "3",
                        "--grid", "0.4", "--out", str(out)]) == 0
        grid = read_grid(out / "g_000.bin")[0].grid
        assert sizes.count(grid.nx * grid.ny) == 1

    @pytest.mark.parametrize("grid, with_out, message", [
        ("-5", False, "--grid needs --out"), ("5", False, "--grid needs --out"),
        ("-5", True, "--grid spacing must be positive")])
    def test_bad_grid_is_a_usage_error_before_the_solve(self, grid, with_out, message,
                                                         tmp_path, capsys, monkeypatch):
        # rejected before the solve, so no report is printed or written
        from conftest import boundary_path

        def refuse(*args, **kwargs):
            raise AssertionError("solve_region_disk ran")

        monkeypatch.setattr(cli, "solve_region_disk", refuse)
        out = tmp_path / "reg"
        assert run_cli(["region", "--boundary", boundary_path(), "--bandwidth", "0.0194",
                        "--nquad", "16", "--count", "3", "--grid", grid]
                       + (["--out", str(out)] if with_out else [])) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err
        assert not out.exists()

    def test_malformed_boundary(self, tmp_path, capsys):
        bad = tmp_path / "bad.xy"
        bad.write_text("0.0,0.0\n1.0,0.0\nnope\n")
        assert run_cli(["region", "--boundary", str(bad),
                        "--bandwidth", "1.0"]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert run_cli(["region", "--boundary", str(tmp_path / "none.xy"),
                        "--bandwidth", "1.0"]) == 2


class TestGridCommand:
    def test_wedge_run(self, square_boundary, tmp_path):
        out = tmp_path / "wedge"
        assert run_cli(["grid", "--boundary", square_boundary,
                        "--spectral", "wedge", "0.5236", "0.3", "4.0",
                        "--spacing", "0.35", "--count", "3",
                        "--out", str(out)]) == 0
        r = read_report(out / "report.txt")
        assert r.scalars["spectral_cells"] > 0
        assert r.scalars["shannon"] == pytest.approx(
            r.scalars["spatial_cells"] * r.scalars["spectral_cells"]
            / (r.scalars["nx"] * r.scalars["ny"]), rel=1e-12)
        assert all(m["residual"] <= 1e-8 for m in r.eigen_meta)
        names = sorted(p.name for p in out.iterdir())
        assert "field_000.bin" in names and "pgramsum.bin" in names

    def test_deterministic_bytes(self, square_boundary, tmp_path):
        blobs = []
        for sub in ("r1", "r2"):
            out = tmp_path / sub
            assert run_cli(["grid", "--boundary", square_boundary,
                            "--spectral", "disk", "2.0",
                            "--spacing", "0.35", "--count", "3",
                            "--seed", "7", "--out", str(out)]) == 0
            blobs.append(((out / "report.txt").read_bytes(),
                          (out / "field_000.bin").read_bytes()))
        assert blobs[0] == blobs[1]

    def test_matches_region_command(self, tmp_path, capsys):
        # one near-circular region, two independent solvers
        theta = np.linspace(0, 2 * np.pi, 65)[:-1]
        path = tmp_path / "circle.xy"
        path.write_text("".join(f"{float(np.cos(t))!r},{float(np.sin(t))!r}\n"
                                for t in theta))
        assert run_cli(["region", "--boundary", str(path),
                        "--bandwidth", "4.0", "--nquad", "16",
                        "--count", "3"]) == 0
        ra = parse_report(capsys.readouterr().out)
        assert run_cli(["grid", "--boundary", str(path),
                        "--spectral", "disk", "4.0",
                        "--spacing", "0.1", "--count", "3"]) == 0
        rb = parse_report(capsys.readouterr().out)
        # the discrete operator resolves the leading eigenvalue well; deeper
        # ones inherit the coarse wavenumber rasterization of this small grid
        assert rb.eigenvalues[0] == pytest.approx(ra.eigenvalues[0], abs=0.01)
        np.testing.assert_allclose(rb.eigenvalues, ra.eigenvalues, atol=0.05)

    @pytest.mark.parametrize("flag, value, message", [
        ("--spacing", "nan", "--spacing must be positive and finite"),
        ("--spacing", "inf", "--spacing must be positive and finite"),
        ("--embed", "nan", "--embed must be finite and at least 1"),
        ("--embed", "inf", "--embed must be finite and at least 1"),
        ("--embed", "0.5", "--embed must be finite and at least 1"),
    ])
    def test_bad_spacing_or_embed_is_a_usage_error(self, flag, value, message,
                                                   square_boundary, tmp_path, capsys):
        argv = {"--spacing": "0.35", "--embed": "3.0", flag: value}
        out = tmp_path / "out"
        assert run_cli(["grid", "--boundary", square_boundary, "--spectral", "disk", "2.0",
                        "--count", "3", "--out", str(out)]
                       + [a for kv in argv.items() for a in kv]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err
        assert not out.exists()

    def test_bad_spectral_kind(self, square_boundary, capsys):
        assert run_cli(["grid", "--boundary", square_boundary,
                        "--spectral", "blob", "1.0",
                        "--spacing", "0.3"]) == 2
        assert "disk, wedge, or file" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["pswf1d", "--tw", "3.5", "--nodes", "32", "--count", "3"],
    ["disk", "--shannon", "6", "--count", "5", "--orders", "2"],
    ["region", "--bandwidth", "2.0", "--nquad", "12", "--count", "2", "--grid", "0.6"],
], ids=lambda argv: argv[0])
def test_rerun_writes_identical_bytes(argv, square_boundary, tmp_path):
    # README: same inputs and SLEPKIT_THREADS give byte-identical outputs.
    # The region run's 156 nodes outnumber its 98 multipole columns, so it
    # solves through the factor's Gram
    if argv[0] == "region":
        argv = argv + ["--boundary", square_boundary]
    blobs = []
    for sub in ("r1", "r2"):
        out = tmp_path / sub
        assert run_cli(argv + ["--out", str(out)]) == 0
        blobs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert len(blobs[0]) > 1 and blobs[0] == blobs[1]


class TestEnvironment:
    def test_threads_env_rejected(self, monkeypatch, capsys):
        monkeypatch.setenv("SLEPKIT_THREADS", "many")
        assert run_cli(["pswf1d", "--tw", "1.0"]) == 2
        assert "SLEPKIT_THREADS" in capsys.readouterr().err

    def test_threads_env_accepted(self, monkeypatch, capsys):
        monkeypatch.setenv("SLEPKIT_THREADS", "1")
        assert run_cli(["pswf1d", "--tw", "1.0", "--count", "2"]) == 0
        capsys.readouterr()

    def test_import_leaves_out_interpolate(self, square_boundary):
        # splines are drawn in numpy, so scipy.interpolate (and the
        # scipy.optimize it pulls in) never loads; no solver needs
        # scipy.sparse; scipy.special loads only on the first Bessel value,
        # which the 1D and grid routes never ask for
        src = str(pathlib.Path(slepkit.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = ("import sys, slepkit.cli\n"
                "def loaded(): return {m for m in ('scipy.interpolate', 'scipy.optimize', "
                "'scipy.sparse', 'scipy.special') if m in sys.modules}\n"
                "assert not loaded(), loaded()\n"
                "slepkit.spline_boundary([[0, 0], [1, 0], [1, 1], [0, 1]], 12)\n"
                "assert slepkit.cli.main(['pswf1d', '--tw', '1.0', '--count', '2']) == 0\n"
                "assert slepkit.cli.main(['grid', '--boundary', sys.argv[1], '--spectral', "
                "'wedge', '0.5', '0.3', '6.0', '--spacing', '0.25', '--count', '2']) == 0\n"
                "assert not loaded(), loaded()\n"
                "slepkit.assemble_disk_basis(3.0, 1.0, 2)\n"
                "assert loaded() == {'scipy.special'}, loaded()\n")
        run = subprocess.run([sys.executable, "-c", code, square_boundary], timeout=300,
                             capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=path))
        assert run.returncode == 0, run.stderr

    def test_reports_agree_across_thread_counts(self, tmp_path):
        # bytes are pinned only at a fixed SLEPKIT_THREADS: threaded BLAS
        # reductions may move region eigenvalues in the last ulp
        from conftest import boundary_path
        asym = tmp_path / "asym.xy"
        asym.write_text("-1.2,-0.8\n1.0,-1.0\n1.3,0.9\n-0.9,1.1\n")
        src = str(pathlib.Path(slepkit.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        runs = [["region", "--boundary", boundary_path(), "--bandwidth", "0.0194",
                 "--nquad", "16", "--count", "4"],
                ["grid", "--boundary", str(asym), "--spectral", "wedge", "0.5",
                 "0.3", "6.0", "--spacing", "0.1", "--count", "3"]]
        for argv in runs:
            one, two = (parse_report(subprocess.run(
                [sys.executable, "-m", "slepkit.cli", *argv], check=True,
                capture_output=True, text=True, timeout=300,
                env=dict(os.environ, SLEPKIT_THREADS=threads, PYTHONPATH=path)).stdout)
                for threads in ("1", "2"))
            assert two.eigenvalues == pytest.approx(one.eigenvalues, rel=1e-12, abs=0)
            assert (one.command, one.version) == (two.command, two.version)
            pairs = [(one.parameters, two.parameters), (one.scalars, two.scalars)]
            pairs += list(zip(one.eigen_meta, two.eigen_meta, strict=True))
            for a, b in pairs:
                assert a.keys() == b.keys()
                for key, value in a.items():
                    if isinstance(value, float):
                        assert b[key] == pytest.approx(value, rel=1e-12, abs=1e-12)
                    else:
                        assert b[key] == value
