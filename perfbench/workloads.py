"""Seeded inputs, problems and correctness checks for the benchmark workloads.

A workload is a short list of problems.  Each problem is one top-level library
call sequence or one ``slepkit.cli.main`` invocation, built only from inputs
drawn here from the seed.  Problem sizes come from fixed rungs so that every
seed does about the same amount of work; the seed varies shapes, bandlimits,
counts, radii and evaluation points.  Checks run outside the timed call and
use the tolerances of the repository's own tests.
"""

import hashlib
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import slepkit
from slepkit import cli, diskanalytic, geometry, gridprojector, kernels, planeslep
from slepkit import pswf1d, quadrature

PLATEAU = Path(slepkit.__file__).parent / "data" / "colorado_plateaus.xy"
UNIT_AREA = 4.0 * np.pi

# tolerances taken from tests/test_acceptance.py and tests/test_gridprojector.py
TRACE_REL_TOL = 1e-3      # trace against the Shannon number
GRAM_TOL = 1e-8           # region Gram against diag(lambda)
SUM_RULE_TOL = 1e-4       # per-order eigenvalue sums against n2d_m
RESID_TOL = 1e-8          # eigen-residual of a kept pair
LAM_SLACK = 1e-10         # grid eigenvalues in [0, 1] up to solver slack

WHY = {
    "region-nystrom": "n^2 disk-kernel Bessel assembly plus full dense eigh on 1000-3360 nodes "
                      "(8-90 MB matrices); bypasses fixedm_kernel and the FFT",
    "cli-export": "cli.main runs of all four subcommands plus dpss, disk-entry evaluation and "
                  "text export: point evaluations, small solves of every route, the write path",
}


@dataclass
class Check:
    """Outcome of a problem's correctness check."""
    ok: bool
    resid: float = float("nan")   # largest relative eigen-residual, nan if not computed
    why: str = ""


@dataclass
class Problem:
    """One timed unit of work: prepare (untimed), run (timed), check (untimed)."""
    label: str
    run: Callable[[], object]
    check: Callable[[object, bool], Check]
    prepare: Optional[Callable[[], None]] = None


@dataclass
class Inputs:
    """Everything a workload's problems are built from, drawn from one seed."""
    workload: str
    specs: list
    files: list = field(default_factory=list)   # paths written during generation

    def digest(self):
        """SHA-256 over the specs and the bytes of every generated file."""
        h = hashlib.sha256()
        h.update(json.dumps(_plain(self.specs), sort_keys=True).encode())
        for path in self.files:
            h.update(Path(path).name.encode())
            h.update(Path(path).read_bytes())
        return h.hexdigest()


def _plain(obj):
    """JSON-ready copy of a spec: arrays become lists of exact float reprs."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [repr(float(v)) for v in obj.ravel()] + [list(obj.shape)]
    if isinstance(obj, (float, np.floating)):
        return repr(float(obj))
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


# ---------------------------------------------------------------- generation

def _star_vertices(rng, n, wobble):
    """Star-shaped simple polygon: increasing angles, radii 1 +- wobble, then a
    random stretch and rotation (linear maps keep the polygon simple)."""
    step = 2.0 * np.pi / n
    theta = step * np.arange(n) + rng.uniform(-0.3, 0.3, n) * step
    r = 1.0 + wobble * rng.uniform(-1.0, 1.0, n)
    pts = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    s = rng.uniform(0.8, 1.25)
    a = rng.uniform(0.0, np.pi)
    rot = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
    return (pts * [s, 1.0 / s]) @ rot.T


def _region_spec(rng, kind):
    if kind == "plateau":
        return {"kind": kind}
    if kind == "star":
        return {"kind": kind, "vertices": _star_vertices(rng, 16, 0.15)}
    return {"kind": kind, "vertices": _star_vertices(rng, 10, 0.2), "resample": 20}


def make_region(spec):
    """Region of area 4 pi from a region spec."""
    if spec["kind"] == "plateau":
        region = geometry.read_region(PLATEAU)
    elif spec["kind"] == "star":
        region = geometry.Region.polygon(spec["vertices"])
    else:
        region = geometry.spline_boundary(spec["vertices"], spec["resample"])
    return geometry.scale_to_area(region, UNIT_AREA)[0]


def _kspace_polygon(rng, shannon, region_area):
    """Star polygon off the origin in wavenumber space; with its point reflection
    it covers the area that holds `shannon` functions over `region_area`."""
    k_area = 4.0 * np.pi ** 2 * shannon / region_area
    verts = _star_vertices(rng, 8, 0.2)
    verts = verts * np.sqrt(0.5 * k_area / geometry.area(geometry.Region.polygon(verts.copy())))
    radius = np.sqrt(0.5 * k_area / np.pi)
    phi = rng.uniform(0.0, 2.0 * np.pi)
    return verts + rng.uniform(1.6, 2.2) * radius * np.array([np.cos(phi), np.sin(phi)])


def fixed_grid(region, nx, ny, embed=3.0):
    """Stretch `region` along the axes, keeping its area, and pick the spacing
    so that build_problem lays an nx x ny grid for every seed.  Sides with
    large prime factors are allowed on purpose: the FFT cost they carry is part
    of what the grid route measures."""
    xmin, xmax, ymin, ymax = region.bounding_box()
    w, h = xmax - xmin, ymax - ymin
    # n - 0.5 cells per embedded side keeps both floor(embed * side / spacing)
    # half a cell away from an integer
    sx = np.sqrt(h * (nx - 0.5) / (w * (ny - 0.5)))
    return geometry.Region.polygon(region.vertices * [sx, 1.0 / sx]), embed * w * sx / (nx - 0.5)


def _rng(workload, seed):
    # the mask leaves nonnegative seeds as they are and lets negative ones through
    return np.random.default_rng([int(seed) & (2 ** 64 - 1), sorted(WHY).index(workload)])


# region-nystrom: (region kind, n_quad, Shannon number range).  The seeded
# shapes get about 1000 and 1300 nodes (8-14 MB matrices), the plateau outline
# 2600 and 3360 nodes (54 and 90 MB), so every seed does about the same work.
# The plateau at n_quad 40 comes twice, so the median problem is that fixed
# size for every seed.  The bandwidth grows with the quadrature resolution, as
# it must: at n_quad 24 and 32 the top eigenvalue exceeds 1 from about N = 17
# on the plateau and N = 25 on seeded shapes.
REGION_RUNGS = (("spline", 24, 5.0, 12.0), ("star", 32, 10.0, 18.0),
                ("plateau", 40, 12.0, 22.0), ("plateau", 40, 12.0, 22.0),
                ("plateau", 48, 20.0, 30.0))
REGION_GRID = 41          # evaluate_g on a REGION_GRID^2 coarse grid

REGION_CLI_POINTS = 33 ** 2   # points of the region CLI export grid
CLI_GRID = (417, 386)     # grid CLI sides, those of the README wedge example
DISK_POINTS = 300        # evaluate_disk_entry points, inside and outside the disk


def generate(workload, seed, workdir):
    """Draw a workload's inputs from `seed`; files go under `workdir`."""
    rng = _rng(workload, seed)
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    specs, files = [], []
    if workload == "region-nystrom":
        for kind, n_quad, lo, hi in REGION_RUNGS:
            specs.append({"region": _region_spec(rng, kind), "n_quad": n_quad,
                          "shannon": rng.uniform(lo, hi)})
    elif workload == "cli-export":
        specs, files = _generate_cli(rng, workdir)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return Inputs(workload, specs, files)


def _generate_cli(rng, workdir):
    """CLI argument lists; "@name" stands for the generated file workdir/name."""
    files = []

    def boundary(name, region):
        files.append(str(workdir / name))
        geometry.write_region(files[-1], region)
        return "@" + name

    star = make_region(_region_spec(rng, "star"))
    plateau = make_region(_region_spec(rng, "plateau"))
    spline, spacing = fixed_grid(make_region(_region_spec(rng, "spline")), *CLI_GRID)
    specs = [{"command": "pswf1d", "argv": [
        "pswf1d", "--tw", repr(float(rng.uniform(3.0, 6.0))), "--nodes", "128",
        "--count", "6"]}]
    for name, region, n_quad, count in (("star.xy", star, 20, 6), ("plateau.xy", plateau, 20, 4)):
        xmin, xmax, ymin, ymax = region.bounding_box()
        # the export grid spans twice the bounding box; this spacing gives it
        # about REGION_CLI_POINTS points whatever the seeded shape
        step = np.sqrt(4.0 * (xmax - xmin) * (ymax - ymin) / REGION_CLI_POINTS)
        specs.append({"command": "region", "argv": [
            "region", "--boundary", boundary(name, region),
            "--bandwidth", repr(float(np.sqrt(rng.uniform(6.0, 10.0)))),
            "--nquad", str(n_quad), "--count", str(count),
            "--grid", repr(float(step))]})
    # the spectral domain goes in as a boundary file, so `--spectral file` is measured
    kpoly = geometry.Region.polygon(_kspace_polygon(rng, rng.uniform(6.0, 9.0), UNIT_AREA))
    specs.append({"command": "grid", "argv": [
        "grid", "--boundary", boundary("spline.xy", spline),
        "--spectral", "file", boundary("kpoly.xy", kpoly),
        "--spacing", repr(float(spacing)), "--count", "6",
        "--seed", str(int(rng.integers(0, 2 ** 31)))]})
    specs.append({"command": "disk", "argv": [
        "disk", "--shannon", repr(float(rng.uniform(3.0, 4.0))), "--count", "6",
        "--orders", "3"]})
    radius, count = rng.uniform(0.5, 2.0), 3
    specs.append({"command": "disk_entry", "shannon": rng.uniform(3.0, 4.0), "radius": radius,
                  "count": count, "max_order": 3, "entries": list(range(count)),
                  "r": radius * 2.0 * rng.uniform(0.0, 1.0, DISK_POINTS),
                  "theta": rng.uniform(0.0, 2.0 * np.pi, DISK_POINTS)})
    specs.append({"command": "write_grid_text", "source": 3})
    specs.append({"command": "dpss", "n": int(rng.integers(512, 769)),
                  "w": float(rng.uniform(0.01, 0.03)), "count": 6})
    return specs, files


# ---------------------------------------------------------------- problems

def build(inputs, workdir):
    """Problems for a workload, in run order, from its generated inputs."""
    make = {"region-nystrom": _region_problems, "cli-export": _cli_problems}
    return make[inputs.workload](inputs.specs, Path(workdir))


def _fail(why):
    return Check(False, why=why)


def _region_problems(specs, workdir):
    problems = []
    for i, spec in enumerate(specs):
        region = make_region(spec["region"])
        k = float(np.sqrt(4.0 * np.pi * spec["shannon"] / geometry.area(region)))
        count = int(round(2.0 * spec["shannon"]))
        xmin, xmax, ymin, ymax = region.bounding_box()
        w, h = 1.5 * (xmax - xmin), 1.5 * (ymax - ymin)
        grid = planeslep.GridSpec(x0=0.5 * (xmin + xmax - w), y0=0.5 * (ymin + ymax - h),
                                  dx=w / (REGION_GRID - 1), dy=h / (REGION_GRID - 1),
                                  nx=REGION_GRID, ny=REGION_GRID)

        def run(region=region, k=k, n_quad=spec["n_quad"], count=count, grid=grid):
            basis = planeslep.solve_region_disk(region, k, n_quad=n_quad, count=count)
            return basis, planeslep.evaluate_g(basis, 0, grid)

        problems.append(Problem(f"region[{i}] {spec['region']['kind']} n_quad={spec['n_quad']}",
                                run, _check_region))
    return problems


def _check_region(out, full):
    basis, g = out
    lam = basis.eigenvalues
    if not (np.all(lam > 0.0) and np.all(lam <= 1.0)):
        return _fail(f"eigenvalues outside (0, 1]: [{lam.min()!r}, {lam.max()!r}]")
    trace_rel = abs(basis.trace - basis.shannon) / basis.shannon
    if trace_rel > TRACE_REL_TOL:
        return _fail(f"trace relative error {trace_rel!r}")
    s, w = basis.node_samples, basis.quadrature.weights
    gram_err = float(np.max(np.abs(s @ (w[:, None] * s.T) - np.diag(lam))))
    if gram_err > GRAM_TOL:
        return _fail(f"region Gram error {gram_err!r}")
    if not np.all(np.isfinite(g.values)):
        return _fail("non-finite evaluate_g values")
    if not full:
        return Check(True)
    resid = region_residuals(basis)
    return _resid_check(resid)


def region_residuals(basis):
    """||Op v - lam v|| / ||v|| for every kept pair, Op = sqrt(W) D sqrt(W) built
    from the disk kernel on the quadrature nodes, a few rows at a time."""
    sol = basis.solution
    nodes, w = sol.nodes, sol.weights
    sw = np.sqrt(w)
    f = sol.node_samples.T                      # (n, count), weighted-orthonormal
    kf = np.empty_like(f)
    step = max(1, 2 ** 20 // len(w))
    for lo in range(0, len(w), step):
        kmat = kernels.disk_kernel(basis.k, nodes[lo:lo + step, None, :], nodes[None, :, :])
        kf[lo:lo + step] = kmat @ (w[:, None] * f)
    v = sw[:, None] * f
    r = sw[:, None] * kf - basis.eigenvalues[None, :] * v
    return np.linalg.norm(r, axis=0) / np.linalg.norm(v, axis=0)


def _resid_check(resid):
    worst = float(np.max(resid))
    if not worst <= RESID_TOL:
        return Check(False, worst, f"eigen-residual {worst!r}")
    return Check(True, worst)


def _disk_entry_problem(spec):
    """assemble_disk_basis, then evaluate_disk_entry inside and outside the disk."""
    radius = spec["radius"]
    bandlimit = 2.0 * np.sqrt(spec["shannon"]) / radius
    pts = np.stack([spec["r"] * np.cos(spec["theta"]), spec["r"] * np.sin(spec["theta"])],
                   axis=-1)

    def run():
        basis = diskanalytic.assemble_disk_basis(bandlimit, radius, spec["count"],
                                                 max_order=spec["max_order"])
        return basis, [diskanalytic.evaluate_disk_entry(basis, j, pts) for j in spec["entries"]]

    return Problem(f"disk entries N={spec['shannon']:.3f}", run, _check_disk)


def _check_disk(out, full):
    basis, values = out
    lam = basis.eigenvalues
    if not (np.all(lam > 0.0) and np.all(lam < 1.0)):
        return _fail(f"eigenvalues outside (0, 1): [{lam.min()!r}, {lam.max()!r}]")
    for m, sol in basis.solutions.items():
        err = abs(sum(br.lam for br in sol.branches) - diskanalytic.n2d_m(m, basis.n2d))
        if err > SUM_RULE_TOL:
            return _fail(f"order {m} sum rule error {err!r}")
    if not all(np.all(np.isfinite(v)) for v in values):
        return _fail("non-finite evaluate_disk_entry values")
    if not full:
        return Check(True)
    return _resid_check(disk_residuals(basis))


def disk_residuals(basis, n_quad=96):
    """Residuals of every kept (m, branch) radial pair against fixedm_kernel on a
    Gauss-Legendre radial rule with xi-weighted weights."""
    rule = quadrature.map_rule(quadrature.gauss_legendre(n_quad), 0.0, 1.0)
    xi, wr = rule.nodes, rule.weights * rule.nodes
    swr = np.sqrt(wr)
    kmats, out = {}, []
    for key in sorted({(e.m, e.branch) for e in basis.entries}):
        m, j = key
        if m not in kmats:
            kmats[m] = kernels.fixedm_kernel(m, basis.n2d, xi[:, None], xi[None, :])
        sol = basis.solutions[m]
        radial = diskanalytic.phi_space(sol, j, xi) / np.sqrt(xi)
        v = swr * radial
        r = swr * (kmats[m] @ (wr * radial)) - sol.branches[j].lam * v
        out.append(np.linalg.norm(r) / np.linalg.norm(v))
    return np.array(out)


def grid_residuals(problem, lam, fields):
    """||A f - lam f|| / ||f|| with A applied by gridprojector.apply."""
    return np.array([np.linalg.norm(gridprojector.apply(problem, f) - l * f) / np.linalg.norm(f)
                     for l, f in zip(lam, fields)])


# ---------------------------------------------------------------- cli-export

def _cli_problems(specs, workdir):
    problems, outs = [], {}
    for i, spec in enumerate(specs):
        out_dir = workdir / f"out{i}"
        outs[i] = out_dir
        if spec["command"] == "write_grid_text":
            source = outs[spec["source"]]
            state = {}

            def prepare(source=source, state=state, out_dir=out_dir):
                _fresh(out_dir)
                state["field"] = planeslep.read_grid(source / "field_000.bin")[0]

            def run(state=state, out_dir=out_dir):
                path = out_dir / "field_000.txt"
                planeslep.write_grid_text(state["field"], path)
                return state["field"], path

            problems.append(Problem("export write_grid_text", run, _check_text, prepare))
        elif spec["command"] == "disk_entry":
            problems.append(_disk_entry_problem(spec))
        elif spec["command"] == "dpss":
            def run(spec=spec):
                return pswf1d.dpss(spec["n"], spec["w"], spec["count"])

            problems.append(Problem(f"dpss n={spec['n']}", run, _check_dpss))
        else:
            argv = [str(workdir / a[1:]) if a.startswith("@") else a for a in spec["argv"]]
            argv += ["--out", str(out_dir)]

            def run(argv=argv):
                return cli.main(argv)

            check = {"region": _check_cli_region, "grid": _check_cli_grid,
                     "pswf1d": _check_cli_pswf1d, "disk": _check_cli_disk}[spec["command"]]
            problems.append(Problem(f"cli {spec['command']}", run,
                                    _cli_check(check, out_dir, argv),
                                    lambda out_dir=out_dir: _fresh(out_dir)))
    return problems


def _fresh(out_dir):
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)


def _cli_check(check, out_dir, argv):
    def run_check(code, full):
        if code != 0:
            return _fail(f"exit code {code}")
        text = (out_dir / "report.txt").read_text()
        report = cli.read_report(out_dir / "report.txt")
        if cli.render_report(report) != text:
            return _fail("report does not round-trip through read_report")
        return check(report, out_dir, argv, full)
    return run_check


def _argv_value(argv, flag):
    return argv[argv.index(flag) + 1]


def _read_bin(path):
    field_, _ = planeslep.read_grid(path)
    if not np.all(np.isfinite(field_.values)):
        raise ValueError(f"{path.name}: non-finite values")
    return field_


def _check_cli_region(report, out_dir, argv, full):
    lam = np.array(report.eigenvalues)
    if not (np.all(lam > 0.0) and np.all(lam <= 1.0)):
        return _fail("region eigenvalues outside (0, 1]")
    if report.scalars["trace_rel_err"] > TRACE_REL_TOL:
        return _fail(f"trace relative error {report.scalars['trace_rel_err']!r}")
    names = [f"{p}_{i:03d}.bin" for i in range(len(lam)) for p in "gh"]
    for name in names + ["pgram_000.bin", "sumsq.bin"]:
        _read_bin(out_dir / name)
    return Check(True)


def _check_cli_grid(report, out_dir, argv, full):
    lam = np.array(report.eigenvalues)
    if not (np.all(lam >= -LAM_SLACK) and np.all(lam <= 1.0 + LAM_SLACK)):
        return _fail("grid eigenvalues outside [0, 1]")
    fields = [_read_bin(out_dir / f"field_{i:03d}.bin").values for i in range(len(lam))]
    _read_bin(out_dir / "pgramsum.bin")
    if not full:
        return Check(True)
    kpoly = geometry.read_region(argv[argv.index("--spectral") + 2])
    domain = geometry.hermitian_symmetrize(geometry.SpectralDomain.polygon_set([kpoly.vertices]))
    problem = gridprojector.build_problem(
        geometry.read_region(_argv_value(argv, "--boundary")), domain,
        float(_argv_value(argv, "--spacing")))
    return _resid_check(grid_residuals(problem, lam, fields))


def _check_cli_pswf1d(report, out_dir, argv, full):
    lam = np.array(report.eigenvalues)
    if not (np.all(lam > 0.0) and np.all(lam <= 1.0)):
        return _fail("pswf1d eigenvalues outside (0, 1]")
    tables = [np.loadtxt(out_dir / f"samples_{i:03d}.txt") for i in range(len(lam))]
    if not full:
        return Check(True)
    rule = quadrature.gauss_legendre(int(_argv_value(argv, "--nodes")))
    x, sw = rule.nodes, np.sqrt(rule.weights)
    kmat = kernels.sinc_kernel(report.parameters["tw"], x[:, None], x[None, :])
    resid = []
    for l, table in zip(lam, tables):
        if not np.array_equal(table[:, 0], x):
            return _fail("pswf1d sample abscissas are not the Gauss-Legendre nodes")
        v = sw * table[:, 1]
        resid.append(np.linalg.norm(sw * (kmat @ (sw * v)) - l * v) / np.linalg.norm(v))
    return _resid_check(np.array(resid))


def _check_cli_disk(report, out_dir, argv, full):
    lam = np.array(report.eigenvalues)
    if not (np.all(lam > 0.0) and np.all(lam < 1.0)):
        return _fail("disk eigenvalues outside (0, 1)")
    for i in range(len(lam)):
        table = np.loadtxt(out_dir / f"radial_{i:03d}.txt")
        if table.shape != (201, 2) or not np.all(np.isfinite(table)):
            return _fail(f"radial_{i:03d}.txt is malformed")
    return Check(True)


def _check_text(out, full):
    field_, path = out
    back = planeslep.read_grid_text(path)
    if not np.array_equal(back.values, field_.values):
        return _fail("grid text export does not round-trip through read_grid_text")
    g, b = field_.grid, back.grid
    if (b.nx, b.ny) != (g.nx, g.ny) or not np.allclose([b.x0, b.y0, b.dx, b.dy],
                                                       [g.x0, g.y0, g.dx, g.dy]):
        return _fail("grid text export changed the grid geometry")
    return Check(True)


def _check_dpss(out, full):
    lam = out.eigenvalues
    if not (np.all(lam > 0.0) and np.all(lam <= 1.0 + LAM_SLACK)):
        return _fail("dpss concentrations outside (0, 1]")
    gram = out.sequences @ out.sequences.T
    if np.max(np.abs(gram - np.eye(len(lam)))) > GRAM_TOL:
        return _fail("dpss sequences are not orthonormal")
    return Check(True)

