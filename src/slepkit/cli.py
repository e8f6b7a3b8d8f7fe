"""Command-line front end: every solver behind one executable.

Subcommands mirror the library surface: `pswf1d` for interval concentration,
`disk` for the analytic fixed-order disk basis, `region` for arbitrary
regions under an isotropic bandlimit, and `grid` for fully general spectral
domains via projection operators.  Reports are key-value text that parses
back losslessly; grids go out in the binary+sidecar and headered-text formats.

Exit codes: 0 success, 1 numerical failure, 2 usage or input error.  The
environment variable SLEPKIT_THREADS (integer >= 1) caps the linear-algebra
thread count when set before launch.
"""

import argparse
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__, _parse_threads
from .diskanalytic import _radial_profile, assemble_disk_basis
from .errors import (
    DegenerateNormalizationError, ExtensionError, NumericalError, SlepkitError, _as_positive,
)
from .geometry import (
    SpectralDomain, area, hermitian_symmetrize, read_region, wedge_domain,
)
from .gridprojector import build_problem, solve, weighted_periodogram_sum
from .planeslep import (
    GridField, _centered_grid, evaluate_g, evaluate_h, periodogram, solve_region_disk,
    weighted_sumsq, write_grid,
)
from .pswf1d import solve_1d

__all__ = ["RunReport", "render_report", "parse_report", "write_report",
           "read_report", "main"]


class UsageError(Exception):
    """Flag combinations argparse cannot reject on its own."""


@dataclass
class RunReport:
    """One solver run: what was asked, what came out.

    parameters and scalars map names to int/float/str values; eigen_meta holds
    one dict per eigenvalue with the same numeric/str value kinds.  Rendering
    and parsing round-trip every field exactly (floats via shortest repr).
    """
    command: str
    version: str = __version__
    parameters: dict = field(default_factory=dict)
    scalars: dict = field(default_factory=dict)
    eigenvalues: list = field(default_factory=list)
    eigen_meta: list = field(default_factory=list)


def _render_value(v):
    if isinstance(v, (bool, np.bool_)):
        raise ValueError("boolean report values are not supported")
    if isinstance(v, (int, np.integer)):
        return repr(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _parse_value(text):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def render_report(report):
    """Serialize a report to deterministic key-value text."""
    lines = [
        "slepkit-report 1",
        f"command = {report.command}",
        f"version = {report.version}",
    ]
    for key, val in report.parameters.items():
        lines.append(f"param.{key} = {_render_value(val)}")
    for key, val in report.scalars.items():
        lines.append(f"scalar.{key} = {_render_value(val)}")
    body = " ".join(repr(float(v)) for v in report.eigenvalues)
    lines.append(f"eigenvalues = [{body}]")
    for i, meta in enumerate(report.eigen_meta):
        for key, val in meta.items():
            lines.append(f"eig.{i}.{key} = {_render_value(val)}")
    return "\n".join(lines) + "\n"


def parse_report(text):
    """Inverse of render_report."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("slepkit-report"):
        raise ValueError("not a slepkit report")
    report = RunReport(command="")
    for line in lines[1:]:
        key, sep, value = line.partition(" = ")
        if not sep:
            raise ValueError(f"malformed report line: {line!r}")
        key, value = key.strip(), value.strip()
        if key == "command":
            report.command = value
        elif key == "version":
            report.version = value
        elif key == "eigenvalues":
            inner = value.strip("[]").split()
            report.eigenvalues = [float(v) for v in inner]
        elif key.startswith("param."):
            report.parameters[key[len("param."):]] = _parse_value(value)
        elif key.startswith("scalar."):
            report.scalars[key[len("scalar."):]] = _parse_value(value)
        elif key.startswith("eig."):
            _, idx, name = key.split(".", 2)
            idx = int(idx)
            while len(report.eigen_meta) <= idx:
                report.eigen_meta.append({})
            report.eigen_meta[idx][name] = _parse_value(value)
        else:
            raise ValueError(f"unknown report key: {key!r}")
    return report


def write_report(report, path):
    with open(path, "w") as fh:
        fh.write(render_report(report))


def read_report(path):
    with open(path) as fh:
        return parse_report(fh.read())


def _emit(report, out_dir):
    """Write report.txt under out_dir, or print to stdout when out_dir is None."""
    if out_dir is None:
        sys.stdout.write(render_report(report))
    else:
        os.makedirs(out_dir, exist_ok=True)
        write_report(report, os.path.join(out_dir, "report.txt"))


def _write_columns(path, header, columns):
    """A '# header' line, then one row per index of the columns, each value
    by repr (shortest round-trip), space-separated."""
    cols = [map(repr, np.asarray(c, dtype=float).tolist()) for c in columns]
    with open(path, "w") as fh:
        fh.write(f"# {header}\n")
        fh.writelines(" ".join(row) + "\n" for row in zip(*cols))


def _require_positive(value, flag):
    """Reject a non-positive, infinite or NaN value of a numeric flag."""
    _as_positive(value, f"{flag} must be positive and finite", UsageError)


def _cmd_pswf1d(args):
    _require_positive(args.tw, "--tw")
    basis = solve_1d(args.tw, n_nodes=args.nodes, count=args.count)
    report = RunReport(
        command="pswf1d",
        parameters={"tw": args.tw, "nodes": args.nodes, "count": args.count},
        scalars={"shannon": basis.shannon, "trace": basis.trace},
        eigenvalues=[float(v) for v in basis.eigenvalues],
    )
    _emit(report, args.out)
    if args.out is not None:
        for i in range(len(basis.eigenvalues)):
            _write_columns(os.path.join(args.out, f"samples_{i:03d}.txt"),
                           "x value", [basis.nodes, basis.node_samples[i]])
    return 0


def _cmd_disk(args):
    if args.shannon is not None:
        if args.bandwidth is not None or args.radius is not None:
            raise UsageError("--shannon conflicts with --bandwidth/--radius")
        _require_positive(args.shannon, "--shannon")
        radius = 1.0
        bandwidth = 2.0 * np.sqrt(args.shannon)
    else:
        if args.bandwidth is None or args.radius is None:
            raise UsageError("give either --shannon or both --bandwidth and --radius")
        bandwidth, radius = args.bandwidth, args.radius
        _require_positive(bandwidth, "--bandwidth")
        _require_positive(radius, "--radius")
    basis = assemble_disk_basis(bandwidth, radius, args.count,
                                max_order=args.orders)
    meta = []
    for e in basis.entries:
        br = e.solution.branches[e.branch]
        meta.append({"m": e.m, "kind": e.kind, "branch": e.branch,
                     "lambda": float(e.lam), "chi": float(br.chi),
                     "gamma": float(br.gamma)})
    report = RunReport(
        command="disk",
        parameters={"bandwidth": float(bandwidth), "radius": float(radius),
                    "count": args.count},
        scalars={"shannon": basis.n2d},
        eigenvalues=[float(v) for v in basis.eigenvalues],
        eigen_meta=meta,
    )
    _emit(report, args.out)
    if args.out is not None:
        r = np.linspace(0.0, 2.0 * radius, 201)
        # the cos and sin entries of one (m, branch) share their radial profile
        profiles = {}
        for i, e in enumerate(basis.entries):
            key = (e.m, e.branch)
            if key not in profiles:
                profiles[key] = _radial_profile(basis, i, r)
            _write_columns(os.path.join(args.out, f"radial_{i:03d}.txt"),
                           "r value", [r, profiles[key]])
    return 0


def _cmd_region(args):
    _require_positive(args.bandwidth, "--bandwidth")
    if args.grid is not None:
        if args.out is None:
            raise UsageError("--grid needs --out: the grid exports are files")
        _require_positive(args.grid, "--grid spacing")
    region = read_region(args.boundary)
    basis = solve_region_disk(region, args.bandwidth, n_quad=args.nquad,
                              count=args.count)
    a = area(region)
    report = RunReport(
        command="region",
        parameters={"boundary": args.boundary, "bandwidth": args.bandwidth,
                    "nquad": args.nquad, "count": args.count},
        scalars={"area": float(a), "shannon": basis.shannon,
                 "trace": basis.trace,
                 "trace_rel_err": abs(basis.trace - basis.shannon) / basis.shannon},
        eigenvalues=[float(v) for v in basis.eigenvalues],
    )
    _emit(report, args.out)
    if args.grid is not None:
        grid = _centered_grid(region, 2.0, args.grid)
        indices = list(range(len(basis.eigenvalues)))
        gs = evaluate_g(basis, indices, grid)
        hs = evaluate_h(basis, indices, grid, g=gs)
        for i, (g, h) in enumerate(zip(gs, hs)):
            write_grid(g, os.path.join(args.out, f"g_{i:03d}.bin"), name=f"g_{i:03d}")
            write_grid(h, os.path.join(args.out, f"h_{i:03d}.bin"), name=f"h_{i:03d}")
        write_grid(periodogram(hs[0]), os.path.join(args.out, "pgram_000.bin"), name="pgram_000")
        ss = weighted_sumsq(basis, grid, len(indices), g=gs)
        write_grid(ss, os.path.join(args.out, "sumsq.bin"), name="sumsq")
    return 0


def _parse_spectral(spec):
    kind = spec[0]
    if kind == "disk":
        if len(spec) != 2:
            raise UsageError("--spectral disk needs exactly one value: K")
        return SpectralDomain.disk(float(spec[1]))
    if kind == "wedge":
        if len(spec) != 4:
            raise UsageError("--spectral wedge needs: orientation half_angle k_max")
        return wedge_domain(float(spec[1]), float(spec[2]), float(spec[3]))
    if kind == "file":
        if len(spec) != 2:
            raise UsageError("--spectral file needs exactly one value: a path")
        poly = read_region(spec[1])
        return hermitian_symmetrize(SpectralDomain.polygon_set([poly.vertices]))
    raise UsageError(f"unknown spectral kind {kind!r}; use disk, wedge, or file")


def _cmd_grid(args):
    _require_positive(args.spacing, "--spacing")
    rule = "--embed must be finite and at least 1"
    if _as_positive(args.embed, rule, UsageError) < 1:
        raise UsageError(f"{rule}, not {args.embed!r}")
    region = read_region(args.boundary)
    domain = _parse_spectral(args.spectral)
    problem = build_problem(region, domain, args.spacing,
                            embed_factor=args.embed)
    basis = solve(problem, args.count)
    nx, ny = problem.grid.nx, problem.grid.ny
    n_spatial = int(np.sum(problem.spatial_mask))
    n_spectral = int(np.sum(problem.spectral_mask))
    meta = [{"residual": float(r)} for r in basis.residuals]
    report = RunReport(
        command="grid",
        parameters={"boundary": args.boundary,
                    "spectral": " ".join(str(s) for s in args.spectral),
                    "spacing": args.spacing, "embed": args.embed,
                    "count": args.count, "seed": args.seed},
        scalars={"nx": nx, "ny": ny,
                 "spatial_cells": n_spatial, "spectral_cells": n_spectral,
                 "shannon": n_spatial * n_spectral / (nx * ny)},
        eigenvalues=[float(v) for v in basis.eigenvalues],
        eigen_meta=meta,
    )
    _emit(report, args.out)
    if args.out is not None:
        for i in range(len(basis.eigenvalues)):
            write_grid(GridField(problem.grid, basis.fields[i]),
                       os.path.join(args.out, f"field_{i:03d}.bin"),
                       name=f"field_{i:03d}")
        wps = weighted_periodogram_sum(basis, len(basis.eigenvalues))
        write_grid(wps, os.path.join(args.out, "pgramsum.bin"), name="pgramsum")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="slepkit",
        description="Concentrated bandlimited function families in 1D and the plane.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pswf1d", help="interval concentration at time-bandwidth tw")
    p.add_argument("--tw", type=float, required=True,
                   help="time-bandwidth product T*W (T = interval half-length)")
    p.add_argument("--nodes", type=int, default=128, help="Gauss-Legendre sample nodes")
    p.add_argument("--count", type=int, default=8, help="eigenpairs to keep")
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(run=_cmd_pswf1d)

    p = sub.add_parser("disk", help="analytic disk basis, mixed angular orders")
    p.add_argument("--shannon", type=float, default=None,
                   help="target Shannon number (unit disk; sets the bandlimit)")
    p.add_argument("--bandwidth", type=float, default=None,
                   help="bandlimit K in rad per length unit")
    p.add_argument("--radius", type=float, default=None, help="disk radius R")
    p.add_argument("--count", type=int, default=30, help="basis functions to keep")
    p.add_argument("--orders", type=int, default=None,
                   help="cap on the angular order m")
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(run=_cmd_disk)

    p = sub.add_parser("region", help="arbitrary region under a disk bandlimit")
    p.add_argument("--boundary", required=True, help="boundary file (x,y rows)")
    p.add_argument("--bandwidth", type=float, required=True,
                   help="bandlimit K in rad per length unit")
    p.add_argument("--nquad", type=int, default=32,
                   help="quadrature nodes per dimension")
    p.add_argument("--count", type=int, default=8, help="eigenpairs to keep")
    p.add_argument("--grid", type=float, default=None,
                   help="export grid spacing (length units); needs --out")
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(run=_cmd_region)

    p = sub.add_parser("grid", help="general spectral domains via grid projection")
    p.add_argument("--boundary", required=True, help="boundary file (x,y rows)")
    p.add_argument("--spectral", nargs="+", required=True,
                   metavar="SPEC",
                   help="disk K | wedge orientation half_angle k_max | file PATH "
                        "(angles in radians)")
    p.add_argument("--spacing", type=float, required=True,
                   help="grid spacing in length units")
    p.add_argument("--embed", type=float, default=3.0,
                   help="embedding factor for the computation grid")
    p.add_argument("--count", type=int, default=4, help="eigenpairs to keep")
    p.add_argument("--seed", type=int, default=0,
                   help="accepted and ignored: the solve is direct")
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(run=_cmd_grid)
    return parser


def main(argv=None):
    threads = os.environ.get("SLEPKIT_THREADS")
    if threads is not None and _parse_threads(threads) is None:
        print(f"slepkit: SLEPKIT_THREADS must be an integer >= 1, "
              f"got {threads!r}", file=sys.stderr)
        return 2
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except UsageError as exc:
        print(f"slepkit: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, ExtensionError, DegenerateNormalizationError) as exc:
        print(f"slepkit: numerical failure: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, SlepkitError) as exc:
        print(f"slepkit: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
