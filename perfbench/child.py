"""One benchmark child process: set up a workload, then measure or trace it.

Started by run.py with SLEPKIT_THREADS already in the environment.  slepkit is
imported before anything that loads numpy, so its thread pinning takes effect.
The child writes one JSON result file and, when tracing, one span file.
"""

import slepkit  # noqa: I001  first import: applies SLEPKIT_THREADS before numpy loads

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]


def environment(seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "SLEPKIT_THREADS": os.environ.get("SLEPKIT_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
    }


def run_problem(problem, tracer, problem_id):
    """Prepare (untimed), run (timed); returns (output, seconds, error text)."""
    if problem.prepare:
        problem.prepare()
    if tracer:
        tracer.problem = problem_id
    t0 = time.perf_counter()
    try:
        out, err = problem.run(), None
    except Exception:  # a failing problem is counted in fail_frac, never fatal
        out, err = None, traceback.format_exc(limit=-3)
    seconds = time.perf_counter() - t0
    if tracer:
        tracer.problem = None
    return out, seconds, err


def measure(problems, seconds, trace):
    """Run the problem set in passes until `seconds` have gone.

    Pass 0 is untraced and runs the full checks (residuals); later passes run
    the cheap checks.  With tracing, odd passes are traced and even passes are
    not, so both wall times come from the same child.
    """
    tracer = tracing.Tracer() if trace else None
    walls = {False: [], True: []}
    instances, failures, resid = [], [], []
    attempted = 0
    begin = time.monotonic()
    pass_times = []
    p = 0
    while True:
        t_pass = time.monotonic()
        traced = bool(tracer) and p % 2 == 1
        if traced:
            tracer.install()
        try:
            wall = 0.0
            for i, problem in enumerate(problems):
                out, dt, err = run_problem(problem, tracer if traced else None, (p, i))
                attempted += 1
                wall += dt
                if not traced:
                    instances.append(dt)
                if err is None:
                    try:
                        check = problem.check(out, p == 0)
                    except Exception:  # a check that raises is a failed check
                        check = workloads.Check(False, why=traceback.format_exc(limit=-3))
                    if not np.isnan(check.resid):
                        resid.append(check.resid)
                    err = None if check.ok else check.why
                if err is not None:
                    failures.append({"pass": p, "problem": problem.label, "error": err})
                out = None
        finally:
            if traced:
                tracer.uninstall()
        walls[traced].append(wall)
        pass_times.append(time.monotonic() - t_pass)
        p += 1
        if tracer and not walls[True]:
            continue
        if time.monotonic() - begin + statistics.median(pass_times) > seconds:
            break
    result = {
        "passes": p, "walls": walls[False], "traced_walls": walls[True],
        "instances": instances, "attempted": attempted, "failures": failures,
        "resid_max": max(resid) if resid else None,
    }
    if tracer:
        values, result["counts_repeat"] = tracing.per_layer(
            tracer.spans, walls[True], walls[False])
        units = {name: unit for name, unit, _, _ in tracing.PER_LAYER + [tracing.OVERHEAD]}
        result["per_layer"] = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
        result["bindings_left"] = tracing.traced_bindings()
        result["spans"] = tracer.spans
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() in the parent just before the spawn")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = (ROOT / "src").resolve()
    if Path(slepkit.__file__).resolve().parent.parent != src:
        print(f"child: slepkit imported from {slepkit.__file__}, not {src}", file=sys.stderr)
        return 2
    inputs = workloads.generate(args.workload, args.seed, args.workdir)
    problems = workloads.build(inputs, args.workdir)
    run_problem(problems[0], None, None)          # untimed warm-up: the smallest problem
    result = {"setup_s": time.monotonic() - args.spawned, "input_digest": inputs.digest(),
              "env": environment(args.seed)}
    if not args.setup_only:
        result.update(measure(problems, args.seconds, args.trace))
        result["problems"] = [p.label for p in problems]
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    spans = result.pop("spans", None)
    if spans is not None:
        with open(Path(args.result).with_suffix(".spans.json"), "w") as fh:
            json.dump(spans, fh)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
