"""slepkit benchmark: seeded workloads, end-to-end metrics or traced per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload region-nystrom --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 55          # every workload, one at a time

Each workload runs in fresh child processes (perfbench/child.py) with
SLEPKIT_THREADS=1 and slepkit imported from the checkout's src/.  With
--trace 0 the child measures end-to-end metrics and four more children repeat
the set-up, so setup_s is a median of five.  With --trace 1 the child
alternates untraced and traced passes and reports per-layer metrics plus the
tracing overhead.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Result files, spans and
working files go under perfbench/out/.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("region-nystrom", "cli-export")
SETUP_RUNS = 5            # setup_s is the median over this many children (imports vary ~15%)
BUDGET_S = 170.0          # a whole --workload invocation must end well inside 180 s

E2E_UNITS = {"wall_s": "s", "instance_s.p50": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class ChildFailed(Exception):
    pass


def spawn(workload, seed, seconds, trace, tag, setup_only, deadline):
    """Run one child to completion; returns its result dict."""
    workdir = OUT / f"work-{os.getpid()}-{tag}"
    result = OUT / f"child-{os.getpid()}-{tag}.json"
    env = dict(os.environ, SLEPKIT_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(float(seconds)), "--trace", str(trace),
           "--workdir", str(workdir), "--result", str(result)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd + ["--spawned", repr(spawned)], cwd=ROOT, env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise ChildFailed(f"{workload} child exceeded the time budget") from None
        if proc.returncode != 0:
            raise ChildFailed(f"{workload} child exited {proc.returncode}:\n{err[-2000:]}")
        return json.loads(result.read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if result.exists():
            result.unlink()
        spans = result.with_suffix(".spans.json")
        if spans.exists():
            spans.replace(OUT / f"spans-{workload}-s{seed}.json")


def git_sha():
    """HEAD of the git repository whose top level is ROOT; None outside one."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def run_workload(workload, seed, seconds, trace, deadline):
    main = spawn(workload, seed, seconds, trace, "measure", False, deadline)
    setups = [main["setup_s"]]
    if not trace:
        for k in range(1, SETUP_RUNS):
            setups.append(spawn(workload, seed, seconds, 0, f"setup{k}", True, deadline)["setup_s"])
    failed = len(main["failures"])
    report = {
        "workload": workload, "seed": seed, "trace": trace, "env": main["env"],
        "input_digest": main["input_digest"], "problems": main["problems"],
        "passes": main["passes"], "attempted": main["attempted"], "failed": failed,
        "fail_frac": failed / main["attempted"], "failures": main["failures"],
        "resid_max": main["resid_max"], "setup_runs_s": setups,
        "pass_walls_s": main["walls"], "traced_pass_walls_s": main["traced_walls"],
        "instance_samples": len(main["instances"]),
    }
    if trace:
        report["metrics"] = main["per_layer"]
        report["counts_repeat"] = main["counts_repeat"]
        report["bindings_left"] = main["bindings_left"]
    else:
        values = {"wall_s": statistics.median(main["walls"]),
                  "instance_s.p50": statistics.median(main["instances"]),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": main["peak_rss_mb"]}
        report["metrics"] = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    report["correct"] = failed == 0 and main["resid_max"] is not None and (
        not trace or (main["counts_repeat"] and not main["bindings_left"]))
    return report


def print_report(rep):
    env = rep["env"]
    print(f"== {rep['workload']}  seed {rep['seed']}  trace {rep['trace']}  "
          f"passes {rep['passes']}  git {env['git_sha']}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, m in rep["metrics"].items():
        extra = f"  (samples {rep['instance_samples']})" if name == "instance_s.p50" else ""
        print(f"  {name:<48} {m['value']!r:>24} {m['unit']}{extra}")
    resid = rep["resid_max"]
    print(f"  {'resid_max':<48} {resid!r:>24} rel")
    print(f"  {'fail_frac':<48} {rep['fail_frac']!r:>24} ratio  "
          f"({rep['failed']} of {rep['attempted']} problems)")
    if rep["trace"]:
        print(f"  counts repeat across traced passes: {rep['counts_repeat']}; "
              f"wrappers left installed: {len(rep['bindings_left'])}")
    for f in rep["failures"]:
        print(f"  FAILED pass {f['pass']} {f['problem']}: {f['error'].strip()}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload; all of them in turn when omitted")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "slepkit" / "__init__.py").is_file():
        print(f"run.py: no slepkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    sha = git_sha()
    reports = []
    for workload in ([args.workload] if args.workload else WORKLOADS):
        deadline = time.monotonic() + BUDGET_S
        try:
            rep = run_workload(workload, args.seed, args.seconds, args.trace, deadline)
        except ChildFailed as exc:
            print(f"run.py: {exc}", file=sys.stderr)
            return 1
        rep["env"]["git_sha"] = sha
        (OUT / f"result-{workload}-s{args.seed}-t{args.trace}.json").write_text(
            json.dumps(rep, indent=1, sort_keys=True))
        print_report(rep)
        reports.append(rep)
    if args.workload:
        rep = reports[0]
        print(json.dumps({"correct": rep["correct"], "attempted": rep["attempted"],
                          "failed": rep["failed"], "metrics": rep["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
