"""Tests of the benchmark itself: python3 -m pytest perfbench -q (from the repo root)."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7

# spans each workload must record, from the layer-to-workload map of the benchmark
MAPPED_SPANS = {
    "region-nystrom": ["quadrature.region_quadrature", "kernels.disk_kernel",
                       "specialfn.bessel_j1_over_x", "fredholm.nystrom_eigs",
                       "fredholm.nystrom_extend", "planeslep.solve_region_disk",
                       "planeslep.evaluate_g"],
    "cli-export": ["cli.main", "geometry.contains_many", "quadrature.region_quadrature",
                   "kernels.disk_kernel", "specialfn.bessel_j1_over_x", "kernels.fixedm_kernel",
                   "fredholm.nystrom_eigs", "fredholm.nystrom_extend",
                   "diskanalytic.fixed_order_solution", "diskanalytic.coeff_tridiagonal",
                   "diskanalytic.evaluate_disk_entry", "diskanalytic.phi_space",
                   "diskanalytic.phi_bessel", "planeslep.solve_region_disk",
                   "planeslep.evaluate_g", "planeslep.evaluate_h", "planeslep.weighted_sumsq",
                   "planeslep.periodogram", "planeslep.write_grid", "planeslep.write_grid_text",
                   "gridprojector.build_problem", "gridprojector.solve",
                   "gridprojector.weighted_periodogram_sum", "pswf1d.solve_1d", "pswf1d.dpss"],
}
# layer metrics that may legitimately read 0 on their own workload
MAY_BE_ZERO = {"diskanalytic.l_max_grows", "diskanalytic.lam_quad_used_ratio"}


def metric_span(metric):
    """Span a per-layer metric is computed from."""
    special = {"diskanalytic.l_max_grows": "diskanalytic.fixed_order_solution",
               "diskanalytic.lam_quad_used_ratio": "diskanalytic.fixed_order_solution",
               "cli.bytes_written": "cli.main"}
    return special.get(metric, metric.rsplit(".", 1)[0])


def bench(workload, trace, seconds=1):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.fixture(scope="module")
def traced():
    """Two traced runs per workload at one seed, with the spans of the second."""
    out = {}
    for w in run.WORKLOADS:
        first = bench(w, 1)[1]
        text, second = bench(w, 1)
        spans = json.loads((run.OUT / f"spans-{w}-s{SEED}.json").read_text())
        out[w] = (first, second, text, {s[tracing.NAME] for s in spans})
    return out


def test_spec_matches_code():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == workloads.WHY
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS
    layers = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert layers == [row[:3] for row in tracing.PER_LAYER + [tracing.OVERHEAD]]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_generator_is_deterministic(workload, tmp_path):
    a = workloads.generate(workload, SEED, tmp_path / "a")
    b = workloads.generate(workload, SEED, tmp_path / "b")
    c = workloads.generate(workload, SEED + 1, tmp_path / "c")
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()
    for fa, fb in zip(a.files, b.files):
        assert Path(fa).read_bytes() == Path(fb).read_bytes()


@pytest.mark.parametrize("seed", range(20))
def test_generated_regions_are_valid(seed, tmp_path):
    """Every seed yields simple polygons (generation raises otherwise)."""
    for spec in workloads.generate("region-nystrom", seed, tmp_path).specs:
        assert workloads.make_region(spec["region"]).kind == "polygon"
    workloads.generate("cli-export", seed, tmp_path)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_e2e_metric_printed_with_unit(workload):
    text, result = bench(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0
        assert any(line.split()[:1] == [m["name"]] and line.split()[2] == m["unit"]
                   for line in text)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for name, unit in (("resid_max", "rel"), ("fail_frac", "ratio")):
        assert any(line.split()[:1] == [name] and line.split()[2] == unit for line in text)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_mapped_spans_appear_in_traced_run(workload, traced):
    first, second, text, names = traced[workload]
    assert not set(MAPPED_SPANS[workload]) - names
    assert set(second["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert second["metrics"][m["name"]]["unit"] == m["unit"]
        if metric_span(m["name"]) in MAPPED_SPANS[workload] and m["name"] not in MAY_BE_ZERO:
            assert second["metrics"][m["name"]]["value"] > 0, m["name"]
    assert any("trace.overhead_s" in line for line in text)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_counts_repeat_between_traced_runs(workload, traced):
    first, second, _, _ = traced[workload]
    assert first["correct"] and second["correct"]
    for name, unit, _, _ in tracing.PER_LAYER:
        if unit != "s":
            assert first["metrics"][name] == second["metrics"][name], name


def test_wrappers_removed_after_tracing():
    import scipy.sparse.linalg
    import slepkit
    before = {(m.__name__, a): o for m in tracing._slepkit_modules() for a, o in vars(m).items()}
    eigsh = scipy.sparse.linalg.eigsh
    counted = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in tracing.COUNTED_CALLS]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        bound = tracing.traced_bindings()
        assert ("slepkit.fredholm", "nystrom_eigs") in bound
        assert ("slepkit.planeslep", "nystrom_eigs") in bound
        assert ("slepkit.kernels", "bessel_j1_over_x") in bound
        assert ("slepkit", "apply_operator") in bound
        assert ("scipy.sparse.linalg", "eigsh") in bound
        assert ("scipy.special", "jv") in bound and ("scipy.linalg", "eigh") in bound
        tracer.problem = (0, 0)
        slepkit.solve_1d(3.0, n_nodes=32, count=2)
        tracer.problem = None
    finally:
        tracer.uninstall()
    assert tracing.traced_bindings() == []
    after = {(m.__name__, a): o for m in tracing._slepkit_modules() for a, o in vars(m).items()}
    assert all(after[k] is v for k, v in before.items())
    assert scipy.sparse.linalg.eigsh is eigsh
    assert all(getattr(owner, attr) is fn for owner, attr, fn in counted)
    names = [s[tracing.NAME] for s in tracer.spans]
    assert names[0] == "pswf1d.solve_1d" and "fredholm.nystrom_eigs" in names
    nested = tracer.spans[names.index("fredholm.nystrom_eigs")]
    assert nested[tracing.PARENT] == 0
    assert nested[tracing.COUNTS] == {"order": 32, "kept": 2, "eigh_pairs": 32}


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and perfbench/, it exits nonzero
    and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli-export",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_times_and_counts_per_traced_pass():
    spans = [["cli.main", 0.0, 4.0, -1, (1, 0), {"bytes_written": 10}],
             ["planeslep.write_grid", 1.0, 2.0, 0, (1, 0), {"bytes": 10}],
             ["cli.main", 10.0, 18.0, -1, (3, 0), {"bytes_written": 10}],
             ["planeslep.write_grid", 11.0, 14.0, 2, (3, 0), {"bytes": 10}]]
    out, repeated = tracing.per_layer(spans, [5.0, 7.0], [4.0, 4.0, 4.0])
    assert out["cli.main.self_s"] == 4.0 and out["planeslep.write_grid.self_s"] == 2.0
    assert out["cli.bytes_written"] == 10 and out["planeslep.write_grid.bytes"] == 10
    assert out["trace.overhead_s"] == 2.0 and repeated
    spans[3][tracing.COUNTS]["bytes"] = 11
    assert not tracing.per_layer(spans, [5.0], [4.0])[1]


def test_disk_counts_come_from_child_spans():
    """l_max grows are coefficient re-solves under one order; the quadrature
    share divides by the eigenpairs its nystrom_eigs child actually computed."""
    fos, ct, ne = ("diskanalytic.fixed_order_solution", "diskanalytic.coeff_tridiagonal",
                   "fredholm.nystrom_eigs")
    spans = [[fos, 0.0, 9.0, -1, (1, 0), {"lam_quad_used": 3}],
             [ct, 1.0, 2.0, 0, (1, 0), {}],
             [ct, 2.0, 3.0, 0, (1, 0), {}],
             [ne, 3.0, 8.0, 0, (1, 0), {"order": 96, "kept": 96, "eigh_pairs": 96}],
             [fos, 10.0, 12.0, -1, (1, 1), {"lam_quad_used": 0}],
             [ct, 10.0, 11.0, 4, (1, 1), {}]]
    out, _ = tracing.per_layer(spans, [12.0], [12.0])
    assert out["diskanalytic.l_max_grows"] == 1
    assert out["diskanalytic.lam_quad_used_ratio"] == 3 / 96
    assert out["fredholm.nystrom_eigs.kept_ratio"] == 1.0
