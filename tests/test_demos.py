"""Every script in demos/ runs to completion and writes what it says it writes."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from slepkit import read_grid_text

ROOT = Path(__file__).resolve().parents[1]

# demo -> files it writes under ./out/
DEMOS = {
    "interval_tapers.py": [],
    "disk_by_symmetry.py": [],
    "plateau_region.py": ["plateau_g0.txt", "plateau_h0.txt"],
    "wedge_projection.py": ["wedge_field0.txt"],
}


def run_demo(name, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    # the suite's own warning policy: a demo that warns fails
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           "-W", "error::DeprecationWarning", str(ROOT / "demos" / name)],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


def test_every_demo_listed():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMOS)


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_runs(name, tmp_path):
    proc = run_demo(name, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    written = sorted(p.name for p in (tmp_path / "out").glob("*"))
    assert written == sorted(DEMOS[name])
    fields = {f: read_grid_text(tmp_path / "out" / f) for f in written}
    for field in fields.values():
        assert np.all(np.isfinite(field.values)) and np.any(field.values != 0.0)
    if name == "plateau_region.py":
        g, h = fields["plateau_g0.txt"], fields["plateau_h0.txt"]
        assert (g.grid.nx, g.grid.ny) == (h.grid.nx, h.grid.ny)
        # h is g clipped to the region
        assert np.all((h.values == g.values) | (h.values == 0.0))
        assert np.any(h.values != g.values)
    if name == "wedge_projection.py":
        f = fields["wedge_field0.txt"].values
        assert np.sum(f * f) == pytest.approx(1.0, rel=1e-12)
        assert "max |A f - lambda f|" in proc.stdout
