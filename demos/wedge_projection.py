"""
Directional concentration with grid projectors
==============================================

Nothing restricts the spectral side to a disk.  Sampling both the region
and the band on a grid turns concentration into alternating projections:
mask in space, mask in wavenumber, repeat.  Here the band is a narrow
wedge of orientations, so the winning functions are stripe-like fields
aligned with it.
"""

import numpy as np

from slepkit import (Region, apply_operator, build_problem, solve,
                     wedge_domain, weighted_periodogram_sum, write_grid_text)

# an asymmetric quadrilateral and a wedge of directions around 30 degrees
region = Region.polygon([(-1.2, -0.8), (1.0, -1.0), (1.3, 0.9), (-0.9, 1.1)])
band = wedge_domain(np.pi / 6, 0.3, 6.0)
problem = build_problem(region, band, grid_spacing=0.1)

ny, nx = problem.grid.ny, problem.grid.nx
print(f"grid {nx} x {ny}, {int(problem.spatial_mask.sum())} cells in the region,"
      f" {int(problem.spectral_mask.sum())} in the band")

# the composed operator is a contraction: Rayleigh quotients live in [0, 1]
rng = np.random.default_rng(3)
f = np.where(problem.spatial_mask, rng.standard_normal((ny, nx)), 0.0)
q = float(np.vdot(f, apply_operator(problem, f)) / np.vdot(f, f))
print(f"rayleigh quotient of a random in-region field: {q:.4f}")
print()

basis = solve(problem, 4)
print("  a    lambda_a     max |A f - lambda f|")
for i, (lam, res) in enumerate(zip(basis.eigenvalues, basis.residuals)):
    print(f"  {i}    {lam:.6f}    {res:.1e}")
print()

# each eigenvalue is exactly the in-band fraction of its field's periodogram
wps = weighted_periodogram_sum(basis, 1)
mask = np.fft.fftshift(problem.spectral_mask)
frac = float(np.sum(wps.values[mask]) / np.sum(wps.values))
print(f"in-band periodogram fraction of field 0: {frac:.6f}")
print(f"matches lambda_0 = {basis.eigenvalues[0]:.6f}")
print()

# wrap the raw eigenfield array back into a grid field for export
import os

from slepkit import GridField

os.makedirs("out", exist_ok=True)
write_grid_text(GridField(problem.grid, basis.fields[0]), "out/wedge_field0.txt")
print("wrote out/wedge_field0.txt; plot it to see stripes perpendicular to")
print("the wedge axis, clipped hard at the quadrilateral's edges")
