"""
Concentrated tapers on an interval
==================================

Functions bandlimited to [-W, W] cannot vanish outside a finite interval,
but a discrete ladder of them comes remarkably close.  This script solves
the interval concentration problem at a fixed time-bandwidth product and
walks through the numbers worth knowing: the eigenvalue step, the Shannon
number, and the finite-sequence (DPSS) analogue.
"""

import numpy as np

from slepkit import dpss, shannon_1d, sinc_matrix, solve_1d

# time-bandwidth product TW = 4: roughly 2TW/pi ~ 2.5 functions fit
tw = 4.0
basis = solve_1d(tw, n_nodes=128, count=8)

print("interval concentration at TW =", tw)
print(f"  shannon number 2TW/pi  : {shannon_1d(1.0, tw):.6f}")
print(f"  sum of every lambda_a  : {basis.trace:.6f}")
print()

# the eigenvalues step from ~1 down to ~0 around the Shannon number
print("  a    lambda_a      1 - lambda_a")
for a, lam in enumerate(basis.eigenvalues):
    print(f"  {a}    {lam:.9f}  {1.0 - lam:.3e}")
print()

# eigenfunctions alternate parity; read it off the quadrature samples
order = np.argsort(basis.nodes)
for a, f in enumerate(basis.node_samples[:4]):
    fs = f[order]
    kind = "even" if np.max(np.abs(fs - fs[::-1])) < 1e-6 else "odd"
    print(f"  taper {a} is {kind} about the interval midpoint")
print()

# the same story for a length-64 sequence: the discrete prolate sequences
n, w = 64, 0.1
seq = dpss(n, w, 16)
k = int(round(2 * n * w))
print(f"dpss({n}, {w}): 2NW = {2 * n * w:.1f}")
print(f"  lambda[{k - 1}] = {seq.eigenvalues[k - 1]:.6f}  (last strong taper)")
print(f"  lambda[{k + 2}] = {seq.eigenvalues[k + 2]:.2e}  (already useless)")

# tridiagonal and dense routes agree to near machine precision
dense = np.linalg.eigvalsh(sinc_matrix(n, w))[::-1][:16]
print(f"  tridiagonal vs dense eigensolve: {np.max(np.abs(seq.eigenvalues - dense)):.2e}")
