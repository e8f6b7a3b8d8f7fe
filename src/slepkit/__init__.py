"""slepkit: optimally concentrated bandlimited function families.

Orthogonal families of bandlimited functions whose energy is maximally
confined to a chosen interval, disk, or arbitrary planar region, with
eigenvalue accounting (Shannon numbers, step spectra), Nystrom solvers,
analytic disk solutions, and grid projection operators for fully general
spectral domains.
"""

import os as _os


def _parse_threads(text):
    """A SLEPKIT_THREADS value as an integer >= 1, or None if it is not one."""
    try:
        n = int(text)
    except ValueError:
        return None
    return n if n >= 1 else None


# Thread-count plumbing must run before numpy first loads its BLAS, which is
# why it sits above every other import.  Invalid values are ignored here and
# rejected with a usage error by the command-line front end.
_threads = _parse_threads(_os.environ.get("SLEPKIT_THREADS", ""))
if _threads is not None:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        _os.environ[_var] = str(_threads)

__version__ = "0.1.0"

from .errors import (
    ConfigurationError, DegenerateNormalizationError, ExtensionError,
    InvalidRegionError, NumericalError, SlepkitError,
)
from .specialfn import bessel_j, bessel_j1_over_x, jacobi_p
from .geometry import (
    Region, SpectralDomain, area, contains, contains_many, hermitian_symmetrize,
    read_region, scale_to_area, spline_boundary, wedge_domain, write_region,
    y_extents,
)
from .quadrature import (
    QuadratureRule1D, RegionQuadrature, gauss_legendre, map_rule,
    region_quadrature,
)
from .kernels import (
    DiskBandKernel, disk_kernel, fixedm_kernel, sinc_kernel, sqrt_kernel,
)
from .fredholm import (
    NystromSolution, eigennormalized_samples, nystrom_eigs, nystrom_extend,
)
from .pswf1d import (
    Basis1D, DpssSet, dpss, evaluate_1d, shannon_1d, sinc_matrix, solve_1d,
)
from .diskanalytic import (
    DiskBasis, DiskEntry, FixedOrderBranch, FixedOrderSolution,
    assemble_disk_basis, coeff_tridiagonal, evaluate_disk_entry,
    fixed_order_solution, gamma_lambda, n2d_m, phi_bessel, phi_space,
)
from .planeslep import (
    GridField, GridSpec, SlepianBasis, evaluate_g, evaluate_h, periodogram,
    read_grid, read_grid_text, region_mask, shannon_2d, solve_region_disk,
    weighted_sumsq, write_grid, write_grid_text,
)
from .gridprojector import (
    GridBasis, OperatorProblem, build_problem, solve, weighted_periodogram_sum,
)
from .gridprojector import apply as apply_operator
