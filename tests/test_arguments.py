"""Scalar argument checks: one table row per (function, argument) pair.

Whole-number arguments (counts, orders, rule and series sizes) go through
errors._as_int, positive reals (bandlimits, sizes, Shannon numbers, spacings)
through errors._as_positive.  Each row names the error type its function
raises; ints, integral floats, numpy scalars and 0-d arrays pass.
"""

import functools

import numpy as np
import pytest

from slepkit import (
    ConfigurationError, DiskBandKernel, GridSpec, InvalidRegionError, Region, SpectralDomain,
    assemble_disk_basis, build_problem, coeff_tridiagonal, disk_kernel, dpss, fixed_order_solution,
    fixedm_kernel, gauss_legendre, jacobi_p, n2d_m, nystrom_eigs, region_quadrature,
    scale_to_area, shannon_1d, shannon_2d, sinc_kernel, solve, solve_1d, solve_region_disk,
    spline_boundary, sqrt_kernel, weighted_periodogram_sum, weighted_sumsq, wedge_domain,
)
from slepkit import cli

DISK = Region.disk((0.0, 0.0), 1.0)
TRIANGLE = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
POINT = GridSpec(x0=0.1, y0=-0.2, dx=1.0, dy=1.0, nx=1, ny=1)

# every value below equals 3, and each row's call is valid at 3
PASS = (3, 3.0, np.int64(3), np.float64(3.0), np.array(3.0))
NOT_REAL = (True, np.True_, "3")
NOT_POSITIVE = NOT_REAL + (np.nan, np.inf, -np.inf, -3)
NOT_WHOLE = NOT_POSITIVE + (2.5,)


@functools.cache
def _region_basis():
    return solve_region_disk(DISK, 4.0, n_quad=8, count=4)


@functools.cache
def _grid_problem():
    return build_problem(DISK, SpectralDomain.disk(4.0), 0.25)


WHOLE = {
    "gauss_legendre n": (lambda v: gauss_legendre(v), ValueError),
    "region_quadrature n_per_dim": (lambda v: region_quadrature(DISK, v), ValueError),
    "GridSpec nx": (lambda v: GridSpec(0.0, 0.0, 0.1, 0.1, v, 2), ConfigurationError),
    "GridSpec ny": (lambda v: GridSpec(0.0, 0.0, 0.1, 0.1, 2, v), ConfigurationError),
    "spline_boundary n": (lambda v: spline_boundary(TRIANGLE, v), ValueError),
    "dpss n": (lambda v: dpss(v, 0.1, 1), ValueError),
    "dpss count": (lambda v: dpss(8, 0.1, v), ValueError),
    "coeff_tridiagonal l_max": (lambda v: coeff_tridiagonal(0, 0.001, v), ValueError),
    "fixed_order_solution l_max": (lambda v: fixed_order_solution(0, 0.001, v), ValueError),
    "assemble_disk_basis max_order": (lambda v: assemble_disk_basis(2.0, 1.0, 3, max_order=v),
                                      ValueError),
    "assemble_disk_basis count": (lambda v: assemble_disk_basis(2.0, 1.0, v), ValueError),
    "n2d_m m": (lambda v: n2d_m(v, 1.0), ValueError),
    "fixedm_kernel m": (lambda v: fixedm_kernel(v, 1.0, 0.5, 0.5), ValueError),
    "jacobi_p l": (lambda v: jacobi_p(v, 0, 0.5), ValueError),
    "jacobi_p m": (lambda v: jacobi_p(0, v, 0.5), ValueError),
    "solve_1d count": (lambda v: solve_1d(3.0, n_nodes=16, count=v), ValueError),
    "nystrom_eigs count": (lambda v: nystrom_eigs(DiskBandKernel(4.0),
                                                  region_quadrature(DISK, 8), v), ValueError),
    "weighted_sumsq count": (lambda v: weighted_sumsq(_region_basis(), POINT, v), ValueError),
    "solve count": (lambda v: solve(_grid_problem(), v), ConfigurationError),
    "weighted_periodogram_sum count": (
        lambda v: weighted_periodogram_sum(solve(_grid_problem(), 3), v), ValueError),
}

POSITIVE = {
    "sinc_kernel tw": (lambda v: sinc_kernel(v, 0.1, 0.2), ValueError),
    "disk_kernel k": (lambda v: disk_kernel(v, [0.0, 0.0], [0.5, 0.0]), ValueError),
    "DiskBandKernel k": (lambda v: DiskBandKernel(v), ValueError),
    "sqrt_kernel c": (lambda v: sqrt_kernel(0, v, 0.5, 0.5), ValueError),
    "fixedm_kernel n2d": (lambda v: fixedm_kernel(0, v, 0.5, 0.5), ValueError),
    "coeff_tridiagonal c": (lambda v: coeff_tridiagonal(0, v, 40), ValueError),
    "n2d_m n2d": (lambda v: n2d_m(0, v), ValueError),
    "assemble_disk_basis K": (lambda v: assemble_disk_basis(v, 1.0, 3), ValueError),
    "assemble_disk_basis R": (lambda v: assemble_disk_basis(1.0, v, 3), ValueError),
    "shannon_1d t_half": (lambda v: shannon_1d(v, 1.0), ValueError),
    "shannon_1d w": (lambda v: shannon_1d(1.0, v), ValueError),
    "solve_1d tw": (lambda v: solve_1d(v, n_nodes=16, count=2), ValueError),
    "shannon_2d k": (lambda v: shannon_2d(v, 1.0), ValueError),
    "shannon_2d region_area": (lambda v: shannon_2d(1.0, v), ValueError),
    "GridSpec dx": (lambda v: GridSpec(0.0, 0.0, v, 0.1, 2, 2), ConfigurationError),
    "GridSpec dy": (lambda v: GridSpec(0.0, 0.0, 0.1, v, 2, 2), ConfigurationError),
    "Region.disk radius": (lambda v: Region.disk((0.0, 0.0), v), InvalidRegionError),
    "SpectralDomain.disk bandlimit": (lambda v: SpectralDomain.disk(v), ValueError),
    "scale_to_area target_area": (lambda v: scale_to_area(DISK, v), ValueError),
    "wedge_domain k_max": (lambda v: wedge_domain(0.0, 0.3, v), ValueError),
    "build_problem grid_spacing": (
        lambda v: build_problem(Region.disk((0.0, 0.0), 20.0), SpectralDomain.disk(0.5), v),
        ConfigurationError),
    "build_problem embed_factor": (
        lambda v: build_problem(DISK, SpectralDomain.disk(4.0), 0.25, embed_factor=v),
        ConfigurationError),
    "cli flag": (lambda v: cli._require_positive(v, "--tw"), cli.UsageError),
}

ZERO_ALLOWED = {"fixedm_kernel n2d", "n2d_m n2d"}


def _check(call, error, rejected):
    for value in rejected:
        with pytest.raises(error, match=r", not "):
            call(value)
    for value in PASS:
        call(value)


@pytest.mark.parametrize("name", sorted(WHOLE))
def test_whole_number_arguments(name):
    _check(*WHOLE[name], NOT_WHOLE)


@pytest.mark.parametrize("name", sorted(POSITIVE))
def test_positive_arguments(name):
    _check(*POSITIVE[name], NOT_POSITIVE + (() if name in ZERO_ALLOWED else (0, 0.0)))


def test_zero_where_allowed():
    assert fixedm_kernel(0, 0, 0.5, 0.5) == 0.0
    assert n2d_m(0, 0.0) == 0.0
