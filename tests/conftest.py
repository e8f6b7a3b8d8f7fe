import importlib.resources

import numpy as np
import pytest

import slepkit


def boundary_path():
    return str(importlib.resources.files("slepkit") / "data" / "colorado_plateaus.xy")


def all_pass_problem(region, spacing, embed_factor):
    """The problem whose band is every wavenumber of the grid: an all-true
    mask on the grid's FFT axes, which lies inside Nyquist by construction."""
    grid = slepkit.build_problem(region, slepkit.SpectralDomain.disk(1.0), spacing,
                                 embed_factor=embed_factor).grid
    kx = 2.0 * np.pi * np.fft.fftfreq(grid.nx, grid.dx)
    ky = 2.0 * np.pi * np.fft.fftfreq(grid.ny, grid.dy)
    band = slepkit.SpectralDomain.grid_mask(np.ones((grid.ny, grid.nx), dtype=bool), kx, ky)
    return slepkit.build_problem(region, band, spacing, embed_factor=embed_factor)


@pytest.fixture(scope="session")
def plateau_region():
    return slepkit.read_region(boundary_path())


@pytest.fixture(scope="session")
def unit_disk():
    return slepkit.Region.disk((0.0, 0.0), 1.0)


@pytest.fixture(scope="session")
def disk42_nystrom(unit_disk):
    """Nystrom basis on the unit disk at Shannon number 42, shared read-only."""
    return slepkit.solve_region_disk(unit_disk, 2.0 * np.sqrt(42.0), n_quad=32, count=90)


@pytest.fixture(scope="session")
def disk42_analytic():
    """Analytic mixed-order basis at Shannon number 42, shared read-only."""
    return slepkit.assemble_disk_basis(2.0 * np.sqrt(42.0), 1.0, 40)
