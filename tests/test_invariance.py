"""Invariance oracles for the region route: checks that need no reference answer.

The concentration eigenvalues of a region R under a disk bandlimit K do not
change when R is rotated or shifted, or under R -> sR with K -> K/s.  A solve
is compared with the solve of its transformed twin, so a discretization that
has not converged shows as a difference between the two.
"""

import numpy as np
import pytest

from slepkit import Region, area, scale_to_area, solve_region_disk, spline_boundary

# (kind, seed, n_quad, Shannon number N): seeded shapes of area 4 pi
PROBLEMS = [("star", 11, 32, 14.0), ("spline", 12, 24, 10.0), ("star", 13, 28, 18.0)]


def _star_vertices(rng, n, wobble):
    """A star-shaped simple polygon: increasing angles, radii 1 +- wobble."""
    step = 2.0 * np.pi / n
    theta = step * (np.arange(n) + rng.uniform(-0.3, 0.3, n))
    r = 1.0 + wobble * rng.uniform(-1.0, 1.0, n)
    return np.column_stack([r * np.cos(theta), r * np.sin(theta)])


def _region(kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "star":
        region = Region.polygon(_star_vertices(rng, 16, 0.15))
    else:
        region = spline_boundary(_star_vertices(rng, 10, 0.2), 20)
    return scale_to_area(region, 4.0 * np.pi)[0]


def _eigenvalues(region, n, n_quad):
    """The top round(2N) eigenvalues of `region` at Shannon number N."""
    k = np.sqrt(4.0 * np.pi * n / area(region))
    return solve_region_disk(region, k, n_quad=n_quad, count=int(round(2.0 * n))).eigenvalues


@pytest.mark.parametrize("kind, seed, n_quad, n", PROBLEMS)
def test_scaling(kind, seed, n_quad, n):
    # R -> 3R with K -> K/3; the rule is affine-covariant, so this guards the
    # kernel and its factor's K r_max sizing rather than the rule
    region = _region(kind, seed)
    want = _eigenvalues(region, n, n_quad)
    got = _eigenvalues(Region.polygon(3.0 * region.vertices), n, n_quad)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 1: the region rule is not sized from the bandwidth (a narrow x-panel "
    "keeps 2 nodes at any n_quad), so the moved twin's eigenvalues differ by 4e-5 to 7e-4"))
@pytest.mark.parametrize("kind, seed, n_quad, n", PROBLEMS)
def test_rotation_and_shift(kind, seed, n_quad, n):
    region = _region(kind, seed)
    a = np.deg2rad(63.0)
    rot = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
    moved = Region.polygon(region.vertices @ rot.T + [1e3, -2e3])
    want = _eigenvalues(region, n, n_quad)
    got = _eigenvalues(moved, n, n_quad)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)
