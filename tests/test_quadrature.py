"""Gauss-Legendre rules and region product quadratures."""

import numpy as np
import pytest

from slepkit import (
    InvalidRegionError, Region, area, gauss_legendre, geometry, map_rule, quadrature,
    region_quadrature, spline_boundary, y_extents,
)
from test_geometry import C_SHAPE, edge_loop_extents


def per_call_rule(region, n, extents):
    """(nodes, weights) of region_quadrature assembled with one
    extents(region, x) call and one map_rule call per extent."""
    xs, wxs = quadrature._x_panels(region, n)
    nodes, weights = [], []
    for x, w in zip(xs, wxs):
        for lo, hi in extents(region, x):
            if hi > lo:
                inner = map_rule(gauss_legendre(n), lo, hi)
                nodes.append(np.column_stack([np.full(n, x), inner.nodes]))
                weights.append(w * inner.weights)
    return np.concatenate(nodes), np.concatenate(weights)


class TestGaussLegendre:
    def test_polynomial_exactness(self):
        # an n-point rule integrates monomials up to degree 2n - 1 exactly
        for n in (2, 5, 12):
            rule = gauss_legendre(n)
            for p in range(2 * n):
                got = np.sum(rule.weights * rule.nodes ** p)
                want = 0.0 if p % 2 else 2.0 / (p + 1)
                assert got == pytest.approx(want, abs=1e-13)

    def test_cached_rule_is_a_fresh_copy(self):
        # the rule is computed once per n; callers get arrays of their own
        first = gauss_legendre(9)
        want = np.polynomial.legendre.leggauss(9)
        first.nodes[:] = 0.0
        first.weights *= 2.0
        again = gauss_legendre(9)
        assert again.nodes is not first.nodes and again.nodes.flags.writeable
        np.testing.assert_array_equal(again.nodes, want[0])
        np.testing.assert_array_equal(again.weights, want[1])

    def test_degree_2n_not_exact(self):
        rule = gauss_legendre(3)
        got = np.sum(rule.weights * rule.nodes ** 6)
        assert abs(got - 2.0 / 7.0) > 1e-6

    def test_mapped_rule(self):
        rule = map_rule(gauss_legendre(8), 1.0, 4.0)
        assert np.sum(rule.weights) == pytest.approx(3.0, rel=1e-14)
        got = np.sum(rule.weights * rule.nodes ** 3)
        assert got == pytest.approx((4.0 ** 4 - 1.0) / 4.0, rel=1e-13)

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            gauss_legendre(0)

    @pytest.mark.parametrize("n", [float("inf"), float("-inf"), float("nan")])
    def test_rejects_non_finite_count(self, n):
        with pytest.raises(ValueError, match="node count must be a positive integer"):
            gauss_legendre(n)


class TestRegionQuadrature:
    def test_unit_square_n2_nodes_and_weights(self):
        square = Region.polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        rule = region_quadrature(square, 2)
        # 2x2 product Gauss rule: nodes at (1 +- 1/sqrt(3))/2, weights 1/4
        g = 0.5 / np.sqrt(3.0)
        expect = sorted(
            (0.5 + sx * g, 0.5 + sy * g) for sx in (-1, 1) for sy in (-1, 1))
        got = sorted(map(tuple, rule.nodes))
        np.testing.assert_allclose(got, expect, atol=1e-14)
        np.testing.assert_allclose(rule.weights, 0.25, atol=1e-14)

    def test_disk_weight_sum(self):
        disk = Region.disk((0.0, 0.0), 1.0)
        rule = region_quadrature(disk, 32)
        assert len(rule.weights) == 32 * 32
        assert np.sum(rule.weights) == pytest.approx(np.pi, abs=1e-4)

    def test_polygon_weight_sum_matches_shoelace(self, plateau_region):
        rule = region_quadrature(plateau_region, 32)
        a = area(plateau_region)
        assert np.sum(rule.weights) == pytest.approx(a, rel=1e-6)

    def test_bilinear_exact_on_convex_quad(self):
        # f(x, y) = x y integrates exactly over a trapezoid because the
        # per-panel extents are linear in x
        trap = Region.polygon([(0, 0), (2, 0), (1.5, 1), (0.5, 1)])
        rule = region_quadrature(trap, 4)
        got = np.sum(rule.weights * rule.nodes[:, 0] * rule.nodes[:, 1])
        # oracle: integrate y from 0 to 1 of y * int_x over [y/2, 2 - y/2] x dx
        ys = np.polynomial.legendre.leggauss(20)
        yq = 0.5 * (ys[0] + 1.0)
        wq = 0.5 * ys[1]
        inner = 0.5 * ((2 - yq / 2) ** 2 - (yq / 2) ** 2)
        want = np.sum(wq * yq * inner)
        assert got == pytest.approx(want, abs=1e-12)

    def test_all_nodes_inside(self, plateau_region):
        from slepkit import contains_many
        rule = region_quadrature(plateau_region, 16)
        assert contains_many(plateau_region, rule.nodes).all()

    def test_weights_positive(self):
        reg = Region.polygon([(0, 0), (3, 0), (3, 1), (1, 1), (1, 2), (3, 2),
                              (3, 3), (0, 3)])
        rule = region_quadrature(reg, 8)
        assert (rule.weights > 0).all()
        assert np.sum(rule.weights) == pytest.approx(7.0, rel=1e-12)

    @pytest.mark.parametrize("name", ["disk", "plateau", "trapezoid", "star", "spline",
                                      "c-shape"])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 24, 48])
    def test_matches_per_call_extents(self, name, n, plateau_region):
        # one crossing array and one vectorized map per rule give the nodes
        # and weights of one extents call per abscissa and one map_rule call
        # per extent, bit for bit
        rng = np.random.default_rng(5)
        theta = np.sort(rng.uniform(0.0, 2.0 * np.pi, 19))
        star = np.column_stack([np.cos(theta), np.sin(theta)]) * rng.uniform(0.5, 1.4, (19, 1))
        phi = 2.0 * np.pi * np.arange(9) / 9
        knots = np.column_stack([np.cos(phi), np.sin(phi)]) * rng.uniform(0.8, 1.2, (9, 1))
        region = {"disk": lambda: Region.disk((0.3, -0.2), 1.7),
                  "plateau": lambda: plateau_region,
                  "trapezoid": lambda: Region.polygon([(0, 0), (2, 0), (1.5, 1), (0.5, 1)]),
                  "star": lambda: Region.polygon(star + [30.0, -20.0]),
                  "spline": lambda: spline_boundary(knots, 120),
                  "c-shape": lambda: Region.polygon(C_SHAPE)}[name]()
        rule = region_quadrature(region, n)
        refs = [y_extents] + ([edge_loop_extents] if region.kind == "polygon" else [])
        for extents in refs:
            nodes, weights = per_call_rule(region, n, extents)
            assert np.array_equal(rule.nodes, nodes)
            assert np.array_equal(rule.weights, weights)

    def test_refinement_tightens_disk_area(self):
        disk = Region.disk((0.0, 0.0), 1.0)
        e16 = abs(np.sum(region_quadrature(disk, 16).weights) - np.pi)
        e48 = abs(np.sum(region_quadrature(disk, 48).weights) - np.pi)
        assert e48 < e16


class TestLayout:
    """How region_quadrature lays out its nodes: one block of n consecutive
    nodes per y-extent of each abscissa."""

    def test_gauss_nodes_are_antisymmetric(self):
        for n in range(1, 65):
            nodes = gauss_legendre(n).nodes
            np.testing.assert_array_equal(nodes, -nodes[::-1])
        assert gauss_legendre(7).nodes[3] == 0.0

    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    def test_segments_rebuild_the_nodes(self, plateau_region, unit_disk, n):
        # each block sits at one abscissa of the rule, on the Gauss rule
        # mapped onto one of the extents that geometry._slice_extents finds
        # there; the blocks take the extents in order, abscissa by abscissa
        # from left to right
        bracket = Region.polygon([(0, 0), (3, 0), (3, 1), (1, 1), (1, 2), (3, 2),
                                  (3, 3), (0, 3)])
        for region in (plateau_region, unit_disk, bracket):
            rule = region_quadrature(region, n)
            blocks = rule.nodes.reshape(-1, n, 2)
            xs = blocks[:, 0, 0]
            np.testing.assert_array_equal(blocks[..., 0], np.repeat(xs[:, None], n, axis=1))
            assert np.all(np.diff(xs) >= 0)
            abscissas = np.unique(xs)
            found = [(x, lo, hi) for x, extents in
                     zip(abscissas, geometry._slice_extents(region, abscissas))
                     for lo, hi in extents if hi > lo]
            assert len(found) == len(blocks)
            for (x, lo, hi), block in zip(found, blocks):
                assert block[0, 0] == x
                np.testing.assert_array_equal(block[:, 1],
                                              map_rule(gauss_legendre(n), lo, hi).nodes)
        # the bracket's slices past x = 1 cut two extents each
        assert len(abscissas) < len(blocks)
