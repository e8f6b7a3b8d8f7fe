"""Gauss-Legendre rules and their tensorization over planar regions."""

import functools
from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import InvalidRegionError


@dataclass
class QuadratureRule1D:
    nodes: np.ndarray
    weights: np.ndarray


@dataclass
class RegionQuadrature:
    """Product rule over a region: flattened 2D nodes with positive weights.

    The layout, when present, records how the nodes were built: segment i is
    the vertical slice (x_i, lo_i, hi_i), and node block i (rows
    i * len(base) onward) sits at abscissa x_i with ordinates
    map_rule(base, lo_i, hi_i).  `base` holds the Gauss nodes on [-1, 1]
    that every segment shares, exactly antisymmetric (base == -base[::-1]).
    The solver reads only the nodes and weights.
    """
    nodes: np.ndarray    # (m, 2)
    weights: np.ndarray  # (m,)
    region: object
    segments: np.ndarray = None  # (s, 3) rows (x, lo, hi), m = s * len(base)
    base: np.ndarray = None      # (n_quad,) nodes on [-1, 1] shared by the segments


@functools.lru_cache(maxsize=256)
def _leggauss(n):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def gauss_legendre(n):
    """n-point Gauss-Legendre rule on [-1, 1].

    The nodes and weights are computed once per n and handed out as fresh
    copies, so callers may modify what they receive.
    """
    if n < 1 or int(n) != n:
        raise ValueError("node count must be a positive integer")
    nodes, weights = _leggauss(int(n))
    return QuadratureRule1D(nodes.copy(), weights.copy())


def map_rule(rule, a, b):
    """Affine image of a rule on the interval (a, b); weight sum becomes b - a."""
    a, b = float(a), float(b)
    if not a < b:
        raise ValueError("interval must satisfy a < b")
    half = 0.5 * (b - a)
    return QuadratureRule1D(a + half * (rule.nodes + 1.0), half * rule.weights)


def _x_panels(region, n_per_dim):
    """Outer x-rule: composite Gauss-Legendre split at interior vertex abscissas.

    Panel splitting keeps the x-integrand (the extent profile) smooth on each
    panel, so polygon areas and low moments integrate exactly; regions without
    interior abscissa kinks (disks, rectangles) get the plain single rule.
    """
    xmin, xmax, _, _ = region.bounding_box()
    width = xmax - xmin
    breaks = [xmin, xmax]
    if region.kind == "polygon":
        vx = np.unique(region.vertices[:, 0])
        interior = vx[(vx > xmin + 1e-12 * width) & (vx < xmax - 1e-12 * width)]
        keep = []
        for v in interior:
            if not keep or v - keep[-1] > 1e-12 * width:
                keep.append(float(v))
        breaks = [xmin] + keep + [xmax]
    base = gauss_legendre(n_per_dim)
    xs, ws = [], []
    for a, b in zip(breaks[:-1], breaks[1:]):
        n_panel = max(2, int(np.ceil(n_per_dim * (b - a) / width)))
        panel = map_rule(gauss_legendre(n_panel) if n_panel != n_per_dim else base, a, b)
        xs.append(panel.nodes)
        ws.append(panel.weights)
    return np.concatenate(xs), np.concatenate(ws)


def region_quadrature(region, n_per_dim=32):
    """Tensor quadrature over a region.

    Outer composite Gauss-Legendre rule in x over the bounding interval; at
    each x-node (all found in one pass, geometry._slice_extents) every
    disjoint y-extent interval is one segment and receives
    its own mapped n_per_dim-point rule; weights are the pairwise products.
    The segments and the shared inner nodes are kept as the rule's layout.
    """
    if n_per_dim < 1:
        raise ValueError("n_per_dim must be positive")
    xs, wxs = _x_panels(region, n_per_dim)
    inner = gauss_legendre(n_per_dim)
    segments, wx = [], []
    for x, w, extents in zip(xs, wxs, geometry._slice_extents(region, xs)):
        for lo, hi in extents:
            if hi > lo:
                segments.append((x, lo, hi))
                wx.append(w)
    if not segments:
        raise InvalidRegionError("region has empty interior at all quadrature abscissas")
    segments = np.array(segments, dtype=float)
    half = 0.5 * (segments[:, 2:] - segments[:, 1:2])
    weights = (np.array(wx)[:, None] * (half * inner.weights)).ravel()
    return RegionQuadrature(layout_nodes(segments, inner.nodes), weights, region, segments,
                            inner.nodes)


def layout_nodes(segments, base):
    """(s len(base), 2) nodes of a layout: map_rule(base, lo_i, hi_i) at each x_i.

    The arithmetic is map_rule's, one segment per row, so the nodes are
    bit-identical to mapping the rule segment by segment.
    """
    x, lo, hi = (col[:, None] for col in np.asarray(segments, dtype=float).T)
    y = lo + 0.5 * (hi - lo) * (np.asarray(base, dtype=float) + 1.0)
    return np.stack(np.broadcast_arrays(x, y), axis=-1).reshape(-1, 2)
