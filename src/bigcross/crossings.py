"""Proper-crossing detection between straight-line edges and acute crossing angles.

Two segments cross properly when they intersect at a single point interior
to both. Segments that share an endpoint, touch endpoint-to-interior, are
parallel, or overlap collinearly do not cross. Existence is decided by the
signs of four float64 orientations (signed doubled triangle areas), each
compared with zero with no tolerance, in one predicate that the engine's
scan and `proper_intersection` share. Only once a crossing is established
is the 2x2 linear system solved for the intersection point, so rounding in
the point solve can never flip the crossing decision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, Layout


@dataclass(frozen=True)
class Crossing:
    """A properly intersecting pair of edges.

    edge_a < edge_b are edge ids (indices into graph.edges); theta is the
    acute crossing angle in degrees, in (0, 90].
    """

    edge_a: int
    edge_b: int
    point: tuple[float, float]
    theta: float


def _crosses(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Which segment pairs cross properly, as a boolean array.

    X and Y are (4, K): rows 0..3 hold the coordinates of a, b, c, d for
    edges (a, b) and (c, d). o12 holds the orientations of c and d against
    edge (a, b), o34 those of a and b against edge (c, d). A pair crosses
    when both pairs of orientations lie strictly on opposite sides of zero,
    that is, differ both in "> 0" and in "< 0".
    """
    o12 = (X[1] - X[0]) * (Y[2:] - Y[0]) - (Y[1] - Y[0]) * (X[2:] - X[0])
    o34 = (X[3] - X[2]) * (Y[:2] - Y[2]) - (Y[3] - Y[2]) * (X[:2] - X[2])
    pos12, neg12, pos34, neg34 = o12 > 0, o12 < 0, o34 > 0, o34 < 0
    return ((pos12[0] != pos12[1]) & (neg12[0] != neg12[1])
            & (pos34[0] != pos34[1]) & (neg34[0] != neg34[1]))


def proper_intersection(seg1, seg2):
    """Intersection point of two open segments, or None.

    Returns (x, y) iff the segments cross at a single interior point of
    both. All measure-zero contacts (shared endpoints, endpoint-on-interior,
    collinear overlap) and disjoint/parallel configurations return None.
    Coordinates are taken as float64.
    """
    pts = np.array([*seg1, *seg2], dtype=np.float64)
    if not _crosses(pts[:, :1], pts[:, 1:])[0]:
        return None
    return tuple(_intersection_points(*pts[:, None])[0].tolist())


def _crossing_arrays(graph: Graph, pos: np.ndarray):
    """Vectorized proper-crossing scan over all non-adjacent edge pairs.

    Decides existence only, by the `_crosses` predicate. Returns (rows,
    quads): the ascending rows of graph.nonadjacent_edge_pairs that cross,
    and (K, 4) vertex ids [a, b, c, d] of their two edges, whose gathered
    positions `_intersection_points` and `_acute_angles` take. Raises
    ValueError when pos does not hold one row per vertex.
    """
    if pos.shape[0] != graph.n:
        raise ValueError(f"layout has {pos.shape[0]} positions for a graph with {graph.n} vertices")
    cand = graph.nonadjacent_edge_pairs
    pe1, pe2 = cand[:, 0], cand[:, 1]
    e = graph.edge_array
    px, py = np.ascontiguousarray(pos.T)

    # Bounding-box prefilter. Overlapping closed boxes are a necessary
    # condition for a proper crossing and the test is comparison-only, so it
    # can never flip the orientation decision below.
    ex, ey = px.take(e.T), py.take(e.T)
    lox, hix = np.minimum(ex[0], ex[1]), np.maximum(ex[0], ex[1])
    loy, hiy = np.minimum(ey[0], ey[1]), np.maximum(ey[0], ey[1])
    boxed = (lox[pe1] <= hix[pe2]) & (lox[pe2] <= hix[pe1]) \
        & (loy[pe1] <= hiy[pe2]) & (loy[pe2] <= hiy[pe1])
    sub = boxed.nonzero()[0]
    q = graph.pair_endpoint_ids.take(sub, axis=1)
    idx = _crosses(px.take(q), py.take(q)).nonzero()[0]
    return sub[idx], q.take(idx, axis=1).T


def _intersection_points(pa, pb, pc, pd) -> np.ndarray:
    """(K, 2) intersection points of crossing edges (a, b) x (c, d), from (K, 2) endpoints."""
    r, s = pb - pa, pd - pc
    denom = r[:, 0] * s[:, 1] - r[:, 1] * s[:, 0]
    t = ((pc[:, 0] - pa[:, 0]) * s[:, 1] - (pc[:, 1] - pa[:, 1]) * s[:, 0]) / denom
    return np.stack([pa[:, 0] + t * r[:, 0], pa[:, 1] + t * r[:, 1]], axis=1)


def _acute_angles(pa, pb, pc, pd) -> np.ndarray:
    """(K,) acute angles in degrees of crossing edges (a, b) x (c, d), from (K, 2) endpoints."""
    r, s = pb - pa, pd - pc
    rx, ry, sx, sy = r[:, 0], r[:, 1], s[:, 0], s[:, 1]
    dot = rx * sx + ry * sy
    nr = np.sqrt(rx * rx + ry * ry)
    ns = np.sqrt(sx * sx + sy * sy)
    return np.degrees(np.arccos(np.minimum(np.abs(dot) / (nr * ns), 1.0)))


def find_crossings(graph: Graph, layout: Layout) -> list[Crossing]:
    """All properly crossing non-adjacent edge pairs of a drawing.

    Each crossing pair is listed once (edge_a < edge_b, lexicographic order)
    with its intersection point and acute angle. Pairs of edges that share
    an endpoint are never candidates. Raises ValueError when the layout's
    size does not match the graph.
    """
    rows, quads = _crossing_arrays(graph, layout.positions)
    ends = layout.positions.take(quads.T, axis=0)
    pairs = graph.nonadjacent_edge_pairs[rows].tolist()
    points = _intersection_points(*ends).tolist()
    thetas = _acute_angles(*ends).tolist()
    return [Crossing(a, b, (x, y), theta)
            for (a, b), (x, y), theta in zip(pairs, points, thetas)]
