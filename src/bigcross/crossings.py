"""Proper-crossing detection between straight-line edges and acute crossing angles.

Two segments cross properly when they intersect at a single point interior
to both. Segments that share an endpoint, touch endpoint-to-interior, are
parallel, or overlap collinearly do not cross. Existence is decided by exact
sign-of-orientation tests (signed doubled triangle areas compared against
zero); only once a crossing is established is the 2x2 linear system solved
for the intersection point, so rounding in the point solve can never flip
the crossing decision.
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


def _orient(a, b, c) -> float:
    """Signed doubled area of triangle (a, b, c); >0 for a left turn."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _opposite(x: float, y: float) -> bool:
    return (x > 0 and y < 0) or (x < 0 and y > 0)


def proper_intersection(seg1, seg2):
    """Intersection point of two open segments, or None.

    Returns (x, y) iff the segments cross at a single interior point of
    both. All measure-zero contacts (shared endpoints, endpoint-on-interior,
    collinear overlap) and disjoint/parallel configurations return None.
    """
    p1, p2 = seg1
    p3, p4 = seg2
    o1 = _orient(p1, p2, p3)
    o2 = _orient(p1, p2, p4)
    o3 = _orient(p3, p4, p1)
    o4 = _orient(p3, p4, p2)
    if not (_opposite(o1, o2) and _opposite(o3, o4)):
        return None
    rx, ry = p2[0] - p1[0], p2[1] - p1[1]
    sx, sy = p4[0] - p3[0], p4[1] - p3[1]
    denom = rx * sy - ry * sx
    t = ((p3[0] - p1[0]) * sy - (p3[1] - p1[1]) * sx) / denom
    return (p1[0] + t * rx, p1[1] + t * ry)


def _crossing_arrays(graph: Graph, pos: np.ndarray):
    """Vectorized proper-crossing scan over all non-adjacent edge pairs.

    Decides existence only, by the exact sign-of-orientation predicate
    vectorized with identical expressions to the scalar path. Returns (rows,
    quads): the ascending rows of graph.nonadjacent_edge_pairs that cross,
    and (K, 4) vertex ids [a, b, c, d] of their two edges, from which
    `_intersection_points` and `_acute_angles` derive the geometry. Raises
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
    # can never flip the exact orientation decision below.
    ex, ey = px.take(e.T), py.take(e.T)
    lox, hix = np.minimum(ex[0], ex[1]), np.maximum(ex[0], ex[1])
    loy, hiy = np.minimum(ey[0], ey[1]), np.maximum(ey[0], ey[1])
    boxed = (lox[pe1] <= hix[pe2]) & (lox[pe2] <= hix[pe1]) \
        & (loy[pe1] <= hiy[pe2]) & (loy[pe2] <= hiy[pe1])
    sub = boxed.nonzero()[0]
    q = graph.pair_endpoint_ids.take(sub, axis=1)

    # Rows of X and Y are the coordinates of a, b, c, d. o12 holds the
    # orientations of c and d against edge (a, b), o34 those of a and b
    # against edge (c, d), by the expressions of `_orient`. Two values lie
    # strictly on opposite sides when they differ both in "> 0" and in "< 0".
    X, Y = px.take(q), py.take(q)
    o12 = (X[1] - X[0]) * (Y[2:] - Y[0]) - (Y[1] - Y[0]) * (X[2:] - X[0])
    o34 = (X[3] - X[2]) * (Y[:2] - Y[2]) - (Y[3] - Y[2]) * (X[:2] - X[2])
    pos12, neg12, pos34, neg34 = o12 > 0, o12 < 0, o34 > 0, o34 < 0
    idx = ((pos12[0] != pos12[1]) & (neg12[0] != neg12[1])
           & (pos34[0] != pos34[1]) & (neg34[0] != neg34[1])).nonzero()[0]
    return sub[idx], q.take(idx, axis=1).T


def _intersection_points(pos: np.ndarray, quads: np.ndarray) -> np.ndarray:
    """(K, 2) intersection points of crossing edge pairs given as (K, 4) quads."""
    p1, p3 = pos[quads[:, 0]], pos[quads[:, 2]]
    r, s = pos[quads[:, 1]] - p1, pos[quads[:, 3]] - p3
    denom = r[:, 0] * s[:, 1] - r[:, 1] * s[:, 0]
    t = ((p3[:, 0] - p1[:, 0]) * s[:, 1] - (p3[:, 1] - p1[:, 1]) * s[:, 0]) / denom
    return np.stack([p1[:, 0] + t * r[:, 0], p1[:, 1] + t * r[:, 1]], axis=1)


def _acute_angles(pos: np.ndarray, quads: np.ndarray) -> np.ndarray:
    """(K,) acute angles in degrees of crossing edge pairs given as (K, 4) quads."""
    r = pos[quads[:, 1]] - pos[quads[:, 0]]
    s = pos[quads[:, 3]] - pos[quads[:, 2]]
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
    pairs = graph.nonadjacent_edge_pairs[rows].tolist()
    points = _intersection_points(layout.positions, quads).tolist()
    thetas = _acute_angles(layout.positions, quads).tolist()
    return [Crossing(a, b, (x, y), theta)
            for (a, b), (x, y), theta in zip(pairs, points, thetas)]
