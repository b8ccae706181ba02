"""Reference geometry for the benchmark's correctness checks.

Nothing here imports bigcross: the checks compare the program's outputs
with computations made apart from it.

Orientation signs use a float filter with Shewchuk's static error bound
for orient2d; a sign the filter cannot certify is recomputed exactly with
`fractions.Fraction` on the same doubles. A pair of edges crosses properly
when each edge's endpoints lie strictly on opposite sides of the other's
line. Crossing angles come from atan2 of the cross and dot products, not
from an arccos, so rounding errors of the two methods are independent.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# Shewchuk's ccwerrboundA, (3 + 16 eps) * eps with eps = 2**-53.
_ORIENT_BOUND = (3.0 + 16.0 * 2.0 ** -53) * 2.0 ** -53

CHUNK = 1 << 18


def _exact_orient(ax, ay, bx, by, cx, cy) -> int:
    det = ((Fraction(bx) - Fraction(ax)) * (Fraction(cy) - Fraction(ay))
           - (Fraction(by) - Fraction(ay)) * (Fraction(cx) - Fraction(ax)))
    return (det > 0) - (det < 0)


def orient_signs(ax, ay, bx, by, cx, cy) -> np.ndarray:
    """Exact sign (-1, 0, 1) of the orientation of each triangle (a, b, c)."""
    left = (bx - ax) * (cy - ay)
    right = (by - ay) * (cx - ax)
    det = left - right
    sign = np.sign(det).astype(np.int8)
    unsure = np.abs(det) <= _ORIENT_BOUND * (np.abs(left) + np.abs(right))
    for k in np.nonzero(unsure)[0]:
        sign[k] = _exact_orient(float(ax[k]), float(ay[k]), float(bx[k]), float(by[k]),
                                float(cx[k]), float(cy[k]))
    return sign


def disjoint_edge_pairs(edges: np.ndarray) -> np.ndarray:
    """All (i, j), i < j, of edges that share no endpoint, as a (P, 2) array."""
    m = edges.shape[0]
    i, j = np.triu_indices(m, k=1)
    a, b = edges[i, 0], edges[i, 1]
    c, d = edges[j, 0], edges[j, 1]
    keep = (a != c) & (a != d) & (b != c) & (b != d)
    return np.stack([i[keep], j[keep]], axis=1)


def crosses(pos: np.ndarray, edges: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Boolean mask: does edge pair k of `pairs` cross properly in drawing `pos`."""
    out = np.zeros(pairs.shape[0], dtype=bool)
    for lo in range(0, pairs.shape[0], CHUNK):
        p = pairs[lo:lo + CHUNK]
        a = pos[edges[p[:, 0], 0]]
        b = pos[edges[p[:, 0], 1]]
        c = pos[edges[p[:, 1], 0]]
        d = pos[edges[p[:, 1], 1]]
        o1 = orient_signs(a[:, 0], a[:, 1], b[:, 0], b[:, 1], c[:, 0], c[:, 1])
        o2 = orient_signs(a[:, 0], a[:, 1], b[:, 0], b[:, 1], d[:, 0], d[:, 1])
        o3 = orient_signs(c[:, 0], c[:, 1], d[:, 0], d[:, 1], a[:, 0], a[:, 1])
        o4 = orient_signs(c[:, 0], c[:, 1], d[:, 0], d[:, 1], b[:, 0], b[:, 1])
        out[lo:lo + CHUNK] = (o1 * o2 < 0) & (o3 * o4 < 0)
    return out


def acute_angles(pos: np.ndarray, edges: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Acute angle in degrees between the two edges of each pair."""
    u = pos[edges[pairs[:, 0], 1]] - pos[edges[pairs[:, 0], 0]]
    v = pos[edges[pairs[:, 1], 1]] - pos[edges[pairs[:, 1], 0]]
    cross = np.abs(u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])
    dot = np.abs(u[:, 0] * v[:, 0] + u[:, 1] * v[:, 1])
    return np.degrees(np.arctan2(cross, dot))


def crossing_stats(pos: np.ndarray, edges: np.ndarray) -> tuple[int, float]:
    """(number of proper crossings, mean acute crossing angle; 0 if none)."""
    pairs = disjoint_edge_pairs(edges)
    hit = pairs[crosses(pos, edges, pairs)]
    if hit.shape[0] == 0:
        return 0, 0.0
    return int(hit.shape[0]), float(acute_angles(pos, edges, hit).mean())


def angular_resolution(pos: np.ndarray, n: int, edges: np.ndarray) -> tuple[float | None, int]:
    """(smallest angle in degrees between edges at a common vertex, max degree).

    The angle is None when no vertex has two incident edges of nonzero length.
    """
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges.tolist():
        nbrs[u].append(v)
        nbrs[v].append(u)
    best = None
    for v in range(n):
        dirs = sorted(math.atan2(pos[u, 1] - pos[v, 1], pos[u, 0] - pos[v, 0])
                      for u in nbrs[v] if (pos[u, 0], pos[u, 1]) != (pos[v, 0], pos[v, 1]))
        if len(dirs) < 2:
            continue
        gaps = [b - a for a, b in zip(dirs, dirs[1:])] + [2.0 * math.pi - (dirs[-1] - dirs[0])]
        g = math.degrees(min(gaps))
        best = g if best is None else min(best, g)
    return best, max(len(x) for x in nbrs)
