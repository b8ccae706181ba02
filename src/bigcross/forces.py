"""Force kernels: Hooke springs, inverse-square repulsion, and the cosine forces.

The cosine force acts on the four endpoints of a properly crossing edge
pair. Its magnitude is k_cos * cos(theta) for crossing angle theta, so a
right-angle crossing feels nothing. Three direction schemes are provided:

- parallel:      each endpoint is pushed along the direction of the *other*
                 crossed edge,
- rotational:    each endpoint is pushed perpendicular to its *own* edge,
- attract_repel: each endpoint is pulled toward one endpoint of the other
                 edge and pushed away from the remaining one.

For every scheme the sign is fixed so that an infinitesimal step along the
returned forces decreases |cos(theta)|, i.e. drives the crossing toward a
right angle. The parallel and rotational schemes apply equal-and-opposite
forces to the two endpoints of each edge, so their net force per crossing
is zero. Their net torque is not: with unit directions u = (b-a)/L_ab and
v = (d-c)/L_cd, s = u . v and u x v the 2D cross product, it is

- parallel:   k_cos * s * (u x v) * (L_cd - L_ab),
- rotational: k_cos * |s| * sign(s * (u x v)) * (L_cd - L_ab),

so only a crossing of two equal-length edges leaves the drawing unspun.

The engine's kernels `_<scheme>_arrays(pa, pb, pc, pd, k_cos)` map the (K, 2)
endpoints of K crossings to one C-contiguous float64 (4, K, 2) array of
per-endpoint forces, rows [a, b, c, d]. The scalar functions call them with
K = 1, so per-crossing results are identical whichever path computes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .crossings import _intersection_points, proper_intersection

# Below this separation a vertex pair counts as coincident: distance-based
# kernels return zero and the engine resolves the pair by deterministic jitter.
COINCIDENCE_EPS = 1e-9

# Unit-vector guard: normalizing anything shorter than this yields zero force
# instead of a near-infinity.
NORM_EPS = 1e-12


class ForceVector(NamedTuple):
    fx: float
    fy: float


@dataclass(frozen=True)
class CrossingForces:
    """Forces on the four endpoints of a crossing edge pair (a,b) x (c,d)."""

    on_a: ForceVector
    on_b: ForceVector
    on_c: ForceVector
    on_d: ForceVector


def spring_force(p_u, p_v, k_s: float, l: float) -> ForceVector:
    """Hooke spring force on v from the edge (u, v): magnitude k_s*(d - l).

    Attracts v toward u when the spring is stretched (d > l), pushes it away
    when compressed. Endpoints closer than COINCIDENCE_EPS yield zero.
    """
    dx, dy = p_u[0] - p_v[0], p_u[1] - p_v[1]
    d = math.hypot(dx, dy)
    if d < COINCIDENCE_EPS:
        return ForceVector(0.0, 0.0)
    mag = k_s * (d - l)
    return ForceVector(mag * dx / d, mag * dy / d)


def repulsive_force(p_u, p_v, k_r: float) -> ForceVector:
    """Inverse-square repulsion on v from u: magnitude k_r / d^2, directed away."""
    dx, dy = p_v[0] - p_u[0], p_v[1] - p_u[1]
    d = math.hypot(dx, dy)
    if d < COINCIDENCE_EPS:
        return ForceVector(0.0, 0.0)
    mag = k_r / (d * d)
    return ForceVector(mag * dx / d, mag * dy / d)


def _unit(dx: np.ndarray, dy: np.ndarray):
    """Normalize vectors given as component arrays; short vectors become zero."""
    n = np.sqrt(dx * dx + dy * dy)
    ok = n >= NORM_EPS
    n[~ok] = 1.0
    return np.where(ok, dx / n, 0.0), np.where(ok, dy / n, 0.0), ok


def _edge_directions(pa, pb, pc, pd):
    """Unit directions of edges (a, b) and (c, d) by `_unit`, and their dot product.

    Both edges go through one `_unit` call. Returns (ux, uy, dot): ux and uy
    are (2, K), row 0 for (a, b) and row 1 for (c, d); dot is u . v, 0 where
    either direction is undefined.
    """
    D = np.array([pb - pa, pd - pc])
    ux, uy, ok = _unit(D[..., 0], D[..., 1])
    return ux, uy, np.where(ok[0] & ok[1], ux[0] * ux[1] + uy[0] * uy[1], 0.0)


def _opposed(s, x, y) -> np.ndarray:
    """Rows [f, -f] of the forces f = s * (x, y), as one C-contiguous float64 array.

    x and y are (K,) or (R, K) and s broadcasts against them; the result is
    (2, K, 2), or (2R, K, 2) with rows [f_0, -f_0, f_1, -f_1, ...].
    """
    out = np.empty((*x.shape[:-1], 2, x.shape[-1], 2))
    np.multiply(s, x, out=out[..., 0, :, 0])
    np.multiply(s, y, out=out[..., 0, :, 1])
    np.negative(out[..., 0, :, :], out=out[..., 1, :, :])
    return out.reshape(2 * math.prod(x.shape[:-1]), x.shape[-1], 2)


def _parallel_arrays(pa, pb, pc, pd, k_cos):
    """Vectorized parallel cosine forces: (K, 2) endpoints in, (4, K, 2) [a, b, c, d] out.

    With unit directions u = (b-a)/|b-a| and v = (d-c)/|d-c| and
    s = u . v (signed, |s| = cos theta):

        on_a = k_cos * s * v      on_b = -on_a
        on_c = k_cos * s * u      on_d = -on_c

    Moving a by eps*on_a changes (b - a) . v by -eps*k_cos*s, shrinking
    |cos theta| to first order; the same holds at every endpoint.
    """
    ux, uy, s = _edge_directions(pa, pb, pc, pd)
    return _opposed(k_cos * s, ux[::-1], uy[::-1])


def _rotational_arrays(pa, pb, pc, pd, k_cos):
    """Vectorized rotational cosine forces: (K, 2) endpoints in, (4, K, 2) [a, b, c, d] out.

    on_a is perpendicular to edge (a, b) with magnitude k_cos*cos(theta); the
    perpendicular w = perp(u) is oriented by sign((u.v) * (w.v)) so that the
    first-order effect of the step shrinks |cos theta|. Parallel or
    perpendicular configurations give zero. on_b = -on_a, and c, d get the
    same construction perpendicular to (c, d), in row 1 of the edge stacks.
    """
    ux, uy, dot = _edge_directions(pa, pb, pc, pd)
    wx, wy = -uy, ux
    cross = wx * ux[::-1] + wy * uy[::-1]
    return _opposed(np.sign(dot * cross) * k_cos * np.abs(dot), wx, wy)


def _scaled_unit(base, d):
    """Overwrite the (..., 2) rows of d with base times their `_unit` vectors (zero if none)."""
    ux, uy, _ = _unit(d[..., 0], d[..., 1])
    np.multiply(base, ux, out=d[..., 0])
    np.multiply(base, uy, out=d[..., 1])
    return d


def _attract_repel_parts(pa, pb, pc, pd, k_cos):
    """Attract and repel components of the attract/repel cosine force, as (att, rep).

    Each is (4, K, 2), rows [a, b, c, d], for (K, 2) endpoints of properly
    crossing edges. Every endpoint attracts toward whichever endpoint of the
    other edge subtends an obtuse angle with it at the intersection point,
    and repels from the remaining one; both components have magnitude
    k_cos*cos(theta). Components whose direction is undefined (endpoint on
    top of its target) are zero.
    """
    x = _intersection_points(pa, pb, pc, pd)
    base = k_cos * np.abs(_edge_directions(pa, pb, pc, pd)[2])
    # ends[i, j] is endpoint j of edge i, and o1, o2 are views of the other
    # edge's two endpoints. `del` drops (4, K, 2) temporaries once used.
    ends = np.stack([pa, pb, pc, pd]).reshape(2, 2, len(pa), 2)
    o1, o2 = ends[::-1, :1], ends[::-1, 1:]
    r, s = ends - x, o1 - x
    toward1 = (r[..., 0] * s[..., 0] + r[..., 1] * s[..., 1] < 0)[..., None]
    del x, r, s
    att = _scaled_unit(base, np.where(toward1, o1, o2) - ends)
    rep = _scaled_unit(base, ends - np.where(toward1, o2, o1))
    return att.reshape(4, len(pa), 2), rep.reshape(4, len(pa), 2)


def _attract_repel_arrays(pa, pb, pc, pd, k_cos):
    """Net attract/repel cosine forces, att + rep of `_attract_repel_parts`, as (4, K, 2)."""
    att, rep = _attract_repel_parts(pa, pb, pc, pd, k_cos)
    return att + rep


def _rows(*pts):
    return [np.array([[p[0], p[1]]], dtype=np.float64) for p in pts]


def _pack(f) -> CrossingForces:
    """CrossingForces from the rows of one (4, 1, 2) kernel output."""
    return CrossingForces(*(ForceVector(*row[0].tolist()) for row in f))


def parallel_cosine(p_a, p_b, p_c, p_d, k_cos: float) -> CrossingForces:
    """Parallel cosine forces on the endpoints of crossing edges (a,b) x (c,d)."""
    return _pack(_parallel_arrays(*_rows(p_a, p_b, p_c, p_d), k_cos))


def rotational_cosine(p_a, p_b, p_c, p_d, k_cos: float) -> CrossingForces:
    """Rotational cosine forces on the endpoints of crossing edges (a,b) x (c,d)."""
    return _pack(_rotational_arrays(*_rows(p_a, p_b, p_c, p_d), k_cos))


def _attract_repel_one(p_a, p_b, p_c, p_d, k_cos):
    """`_attract_repel_parts` of one crossing; zeros unless the segments properly cross."""
    if proper_intersection((p_a, p_b), (p_c, p_d)) is None:
        return np.zeros((2, 4, 1, 2))
    return _attract_repel_parts(*_rows(p_a, p_b, p_c, p_d), k_cos)


def attract_repel_cosine(p_a, p_b, p_c, p_d, k_cos: float) -> CrossingForces:
    """Net attract + repel cosine forces per endpoint for a crossing edge pair.

    The segments must properly cross; degenerate input yields zero forces.
    """
    att, rep = _attract_repel_one(p_a, p_b, p_c, p_d, k_cos)
    return _pack(att + rep)


def attract_repel_components(p_a, p_b, p_c, p_d, k_cos: float):
    """The attract and repel parts separately, as (attract, repel) CrossingForces.

    Each individual component has magnitude k_cos*cos(theta) (or is zero when
    skipped); the net returned by attract_repel_cosine is their sum.
    """
    return tuple(map(_pack, _attract_repel_one(p_a, p_b, p_c, p_d, k_cos)))
