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

The scalar functions call the engine's kernels, `_<scheme>_arrays(pa, pb,
pc, pd, k_cos)`, with one-row (1, 2) endpoint arrays, so per-crossing
results are identical whichever path computes them.
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
    safe = np.where(ok, n, 1.0)
    return np.where(ok, dx / safe, 0.0), np.where(ok, dy / safe, 0.0), ok


def _edge_directions(pa, pb, pc, pd):
    """Unit directions of edges (a, b) and (c, d) by `_unit`, and their dot product.

    Both edges go through one `_unit` call. Returns (ux, uy, dot): ux and uy
    are (2, K), row 0 for (a, b) and row 1 for (c, d); dot is u . v, 0 where
    either direction is undefined.
    """
    D = np.array([pb - pa, pd - pc])
    ux, uy, ok = _unit(D[..., 0], D[..., 1])
    return ux, uy, np.where(ok[0] & ok[1], ux[0] * ux[1] + uy[0] * uy[1], 0.0)


def _parallel_arrays(pa, pb, pc, pd, k_cos):
    """Vectorized parallel cosine forces; each argument is a (K, 2) array.

    With unit directions u = (b-a)/|b-a| and v = (d-c)/|d-c| and
    s = u . v (signed, |s| = cos theta):

        on_a = k_cos * s * v      on_b = -on_a
        on_c = k_cos * s * u      on_d = -on_c

    Moving a by eps*on_a changes (b - a) . v by -eps*k_cos*s, shrinking
    |cos theta| to first order; the same holds at every endpoint.
    """
    ux, uy, s = _edge_directions(pa, pb, pc, pd)
    ks = k_cos * s
    # fa = ks * v and fc = ks * u, written as (K, 2) rows of one array.
    f = np.empty((2, ks.size, 2))
    np.multiply(ks, ux[::-1], out=f[..., 0])
    np.multiply(ks, uy[::-1], out=f[..., 1])
    fa, fc = f
    return fa, -fa, fc, -fc


def _rotational_arrays(pa, pb, pc, pd, k_cos):
    """Vectorized rotational cosine forces.

    on_a is perpendicular to edge (a, b) with magnitude k_cos*cos(theta); the
    perpendicular w = perp(u) is oriented by sign((u.v) * (w.v)) so that the
    first-order effect of the step shrinks |cos theta|. Parallel or
    perpendicular configurations give zero. on_b = -on_a, and c, d get the
    symmetric construction perpendicular to (c, d).
    """
    (uhx, vhx), (uhy, vhy), dot = _edge_directions(pa, pb, pc, pd)
    cosang = np.abs(dot)
    wx, wy = -uhy, uhx
    cross_uv = wx * vhx + wy * vhy
    sa = np.sign(dot * cross_uv) * k_cos * cosang
    fa = np.stack([sa * wx, sa * wy], axis=1)
    w2x, w2y = -vhy, vhx
    cross_vu = w2x * uhx + w2y * uhy
    sc = np.sign(dot * cross_vu) * k_cos * cosang
    fc = np.stack([sc * w2x, sc * w2y], axis=1)
    return fa, -fa, fc, -fc


def _attract_repel_endpoint(pe, po1, po2, x, base):
    """Attract/repel components for one endpoint against the other edge.

    The endpoint attracts toward whichever of the other edge's endpoints
    subtends an obtuse angle with it at the intersection point x, and repels
    from the remaining one; both components have magnitude `base`.
    Components whose direction is undefined (endpoint on top of its target)
    are skipped.
    """
    d1 = ((pe[:, 0] - x[:, 0]) * (po1[:, 0] - x[:, 0])
          + (pe[:, 1] - x[:, 1]) * (po1[:, 1] - x[:, 1]))
    toward1 = (d1 < 0)[:, None]
    pt = np.where(toward1, po1, po2)
    pr = np.where(toward1, po2, po1)
    ax, ay, oka = _unit(pt[:, 0] - pe[:, 0], pt[:, 1] - pe[:, 1])
    rx, ry, okr = _unit(pe[:, 0] - pr[:, 0], pe[:, 1] - pr[:, 1])
    att = np.stack([base * ax, base * ay], axis=1) * oka[:, None]
    rep = np.stack([base * rx, base * ry], axis=1) * okr[:, None]
    return att, rep


def _attract_repel_arrays(pa, pb, pc, pd, k_cos, split: bool = False):
    """Vectorized attract/repel cosine forces on properly crossing edge pairs.

    Returns net per-endpoint forces (fa, fb, fc, fd); with split=True returns
    ((attract...), (repel...)) component tuples instead.
    """
    points = _intersection_points(pa, pb, pc, pd)
    cosang = np.abs(_edge_directions(pa, pb, pc, pd)[2])
    base = k_cos * cosang
    aa, ar = _attract_repel_endpoint(pa, pc, pd, points, base)
    ba, br = _attract_repel_endpoint(pb, pc, pd, points, base)
    ca, cr = _attract_repel_endpoint(pc, pa, pb, points, base)
    da, dr = _attract_repel_endpoint(pd, pa, pb, points, base)
    if split:
        return (aa, ba, ca, da), (ar, br, cr, dr)
    return aa + ar, ba + br, ca + cr, da + dr


def _rows(*pts):
    return [np.array([[p[0], p[1]]], dtype=np.float64) for p in pts]


def _pack(fa, fb, fc, fd) -> CrossingForces:
    return CrossingForces(
        ForceVector(float(fa[0, 0]), float(fa[0, 1])),
        ForceVector(float(fb[0, 0]), float(fb[0, 1])),
        ForceVector(float(fc[0, 0]), float(fc[0, 1])),
        ForceVector(float(fd[0, 0]), float(fd[0, 1])),
    )


def parallel_cosine(p_a, p_b, p_c, p_d, k_cos: float) -> CrossingForces:
    """Parallel cosine forces on the endpoints of crossing edges (a,b) x (c,d)."""
    return _pack(*_parallel_arrays(*_rows(p_a, p_b, p_c, p_d), k_cos))


def rotational_cosine(p_a, p_b, p_c, p_d, k_cos: float) -> CrossingForces:
    """Rotational cosine forces on the endpoints of crossing edges (a,b) x (c,d)."""
    return _pack(*_rotational_arrays(*_rows(p_a, p_b, p_c, p_d), k_cos))


def attract_repel_cosine(p_a, p_b, p_c, p_d, k_cos: float) -> CrossingForces:
    """Net attract + repel cosine forces per endpoint for a crossing edge pair.

    The segments must properly cross; degenerate input yields zero forces.
    """
    if proper_intersection((p_a, p_b), (p_c, p_d)) is None:
        z = ForceVector(0.0, 0.0)
        return CrossingForces(z, z, z, z)
    return _pack(*_attract_repel_arrays(*_rows(p_a, p_b, p_c, p_d), k_cos))


def attract_repel_components(p_a, p_b, p_c, p_d, k_cos: float):
    """The attract and repel parts separately, as (attract, repel) CrossingForces.

    Each individual component has magnitude k_cos*cos(theta) (or is zero when
    skipped); the net returned by attract_repel_cosine is their sum.
    """
    if proper_intersection((p_a, p_b), (p_c, p_d)) is None:
        z = ForceVector(0.0, 0.0)
        zero = CrossingForces(z, z, z, z)
        return zero, zero
    att, rep = _attract_repel_arrays(*_rows(p_a, p_b, p_c, p_d), k_cos, split=True)
    return _pack(*att), _pack(*rep)
