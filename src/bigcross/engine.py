"""Iterative force-directed layout loop with a movement-based stopping rule.

Every iteration computes, from the frozen current positions, the spring
force on each edge, the repulsion between every vertex pair and (for the
cosine variants) the cosine force for every proper crossing, then moves all
vertices simultaneously by step * force, with the per-vertex displacement
magnitude capped. The run stops once the maximum movement among all
vertices is at or below the threshold in both x and y, or when the
iteration cap is reached.

There is no cooling schedule: the stopping rule is a stationarity test and
a temperature ramp would mask it. Crossings are recomputed from scratch
every iteration (naive pairwise scan).
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

import numpy as np

from .crossings import Crossing, _crossing_arrays, _intersection_points
from .forces import (
    COINCIDENCE_EPS,
    _attract_repel_arrays,
    _parallel_arrays,
    _rotational_arrays,
)
from .graph import Graph, Layout, LayoutParams


class EngineError(RuntimeError):
    """Raised when the force computation produces a non-finite value."""


@dataclass(frozen=True)
class RunResult:
    final: Layout
    iterations: int
    converged: bool
    wall_time: float


def initial_placement(n: int, seed: int) -> Layout:
    """Random placement confined to the unit square, from a seeded generator.

    Coordinates are i.i.d. uniform in [0, 1]; the same (n, seed) always
    produces the same layout.
    """
    rng = random.Random(seed)
    pts = [(rng.random(), rng.random()) for _ in range(n)]
    return Layout(np.array(pts, dtype=np.float64))


def _jitter_angle(u: int, v: int) -> float:
    """Deterministic direction in [0, 2*pi) derived from a vertex-id pair."""
    h = (u * 2654435761 + v * 2246822519 + 3266489917) % (1 << 32)
    return (h / float(1 << 32)) * 2.0 * math.pi


def _distance_pass(pos: np.ndarray):
    """Pairwise differences (n, n, 2) and squared distances (n, n), inf on the diagonal."""
    diff = pos[:, None, :] - pos[None, :, :]
    d2 = (diff * diff).sum(axis=-1)
    np.fill_diagonal(d2, np.inf)
    return diff, d2


def _resolve_coincidences(pos: np.ndarray, diff: np.ndarray, d2: np.ndarray):
    """Separate coincident vertex pairs by a deterministic 1e-6 displacement.

    diff and d2 are the `_distance_pass` arrays of pos. For each pair closer
    than COINCIDENCE_EPS the higher-indexed vertex of a copy of pos is nudged
    along a direction hashed from the id pair, breaking the symmetry
    reproducibly instead of feeding the 1/d^2 term an infinity. Returns
    (pos, diff, d2): the inputs unchanged when no pair is coincident, else
    the jittered copy and its own `_distance_pass`.
    """
    if d2.min() >= COINCIDENCE_EPS * COINCIDENCE_EPS:
        return pos, diff, d2
    pos = pos.copy()
    iu, ju = np.triu_indices(pos.shape[0], k=1)
    hit = d2[iu, ju] < COINCIDENCE_EPS * COINCIDENCE_EPS
    for u, v in zip(iu[hit], ju[hit]):
        ang = _jitter_angle(int(u), int(v))
        pos[v, 0] += 1e-6 * math.cos(ang)
        pos[v, 1] += 1e-6 * math.sin(ang)
    return (pos, *_distance_pass(pos))


def _repulsion(diff: np.ndarray, d2: np.ndarray, k_r: float) -> np.ndarray:
    """(n, 2) inverse-square repulsion from `_distance_pass` arrays, which it overwrites."""
    # Coincident pairs contribute nothing; the jitter pass owns them.
    d2[d2 < COINCIDENCE_EPS * COINCIDENCE_EPS] = np.inf
    d3 = np.sqrt(d2)
    d3 *= d2
    # Extreme constants may overflow to inf here; the step aborts on any
    # non-finite force, so suppress the warning rather than the signal.
    with np.errstate(over="ignore"):
        diff /= d3[:, :, None]
        return k_r * diff.sum(axis=1)


def _cosine_active(params: LayoutParams) -> bool:
    return params.variant != "classical" and params.k_cos != 0.0


def _force_arrays(graph: Graph, pos: np.ndarray, params: LayoutParams,
                  repulsion: np.ndarray, quads) -> np.ndarray:
    """Accumulate all forces into an (n, 2) array.

    repulsion is the (n, 2) term of `_repulsion`. quads holds the (K, 4)
    endpoint vertex ids of the current crossings, or None when the cosine
    force is inactive. Summation order is fixed (springs, repulsion, cosine),
    so results are reproducible.
    """
    n = graph.n
    F = np.zeros((n, 2), dtype=np.float64)

    e = graph.edge_array
    if e.shape[0]:
        pu = pos[e[:, 0]]
        pv = pos[e[:, 1]]
        delta = pu - pv
        d = np.sqrt((delta * delta).sum(axis=1))
        ok = d >= COINCIDENCE_EPS
        mag = np.where(ok, params.k_s * (d - params.l), 0.0)
        fv = (mag / np.where(ok, d, 1.0))[:, None] * delta
        idx = np.concatenate([e[:, 1], e[:, 0]])
        F[:, 0] += np.bincount(idx, np.concatenate([fv[:, 0], -fv[:, 0]]), minlength=n)
        F[:, 1] += np.bincount(idx, np.concatenate([fv[:, 1], -fv[:, 1]]), minlength=n)

    F += repulsion

    if quads is not None and quads.shape[0]:
        pa = pos[quads[:, 0]]
        pb = pos[quads[:, 1]]
        pc = pos[quads[:, 2]]
        pd = pos[quads[:, 3]]
        if params.variant == "parallel":
            fa, fb, fc, fd = _parallel_arrays(pa, pb, pc, pd, params.k_cos)
        elif params.variant == "rotational":
            fa, fb, fc, fd = _rotational_arrays(pa, pb, pc, pd, params.k_cos)
        else:
            points = _intersection_points(pos, quads)
            fa, fb, fc, fd = _attract_repel_arrays(pa, pb, pc, pd, points, params.k_cos)
        idx = np.concatenate([quads[:, 0], quads[:, 1], quads[:, 2], quads[:, 3]])
        wx = np.concatenate([fa[:, 0], fb[:, 0], fc[:, 0], fd[:, 0]])
        wy = np.concatenate([fa[:, 1], fb[:, 1], fc[:, 1], fd[:, 1]])
        F[:, 0] += np.bincount(idx, wx, minlength=n)
        F[:, 1] += np.bincount(idx, wy, minlength=n)

    return F


def total_force(graph: Graph, layout: Layout, params: LayoutParams,
                crossings: list[Crossing]) -> np.ndarray:
    """Combined force on every vertex, as an (n, 2) array.

    Sums spring forces over incident edges, repulsion over all other
    vertices and, unless the variant is classical (or k_cos is zero), the
    cosine force over every listed crossing. The crossings must have been
    computed from this same layout.
    """
    pos = layout.positions
    quads = None
    if _cosine_active(params) and crossings:
        pairs = np.array([(c.edge_a, c.edge_b) for c in crossings], dtype=np.int64)
        quads = graph.edge_array[pairs].reshape(-1, 4)
    repulsion = _repulsion(*_distance_pass(pos), params.k_r)
    return _force_arrays(graph, pos, params, repulsion, quads)


def _step_arrays(graph: Graph, pos: np.ndarray, params: LayoutParams):
    """One iteration on raw position arrays; returns (new_pos, (max_dx, max_dy))."""
    pos_in = pos
    pos, diff, d2 = _resolve_coincidences(pos, *_distance_pass(pos))
    repulsion = _repulsion(diff, d2, params.k_r)
    # Free the n x n arrays before the crossing scan allocates its own.
    del diff, d2
    quads = _crossing_arrays(graph, pos)[1] if _cosine_active(params) else None
    F = _force_arrays(graph, pos, params, repulsion, quads)
    if not np.all(np.isfinite(F)):
        bad = np.nonzero(~np.isfinite(F).all(axis=1))[0]
        raise EngineError(f"non-finite force on vertices {bad.tolist()[:5]}")
    disp = params.step * F
    mags = np.sqrt((disp * disp).sum(axis=1))
    over = mags > params.max_disp
    if over.any():
        scale = np.where(over, params.max_disp / np.where(over, mags, 1.0), 1.0)
        disp = disp * scale[:, None]
    new_pos = pos + disp
    moved = np.abs(new_pos - pos_in).max(axis=0)
    return new_pos, (float(moved[0]), float(moved[1]))


def step(graph: Graph, layout: Layout, params: LayoutParams):
    """Advance the layout by one iteration.

    Returns (new_layout, (max_dx, max_dy)) where the second element is the
    largest per-axis movement over all vertices. Crossings feeding the
    cosine force are taken from the pre-step positions, so the update is
    order-independent.
    """
    new_pos, max_move = _step_arrays(graph, layout.positions, params)
    return Layout(new_pos), max_move


def run(graph: Graph, params: LayoutParams | None = None, seed: int = 0) -> RunResult:
    """Run the layout loop from a seeded random placement until stable.

    Stops when the maximum per-vertex movement is at or below
    params.move_threshold in both x and y, or after params.max_iterations
    iterations. Fully deterministic for fixed (graph, params, seed).
    """
    if params is None:
        params = LayoutParams()
    t0 = time.perf_counter()
    pos = initial_placement(graph.n, seed).positions
    converged = False
    iterations = 0
    for it in range(params.max_iterations):
        pos, (mx, my) = _step_arrays(graph, pos, params)
        iterations = it + 1
        if mx <= params.move_threshold and my <= params.move_threshold:
            converged = True
            break
    return RunResult(Layout(pos), iterations, converged, time.perf_counter() - t0)
