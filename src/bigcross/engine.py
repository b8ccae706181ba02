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
every iteration over the graph's candidate table, every pair of edges that
share no endpoint (`Graph.nonadjacent_edge_pairs`, with the endpoint ids in
`Graph.pair_endpoint_ids`). A bounding-box test drops the pairs whose boxes
are disjoint, and the float64 orientation-sign predicate decides the rest.

The summation order is fixed, so a run is bit-reproducible:

- repulsion on vertex i sums its terms over j = 0..n-1 in turn, down the
  rows of the C-contiguous (n, n) difference planes (a reduction along the
  contiguous axis would sum pairwise and in another order);
- spring forces, then cosine forces, are each scattered with one
  `bincount` over the 2n bins 2*v + axis, in edge order and in crossing
  order (all a endpoints, then b, c, d);
- the total is (springs + repulsion) + cosine.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

import numpy as np

from .crossings import Crossing, _crossing_arrays
from .forces import (
    COINCIDENCE_EPS,
    _attract_repel_arrays,
    _parallel_arrays,
    _rotational_arrays,
)
from .graph import Graph, Layout, LayoutParams, _scatter_bins


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
    """Pairwise difference planes (2, n, n) and squared distances (n, n).

    Plane c holds dxy[c][j, i] = pos[i, c] - pos[j, c], C-contiguous, so the
    sum over j runs down whole rows. d2 = dx*dx + dy*dy, inf on the diagonal.
    """
    t = np.ascontiguousarray(pos.T)
    dxy = t[:, None, :] - t[:, :, None]
    sq = dxy * dxy
    d2 = sq[0] + sq[1]
    np.fill_diagonal(d2, np.inf)
    return dxy, d2


def _resolve_coincidences(pos: np.ndarray, dxy: np.ndarray, d2: np.ndarray):
    """Separate coincident vertex pairs by a deterministic 1e-6 displacement.

    dxy and d2 are the `_distance_pass` arrays of pos. For each pair closer
    than COINCIDENCE_EPS the higher-indexed vertex of a copy of pos is nudged
    along a direction hashed from the id pair, breaking the symmetry
    reproducibly instead of feeding the 1/d^2 term an infinity. Returns
    (pos, dxy, d2): the inputs unchanged when no pair is coincident, else
    the jittered copy and its own `_distance_pass`.
    """
    if d2.min() >= COINCIDENCE_EPS * COINCIDENCE_EPS:
        return pos, dxy, d2
    pos = pos.copy()
    iu, ju = np.triu_indices(pos.shape[0], k=1)
    hit = d2[iu, ju] < COINCIDENCE_EPS * COINCIDENCE_EPS
    for u, v in zip(iu[hit], ju[hit]):
        ang = _jitter_angle(int(u), int(v))
        pos[v, 0] += 1e-6 * math.cos(ang)
        pos[v, 1] += 1e-6 * math.sin(ang)
    return (pos, *_distance_pass(pos))


def _repulsion(dxy: np.ndarray, d2: np.ndarray, k_r: float) -> np.ndarray:
    """(n, 2) inverse-square repulsion from `_distance_pass` arrays, which it overwrites.

    Vertex i's term sums dxy[c][j, i] / d^3 over j in ascending order.
    """
    # Coincident pairs contribute nothing; the jitter pass owns them.
    d2[d2 < COINCIDENCE_EPS * COINCIDENCE_EPS] = np.inf
    d3 = np.sqrt(d2)
    d3 *= d2
    # Extreme constants may overflow to inf here; the step aborts on any
    # non-finite force, so suppress the warning rather than the signal.
    with np.errstate(over="ignore"):
        dxy /= d3
        return k_r * dxy.sum(axis=1).T


def _cosine_active(params: LayoutParams) -> bool:
    return params.variant != "classical" and params.k_cos != 0.0


def _force_arrays(graph: Graph, pos: np.ndarray, params: LayoutParams,
                  repulsion: np.ndarray, quads) -> np.ndarray:
    """Accumulate all forces into an (n, 2) array.

    repulsion is the (n, 2) term of `_repulsion`. quads holds the (K, 4)
    endpoint vertex ids of the current crossings, or None when the cosine
    force is inactive. Summation order is fixed, (springs + repulsion) +
    cosine, and each group scatters with one `bincount` over bins 2*v + axis
    in a fixed order, so results are reproducible.
    """
    n = graph.n
    e = graph.edge_array
    if e.shape[0]:
        ends = pos.take(e, axis=0)
        delta = ends[:, 0] - ends[:, 1]
        d = np.sqrt((delta * delta).sum(axis=1))
        ok = d >= COINCIDENCE_EPS
        mag = np.where(ok, params.k_s * (d - params.l), 0.0)
        fv = (mag / np.where(ok, d, 1.0))[:, None] * delta
        w = np.concatenate([fv, -fv]).ravel()
        F = np.bincount(graph.edge_scatter_ids, w, minlength=2 * n).reshape(n, 2)
    else:
        F = np.zeros((n, 2), dtype=np.float64)

    F += repulsion

    if quads is not None and quads.shape[0]:
        kernel = (_parallel_arrays if params.variant == "parallel"
                  else _rotational_arrays if params.variant == "rotational"
                  else _attract_repel_arrays)
        forces = kernel(*pos.take(quads.T, axis=0), params.k_cos)
        ids = _scatter_bins(quads.T.ravel())
        F += np.bincount(ids, np.concatenate(forces).ravel(), minlength=2 * n).reshape(n, 2)

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
    pos, dxy, d2 = _resolve_coincidences(pos, *_distance_pass(pos))
    repulsion = _repulsion(dxy, d2, params.k_r)
    # Free the n x n arrays before the crossing scan allocates its own.
    del dxy, d2
    quads = _crossing_arrays(graph, pos)[1] if _cosine_active(params) else None
    F = _force_arrays(graph, pos, params, repulsion, quads)
    if not np.isfinite(F).all():
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
