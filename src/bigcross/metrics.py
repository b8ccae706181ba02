"""Aesthetic measures of a drawing: crossings, angles, edge lengths, resolution.

A report carries six numbers: crossing count, mean and standard deviation
of the acute crossing angles (both zero for crossing-free drawings), mean
and standard deviation of the edge lengths, and the angular resolution (the
smallest angle between two edges sharing an endpoint). Standard deviations
are population flavored (divide by N), since a drawing is the whole
population of interest.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .crossings import _acute_angles, _crossing_arrays
from .graph import Graph, Layout

# Sentinel reported when no vertex has two incident edge directions to
# compare (max degree <= 1, or degenerate zero-length edges). A real minimum
# gap can never exceed 180 degrees, so 360 is unambiguous; aggregate
# statistics must exclude it.
ANGULAR_RESOLUTION_UNDEFINED = 360.0


@dataclass(frozen=True)
class MetricsReport:
    crossings: int
    angle_mean: float
    angle_stddev: float
    edge_len_mean: float
    edge_len_stddev: float
    angular_resolution: float

    @property
    def angular_defined(self) -> bool:
        return self.angular_resolution < ANGULAR_RESOLUTION_UNDEFINED

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "MetricsReport":
        return cls(**{f.name: d[f.name] for f in fields(cls)})


def _population_stats(values) -> tuple[float, float]:
    if len(values) == 0:
        return 0.0, 0.0
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    return mean, float(np.sqrt(((arr - mean) ** 2).mean()))


def angular_resolution(graph: Graph, layout: Layout) -> float:
    """Smallest angle in degrees between two edges incident to the same vertex.

    For every vertex of degree >= 2 the incident edge directions are sorted
    and the minimum gap between consecutive directions (including the
    wrap-around gap) is taken; the global minimum over vertices is returned.
    If no vertex offers two usable directions the sentinel
    ANGULAR_RESOLUTION_UNDEFINED (360.0) is returned.
    """
    pos = layout.positions
    best = ANGULAR_RESOLUTION_UNDEFINED
    for v in range(graph.n):
        neighbors = graph.adjacency[v]
        if len(neighbors) < 2:
            continue
        dirs = []
        for u in neighbors:
            dx = pos[u, 0] - pos[v, 0]
            dy = pos[u, 1] - pos[v, 1]
            if dx == 0.0 and dy == 0.0:
                continue  # coincident endpoint: no direction to compare
            dirs.append(math.atan2(dy, dx))
        if len(dirs) < 2:
            continue
        dirs.sort()
        gap = dirs[0] + 2.0 * math.pi - dirs[-1]
        for i in range(1, len(dirs)):
            gap = min(gap, dirs[i] - dirs[i - 1])
        best = min(best, math.degrees(gap))
    return best


def measure(graph: Graph, layout: Layout) -> MetricsReport:
    """Compute all six aesthetic measures for one drawing.

    Crossing-angle statistics use the acute angle of each crossing pair, one
    sample per pair; with zero crossings both angle fields are reported as 0.
    Raises ValueError when the layout's size does not match the graph.
    """
    _, quads = _crossing_arrays(graph, layout.positions)
    return _report(graph, layout, _acute_angles(*layout.positions.take(quads.T, axis=0)))


def _report(graph: Graph, layout: Layout, thetas) -> MetricsReport:
    """The six measures, given the acute angles of the drawing's crossings."""
    pos = layout.positions
    angle_mean, angle_std = _population_stats(thetas)
    e = graph.edge_array
    if e.shape[0]:
        delta = pos[e[:, 0]] - pos[e[:, 1]]
        lengths = np.sqrt((delta * delta).sum(axis=1))
    else:
        lengths = []
    len_mean, len_std = _population_stats(lengths)
    return MetricsReport(
        crossings=len(thetas),
        angle_mean=angle_mean,
        angle_stddev=angle_std,
        edge_len_mean=len_mean,
        edge_len_stddev=len_std,
        angular_resolution=angular_resolution(graph, layout),
    )
