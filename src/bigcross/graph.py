"""Core value types: simple undirected graphs, 2D layouts, and layout parameters.

Vertices are dense integer ids 0..n-1 so the force loops can index flat
position arrays. Graphs and layouts are immutable after construction and
safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

VARIANTS = ("classical", "parallel", "rotational", "attract_repel")

# Engine defaults.  The stopping rule is movement-based: iterate until the
# maximum per-vertex movement in both x and y drops below move_threshold,
# or the iteration cap is reached.
DEFAULT_MOVE_THRESHOLD = 0.0005
DEFAULT_MAX_ITERATIONS = 80000
HIGH_QUALITY_MOVE_THRESHOLD = 0.00001
HIGH_QUALITY_MAX_ITERATIONS = 100000


class GraphError(ValueError):
    """Raised for invalid graph construction input."""


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph.

    Edges are canonicalized on construction: each pair stored with the
    smaller id first, the list sorted, self-loops and duplicates rejected.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 1:
            raise GraphError(f"vertex count must be >= 1, got {self.n}")
        canon = []
        seen = set()
        for e in self.edges:
            u, v = e
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise GraphError(f"edge {e!r} references a vertex id outside 0..{self.n - 1}")
            if u == v:
                raise GraphError(f"self-loop {e!r} is not allowed")
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                raise GraphError(f"duplicate edge {e!r}")
            seen.add((u, v))
            canon.append((u, v))
        canon.sort()
        object.__setattr__(self, "edges", tuple(canon))

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Neighbor ids per vertex, each tuple sorted."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def edge_array(self) -> np.ndarray:
        """Edges as an (m, 2) int64 array; row index is the edge id."""
        if not self.edges:
            return np.empty((0, 2), dtype=np.int64)
        arr = np.array(self.edges, dtype=np.int64)
        arr.flags.writeable = False
        return arr

    @cached_property
    def edge_scatter_ids(self) -> np.ndarray:
        """`_scatter_bins` of every edge's second endpoint, then of every first one.

        Shape (4m,). Per-edge (m, 2) forces stacked as [on_second, on_first]
        and flattened line up with it, so one `bincount` scatters them.
        """
        e = self.edge_array
        ids = _scatter_bins(np.concatenate([e[:, 1], e[:, 0]]))
        ids.flags.writeable = False
        return ids

    @cached_property
    def nonadjacent_edge_pairs(self) -> np.ndarray:
        """All edge-id pairs (i < j) whose edges share no endpoint, shape (P, 2).

        Precomputed once per graph; this is the candidate set scanned for
        crossings at every iteration. Stored column by column (Fortran
        order), so each column is contiguous for the scan's gathers.
        """
        m = self.m
        if m < 2:
            return np.empty((0, 2), dtype=np.int64)
        i, j = np.triu_indices(m, k=1)
        e = self.edge_array
        a, b = e[i, 0], e[i, 1]
        c, d = e[j, 0], e[j, 1]
        disjoint = (a != c) & (a != d) & (b != c) & (b != d)
        cols = np.stack([i[disjoint], j[disjoint]])
        cols.flags.writeable = False
        return cols.T

    @cached_property
    def pair_endpoint_ids(self) -> np.ndarray:
        """Endpoint vertex ids of every non-adjacent edge pair, shape (4, P).

        One C-contiguous int64 table aligned with nonadjacent_edge_pairs:
        column p holds (a, b, c, d), the endpoints of the pair's first edge
        (a, b) and second edge (c, d), so each row is contiguous for the
        per-iteration crossing scan.
        """
        a, b = self.edge_array.T
        first, second = self.nonadjacent_edge_pairs.T
        ids = np.stack([a[first], b[first], a[second], b[second]])
        ids.flags.writeable = False
        return ids


def _scatter_bins(v: np.ndarray) -> np.ndarray:
    """Force-scatter bins 2*v + axis of the vertex ids v, x and y interleaved.

    Row-major (k, 2) forces on vertices v, flattened, line up with the
    result, so `bincount(_scatter_bins(v), forces.ravel(), minlength=2 * n)`
    reshaped to (n, 2) sums them per vertex, in the order of v.
    """
    bins = np.empty(2 * v.size, dtype=np.int64)
    np.multiply(v, 2, out=bins[0::2])
    np.add(bins[0::2], 1, out=bins[1::2])
    return bins


def make_graph(n: int, edges) -> Graph:
    """Build a validated, canonicalized Graph from a vertex count and edge pairs.

    Raises GraphError naming the offending edge for self-loops, duplicates
    (compared unordered), or out-of-range vertex ids.
    """
    return Graph(n, tuple((int(u), int(v)) for u, v in edges))


@dataclass(frozen=True, eq=False)
class Layout:
    """One 2D position per vertex, in units of the natural spring length.

    Backed by a read-only (n, 2) float64 array; all coordinates must be finite.
    """

    positions: np.ndarray

    def __post_init__(self):
        arr = np.array(self.positions, dtype=np.float64, copy=True)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError(f"positions must have shape (n, 2), got {arr.shape}")
        if arr.shape[0] < 1:
            raise ValueError("layout needs at least one vertex position")
        if not np.all(np.isfinite(arr)):
            raise ValueError("layout coordinates must all be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "positions", arr)

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    def point(self, v: int) -> tuple[float, float]:
        x, y = self.positions[v]
        return (float(x), float(y))


@dataclass(frozen=True)
class LayoutParams:
    """Force constants and iteration controls for the layout engine.

    The k_cos constant only matters for the three cosine variants; the
    classical variant ignores it. k_cos may be zero (which makes any cosine
    variant reproduce the classical trajectory exactly); all other constants
    must be positive.
    """

    k_s: float = 1.0
    k_r: float = 1.0
    k_cos: float = 1.0
    l: float = 1.0
    variant: str = "parallel"
    # Displacement mapping chosen empirically: larger steps or caps let early
    # high-force iterations throw vertices across edges, which the cosine
    # force then locks into place as extra right-angle crossings, and they
    # destabilize dense drawings (movement plateaus above the stopping
    # threshold). 0.0025 / 0.1 converges broadly and reproduces the expected
    # paired-benchmark trends.
    step: float = 0.0025
    max_disp: float = 0.1
    move_threshold: float = DEFAULT_MOVE_THRESHOLD
    max_iterations: int = DEFAULT_MAX_ITERATIONS

    def __post_init__(self):
        for name in ("k_s", "k_r", "l", "step", "max_disp", "move_threshold"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.k_cos < 0:
            raise ValueError(f"k_cos must be >= 0, got {self.k_cos}")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if not (isinstance(self.max_iterations, int) and self.max_iterations >= 1):
            raise ValueError(f"max_iterations must be an integer >= 1, got {self.max_iterations}")

    @classmethod
    def high_quality(cls, **kw) -> "LayoutParams":
        """Tighter stopping rule for best-possible final layouts."""
        kw.setdefault("move_threshold", HIGH_QUALITY_MOVE_THRESHOLD)
        kw.setdefault("max_iterations", HIGH_QUALITY_MAX_ITERATIONS)
        return cls(**kw)
