"""Force-directed graph layout with crossing-angle maximizing cosine forces.

The classical spring embedder (Hooke springs on edges, inverse-square
repulsion between all vertex pairs) is extended with a per-crossing cosine
force of magnitude k_cos * cos(theta) that drives edge crossings toward
right angles. The package also ships drawing metrics, sparse random graph
generators, a Wilcoxon signed-rank test, and a paired benchmark harness
comparing both algorithms from identical initial placements.
"""

from .bench import BenchRecord, BenchSummary, run_benchmark, run_pair, summarize
from .crossings import Crossing, find_crossings, proper_intersection
from .engine import EngineError, RunResult, initial_placement, run, step, total_force
from .forces import (
    CrossingForces,
    ForceVector,
    attract_repel_cosine,
    parallel_cosine,
    repulsive_force,
    rotational_cosine,
    spring_force,
)
from .generators import (
    GenSpec,
    classic,
    gen_eppstein_wang,
    gen_erdos_renyi,
    gen_random_planar,
    gen_watts_strogatz,
    generate,
)
from .graph import Graph, GraphError, Layout, LayoutParams, make_graph
from .io import read_edge_list, read_layout, render_svg, write_edge_list, write_layout
from .metrics import MetricsReport, angular_resolution, measure
from .stats import WilcoxonResult, median, wilcoxon_signed_rank

__version__ = "0.1.0"

__all__ = [
    "BenchRecord", "BenchSummary", "Crossing", "CrossingForces", "EngineError",
    "ForceVector", "GenSpec", "Graph", "GraphError", "Layout", "LayoutParams",
    "MetricsReport", "RunResult", "WilcoxonResult", "angular_resolution",
    "attract_repel_cosine", "classic", "find_crossings", "gen_eppstein_wang",
    "gen_erdos_renyi", "gen_random_planar", "gen_watts_strogatz", "generate",
    "initial_placement", "make_graph", "measure", "median", "parallel_cosine",
    "proper_intersection", "read_edge_list", "read_layout", "render_svg",
    "repulsive_force", "run", "run_benchmark", "run_pair", "rotational_cosine",
    "spring_force", "step", "summarize", "total_force", "wilcoxon_signed_rank",
    "write_edge_list", "write_layout",
]
