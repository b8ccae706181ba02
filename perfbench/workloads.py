"""The benchmark's three workloads.

Each workload makes its inputs from the seed in `setup`, hands the harness
one round of operations at a time, and checks the outputs afterwards
against the independent computations in `oracle` and against properties
the method must have. A round step returns a list of
`(key, seconds, output)`, one entry per operation; the same key may come
back several times in a round when the workload repeats a short operation.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import astuple, replace
from functools import partial
from pathlib import Path

import numpy as np

from bigcross import bench, crossings, engine, generators, metrics
from bigcross import io as bio
from bigcross.graph import Layout, LayoutParams, make_graph

import oracle
from spans import IterationClock, NullTracer

ANGLE_TOL = 1e-6          # degrees; arccos and atan2 disagree near 0 degrees
FORCE_BALANCE_TOL = 1e-9  # |sum of forces| relative to the sum of |forces|


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _run_sig(result):
    return (result.iterations, result.converged, result.final.positions.tobytes())


def _edges(graph) -> np.ndarray:
    return np.array(graph.edges, dtype=np.int64).reshape(-1, 2)


def check_drawing(graph, layout, report, label) -> list[str]:
    """Compare a MetricsReport with the oracle's view of the same drawing."""
    bad = []
    pos, edges = layout.positions, _edges(graph)
    count, mean_angle = oracle.crossing_stats(pos, edges)
    if report.crossings != count:
        bad.append(f"{label}: {report.crossings} crossings reported, oracle finds {count}")
    if abs(report.angle_mean - mean_angle) > ANGLE_TOL:
        bad.append(f"{label}: mean angle {report.angle_mean} vs oracle {mean_angle}")
    lengths = np.hypot(*(pos[edges[:, 0]] - pos[edges[:, 1]]).T)
    if not np.isclose(report.edge_len_mean, lengths.mean(), rtol=1e-12, atol=0.0):
        bad.append(f"{label}: mean edge length {report.edge_len_mean} vs {lengths.mean()}")
    res, max_deg = oracle.angular_resolution(pos, graph.n, edges)
    if res is None:
        if report.angular_resolution != metrics.ANGULAR_RESOLUTION_UNDEFINED:
            bad.append(f"{label}: angular resolution {report.angular_resolution}, oracle: undefined")
    else:
        if abs(report.angular_resolution - res) > 1e-9:
            bad.append(f"{label}: angular resolution {report.angular_resolution} vs oracle {res}")
        if report.angular_resolution > 360.0 / max_deg + 1e-9:
            bad.append(f"{label}: angular resolution {report.angular_resolution} "
                       f"exceeds 360/max-degree = {360.0 / max_deg}")
    return bad


def check_stop(result, params, label) -> list[str]:
    if not result.converged and result.iterations != params.max_iterations:
        return [f"{label}: not converged after {result.iterations} of "
                f"{params.max_iterations} iterations"]
    if not 1 <= result.iterations <= params.max_iterations:
        return [f"{label}: {result.iterations} iterations outside [1, {params.max_iterations}]"]
    return []


def check_force_balance(graph, layout, params, found, label) -> list[str]:
    """Springs, repulsion and the parallel cosine force are equal and opposite."""
    force = engine.total_force(graph, layout, params, found)
    net = np.abs(force.sum(axis=0)).max()
    scale = np.abs(force).sum()
    if net > FORCE_BALANCE_TOL * scale + 1e-300:
        return [f"{label}: net force {net} against total magnitude {scale}"]
    return []


def check_roundtrip(workdir: Path, graph, layout, seed, params, tracer, label) -> list[str]:
    """Write the graph and drawing, read them back, and compare bit for bit."""
    edge_path = workdir / f"{label}.txt"
    layout_path = workdir / f"{label}.json"
    bio.write_edge_list(graph, edge_path)
    bio.write_layout(layout_path, layout, seed, params)
    with tracer.span("io.read"):
        back_graph = bio.read_edge_list(edge_path)
        back, _ = bio.read_layout(layout_path)
    bad = []
    if back_graph.n != graph.n or back_graph.edges != graph.edges:
        bad.append(f"{label}: edge list changed on write and read")
    if not _same_bits(back.positions, layout.positions):
        bad.append(f"{label}: positions changed on write and read")
    return bad


def candidate_arrays_probe(graphs, tracer) -> list[int]:
    """Build the per-graph candidate-pair arrays on fresh copies, timed.

    Returns the bytes the arrays hold, per graph; an empty list when the
    graph type no longer has them.
    """
    names = ("nonadjacent_edge_pairs", "pair_endpoint_ids", "pair_edge_ids")
    sizes = []
    for g in graphs:
        fresh = make_graph(g.n, g.edges)
        present = [a for a in names if hasattr(type(fresh), a)]
        if not present:
            return []
        with tracer.span("graph.candidates"):
            arrays = [getattr(fresh, a) for a in present]
        flat = [x for a in arrays for x in (a if isinstance(a, tuple) else (a,))]
        sizes.append(sum(x.nbytes for x in flat))
    return sizes


class ErPaired:
    """The paper's paired protocol on Erdos-Renyi graphs, default params.

    Record sets come from three pools of `bench.make_spec("erdos_renyi",
    20260808, index)` records, the acceptance tests' master seed and size
    range (n in [10, 50], m in [n-1, 3n]), each screened for equal cost:

    - flicker, n <= 22: the parallel run ends at the 80000-iteration cap
      (the crossing-flicker limit cycle); its runs took 15.3-15.4 s when
      screened. A capped run costs 80000 steps at any n: at n = 40 it
      would take about 26 s in a fast phase of the host and up to twice
      that in a slow one, too long for one benchmark run.
    - small, n <= 22: both runs stop on the movement threshold, m >= 1.5n
      so the drawings keep crossings, and both runs took 0.19-0.30 s.
    - mid, n = 43..49, m = 74..98: acceptance records 0..99 whose runs both
      stop on the threshold, 4400-7300 iterations, 3.1-3.4 s a pair.

    Every record set holds all seven small records; the seed picks one
    flicker record and one mid one. The capped pair is one in nine, against
    15% of the 100-graph acceptance workload, and still the larger part of
    the time. Fifteen of the eighteen runs cost about the same, so their
    median does not sit between two groups of runs, and it does not depend
    on which small records a seed would pick. Records drawn
    straight from the seed let the number of capped runs, and so the run
    time, swing by a factor of three between seeds.
    """

    name = "er_paired"
    ops_per_step = 2
    uses_clock = True
    POOL_MASTER = 20260808
    FLICKER = (63, 138, 407)
    SMALL = (413, 489, 645, 646, 692, 870, 969)
    MID = (11, 21, 61, 69)

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(f"er_paired:{seed}")
        self.flicker = rng.choice(self.FLICKER)
        self.converging = [*self.SMALL, rng.choice(self.MID)]
        self.workdir = workdir
        self.params = LayoutParams()
        self.records = {}
        self.problems = []

    def describe(self) -> str:
        return (f"flicker record {self.flicker}, mid record {self.converging[-1]}, "
                f"small records {list(self.SMALL)} "
                f"(make_spec erdos_renyi, master {self.POOL_MASTER})")

    def setup(self):
        self.pairs = {}
        self.generate_s = 0.0
        for idx in (*self.converging, self.flicker):
            spec, layout_seed = bench.make_spec("erdos_renyi", self.POOL_MASTER, idx)
            t0 = time.perf_counter()
            graph = generators.generate(spec)
            self.generate_s += time.perf_counter() - t0
            self.pairs[idx] = (spec, graph, layout_seed)
        _, graph, layout_seed = self.pairs[self.converging[0]]
        engine.run(graph, replace(self.params, max_iterations=200), layout_seed)

    def graphs(self):
        return [g for _, g, _ in self.pairs.values()]

    def round(self, tracer, index):
        # The first round is the record set: the small pairs run twice before
        # and twice after the long capped pair, and the costlier mid pair
        # once on each side, so that their repeats fall in different phases
        # of the host. Later rounds, if time is left, repeat only the
        # converging pairs.
        conv = [partial(self._pair, i) for i in self.converging]
        if index == 0:
            small, mid = conv[:-1], conv[-1:]
            return (small + mid + small + [partial(self._pair, self.flicker)]
                    + small + mid + small)
        return conv

    def _pair(self, idx):
        spec, graph, layout_seed = self.pairs[idx]
        runs = []
        real_run = bench.run

        def timed_run(g, params, seed):
            first = clock.mark()
            t0 = time.perf_counter()
            result = real_run(g, params, seed)
            t1 = time.perf_counter()
            runs.append((params.variant, clock.estimate(t0, t1, first, clock.mark()), result))
            return result

        bench.run = timed_run
        try:
            with IterationClock(engine) as clock:
                record = bench.run_pair(graph, self.params, layout_seed, graph_spec=spec)
        finally:
            bench.run = real_run
        sig = self._record_sig(record)
        if idx not in self.records:
            self.records[idx] = (record, sig)
        elif self.records[idx][1] != sig:
            self.problems.append(f"pair {idx}: record differs between repeats")
        return [(f"{idx}:{'classical' if v == 'classical' else 'cosine'}", dt, res)
                for v, dt, res in runs]

    @staticmethod
    def _record_sig(record):
        return (astuple(record.initial_metrics), astuple(record.classical_metrics),
                astuple(record.bigcross_metrics), record.classical_iters,
                record.bigcross_iters, record.classical_converged, record.bigcross_converged)

    signature = staticmethod(_run_sig)

    def check(self, outputs, tracer) -> list[str]:
        bad = list(self.problems)
        classical = replace(self.params, variant="classical")
        order = (*self.converging, self.flicker)
        for idx in order:
            _, graph, layout_seed = self.pairs[idx]
            record = self.records[idx][0]
            initial = engine.initial_placement(graph.n, layout_seed)
            bad += check_drawing(graph, initial, record.initial_metrics, f"pair {idx} initial")
            for side, params, report in (("classical", classical, record.classical_metrics),
                                         ("cosine", self.params, record.bigcross_metrics)):
                label = f"pair {idx} {side}"
                result = outputs[f"{idx}:{side}"]
                bad += check_drawing(graph, result.final, report, label)
                bad += check_stop(result, params, label)
                found = crossings.find_crossings(graph, result.final) if side == "cosine" else []
                bad += check_force_balance(graph, result.final, params, found, label)
                bad += check_roundtrip(self.workdir, graph, result.final, layout_seed, params,
                                       tracer, f"pair{idx}-{side}")
        records = [self.records[i][0] for i in order]
        cos_angle = statistics.median(r.bigcross_metrics.angle_mean for r in records)
        cls_angle = statistics.median(r.classical_metrics.angle_mean for r in records)
        if not cos_angle > cls_angle:
            bad.append(f"median mean crossing angle: cosine {cos_angle} <= classical {cls_angle}")
        with tracer.span("stats.summarize"):
            summary = bench.summarize(records)
        bad += self._check_wilcoxon(records, summary)
        return bad

    @staticmethod
    def _check_wilcoxon(records, summary) -> list[str]:
        """Exact p-values against scipy where scipy's exact method applies."""
        from scipy.stats import wilcoxon

        def diffs(metric):
            if metric == "iterations":
                return [r.bigcross_iters - r.classical_iters for r in records]
            out = [getattr(r.bigcross_metrics, metric) - getattr(r.classical_metrics, metric)
                   for r in records]
            if metric == "angular_resolution":
                undef = metrics.ANGULAR_RESOLUTION_UNDEFINED
                out = [d for d, r in zip(out, records)
                       if r.bigcross_metrics.angular_resolution < undef
                       and r.classical_metrics.angular_resolution < undef]
            return out

        bad, compared = [], 0
        for row in summary.rows:
            nonzero = [d for d in diffs(row.metric) if d != 0]
            mags = [abs(d) for d in nonzero]
            if not nonzero or len(nonzero) > 25 or len(set(mags)) != len(mags):
                continue  # scipy's exact method needs distinct, nonzero differences
            ref = wilcoxon(nonzero, zero_method="wilcox", correction=False, method="exact")
            compared += 1
            if (row.wilcoxon.n_effective != len(nonzero)
                    or not np.isclose(row.wilcoxon.w_statistic, ref.statistic, rtol=1e-12)
                    or not np.isclose(row.wilcoxon.p_value, ref.pvalue, rtol=1e-9)):
                bad.append(f"wilcoxon {row.metric}: W={row.wilcoxon.w_statistic} "
                           f"p={row.wilcoxon.p_value}, scipy W={ref.statistic} p={ref.pvalue}")
        if compared == 0:
            bad.append("no summary row could be compared with scipy's exact Wilcoxon test")
        return bad

    def probe(self, outputs, tracer):
        """Every layer this workload uses runs inside its rounds."""
        return {}


class LargeSparse:
    """Watts-Strogatz graphs, n=1000 and k=4 (m=2000), a few fixed iterations.

    From a random placement every run reaches `MAX_ITERATIONS`, so the
    stopping rule never decides the work and a step's O(n^2) repulsion and
    O(m^2) crossing scan do.
    """

    name = "large_sparse"
    ops_per_step = 1
    uses_clock = True
    N = 1000
    GRAPHS = 2
    MAX_ITERATIONS = 4
    SAMPLE = 50_000

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(f"large_sparse:{seed}")
        self.seeds = [(self.rng.randrange(1 << 31), self.rng.randrange(1 << 31))
                      for _ in range(self.GRAPHS)]
        self.workdir = workdir

    def describe(self) -> str:
        return (f"{self.GRAPHS} watts_strogatz graphs n={self.N} k=4 p=0.1, "
                f"{self.MAX_ITERATIONS} iterations, (graph seed, layout seed) {self.seeds}")

    def setup(self):
        self.items = []
        self.generate_s = 0.0
        for graph_seed, layout_seed in self.seeds:
            spec = generators.GenSpec("watts_strogatz", self.N, graph_seed, {"k": 4, "p": 0.1})
            t0 = time.perf_counter()
            graph = generators.generate(spec)
            self.generate_s += time.perf_counter() - t0
            self.items.append((graph, layout_seed))
            # Warm-up builds the graph's candidate arrays, so per-graph set-up
            # shows in setup_s and the timed rounds see the iteration cost.
            engine.run(graph, LayoutParams(max_iterations=1), layout_seed)

    def graphs(self):
        return [g for g, _ in self.items]

    def _params(self, variant):
        return LayoutParams(variant=variant, max_iterations=self.MAX_ITERATIONS)

    def round(self, tracer, index):
        return [partial(self._run, i, v) for i in range(self.GRAPHS)
                for v in ("classical", "parallel")]

    def _run(self, i, variant):
        # Each iteration is a window of the clock: a repeat is priced at its
        # fastest iteration, as every iteration here does the same work.
        graph, layout_seed = self.items[i]
        with IterationClock(engine, window=1) as clock:
            t0 = time.perf_counter()
            result = engine.run(graph, self._params(variant), layout_seed)
            t1 = time.perf_counter()
        return [(f"g{i}:{variant}", clock.estimate(t0, t1, 0, clock.mark()), result)]

    signature = staticmethod(_run_sig)

    def check(self, outputs, tracer) -> list[str]:
        bad = []
        for i, (graph, layout_seed) in enumerate(self.items):
            for variant in ("classical", "parallel"):
                label = f"graph {i} {variant}"
                params = self._params(variant)
                result = outputs[f"g{i}:{variant}"]
                if result.converged or result.iterations != self.MAX_ITERATIONS:
                    bad.append(f"{label}: stopped after {result.iterations} iterations, "
                               f"expected the fixed {self.MAX_ITERATIONS}")
                bad += check_stop(result, params, label)
                found = []
                if variant == "parallel":
                    found = crossings.find_crossings(graph, result.final)
                    bad += self._check_crossings(graph, result.final, found, label)
                bad += check_force_balance(graph, result.final, params, found, label)
                bad += check_roundtrip(self.workdir, graph, result.final, layout_seed, params,
                                       tracer, f"g{i}-{variant}")
        bad += self._check_translation()
        return bad

    def _check_crossings(self, graph, layout, found, label) -> list[str]:
        """Every reported crossing is real; a sample of the rest are not crossings."""
        pos, edges = layout.positions, _edges(graph)
        m = edges.shape[0]
        reported = np.array([(c.edge_a, c.edge_b) for c in found], dtype=np.int64).reshape(-1, 2)
        thetas = np.array([c.theta for c in found])
        bad = []
        if not oracle.crosses(pos, edges, reported).all():
            bad.append(f"{label}: a reported crossing is not a proper crossing")
        elif reported.shape[0] and np.abs(oracle.acute_angles(pos, edges, reported)
                                          - thetas).max() > ANGLE_TOL:
            bad.append(f"{label}: a reported crossing angle disagrees with the oracle")
        pairs = oracle.disjoint_edge_pairs(edges)
        codes = pairs[:, 0] * m + pairs[:, 1]
        rep_codes = reported[:, 0] * m + reported[:, 1]
        if np.unique(rep_codes).size != rep_codes.size or not np.isin(rep_codes, codes).all():
            bad.append(f"{label}: reported pairs repeat or share an endpoint")
        rest = pairs[~np.isin(codes, rep_codes)]
        pick = np.random.default_rng(self.rng.randrange(1 << 63)).choice(
            rest.shape[0], size=min(self.SAMPLE, rest.shape[0]), replace=False)
        missed = int(oracle.crosses(pos, edges, rest[pick]).sum())
        if missed:
            bad.append(f"{label}: {missed} of {pick.size} sampled unreported pairs cross")
        return bad

    def _check_translation(self) -> list[str]:
        graph, layout_seed = self.items[0]
        params = self._params("parallel")
        start = engine.initial_placement(graph.n, layout_seed)
        shift = np.array([self.rng.uniform(-8.0, 8.0), self.rng.uniform(-8.0, 8.0)])
        a, move_a = engine.step(graph, start, params)
        b, move_b = engine.step(graph, Layout(start.positions + shift), params)
        err = np.abs(b.positions - shift - a.positions).max()
        if err > 1e-9 or max(abs(x - y) for x, y in zip(move_a, move_b)) > 1e-9:
            return [f"step is not translation-equivariant: position error {err}"]
        return []

    def probe(self, outputs, tracer):
        """Measure the final drawings, for the metrics and one-shot scan layers."""
        for i, (graph, _) in enumerate(self.items):
            for variant in ("classical", "parallel"):
                with tracer.span("metrics.measure"):
                    metrics.measure(graph, outputs[f"g{i}:{variant}"].final)
        return {}


class MeasureOneshot:
    """The `bigcross measure` path in-process: read two files, measure once.

    Sizes are fixed (n = 50..300 in steps of 50, m = 2n) so every seed does
    the same amount of work; the seed draws the graphs and the drawings.
    Each graph has a random placement (many crossings) and a spring-embedder
    drawing from networkx (few crossings).
    """

    name = "measure_oneshot"
    ops_per_step = 1
    uses_clock = False
    SIZES = (50, 100, 150, 200, 250, 300)

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(f"measure_oneshot:{seed}")
        self.workdir = workdir

    def describe(self) -> str:
        return (f"{len(self.items)} drawings of {len(self.items) // 2} graphs, "
                f"n in {self.SIZES}, m=2n")

    @classmethod
    def _models(cls, n):
        models = ("watts_strogatz", "random_planar")
        return ("erdos_renyi",) + models if n <= 100 else models

    def setup(self):
        import networkx as nx

        self.items = []
        self.generate_s = 0.0
        self.graph_list = []
        for n in self.SIZES:
            for model in self._models(n):
                params = {"k": 4, "p": 0.1} if model == "watts_strogatz" else {"m": 2 * n}
                spec = generators.GenSpec(model, n, self.rng.randrange(1 << 31), params)
                t0 = time.perf_counter()
                graph = generators.generate(spec)
                self.generate_s += time.perf_counter() - t0
                self.graph_list.append(graph)
                edge_path = self.workdir / f"{model}-{n}.txt"
                bio.write_edge_list(graph, edge_path)
                nxg = nx.Graph()
                nxg.add_nodes_from(range(n))
                nxg.add_edges_from(graph.edges)
                spring = nx.spring_layout(nxg, seed=self.rng.randrange(1 << 31))
                drawings = {
                    "random": np.random.default_rng(self.rng.randrange(1 << 63)).random((n, 2)),
                    "spring": np.array([spring[v] for v in range(n)], dtype=np.float64),
                }
                for kind, pos in drawings.items():
                    layout_path = self.workdir / f"{model}-{n}-{kind}.json"
                    bio.write_layout(layout_path, Layout(pos), 0, LayoutParams())
                    self.items.append((f"{model}-{n}-{kind}", graph, pos, edge_path, layout_path))
        for item in self.items:
            self._measure(item, NullTracer())

    def graphs(self):
        return self.graph_list

    def round(self, tracer, index):
        return [partial(self._op, item, tracer) for item in self.items]

    @staticmethod
    def _measure(item, tracer):
        _, _, _, edge_path, layout_path = item
        with tracer.span("io.read"):
            graph = bio.read_edge_list(edge_path)
            layout, _ = bio.read_layout(layout_path)
        if layout.n != graph.n:
            raise bio.DataError(f"graph has {graph.n} vertices but layout has {layout.n}")
        with tracer.span("metrics.measure"):
            report = metrics.measure(graph, layout)
        return graph, layout, report

    def _op(self, item, tracer):
        t0 = time.perf_counter()
        out = self._measure(item, tracer)
        return [(item[0], time.perf_counter() - t0, out)]

    @staticmethod
    def signature(out):
        graph, layout, report = out
        return (graph.edges, layout.positions.tobytes(), astuple(report))

    def check(self, outputs, tracer) -> list[str]:
        bad = []
        for label, graph, pos, _, _ in self.items:
            read_graph, layout, report = outputs[label]
            if read_graph.edges != graph.edges or read_graph.n != graph.n:
                bad.append(f"{label}: edge list changed on write and read")
            if not _same_bits(layout.positions, pos):
                bad.append(f"{label}: positions changed on write and read")
            bad += check_drawing(graph, layout, report, label)
        return bad

    def probe(self, outputs, tracer):
        """One engine step per drawing, for the engine, scan and force layers."""
        params = LayoutParams()
        for _, graph, pos, _, _ in self.items:
            engine.step(graph, Layout(pos), params)
        return {"engine.iterations": len(self.items)}


WORKLOADS = {w.name: w for w in (ErPaired, LargeSparse, MeasureOneshot)}
