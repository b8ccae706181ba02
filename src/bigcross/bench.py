"""Paired layout experiments: same initial placement into both algorithms.

For each benchmark graph one seeded initial placement is produced; the
classical spring algorithm and the cosine-force algorithm are both run from
it, and the initial and both final drawings are measured. Summaries report,
per metric, the median under each algorithm, the median paired difference
and a two-sided Wilcoxon signed-rank test over the paired differences.

Per-graph seeds are fanned out from one master seed by hashing
(master, index), so extending a record set never reshuffles earlier graphs.
Wall-clock times are recorded in the records but are metadata only; they
never enter summaries or comparisons.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
from dataclasses import asdict, dataclass, fields, replace

from .engine import initial_placement, run
from .generators import GenSpec, generate
from .graph import Graph, LayoutParams
from .metrics import ANGULAR_RESOLUTION_UNDEFINED, MetricsReport, measure
from .stats import WilcoxonResult, median, wilcoxon_signed_rank

SUMMARY_COLUMNS = ("metric", "median_bigcross", "median_classical", "median_diff",
                   "W", "n_effective", "p", "method")

# Report metrics compared per record, plus iteration counts.
METRIC_NAMES = ("crossings", "angle_mean", "angle_stddev", "edge_len_mean",
                "edge_len_stddev", "angular_resolution", "iterations")

MIN_RECORDS = 6  # fewer paired samples cannot reach p < 0.05 two-sided


class BenchError(ValueError):
    pass


@dataclass(frozen=True)
class BenchRecord:
    graph_spec: GenSpec
    seed: int
    initial_metrics: MetricsReport
    classical_metrics: MetricsReport
    bigcross_metrics: MetricsReport
    classical_iters: int
    bigcross_iters: int
    classical_converged: bool
    bigcross_converged: bool
    classical_time: float
    bigcross_time: float

    def to_dict(self) -> dict:
        return {**asdict(self), "graph_spec": self.graph_spec.to_dict()}

    @classmethod
    def from_dict(cls, d: dict) -> "BenchRecord":
        kw = {f.name: d[f.name] for f in fields(cls)}
        kw["graph_spec"] = GenSpec.from_dict(kw["graph_spec"])
        for name in ("initial_metrics", "classical_metrics", "bigcross_metrics"):
            kw[name] = MetricsReport.from_dict(kw[name])
        return cls(**kw)


@dataclass(frozen=True)
class MetricSummary:
    metric: str
    median_bigcross: float
    median_classical: float
    median_diff: float
    wilcoxon: WilcoxonResult


@dataclass(frozen=True)
class BenchSummary:
    n_records: int
    rows: tuple[MetricSummary, ...]

    def row(self, metric: str) -> MetricSummary:
        for r in self.rows:
            if r.metric == metric:
                return r
        raise KeyError(metric)

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(SUMMARY_COLUMNS)
        for r in self.rows:
            writer.writerow([
                r.metric, repr(r.median_bigcross), repr(r.median_classical),
                repr(r.median_diff), repr(r.wilcoxon.w_statistic),
                r.wilcoxon.n_effective, repr(r.wilcoxon.p_value), r.wilcoxon.method,
            ])
        return buf.getvalue()

    def format_table(self) -> str:
        header = f"{'metric':<20} {'bigcross':>12} {'classical':>12} {'diff':>12} {'p':>10}  method"
        lines = [header, "-" * len(header)]
        for r in self.rows:
            lines.append(
                f"{r.metric:<20} {r.median_bigcross:>12.4f} {r.median_classical:>12.4f} "
                f"{r.median_diff:>12.4f} {r.wilcoxon.p_value:>10.4g}  {r.wilcoxon.method}"
            )
        return "\n".join(lines)


def run_pair(graph: Graph, params: LayoutParams, seed: int,
             graph_spec: GenSpec | None = None) -> BenchRecord:
    """Run both algorithms from one identical seeded initial placement.

    The cosine-force side uses `params` as given; the classical side uses
    the same constants with the cosine force switched off. The shared
    initial layout is reproduced from the seed, so the pairing is
    seed-verifiable.
    """
    if graph_spec is None:
        graph_spec = GenSpec(model="classic", n=graph.n, seed=0,
                             params={"name": "unknown"})
    initial = initial_placement(graph.n, seed)
    classical = run(graph, replace(params, variant="classical"), seed)
    bigcross = run(graph, params, seed)
    return BenchRecord(
        graph_spec=graph_spec,
        seed=seed,
        initial_metrics=measure(graph, initial),
        classical_metrics=measure(graph, classical.final),
        bigcross_metrics=measure(graph, bigcross.final),
        classical_iters=classical.iterations,
        bigcross_iters=bigcross.iterations,
        classical_converged=classical.converged,
        bigcross_converged=bigcross.converged,
        classical_time=classical.wall_time,
        bigcross_time=bigcross.wall_time,
    )


def _values(record: BenchRecord, metric: str) -> tuple[float, float]:
    if metric == "iterations":
        return float(record.bigcross_iters), float(record.classical_iters)
    return (float(getattr(record.bigcross_metrics, metric)),
            float(getattr(record.classical_metrics, metric)))


def summarize(records) -> BenchSummary:
    """Per-metric medians and Wilcoxon tests over a record set.

    Records where angular resolution is undefined on either side are
    excluded from that metric's aggregation (and only that one). The result
    is invariant under record order.
    """
    records = sorted(records, key=lambda r: (r.graph_spec.model, r.graph_spec.seed, r.seed))
    if len(records) < MIN_RECORDS:
        raise BenchError(f"need at least {MIN_RECORDS} records, got {len(records)}")
    rows = []
    for metric in METRIC_NAMES:
        pairs = [_values(r, metric) for r in records]
        if metric == "angular_resolution":
            pairs = [(b, c) for b, c in pairs
                     if b < ANGULAR_RESOLUTION_UNDEFINED and c < ANGULAR_RESOLUTION_UNDEFINED]
        if not pairs:
            continue
        b_vals = [b for b, _ in pairs]
        c_vals = [c for _, c in pairs]
        diffs = [b - c for b, c in pairs]
        rows.append(MetricSummary(
            metric=metric,
            median_bigcross=median(b_vals),
            median_classical=median(c_vals),
            median_diff=median(diffs),
            wilcoxon=wilcoxon_signed_rank(diffs),
        ))
    return BenchSummary(n_records=len(records), rows=tuple(rows))


def derive_seed(master_seed: int, index: int) -> int:
    """Stable per-record seed from a master seed; independent of record count."""
    digest = hashlib.sha256(f"{master_seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def make_spec(model: str, master_seed: int, index: int,
              n_range: tuple[int, int] = (10, 50)) -> tuple[GenSpec, int]:
    """Draw one benchmark GenSpec plus its layout seed from the fanned-out stream.

    Graph sizes are uniform over n_range; edge counts are uniform over each
    model's sparse feasible range.
    """
    rng = random.Random(derive_seed(master_seed, index))
    n = rng.randint(*n_range)
    max_m = n * (n - 1) // 2
    if model == "erdos_renyi":
        params = {"m": rng.randint(n - 1, min(3 * n, max_m))}
    elif model == "watts_strogatz":
        params = {"k": 4, "p": 0.1}
    elif model == "eppstein_wang":
        params = {"m": rng.randint(n - 1, min(3 * n, max_m)), "steps": 10 * n}
    elif model == "random_planar":
        params = {"m": rng.randint(n - 1, 3 * n - 6)}
    else:
        raise BenchError(f"cannot draw benchmark sizes for model {model!r}")
    graph_seed = rng.randrange(1 << 31)
    layout_seed = rng.randrange(1 << 31)
    return GenSpec(model=model, n=n, seed=graph_seed, params=params), layout_seed


def run_benchmark(models, count: int, master_seed: int,
                  params: LayoutParams | None = None,
                  n_range: tuple[int, int] = (10, 50)) -> tuple[list[BenchRecord], BenchSummary]:
    """Run `count` paired experiments cycling through the given models."""
    if params is None:
        params = LayoutParams()
    if count < MIN_RECORDS:
        raise BenchError(f"need at least {MIN_RECORDS} records, got count={count}")
    models = list(models)
    if not models:
        raise BenchError("need at least one model")
    if "watts_strogatz" in models and n_range[0] < 5:
        # make_spec fixes the ring degree at k=4, and the ring needs k < n.
        raise BenchError(f"watts_strogatz needs n >= 5, got n_range={tuple(n_range)}")
    records = []
    for i in range(count):
        spec, layout_seed = make_spec(models[i % len(models)], master_seed, i, n_range)
        graph = generate(spec)
        records.append(run_pair(graph, params, layout_seed, graph_spec=spec))
    return records, summarize(records)


def write_record(record: BenchRecord, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_record(path) -> BenchRecord:
    with open(path, encoding="utf-8") as fh:
        return BenchRecord.from_dict(json.load(fh))
