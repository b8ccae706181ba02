"""Benchmark for bigcross: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload er_paired --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from `src/`. The
run sets up its inputs, repeats whole rounds of the workload's operations
until `--seconds` have passed, checks the outputs and prints every metric
by name with its unit. The last line is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`.

With `--trace 0` the metrics are the end-to-end ones. With `--trace 1` the
run spends half its time untraced and half traced, and reports the
per-layer metrics from the traced half, the tracing overhead, and whether
the traced results equal the untraced ones.

The host has slow phases that lengthen any interval they overlap, so an
operation's time is the fastest of its repeats in the run, and a layout
run is priced from its fastest iteration windows (see
`spans.IterationClock`). If the clock's target is gone from the engine, the
run prints `absent stage: engine._step_arrays (iteration clock)` and layout
runs are timed whole. perfbench/README.md has the measurements behind this
choice.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

END_TO_END = (
    ("setup_s", "s"),
    ("work_s", "s"),
    ("op_median_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("engine.step_us", "us/iter"),
    ("engine.iterations", "count"),
    ("engine.capped_runs", "count"),
    ("engine.capped_s", "s"),
    ("engine.coincidence_us", "us/iter"),
    ("engine.update_us", "us/iter"),
    ("crossings.scan_us", "us/iter"),
    ("crossings.pairs_tested", "count/scan"),
    ("crossings.found", "count/scan"),
    ("crossings.hit_ratio", "ratio"),
    ("crossings.oneshot_ms", "ms/drawing"),
    ("forces.pairwise_us", "us/iter"),
    ("forces.cosine_us", "us/iter"),
    ("graph.candidates_ms", "ms/graph"),
    ("graph.candidates_mb", "MB"),
    ("generators.generate_s", "s"),
    ("metrics.measure_ms", "ms/drawing"),
    ("metrics.angular_resolution_ms", "ms/drawing"),
    ("io.read_ms", "ms/drawing"),
    ("stats.summarize_ms", "ms"),
    ("trace.overhead_s", "s"),
    ("engine.iteration_clock", "flag"),
)


class Timed:
    """Samples and outputs of the timed rounds of one run."""

    def __init__(self):
        self.samples: dict[str, list[float]] = {}
        self.outputs: dict = {}
        self.sigs: dict = {}
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.problems: list[str] = []

    def best(self) -> dict[str, float]:
        return {k: min(v) for k, v in self.samples.items()}

    def work_s(self) -> float:
        return sum(self.best().values())


def timed_rounds(workload, seconds: float, tracer) -> Timed:
    """Run whole rounds until `seconds` have passed; at least one round."""
    out = Timed()
    start = time.perf_counter()
    while True:
        for step in workload.round(tracer, out.rounds):
            try:
                done = step()
            except Exception:  # one failing operation must not end the run
                traceback.print_exc()
                out.attempted += workload.ops_per_step
                out.failed += workload.ops_per_step
                continue
            out.attempted += len(done)
            for key, seconds_taken, result in done:
                out.samples.setdefault(key, []).append(seconds_taken)
                sig = workload.signature(result)
                if key not in out.sigs:
                    out.sigs[key] = sig
                    out.outputs[key] = result
                elif out.sigs[key] != sig:
                    out.problems.append(f"{key}: result differs between repeats")
        out.rounds += 1
        if time.perf_counter() - start >= seconds:
            return out


def layer_metrics(workload, plain: Timed, traced: Timed, tracer, sizes, extra) -> dict:
    """Per-layer figures; None marks a stage this run did not exercise."""
    def per_call(name, scale, self_only=False):
        v = tracer.per_call(name, self_only)
        return None if v is None else v * scale

    runs = {k: r for k, r in traced.outputs.items() if hasattr(r, "iterations")}
    best = traced.best()
    scans = tracer.calls("crossings.scan")
    pairs = tracer.counters.get("pairs_tested")
    found = tracer.counters.get("found")
    vals = {
        "engine.step_us": per_call("engine.step", 1e6),
        "engine.iterations": sum(r.iterations for r in runs.values()) if runs else None,
        "engine.capped_runs": sum(not r.converged for r in runs.values()) if runs else None,
        "engine.capped_s": (sum(best[k] for k, r in runs.items() if not r.converged)
                            if runs else None),
        "engine.coincidence_us": per_call("engine.coincidence", 1e6),
        "engine.update_us": per_call("engine.step", 1e6, self_only=True),
        "crossings.scan_us": per_call("crossings.scan", 1e6),
        "crossings.pairs_tested": pairs / scans if scans and pairs is not None else None,
        "crossings.found": found / scans if scans else None,
        "crossings.hit_ratio": found / pairs if scans and pairs else None,
        "crossings.oneshot_ms": per_call("crossings.oneshot", 1e3),
        "forces.pairwise_us": per_call("forces.total", 1e6, self_only=True),
        "forces.cosine_us": per_call("forces.cosine", 1e6),
        "graph.candidates_ms": per_call("graph.candidates", 1e3),
        "graph.candidates_mb": max(sizes) / 1e6 if sizes else None,
        "generators.generate_s": workload.generate_s,
        "metrics.measure_ms": per_call("metrics.measure", 1e3),
        "metrics.angular_resolution_ms": per_call("metrics.angular_resolution", 1e3),
        "io.read_ms": per_call("io.read", 1e3),
        "stats.summarize_ms": per_call("stats.summarize", 1e3),
        "trace.overhead_s": traced.work_s() - plain.work_s(),
    }
    vals.update(extra)
    return vals


def run_checks(workload, outputs, tracer) -> list[str]:
    """The workload's correctness checks; a check that raises is a failure."""
    try:
        return workload.check(outputs, tracer)
    except Exception as exc:  # report it in the result instead of crashing
        traceback.print_exc()
        return [f"checks stopped: {exc!r}"]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def emit(name, value, unit, out):
    if value is None:
        print(f"{name:<32} {'absent':>16} {unit}")
        value = 0
    else:
        print(f"{name:<32} {value:>16.6g} {unit}")
    out[name] = {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "bigcross" / "__init__.py").is_file():
        print(f"bigcross sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from spans import IterationClock, NullTracer, Tracer, install_layer_spans

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2

    workdir = ROOT / "perfbench" / "_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        workload.setup()
        setup_s = time.perf_counter() - _T0
        print(f"workload {args.workload} seed {args.seed}: {workload.describe()}")
        clocked = IterationClock(workloads.engine).present if workload.uses_clock else None
        if clocked is False:
            # Layout runs are then timed whole, slow phases included.
            print(f"absent stage: engine.{IterationClock.TARGET} (iteration clock)")
        null = NullTracer()
        if args.trace == 0:
            timed = timed_rounds(workload, args.seconds, null)
            rss = peak_rss_mb()
            problems = timed.problems + run_checks(workload, timed.outputs, null)
            values = {
                "setup_s": setup_s,
                "work_s": timed.work_s(),
                "op_median_ms": 1e3 * statistics.median(timed.best().values()),
                "peak_rss_mb": rss,
            }
            specs = END_TO_END
            runs = [timed]
        else:
            plain = timed_rounds(workload, args.seconds / 2, null)
            tracer = Tracer()
            install_layer_spans(tracer)
            try:
                traced = timed_rounds(workload, args.seconds / 2, tracer)
                extra = workload.probe(traced.outputs, tracer)
                sizes = workloads.candidate_arrays_probe(workload.graphs(), tracer)
            finally:
                tracer.restore()
            problems = plain.problems + traced.problems
            for key, sig in plain.sigs.items():
                if traced.sigs.get(key) != sig:
                    problems.append(f"{key}: traced result differs from the untraced one")
            problems += run_checks(workload, traced.outputs, tracer)
            extra["engine.iteration_clock"] = None if clocked is None else int(clocked)
            values = layer_metrics(workload, plain, traced, tracer, sizes, extra)
            for name in sorted(tracer.absent):
                print(f"absent stage: {name}")
            specs = PER_LAYER
            runs = [plain, traced]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for run in runs:
        print(f"rounds {run.rounds}, operations {len(run.samples)} distinct, "
              f"{run.attempted} attempted, {run.failed} failed")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print(f"checks: {'passed' if not problems else f'{len(problems)} failed'}")
    result = {}
    for name, unit in specs:
        emit(name, values.get(name), unit, result)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
