"""Traced size sweep: cost of one layout iteration, by layer, against n.

    python3 perfbench/sweep.py

For each n a Watts-Strogatz graph (k=4, so m=2n) is laid out with the
parallel cosine force from a random placement for a fixed number of
iterations, under the same run-time wrappers as the traced benchmark run.
Every figure is the fastest of `REPEATS` runs, in microseconds per call.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from bigcross import engine, generators  # noqa: E402
from bigcross.graph import LayoutParams  # noqa: E402

from spans import Tracer, install_layer_spans  # noqa: E402

SIZES = (50, 200, 1000)
REPEATS = 5

STAGES = (
    ("step", "engine.step", False),
    ("coincidence", "engine.coincidence", False),
    ("scan", "crossings.scan", False),
    ("pairwise", "forces.total", True),
    ("cosine", "forces.cosine", False),
    ("update", "engine.step", True),
)


def iterations_for(n: int) -> int:
    """About a second of work per run at any size."""
    return max(3, 4_000_000 // (n * n))


def sweep_one(n: int, repeats: int) -> dict:
    spec = generators.GenSpec("watts_strogatz", n, 1, {"k": 4, "p": 0.1})
    graph = generators.generate(spec)
    params = LayoutParams(max_iterations=iterations_for(n))
    engine.run(graph, LayoutParams(max_iterations=1), 1)  # builds the candidate arrays
    best: dict[str, float] = {}
    for _ in range(repeats):
        tracer = Tracer()
        install_layer_spans(tracer)
        try:
            engine.run(graph, params, 1)
        finally:
            tracer.restore()
        for label, name, self_only in STAGES:
            v = tracer.per_call(name, self_only)
            if v is not None:
                best[label] = min(best.get(label, v * 1e6), v * 1e6)
        scans = tracer.calls("crossings.scan")
        best["pairs"] = tracer.counters.get("pairs_tested", 0) / max(scans, 1)
        best["found"] = tracer.counters.get("found", 0) / max(scans, 1)
    best.update(n=n, m=graph.m, iterations=params.max_iterations)
    return best


def main() -> int:
    cols = [label for label, _, _ in STAGES]
    print("| n | m | iterations/run | candidate pairs | crossings/scan | "
          + " | ".join(f"{c} us" for c in cols) + " |")
    print("|---" * (5 + len(cols)) + "|")
    for n in SIZES:
        r = sweep_one(n, REPEATS)
        print(f"| {r['n']} | {r['m']} | {r['iterations']} | {r['pairs']:.0f} | {r['found']:.0f} | "
              + " | ".join(f"{r[c]:.0f}" if c in r else "absent" for c in cols) + " |",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
