"""Print sha256 fingerprints of bigcross outputs, to compare two checkouts bit for bit.

Run from the root of a checkout:

    PYTHONPATH=src python scripts/fingerprint.py

and diff the output against the same command run in another checkout. The
records are `bench.make_spec("erdos_renyi", 20260808, i)` for i below
RECORDS whose graphs have at most MAX_N vertices. Each line is one group
of outputs and the sha256 of their exact bytes (floats hashed as hex):

- run:       final positions, iterations and `converged` of `engine.run`
             for all four variants, default parameters;
- measure:   the `metrics.measure` report of every final drawing;
- crossings: the `find_crossings` list of every final drawing;
- force:     `total_force` under every variant on every final drawing;
- step:      one `step` per variant from drawings with coincident vertices
             (alone, beside a crossing, and in a random drawing);
- cli:       stdout and output file of `bigcross layout`, and stdout of
             `bigcross measure` with and without `--crossings`, on the first
             record;
- bench:     the `write_record` file of `run_pair` on every record (at most
             BENCH_ITERATIONS iterations a side, wall times set to 0.0), and
             the `summarize` CSV over those records;
- scale:     final positions and iterations of `engine.run` at sizes the
             other groups do not reach: records SCALE_RECORDS (n=47, 49) for
             SCALE_ITERATIONS iterations under every variant, and
             LARGE_ITERATIONS iterations of classical and parallel on one
             Watts-Strogatz graph with LARGE_N vertices;
- scalar:    `proper_intersection`, `parallel_cosine`, `rotational_cosine`,
             `attract_repel_cosine` and `attract_repel_components` on
             SCALAR_CONFIGS seeded random float configurations in [-2, 2]^2
             and as many with integer coordinates in [-3, 3], which are
             often collinear, touching or sharing a point;
- kernels:   `np.asarray` of the engine's three cosine kernels,
             `_parallel_arrays`, `_rotational_arrays` and `_attract_repel_arrays`,
             on one seeded batch of KERNEL_CROSSINGS proper crossings: random
             float configurations in [-2, 2]^2 and exact right angles on
             small integer coordinates, shuffled together.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import tempfile
from dataclasses import replace

import numpy as np

from bigcross import bench, cli, generators, io as gio
from bigcross.crossings import _crosses, find_crossings, proper_intersection
from bigcross.engine import initial_placement, run, step, total_force
from bigcross.forces import (
    _attract_repel_arrays,
    _parallel_arrays,
    _rotational_arrays,
    attract_repel_components,
    attract_repel_cosine,
    parallel_cosine,
    rotational_cosine,
)
from bigcross.graph import VARIANTS, Layout, LayoutParams, make_graph
from bigcross.metrics import measure

RECORDS = 24
MAX_N = 30
BENCH_ITERATIONS = 2000
SCALE_RECORDS = (11, 21)
SCALE_ITERATIONS = 2000
LARGE_N = 1000
LARGE_ITERATIONS = 4
SCALAR_CONFIGS = 3000
KERNEL_CROSSINGS = 2000


def _feed(h, value):
    if isinstance(value, float):
        h.update(value.hex().encode())
    elif isinstance(value, np.ndarray):
        h.update(str(value.dtype).encode() + str(value.shape).encode() + value.tobytes())
    elif isinstance(value, (list, tuple)):
        h.update(b"[")
        for v in value:
            _feed(h, v)
        h.update(b"]")
    elif isinstance(value, dict):
        for k in sorted(value):
            h.update(k.encode())
            _feed(h, value[k])
    else:
        h.update(repr(value).encode())
    h.update(b";")


def _cli(argv) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return f"exit {code}\n{out.getvalue()}".encode()


def _kernel_batch(rng) -> np.ndarray:
    """(4, KERNEL_CROSSINGS, 2) endpoints [a, b, c, d] of proper crossings.

    One in ten crosses at an exact right angle: integer directions r and
    perp(r) through an integer point, so u . v is exactly zero.
    """
    right = KERNEL_CROSSINGS // 10
    pts = rng.uniform(-2, 2, size=(4, 4 * KERNEL_CROSSINGS, 2))
    pts = pts[:, _crosses(pts[..., 0], pts[..., 1])][:, :KERNEL_CROSSINGS - right]
    r = rng.integers(-3, 4, size=(right, 2))
    r[~r.any(axis=1)] = (1, 2)
    w = np.stack([-r[:, 1], r[:, 0]], axis=1)
    x = rng.integers(-5, 6, size=(right, 2))
    t = rng.integers(1, 4, size=(4, right, 1))
    square = np.stack([x - t[0] * r, x + t[1] * r, x - t[2] * w, x + t[3] * w])
    pts = np.concatenate([pts, square.astype(np.float64)], axis=1)
    return np.ascontiguousarray(pts[:, rng.permutation(KERNEL_CROSSINGS)])


def _kernel_outputs() -> list:
    pa, pb, pc, pd = _kernel_batch(np.random.default_rng(20260808))
    return [np.asarray(kernel(pa, pb, pc, pd, 1.5))
            for kernel in (_parallel_arrays, _rotational_arrays, _attract_repel_arrays)]


def main() -> int:
    groups = {name: hashlib.sha256()
              for name in ("run", "measure", "crossings", "force", "step", "cli", "bench",
                           "scale", "scalar", "kernels")}
    used = []
    records = []
    first = None
    for i in range(RECORDS):
        spec, seed = bench.make_spec("erdos_renyi", 20260808, i)
        if spec.n > MAX_N:
            continue
        used.append(i)
        graph = generators.generate(spec)
        if first is None:
            first = (graph, seed)
        for variant in VARIANTS:
            result = run(graph, LayoutParams(variant=variant), seed)
            _feed(groups["run"], [i, variant, result.final.positions,
                                  result.iterations, result.converged])
            _feed(groups["measure"], measure(graph, result.final).to_dict())
            found = find_crossings(graph, result.final)
            _feed(groups["crossings"],
                  [[c.edge_a, c.edge_b, c.point[0], c.point[1], c.theta] for c in found])
            for fv in VARIANTS:
                _feed(groups["force"], total_force(graph, result.final,
                                                   LayoutParams(variant=fv), found))
        record = bench.run_pair(graph, LayoutParams(max_iterations=BENCH_ITERATIONS), seed,
                                graph_spec=spec)
        records.append(replace(record, classical_time=0.0, bigcross_time=0.0))

    # Coincident starts: an isolated pair, a pair beside two crossing edges,
    # and a pair in a seeded random drawing.
    g2 = make_graph(2, [(0, 1)])
    g4 = make_graph(5, [(0, 1), (2, 3)])
    drawings = [(g2, Layout([[0.5, 0.5], [0.5, 0.5]])),
                (g4, Layout([[0, 0], [1, 1], [0, 1], [1, 0], [0, 0]]))]
    graph, seed = first
    lay = initial_placement(graph.n, seed).positions.copy()
    lay[1] = lay[0]
    drawings.append((graph, Layout(lay)))
    for g, layout in drawings:
        for variant in VARIANTS:
            new, moved = step(g, layout, LayoutParams(variant=variant))
            _feed(groups["step"], [new.positions, moved[0], moved[1]])

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            gio.write_edge_list(graph, "g.txt")
            for algo in ("classical", "bigcross"):
                _feed(groups["cli"], _cli(["layout", "--in", "g.txt", "--algo", algo,
                                           "--seed", str(seed), "--out", "l.json"]))
                with open("l.json", "rb") as fh:
                    _feed(groups["cli"], fh.read())
                _feed(groups["cli"], _cli(["measure", "--graph", "g.txt", "--layout",
                                           "l.json"]))
                _feed(groups["cli"], _cli(["measure", "--graph", "g.txt", "--layout",
                                           "l.json", "--crossings"]))
            for record in records:
                bench.write_record(record, "r.json")
                with open("r.json", "rb") as fh:
                    _feed(groups["bench"], fh.read())
            _feed(groups["bench"], bench.summarize(records).to_csv_text())
        finally:
            os.chdir(cwd)

    for i in SCALE_RECORDS:
        spec, seed = bench.make_spec("erdos_renyi", 20260808, i)
        graph = generators.generate(spec)
        for variant in VARIANTS:
            result = run(graph, LayoutParams(variant=variant, max_iterations=SCALE_ITERATIONS),
                         seed)
            _feed(groups["scale"], [i, variant, result.final.positions, result.iterations])
    spec = generators.GenSpec("watts_strogatz", LARGE_N, 20260808, {"k": 4, "p": 0.1})
    graph = generators.generate(spec)
    for variant in ("classical", "parallel"):
        result = run(graph, LayoutParams(variant=variant, max_iterations=LARGE_ITERATIONS), 1)
        _feed(groups["scale"], [variant, result.final.positions, result.iterations])

    rng = random.Random(20260808)
    configs = [[(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(4)]
               for _ in range(SCALAR_CONFIGS)]
    configs += [[(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(4)]
                for _ in range(SCALAR_CONFIGS)]
    for a, b, c, d in configs:
        _feed(groups["scalar"], proper_intersection((a, b), (c, d)))
        for fn in (parallel_cosine, rotational_cosine, attract_repel_cosine):
            cf = fn(a, b, c, d, 1.5)
            _feed(groups["scalar"], [cf.on_a, cf.on_b, cf.on_c, cf.on_d])
        for cf in attract_repel_components(a, b, c, d, 1.5):
            _feed(groups["scalar"], [cf.on_a, cf.on_b, cf.on_c, cf.on_d])

    _feed(groups["kernels"], _kernel_outputs())

    print(f"records {used}")
    total = hashlib.sha256()
    for name, h in groups.items():
        digest = h.hexdigest()
        total.update(digest.encode())
        print(f"{name:<10} {digest}")
    print(f"{'all':<10} {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
