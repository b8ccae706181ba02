"""Command-line front end.

Subcommands: generate (random/classic graphs to edge-list files), layout
(run an algorithm over an edge list, writing a layout JSON), measure (print
the aesthetic metrics of a drawing), bench (paired benchmark producing
record JSONs and a summary CSV) and render (SVG export).

Exit codes are a stable scripting contract: 0 success, 1 usage error,
2 data error. Every random choice flows through an explicit --seed or
--master-seed flag; there is no silent entropy.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import bench as bench_mod
from . import generators, io as gio
from .bench import BenchError
from .crossings import find_crossings
from .engine import EngineError, run
from .generators import GenSpec
from .graph import VARIANTS, GraphError, LayoutParams
from .io import DataError
from .metrics import _report, measure

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

_MODEL_FLAGS = {m.replace("_", "-"): m for m in generators.MODELS}

_VARIANT_FLAGS = {v.replace("_", "-"): v for v in VARIANTS if v != "classical"}


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this tool reserves 2 for data
    # errors, so remap.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _params_for(algo: str, variant: str, preset: str) -> LayoutParams:
    make = LayoutParams.high_quality if preset == "high-quality" else LayoutParams
    return make(variant="classical" if algo == "classical" else _VARIANT_FLAGS[variant])


def _cmd_generate(args, parser: _Parser) -> int:
    model = _MODEL_FLAGS[args.model]
    if model == "classic":
        if not args.name:
            parser.error("--model classic requires --name")
        graph = generators.classic(args.name, args.size)
        spec = GenSpec(model="classic", n=graph.n, seed=0,
                       params={k: v for k, v in
                               (("name", args.name), ("size", args.size)) if v is not None})
    else:
        if args.n is None:
            parser.error(f"--model {args.model} requires --n")
        if args.seed is None:
            parser.error(f"--model {args.model} requires --seed")
        params: dict = {}
        if model in ("erdos_renyi", "random_planar"):
            if args.m is None:
                parser.error(f"--model {args.model} requires --m")
            params["m"] = args.m
        elif model == "watts_strogatz":
            params["k"] = args.k
            params["p"] = args.p
        elif model == "eppstein_wang":
            if args.m is not None:
                params["m"] = args.m
            if args.steps is not None:
                params["steps"] = args.steps
        spec = GenSpec(model=model, n=args.n, seed=args.seed, params=params)
        graph = generators.generate(spec)
    gio.write_edge_list(graph, args.out)
    meta = spec.to_dict()
    meta["edges"] = graph.m
    print(json.dumps(meta, sort_keys=True))
    return EXIT_OK


def _cmd_layout(args, parser: _Parser) -> int:
    graph = gio.read_edge_list(args.infile)
    params = _params_for(args.algo, args.variant, args.preset)
    result = run(graph, params, args.seed)
    gio.write_layout(args.out, result.final, args.seed, params,
                     iterations=result.iterations, converged=result.converged)
    print(json.dumps({"iterations": result.iterations, "converged": result.converged,
                      "out": str(args.out)}, sort_keys=True))
    return EXIT_OK


def _read_drawing(args):
    """The (graph, layout) named by --graph and --layout; DataError if their sizes differ."""
    graph = gio.read_edge_list(args.graph)
    layout, _ = gio.read_layout(args.layout)
    if layout.n != graph.n:
        raise DataError(f"graph has {graph.n} vertices but layout has {layout.n} positions")
    return graph, layout


def _cmd_measure(args, parser: _Parser) -> int:
    graph, layout = _read_drawing(args)
    if args.crossings:
        found = find_crossings(graph, layout)
        doc = _report(graph, layout, [c.theta for c in found]).to_dict()
        doc["crossing_list"] = [
            {"edge_a": c.edge_a, "edge_b": c.edge_b,
             "point": [c.point[0], c.point[1]], "theta": c.theta}
            for c in found
        ]
    else:
        doc = measure(graph, layout).to_dict()
    print(json.dumps(doc, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_bench(args, parser: _Parser) -> int:
    models = []
    for name in args.models.split(","):
        name = name.strip()
        if name not in _MODEL_FLAGS or name == "classic":
            parser.error(f"unknown benchmark model {name!r}")
        models.append(_MODEL_FLAGS[name])
    if args.n_min < 3 or args.n_max < args.n_min:
        parser.error("need 3 <= n-min <= n-max")
    params = _params_for("bigcross", args.variant, args.preset)
    try:
        records, summary = bench_mod.run_benchmark(
            models, args.count, args.master_seed, params,
            n_range=(args.n_min, args.n_max))
    except BenchError as exc:
        parser.error(str(exc))
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for i, record in enumerate(records):
        bench_mod.write_record(record, outdir / f"record_{i:04d}.json")
    (outdir / "summary.csv").write_text(summary.to_csv_text(), encoding="utf-8")
    print(summary.format_table())
    print(f"wrote {len(records)} records and summary.csv to {outdir}")
    return EXIT_OK


def _cmd_render(args, parser: _Parser) -> int:
    graph, layout = _read_drawing(args)
    gio.render_svg(graph, layout, args.out, annotate_crossings=args.annotate)
    print(args.out)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="bigcross",
                     description="Force-directed graph layout with crossing-angle forces.")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a graph and write an edge-list file")
    g.add_argument("--model", required=True, choices=sorted(_MODEL_FLAGS))
    g.add_argument("--n", type=int)
    g.add_argument("--m", type=int)
    g.add_argument("--k", type=int, default=4, help="ring degree (watts-strogatz)")
    g.add_argument("--p", type=float, default=0.1, help="rewiring probability (watts-strogatz)")
    g.add_argument("--steps", type=int, help="mixing steps (eppstein-wang)")
    g.add_argument("--name", choices=sorted(generators.CLASSIC_NAMES), help="classic graph name")
    g.add_argument("--size", type=int, help="size for classic cycle/path/star/tree")
    g.add_argument("--seed", type=int)
    g.add_argument("--out", required=True)

    lay = sub.add_parser("layout", help="run a layout algorithm over an edge list")
    lay.add_argument("--in", dest="infile", required=True)
    lay.add_argument("--algo", choices=("classical", "bigcross"), default="bigcross")
    lay.add_argument("--variant", choices=sorted(_VARIANT_FLAGS), default="parallel")
    lay.add_argument("--seed", type=int, required=True)
    lay.add_argument("--preset", choices=("default", "high-quality"), default="default")
    lay.add_argument("--out", required=True)

    m = sub.add_parser("measure", help="print the aesthetic metrics of a drawing")
    m.add_argument("--graph", required=True)
    m.add_argument("--layout", required=True)
    m.add_argument("--crossings", action="store_true", help="include the crossing list")

    b = sub.add_parser("bench", help="paired benchmark: records plus a summary CSV")
    b.add_argument("--models", required=True,
                   help="comma-separated: erdos-renyi,watts-strogatz,eppstein-wang,random-planar")
    b.add_argument("--count", type=int, required=True)
    b.add_argument("--master-seed", type=int, required=True)
    b.add_argument("--outdir", required=True)
    b.add_argument("--variant", choices=sorted(_VARIANT_FLAGS), default="parallel")
    b.add_argument("--preset", choices=("default", "high-quality"), default="default")
    b.add_argument("--n-min", type=int, default=10)
    b.add_argument("--n-max", type=int, default=50)

    r = sub.add_parser("render", help="render a drawing to SVG")
    r.add_argument("--graph", required=True)
    r.add_argument("--layout", required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--annotate", action="store_true", help="mark crossings with their angles")

    return parser


_COMMANDS = {
    "generate": _cmd_generate,
    "layout": _cmd_layout,
    "measure": _cmd_measure,
    "bench": _cmd_bench,
    "render": _cmd_render,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, parser)
    except (DataError, GraphError, BenchError, EngineError) as exc:
        print(f"bigcross: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"bigcross: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:
        print(f"bigcross: input too large: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
