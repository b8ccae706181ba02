"""File formats and SVG rendering.

Edge lists are plain text: a header line "n m" followed by m lines "u v"
with 0-based vertex ids. Layouts are JSON documents carrying the vertex
count, per-vertex positions, the seed and parameters that produced them and
optional run metadata. Both writers emit canonical text so that a parse
followed by a write reproduces the file byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import asdict

from .crossings import find_crossings
from .graph import Graph, GraphError, Layout, LayoutParams, make_graph


class DataError(ValueError):
    """Malformed or inconsistent input files."""


def write_edge_list(graph: Graph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(edge_list_text(graph))


def edge_list_text(graph: Graph) -> str:
    lines = [f"{graph.n} {graph.m}"]
    lines += [f"{u} {v}" for u, v in graph.edges]
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise DataError("empty edge-list file")
    try:
        n, m = (int(tok) for tok in lines[0].split())
    except ValueError as exc:
        raise DataError(f"bad header line {lines[0]!r}: expected 'n m'") from exc
    if len(lines) - 1 != m:
        raise DataError(f"header promises {m} edges but file has {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        try:
            u, v = (int(tok) for tok in ln.split())
        except ValueError as exc:
            raise DataError(f"bad edge line {ln!r}: expected 'u v'") from exc
        edges.append((u, v))
    try:
        return make_graph(n, edges)
    except GraphError as exc:
        raise DataError(str(exc)) from exc


def read_edge_list(path) -> Graph:
    with open(path, encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def layout_document(layout: Layout, seed: int, params: LayoutParams,
                    iterations: int | None = None,
                    converged: bool | None = None) -> dict:
    doc = {
        "n": layout.n,
        "positions": [[float(x), float(y)] for x, y in layout.positions],
        "seed": seed,
        "params": asdict(params),
    }
    if iterations is not None:
        doc["iterations"] = iterations
    if converged is not None:
        doc["converged"] = converged
    return doc


def write_layout(path, layout: Layout, seed: int, params: LayoutParams,
                 iterations: int | None = None, converged: bool | None = None) -> None:
    doc = layout_document(layout, seed, params, iterations, converged)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_layout(path) -> tuple[Layout, dict]:
    """Parse a layout file; returns the Layout plus the full document."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"not valid JSON: {path}") from exc
    if not isinstance(doc, dict) or "n" not in doc or "positions" not in doc:
        raise DataError("layout file must be an object carrying 'n' and 'positions'")
    n, positions = doc["n"], doc["positions"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise DataError(f"layout field 'n' must be an integer, got {n!r}")
    if not isinstance(positions, list):
        raise DataError(f"layout field 'positions' must be a list, got {type(positions).__name__}")
    for i, row in enumerate(positions):
        if not (isinstance(row, list) and len(row) == 2
                and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in row)):
            raise DataError(f"layout field 'positions' row {i} is not an [x, y] pair of numbers")
    if len(positions) != n:
        raise DataError(f"layout file claims n={n} but has {len(positions)} positions")
    try:
        layout = Layout(positions)
    except (ValueError, OverflowError) as exc:
        raise DataError(f"layout field 'positions': {exc}") from exc
    return layout, doc


def render_svg(graph: Graph, layout: Layout, path=None,
               annotate_crossings: bool = False, size: float = 600.0) -> str:
    """Render the drawing as SVG text: edges as lines, vertices as circles.

    The viewport is fitted to the layout bounding box with a 5% margin.
    With annotate_crossings, each proper crossing gets a marker and its
    acute angle in degrees. Writes to `path` when given; returns the text.
    """
    pos = layout.positions
    xmin, ymin = pos.min(axis=0)
    xmax, ymax = pos.max(axis=0)
    span = max(xmax - xmin, ymax - ymin, 1e-9)
    margin = 0.05 * span
    xmin, ymin = xmin - margin, ymin - margin
    width = (xmax - xmin) + margin
    height = (ymax - ymin) + margin
    scale = size / max(width, height)

    def sx(x: float) -> float:
        return (x - xmin) * scale

    def sy(y: float) -> float:
        # SVG's y axis points down; flip so the drawing keeps its orientation.
        return (ymax + margin - y) * scale

    r = max(2.0, 0.008 * size)
    stroke = max(1.0, 0.002 * size)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width * scale:.2f}" '
        f'height="{height * scale:.2f}" viewBox="0 0 {width * scale:.2f} {height * scale:.2f}">',
        f'<g stroke="#444" stroke-width="{stroke:.2f}">',
    ]
    for u, v in graph.edges:
        parts.append(
            f'<line x1="{sx(pos[u, 0]):.3f}" y1="{sy(pos[u, 1]):.3f}" '
            f'x2="{sx(pos[v, 0]):.3f}" y2="{sy(pos[v, 1]):.3f}" />'
        )
    parts.append("</g>")
    parts.append('<g fill="#1f77b4" stroke="none">')
    for i in range(graph.n):
        parts.append(f'<circle cx="{sx(pos[i, 0]):.3f}" cy="{sy(pos[i, 1]):.3f}" r="{r:.2f}" />')
    parts.append("</g>")
    if annotate_crossings:
        parts.append(f'<g fill="#d62728" font-size="{max(8.0, 0.02 * size):.1f}">')
        for c in find_crossings(graph, layout):
            cx, cy = sx(c.point[0]), sy(c.point[1])
            parts.append(f'<circle cx="{cx:.3f}" cy="{cy:.3f}" r="{r / 2:.2f}" />')
            parts.append(f'<text x="{cx + r:.3f}" y="{cy - r / 2:.3f}">{c.theta:.1f}&#176;</text>')
        parts.append("</g>")
    parts.append("</svg>")
    text = "\n".join(parts) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
