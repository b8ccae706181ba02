import json
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from bigcross import cli as cli_mod, crossings, engine, metrics
from bigcross.generators import gen_erdos_renyi
from bigcross.graph import Layout, make_graph
from bigcross.io import (
    DataError,
    edge_list_text,
    parse_edge_list,
    read_layout,
    render_svg,
    write_edge_list,
    write_layout,
)
from bigcross.graph import LayoutParams
from bigcross.metrics import measure


def cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "bigcross", *args],
                          capture_output=True, text=True, cwd=cwd)


class TestEdgeListFormat:
    def test_roundtrip_identity(self, tmp_path):
        g = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        text = path.read_text()
        again = parse_edge_list(text)
        assert again == g
        assert edge_list_text(again) == text

    def test_header_mismatch(self):
        with pytest.raises(DataError, match="promises"):
            parse_edge_list("2 2\n0 1\n")

    def test_bad_tokens(self):
        with pytest.raises(DataError):
            parse_edge_list("2 one\n")
        with pytest.raises(DataError):
            parse_edge_list("3 1\n0 x\n")

    def test_graph_violations_surface_as_data_errors(self):
        with pytest.raises(DataError, match="self-loop"):
            parse_edge_list("2 1\n1 1\n")


class TestLayoutFormat:
    def test_roundtrip(self, tmp_path):
        lay = Layout([[0.1, 0.9], [0.5, 0.25], [1 / 3, 2 / 7]])
        path = tmp_path / "lay.json"
        write_layout(path, lay, seed=3, params=LayoutParams(),
                     iterations=120, converged=True)
        got, doc = read_layout(path)
        assert got.positions.tolist() == lay.positions.tolist()
        assert doc["seed"] == 3
        assert doc["iterations"] == 120
        assert doc["converged"] is True
        assert doc["params"]["variant"] == "parallel"

    def test_length_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 3, "positions": [[0, 0]]}))
        with pytest.raises(DataError, match="claims"):
            read_layout(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(DataError):
            read_layout(path)


class TestRenderSvg:
    def test_cycle_element_counts(self, tmp_path):
        g = make_graph(6, [(i, (i + 1) % 6) for i in range(6)])
        import math
        lay = Layout([[math.cos(i), math.sin(i)] for i in range(6)])
        path = tmp_path / "c6.svg"
        text = render_svg(g, lay, path)
        assert path.read_text() == text
        root = ET.fromstring(text)
        ns = "{http://www.w3.org/2000/svg}"
        assert len(root.findall(f".//{ns}circle")) == 6
        assert len(root.findall(f".//{ns}line")) == 6

    def test_edgeless_graph(self):
        g = make_graph(3, [])
        lay = Layout([[0, 0], [1, 0], [0, 1]])
        text = render_svg(g, lay)
        root = ET.fromstring(text)
        ns = "{http://www.w3.org/2000/svg}"
        assert len(root.findall(f".//{ns}circle")) == 3
        assert len(root.findall(f".//{ns}line")) == 0

    def test_crossing_annotations(self):
        g = make_graph(4, [(0, 2), (1, 3)])
        lay = Layout([[0, 0], [1, 0], [1, 1], [0, 1]])
        text = render_svg(g, lay, annotate_crossings=True)
        root = ET.fromstring(text)
        ns = "{http://www.w3.org/2000/svg}"
        assert len(root.findall(f".//{ns}text")) == 1
        assert "90.0" in text


class TestCliGenerate:
    def test_erdos_renyi_header(self, tmp_path):
        out = tmp_path / "g.txt"
        res = cli("generate", "--model", "erdos-renyi", "--n", "20", "--m", "40",
                  "--seed", "7", "--out", str(out))
        assert res.returncode == 0
        assert out.read_text().splitlines()[0] == "20 40"
        meta = json.loads(res.stdout)
        assert meta["model"] == "erdos_renyi"
        assert meta["seed"] == 7

    def test_classic_icosahedron(self, tmp_path):
        out = tmp_path / "ico.txt"
        res = cli("generate", "--model", "classic", "--name", "icosahedron",
                  "--out", str(out))
        assert res.returncode == 0
        assert out.read_text().splitlines()[0] == "12 30"

    def test_missing_n_is_usage_error(self, tmp_path):
        res = cli("generate", "--model", "erdos-renyi", "--m", "10",
                  "--seed", "1", "--out", str(tmp_path / "x.txt"))
        assert res.returncode == 1

    def test_missing_seed_is_usage_error(self, tmp_path):
        res = cli("generate", "--model", "erdos-renyi", "--n", "10", "--m", "15",
                  "--out", str(tmp_path / "x.txt"))
        assert res.returncode == 1

    def test_infeasible_m_is_data_error(self, tmp_path):
        res = cli("generate", "--model", "erdos-renyi", "--n", "10", "--m", "5",
                  "--seed", "1", "--out", str(tmp_path / "x.txt"))
        assert res.returncode == 2


class TestCliLayout:
    @pytest.fixture
    def small_graph(self, tmp_path):
        out = tmp_path / "g.txt"
        cli("generate", "--model", "classic", "--name", "path", "--size", "3",
            "--out", str(out))
        return out

    def test_presets_recorded(self, small_graph, tmp_path):
        out = tmp_path / "lay.json"
        res = cli("layout", "--in", str(small_graph), "--algo", "classical",
                  "--seed", "4", "--out", str(out))
        assert res.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["params"]["move_threshold"] == 0.0005
        assert doc["params"]["max_iterations"] == 80000
        assert doc["converged"] is True

        res = cli("layout", "--in", str(small_graph), "--algo", "bigcross",
                  "--preset", "high-quality", "--seed", "4", "--out", str(out))
        assert res.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["params"]["move_threshold"] == 0.00001
        assert doc["params"]["max_iterations"] == 100000

    def test_deterministic_output(self, small_graph, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for out in (a, b):
            res = cli("layout", "--in", str(small_graph), "--seed", "9",
                      "--out", str(out))
            assert res.returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unreadable_input(self, tmp_path):
        res = cli("layout", "--in", str(tmp_path / "missing.txt"), "--seed", "1",
                  "--out", str(tmp_path / "o.json"))
        assert res.returncode == 2

    @pytest.mark.parametrize("exc, shown", [
        (MemoryError("Unable to allocate 149. GiB for an array with shape "
                     "(2, 100000, 100000) and data type float64"), "Unable to allocate"),
        (MemoryError(), "out of memory"),
    ], ids=["numpy-message", "bare"])
    def test_allocation_failure_is_data_error(self, small_graph, tmp_path, monkeypatch,
                                              capsys, exc, shown):
        # Stands in for an input too large for memory; the real allocation is
        # never attempted.
        def fail(pos):
            raise exc
        monkeypatch.setattr(engine, "_distance_pass", fail)
        code = cli_mod.main(["layout", "--in", str(small_graph), "--seed", "1",
                             "--out", str(tmp_path / "o.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("bigcross: input too large: ") and shown in err
        assert err.count("\n") == 1 and "Traceback" not in err


    def test_non_finite_force_is_data_error(self, small_graph, tmp_path, monkeypatch, capsys):
        def fail(graph, pos, params):
            raise engine.EngineError("non-finite force on vertices [0]")
        monkeypatch.setattr(engine, "_step_arrays", fail)
        out = tmp_path / "o.json"
        code = cli_mod.main(["layout", "--in", str(small_graph), "--seed", "1",
                             "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "bigcross: non-finite force on vertices [0]\n"
        assert not out.exists()


class TestCliMeasure:
    def test_square_fixture(self, tmp_path):
        g = make_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 3)])
        gpath = tmp_path / "g.txt"
        write_edge_list(g, gpath)
        lay = Layout([[0, 0], [1, 0], [1, 1], [0, 1]])
        lpath = tmp_path / "l.json"
        write_layout(lpath, lay, seed=0, params=LayoutParams())
        res = cli("measure", "--graph", str(gpath), "--layout", str(lpath),
                  "--crossings")
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["crossings"] == 1
        assert doc["angle_mean"] == pytest.approx(90.0)
        assert len(doc["crossing_list"]) == 1

    def test_crossing_list_scans_once(self, tmp_path, monkeypatch, capsys):
        g = gen_erdos_renyi(40, 120, seed=1)
        gpath, lpath = tmp_path / "g.txt", tmp_path / "l.json"
        write_edge_list(g, gpath)
        write_layout(lpath, engine.initial_placement(g.n, 3), seed=3, params=LayoutParams())
        calls = []
        real = crossings._crossing_arrays

        def counted(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(crossings, "_crossing_arrays", counted)
        monkeypatch.setattr(metrics, "_crossing_arrays", counted)
        assert cli_mod.main(["measure", "--graph", str(gpath), "--layout", str(lpath),
                             "--crossings"]) == 0
        assert len(calls) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["crossings"] == len(doc["crossing_list"]) >= 100
        expected = measure(g, read_layout(lpath)[0]).to_dict()
        assert {k: doc[k] for k in expected} == expected

    def test_crossing_free_zero_convention(self, tmp_path):
        g = make_graph(3, [(0, 1), (1, 2)])
        gpath = tmp_path / "g.txt"
        write_edge_list(g, gpath)
        lpath = tmp_path / "l.json"
        write_layout(lpath, Layout([[0, 0], [1, 0], [2, 0.5]]), seed=0,
                     params=LayoutParams())
        res = cli("measure", "--graph", str(gpath), "--layout", str(lpath))
        doc = json.loads(res.stdout)
        assert doc["angle_mean"] == 0.0
        assert doc["angle_stddev"] == 0.0

    def test_mismatched_sizes(self, tmp_path):
        gpath = tmp_path / "g.txt"
        write_edge_list(make_graph(3, [(0, 1)]), gpath)
        lpath = tmp_path / "l.json"
        write_layout(lpath, Layout([[0, 0], [1, 1]]), seed=0, params=LayoutParams())
        res = cli("measure", "--graph", str(gpath), "--layout", str(lpath))
        assert res.returncode == 2


class TestMalformedLayout:
    @pytest.mark.parametrize("doc, named", [
        ({"n": 3, "positions": 5}, "'positions'"),
        ({"n": "2", "positions": [[0, 0], [1, 1]]}, "'n'"),
        ({"n": True, "positions": [[0, 0]]}, "'n'"),
        ({"n": 2, "positions": [[0, 0], [1]]}, "'positions' row 1"),
        ([[0, 0], [1, 1]], "object"),
        ({"n": 2, "positions": [[10 ** 400, 0], [1, 1]]}, "'positions'"),
    ], ids=["positions-scalar", "n-string", "n-bool", "ragged-row", "top-level-list",
            "int-overflows-float"])
    @pytest.mark.parametrize("command", ["measure", "render"])
    def test_data_error_exit(self, tmp_path, doc, named, command):
        gpath = tmp_path / "g.txt"
        write_edge_list(make_graph(1, []), gpath)
        lpath = tmp_path / "l.json"
        lpath.write_text(json.dumps(doc))
        extra = ["--out", str(tmp_path / "d.svg")] if command == "render" else []
        res = cli(command, "--graph", str(gpath), "--layout", str(lpath), *extra)
        assert res.returncode == 2
        assert "Traceback" not in res.stderr
        assert res.stderr.startswith("bigcross: ") and named in res.stderr


class TestCliBench:
    def test_count_below_minimum_is_usage_error(self, tmp_path):
        res = cli("bench", "--models", "erdos-renyi", "--count", "3",
                  "--master-seed", "1", "--outdir", str(tmp_path / "out"))
        assert res.returncode == 1

    def test_unknown_model_is_usage_error(self, tmp_path):
        res = cli("bench", "--models", "scalefree", "--count", "6",
                  "--master-seed", "1", "--outdir", str(tmp_path / "out"))
        assert res.returncode == 1

    def test_watts_strogatz_below_five_is_usage_error(self, tmp_path):
        out = tmp_path / "out"
        res = cli("bench", "--models", "watts-strogatz", "--count", "6", "--master-seed", "1",
                  "--n-min", "3", "--n-max", "6", "--outdir", str(out))
        assert res.returncode == 1
        assert "watts_strogatz needs n >= 5" in res.stderr
        assert not out.exists()


class TestCliRender:
    def test_render_svg_file(self, tmp_path):
        gpath = tmp_path / "g.txt"
        cli("generate", "--model", "classic", "--name", "cycle", "--size", "6",
            "--out", str(gpath))
        lpath = tmp_path / "l.json"
        cli("layout", "--in", str(gpath), "--algo", "classical", "--seed", "2",
            "--out", str(lpath))
        out = tmp_path / "c6.svg"
        res = cli("render", "--graph", str(gpath), "--layout", str(lpath),
                  "--out", str(out))
        assert res.returncode == 0
        root = ET.fromstring(out.read_text())
        ns = "{http://www.w3.org/2000/svg}"
        assert len(root.findall(f".//{ns}circle")) == 6
        assert len(root.findall(f".//{ns}line")) == 6
