import json
import math
from dataclasses import replace

import pytest

from bigcross import bench
from bigcross.bench import (
    BenchError,
    BenchRecord,
    MIN_RECORDS,
    derive_seed,
    make_spec,
    read_record,
    run_benchmark,
    run_pair,
    summarize,
    write_record,
)
from bigcross.engine import run
from bigcross.generators import GenSpec, gen_erdos_renyi, generate
from bigcross.graph import LayoutParams
from bigcross.metrics import MetricsReport, measure

FAST = LayoutParams(max_iterations=400)


def tiny_record(i, b_angle, c_angle, b_cross=5, c_cross=7):
    """Hand-built record with controlled metric values."""
    def rep(angle, cross):
        return MetricsReport(crossings=cross, angle_mean=angle, angle_stddev=1.0,
                             edge_len_mean=1.5, edge_len_stddev=0.4,
                             angular_resolution=20.0)
    return BenchRecord(
        graph_spec=GenSpec(model="erdos_renyi", n=10, seed=i, params={"m": 15}),
        seed=i,
        initial_metrics=rep(10.0, 50),
        classical_metrics=rep(c_angle, c_cross),
        bigcross_metrics=rep(b_angle, b_cross),
        classical_iters=100 + i,
        bigcross_iters=90 + i,
        classical_converged=True,
        bigcross_converged=True,
        classical_time=0.5,
        bigcross_time=0.7,
    )


class TestRunPair:
    def test_classical_side_matches_standalone_run(self):
        g = gen_erdos_renyi(10, 16, seed=2)
        rec = run_pair(g, FAST, seed=5)
        standalone = run(g, replace(FAST, variant="classical"), seed=5)
        assert rec.classical_metrics == measure(g, standalone.final)
        assert rec.classical_iters == standalone.iterations

    def test_kcos_zero_gives_identical_sides(self):
        g = gen_erdos_renyi(10, 16, seed=3)
        rec = run_pair(g, replace(FAST, k_cos=0.0), seed=6)
        assert rec.bigcross_metrics == rec.classical_metrics
        assert rec.bigcross_iters == rec.classical_iters

    def test_json_roundtrip(self, tmp_path):
        for model in ("erdos_renyi", "random_planar"):
            spec = GenSpec(model=model, n=8, seed=4, params={"m": 12})
            rec = run_pair(generate(spec), FAST, seed=7, graph_spec=spec)
            path = tmp_path / f"{model}.json"
            write_record(rec, path)
            assert read_record(path) == rec
            written = json.loads(path.read_text())["graph_spec"]
            assert written == spec.to_dict()
            assert ("note" in written) == (model == "random_planar")


class TestSummarize:
    def test_null_experiment_degenerate(self):
        records = [tiny_record(i, 60.0, 60.0, b_cross=4, c_cross=4) for i in range(8)]
        summary = summarize(records)
        assert summary.row("angle_mean").wilcoxon.method == "degenerate"
        assert math.isnan(summary.row("angle_mean").wilcoxon.p_value)

    def test_hand_built_medians(self):
        records = [tiny_record(i, 60.0 + i, 50.0 + i) for i in range(7)]
        summary = summarize(records)
        row = summary.row("angle_mean")
        assert row.median_bigcross == 63.0
        assert row.median_classical == 53.0
        assert row.median_diff == 10.0
        cross = summary.row("crossings")
        assert cross.median_bigcross == 5
        assert cross.median_classical == 7

    def test_record_order_invariance(self):
        records = [tiny_record(i, 60.0 + 3 * i, 55.0 + i) for i in range(9)]
        s1 = summarize(records)
        s2 = summarize(list(reversed(records)))
        # Degenerate rows carry NaN p-values, so compare the serialized form.
        assert s1.to_csv_text() == s2.to_csv_text()

    def test_too_few_records(self):
        with pytest.raises(BenchError):
            summarize([tiny_record(i, 60, 50) for i in range(MIN_RECORDS - 1)])

    def test_csv_columns(self):
        records = [tiny_record(i, 61.0 + i, 50.0) for i in range(6)]
        text = summarize(records).to_csv_text()
        header = text.splitlines()[0]
        assert header == "metric,median_bigcross,median_classical,median_diff,W,n_effective,p,method"
        assert len(text.splitlines()) == 1 + 7  # six metrics + iterations


class TestSeedFanOut:
    def test_derive_seed_stable(self):
        assert derive_seed(42, 0) == derive_seed(42, 0)
        assert derive_seed(42, 0) != derive_seed(42, 1)
        assert derive_seed(42, 1) != derive_seed(43, 1)

    def test_specs_independent_of_count(self):
        a = [make_spec("erdos_renyi", 99, i) for i in range(5)]
        b = [make_spec("erdos_renyi", 99, i) for i in range(10)][:5]
        assert a == b

    def test_spec_ranges(self):
        for i in range(50):
            spec, _ = make_spec("erdos_renyi", 7, i)
            assert 10 <= spec.n <= 50
            assert spec.n - 1 <= spec.params["m"] <= 3 * spec.n


class TestRunBenchmark:
    def test_small_benchmark_reproducible(self):
        params = replace(FAST, max_iterations=200)
        r1, s1 = run_benchmark(["erdos_renyi"], 6, master_seed=11, params=params,
                               n_range=(8, 12))
        r2, s2 = run_benchmark(["erdos_renyi"], 6, master_seed=11, params=params,
                               n_range=(8, 12))
        assert s1.to_csv_text() == s2.to_csv_text()
        # Records match except for the measured wall times.
        for a, b in zip(r1, r2):
            da, db = a.to_dict(), b.to_dict()
            for key in ("classical_time", "bigcross_time"):
                da.pop(key)
                db.pop(key)
            assert da == db

    def test_count_below_minimum_rejected(self):
        with pytest.raises(BenchError):
            run_benchmark(["erdos_renyi"], 3, master_seed=1, params=FAST)

    def test_watts_strogatz_below_five_rejected_before_work(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("a record was run before the size check")
        monkeypatch.setattr(bench, "run_pair", no_work)
        with pytest.raises(BenchError, match="watts_strogatz needs n >= 5"):
            run_benchmark(["erdos_renyi", "watts_strogatz"], 6, master_seed=1,
                          params=FAST, n_range=(4, 8))

    def test_models_cycled(self):
        params = replace(FAST, max_iterations=50)
        records, _ = run_benchmark(["erdos_renyi", "random_planar"], 6,
                                   master_seed=5, params=params, n_range=(8, 10))
        models = [r.graph_spec.model for r in records]
        assert models == ["erdos_renyi", "random_planar"] * 3
