"""Tests of the benchmark's own code: input generators, span arithmetic,
layer wrapping, output comparison and failure/probe accounting.

    python3 -m pytest perfbench/tests
"""

import json
import os
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import bench  # noqa: E402
import gen  # noqa: E402
import layers  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from driftboost import core, harness, potentials  # noqa: E402


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


# ------------------------------------------------------------ generators

@pytest.mark.parametrize("write", [gen.numeric_csv, gen.lowcard_csv])
def test_csv_generators_are_deterministic(tmp_path, write):
    write(tmp_path / "a.csv", (3, 1), 60)
    write(tmp_path / "b.csv", (3, 1), 60)
    write(tmp_path / "c.csv", (3, 2), 60)
    assert read(tmp_path / "a.csv") == read(tmp_path / "b.csv")
    assert read(tmp_path / "a.csv") != read(tmp_path / "c.csv")


def test_csv_shapes(tmp_path):
    gen.numeric_csv(tmp_path / "n.csv", (0, 0), 200)
    gen.lowcard_csv(tmp_path / "l.csv", (0, 0), 200)
    numeric, _ = harness.load_csv(str(tmp_path / "n.csv"))
    lowcard, meta = harness.load_csv(str(tmp_path / "l.csv"))
    assert numeric.m == lowcard.m == 200 and numeric.k == lowcard.k == 4
    assert meta["kinds"]["color"] == "categorical"
    for j in range(gen.FEATURES):
        values = {row[j] for row in lowcard.features}
        assert values <= set(map(float, range(8)))
        assert len({row[j] for row in numeric.features}) > 190


def test_reversed_csv_numbers_labels_differently(tmp_path):
    for key in [(s, j) for s in range(5) for j in range(3)]:
        gen.numeric_csv(tmp_path / "d.csv", key, 50)
        gen.reverse_rows(tmp_path / "d.csv", tmp_path / "r.csv")
        _, fwd = harness.load_csv(str(tmp_path / "d.csv"))
        _, rev = harness.load_csv(str(tmp_path / "r.csv"))
        assert fwd["label_map"] != rev["label_map"]


def test_space_generator_is_deterministic():
    a = gen.finite_space((1, 2, 0), 30, 20, 5)
    b = gen.finite_space((1, 2, 0), 30, 20, 5)
    c = gen.finite_space((1, 2, 1), 30, 20, 5)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not np.array_equal(a[1], c[1])
    assert a[1].shape == (20, 30) and a[1].min() >= 1 and a[1].max() <= 5
    assert gen.potential_gamma((4, 0)) == gen.potential_gamma((4, 0))


def test_op_keys_start_with_a_reference_input():
    assert workloads.op_key(9, 0) == (9 % workloads.REFERENCE_INPUTS, 0)
    assert workloads.op_key(9, 3) == (9, 3)


# ------------------------------------------------------------ spans

def test_self_times_add_up_to_the_root():
    spans = [["op", 0.0, 10.0, -1],
             ["a", 1.0, 4.0, 0],
             ["b", 2.0, 3.0, 1],
             ["a", 5.0, 9.0, 0],
             ["a", 6.0, 7.0, 3]]       # a nested in a
    own = tracing.self_times(spans)
    assert own == pytest.approx({"op": 3.0, "a": 2.0 + 3.0 + 1.0, "b": 1.0})
    assert sum(own.values()) == pytest.approx(10.0)
    incl = tracing.inclusive_times(spans)
    assert incl == pytest.approx({"op": 10.0, "a": 7.0, "b": 1.0})
    assert tracing.call_counts(spans) == {"op": 1, "a": 3, "b": 1}


def test_tracer_records_nesting_and_observations():
    tracer = tracing.Tracer()
    seen = []
    inner = tracer.wrap(lambda x: x + 1, "inner",
                        lambda c, a, k, r: seen.append((a, r)))
    outer = tracer.wrap(lambda x: inner(inner(x)), "outer")
    with tracer.span("op"):
        assert outer(1) == 3
    names = [s[0] for s in tracer.spans]
    parents = [s[3] for s in tracer.spans]
    assert names == ["op", "outer", "inner", "inner"]
    assert parents == [-1, 0, 1, 1]
    assert seen == [((1,), 2), ((2,), 3)]
    own = tracing.self_times(tracer.spans)
    assert sum(own.values()) == pytest.approx(tracer.durations("op")[0])


def test_span_closes_when_the_call_raises():
    tracer = tracing.Tracer()

    def boom():
        raise ValueError("x")
    with pytest.raises(ValueError):
        with tracer.span("op"):
            tracer.wrap(boom, "boom")()
    assert all(end is not None for _, _, end, _ in tracer.spans)
    assert tracer._stack == []


# ------------------------------------------------------------ layers

def test_install_wraps_every_binding_and_uninstall_restores():
    before = (harness.training_error, core.training_error,
              core.WeakClassifier.predict_all)
    tracer = tracing.Tracer()
    restore = layers.install(tracer)
    try:
        assert harness.training_error is core.training_error
        assert harness.training_error is not before[0]
        ds = core.indexed_dataset([1, 2, 1], 2)
        f = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        assert harness.training_error(f, ds) == pytest.approx(1 / 3)
        leaf = __import__("driftboost.weaklearners").weaklearners.Leaf(2)
        assert list(leaf.predict_all(ds)) == [2, 2, 2]
    finally:
        layers.uninstall(restore)
    assert (harness.training_error, core.training_error,
            core.WeakClassifier.predict_all) == before
    assert tracing.call_counts(tracer.spans) == {"core.training_error": 1,
                                                 "core.predict_all": 1}
    assert tracer.counters["core.predict_all_rows"] == 3


def test_every_span_name_belongs_to_a_layer():
    names = ([n for _, _, n, _ in layers.FUNCTIONS]
             + [n for _, _, n, _ in layers.SITES]
             + [n for _, _, n, _ in layers.METHODS])
    assert all(layers.layer_of(n) != "bench" for n in names)
    assert layers.layer_of("stage.train") == "bench"


# ------------------------------------------------------------ checks

def test_compare_tolerates_rounding_only():
    ref = {"a": [0.1, 2], "b": {"c": "x"}}
    assert workloads.compare(ref, {"a": [0.1 + 1e-15, 2], "b": {"c": "x"}},
                             1e-9) == []
    assert workloads.compare(ref, {"a": [0.2, 2], "b": {"c": "x"}}, 1e-9)
    assert workloads.compare(ref, {"a": [0.1], "b": {"c": "x"}}, 1e-9)
    assert workloads.compare(ref, {"a": [0.1, 2], "b": {"c": "y"}}, 1e-9)


def test_oracle_potential_matches_the_program():
    b = potentials.gamma_biased_uniform(4, 0.1).b
    for t, s in [(0, (0, 0, 0, 0)), (7, (1, 0, 2, -1)), (60, (0, 0, 0, 0))]:
        assert oracle.zeroone_potential(b, t, s) == pytest.approx(
            potentials.potential_zeroone_dp(b, t, np.array(s)), abs=1e-12)


# ------------------------------------------------------------ accounting

class FakeWorkload:
    name = "fake"
    calls_per_op = 3

    def __init__(self, fail_on):
        self.fail_on = fail_on

    def prepare(self, workdir, key):
        return {"key": key}

    def run(self, tracer, inp):
        if inp["key"][1] in self.fail_on:
            raise RuntimeError("broken")
        time.sleep(0.001)
        return {}

    def check(self, tally, inp, obs, reference):
        tally.record("call", [])
        return 0, None


def test_raising_operation_counts_all_its_calls_as_failed(capsys):
    ctx = bench.Context(FakeWorkload(fail_on={1}), None, {})
    untraced, traced = bench.measure(ctx, seed=5, seconds=0.0)
    assert [r["key"] for r in untraced] == [(1, 0), (5, 2)]
    assert traced == []
    assert (ctx.tally.attempted, ctx.tally.failed) == (2 + 3, 3)


def test_end_to_end_reports_medians_and_host_speed_apart():
    ctx = bench.Context(FakeWorkload(fail_on=set()), None, {})
    ctx.calibration = [2 * bench.CALIBRATION_REF_S] * 3   # a slow host
    m = bench.end_to_end(ctx, [{"wall": 3.0}, {"wall": 5.0}], [1.0, 2.0, 9.0])
    assert m["op_s"] == pytest.approx(4.0)
    assert m["setup_s"] == pytest.approx(2.0)
    assert bench.host_speed(ctx) == pytest.approx(0.5)
    bench.calibrate(ctx)
    assert len(ctx.calibration) == 4 and ctx.calibration[-1] > 0


def test_traced_measurement_runs_each_key_both_ways():
    ctx = bench.Context(FakeWorkload(fail_on=set()), None, {})
    tracer = tracing.Tracer()
    untraced, traced = bench.measure(ctx, 0, 0.0, tracer)
    assert [r["key"] for r in untraced] == [r["key"] for r in traced]
    assert len(tracer.durations("bench.op")) == len(traced)
    assert len(ctx.plain.durations("bench.op")) == len(untraced)


def test_probe_failures_count_only_in_the_failed_fraction(monkeypatch):
    workload = workloads.CertifyWorkload()
    inp = {"gamma": 0.1}

    def overflow(b, t, s):
        raise OverflowError("integer division result too large")
    probes = workloads.Tally()
    monkeypatch.setattr(potentials, "potential_zeroone_dp", overflow)
    workload.probe(probes, inp, None)
    monkeypatch.setattr(potentials, "potential_zeroone_dp",
                        lambda b, t, s: oracle.zeroone_potential(b, t, s))
    workload.probe(probes, inp, None)
    assert (probes.attempted, probes.failed) == (2, 1)

    ctx = bench.Context(workload, None, {})
    for _ in range(5):
        ctx.tally.record("call", [])
    m = bench.per_layer(ctx, tracing.Tracer(), [], [], probes)
    assert m["bench.ops_failed_frac"] == pytest.approx(1 / 7)
    assert m["bench.probes_failed"] == 1


# ------------------------------------------------------------ contract

def test_benchmark_json_matches_the_metrics_printed():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        bench.PER_LAYER
    m = bench.per_layer(bench.Context(None, None, {}), tracing.Tracer(), [],
                        [], workloads.Tally())
    assert set(m) == set(bench.PER_LAYER)
