"""Measurement loop, set-up timing and metric assembly for run.py.

Imported only after run.py has capped the BLAS/OpenMP thread counts and
put the checkout's src/ on sys.path.
"""

import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import numpy as np
import scipy

import layers
import tracing
from workloads import WORKLOADS, Tally, median, op_key

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
WORKDIR = os.path.join(ROOT, ".perfbench_work")

SETUP_SAMPLES = 7
MIN_OPS = 3
SETUP_CODE = "import driftboost, driftboost.harness, driftboost.cli"

# Shared hosts change speed by up to 1.8x for minutes at a time (seen on
# a 2-core container, with CPU time equal to wall time, so not from
# scheduling). A fixed kernel that shares no code with the program is
# timed between operations and its speed relative to CALIBRATION_REF_S is
# reported, so that two runs can tell a slow host from a slow program.
# Times are reported as measured: scaling them by this factor did not
# track the LP-heavy certify workload.
CALIBRATION_REF_S = 0.05

END_TO_END = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "weaklearners.greedy_tree_s": "s",
    "weaklearners.greedy_tree_calls": "count",
    "weaklearners.tree_nodes": "count",
    "weaklearners.best_response_s": "s",
    "weaklearners.best_response_calls": "count",
    "core.predict_all_s": "s",
    "core.predict_all_rows": "count",
    "core.training_error_s": "s",
    "core.exp_risk_s": "s",
    "core.score_table_s": "s",
    "boosters.adaboost_mm_self_s": "s",
    "boosters.os_boost_self_s": "s",
    "boosters.os_phi_lookups": "count",
    "boosters.os_phi_misses": "count",
    "boosters.os_phi_hit_ratio": "ratio",
    "boosters.transform_mislabel_s": "s",
    "boosters.adaboost_binary_s": "s",
    "potentials.potential_fixed_s": "s",
    "potentials.potential_fixed_calls": "count",
    "potentials.zeroone_dp_s": "s",
    "potentials.minimal_table_s": "s",
    "potentials.degree_map_s": "s",
    "conditions.lp_solve_s": "s",
    "conditions.lp_build_s": "s",
    "conditions.lp_rows": "count",
    "conditions.lp_cols": "count",
    "conditions.lp_iterations": "count",
    "conditions.game_gap_max": "gap",
    "harness.load_csv_s": "s",
    "harness.split_s": "s",
    "harness.run_experiment_self_s": "s",
    "harness.eval_model_self_s": "s",
    "stage.train_s": "s",
    "stage.eval_s": "s",
    "stage.game_s": "s",
    "stage.equivalence_s": "s",
    "stage.potentials_s": "s",
    **{f"layer.{name}_self_s": "s" for name in layers.LAYERS},
    "trace.op_s": "s",
    "trace.untraced_op_s": "s",
    "trace_overhead_frac": "ratio",
    "trace.residual_s": "s",
    "harness.artifacts_identical": "count",
    "harness.test_error": "ratio",
    "bench.ops_failed_frac": "ratio",
    "bench.probes_failed": "count",
    "bench.host_speed": "ratio",
    "repo.src_lines": "lines",
}

# per-layer times that are a span's whole duration, per operation
INCLUSIVE = {
    "weaklearners.greedy_tree_s": "weaklearners.greedy_tree",
    "weaklearners.best_response_s": "weaklearners.best_response",
    "core.predict_all_s": "core.predict_all",
    "core.training_error_s": "core.training_error",
    "core.exp_risk_s": "core.exp_risk",
    "core.score_table_s": "core.score_table",
    "boosters.transform_mislabel_s": "boosters.transform_mislabel",
    "boosters.adaboost_binary_s": "boosters.adaboost_binary",
    "potentials.potential_fixed_s": "potentials.potential_fixed",
    "potentials.zeroone_dp_s": "potentials.potential_zeroone_dp",
    "potentials.minimal_table_s": "potentials.potential_minimal",
    "potentials.degree_map_s": "potentials.degree_map",
    "conditions.lp_solve_s": "highs.linprog",
    "harness.load_csv_s": "harness.load_csv",
    "harness.split_s": "harness.split_dataset",
    "stage.train_s": "stage.train",
    "stage.eval_s": "stage.eval",
    "stage.game_s": "stage.game",
    "stage.equivalence_s": "stage.equivalence",
    "stage.potentials_s": "stage.potentials",
}
# ... and the ones that are its self time
SELF = {
    "boosters.adaboost_mm_self_s": ("boosters.adaboost_mm",),
    "boosters.os_boost_self_s": ("boosters.os_boost_fixed",),
    "conditions.lp_build_s": ("conditions.solve_game",
                              "conditions.is_boostable"),
    "harness.run_experiment_self_s": ("harness.run_experiment",),
    "harness.eval_model_self_s": ("harness.eval_model",),
}
CALLS = {
    "weaklearners.greedy_tree_calls": "weaklearners.greedy_tree",
    "weaklearners.best_response_calls": "weaklearners.best_response",
    "potentials.potential_fixed_calls": "potentials.potential_fixed",
}
COUNTERS = ("weaklearners.tree_nodes", "core.predict_all_rows",
            "boosters.os_phi_lookups", "boosters.os_phi_misses",
            "conditions.lp_rows", "conditions.lp_cols",
            "conditions.lp_iterations")


def src_lines():
    pkg = os.path.join(SRC, "driftboost")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                total += fh.read().count(b"\n")
    return total


def calibration_kernel():
    """Fixed interpreter and numpy work, in the mix the workloads use:
    dict and tuple churn, a list sort, small array operations."""
    table = {}
    for i in range(100000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0.0) + i * 0.5
    rows = sorted((i % 5, -i, i * 2) for i in range(40000))
    a = np.arange(20000.0)
    for _ in range(200):
        a = np.sqrt(a + 1.0)
    return len(table) + len(rows) + float(a[0])


def calibrate(ctx):
    t0 = time.perf_counter()
    calibration_kernel()
    ctx.calibration.append(time.perf_counter() - t0)


def host_speed(ctx):
    """Reference kernel time over this run's median kernel time."""
    return CALIBRATION_REF_S / statistics.median(ctx.calibration)


def setup_times(ctx, samples):
    """Wall time of a fresh interpreter importing the package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = []
    for _ in range(samples):
        calibrate(ctx)
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                       check=True, timeout=120)
        out.append(time.perf_counter() - t0)
    return out


class Context:
    def __init__(self, workload, workdir, reference):
        self.workload = workload
        self.workdir = workdir
        self.reference = reference
        self.tally = Tally()
        self.plain = tracing.Tracer()   # stage spans of untraced operations
        self.first = None               # (inputs, outputs) for the probe
        self.calibration = []           # calibration kernel times


def run_op(ctx, tracer, key):
    """One timed operation on the inputs of `key`, then its checks.
    Returns the result, or None when a call raised."""
    workload = ctx.workload
    inp = workload.prepare(ctx.workdir, key)
    try:
        t0 = time.perf_counter()
        with tracer.span("bench.op"):
            obs = workload.run(tracer, inp)
        wall = time.perf_counter() - t0
    except Exception:  # a raising call fails its operation; keep going
        traceback.print_exc()
        for _ in range(workload.calls_per_op):
            ctx.tally.record(f"{workload.name} {key}", ["raised"])
        return None
    reference = ctx.reference.get(str(key[0])) if key[1] == 0 else None
    identical, test_error = workload.check(ctx.tally, inp, obs, reference)
    if ctx.first is None:
        ctx.first = (inp, obs)
    # inputs and outputs of later operations are dropped so that peak
    # memory does not grow with the number of operations run
    return {"key": key, "wall": wall, "identical": identical,
            "test_error": test_error}


def measure(ctx, seed, seconds, tracer=None):
    """Runs operations on the keys of `seed` in turn, stopping before
    one that would end past `seconds` once MIN_OPS have run.

    With a tracer, every key runs twice, untraced and with the layers
    wrapped, in alternating order, so that a drift in machine speed does
    not read as tracing overhead. Returns (untraced, traced) results."""
    untraced, traced = [], []
    start = time.perf_counter()
    lap = []
    for j in itertools.count():
        if (len(lap) >= MIN_OPS
                and time.perf_counter() - start + median(lap) > seconds):
            break
        lap0 = time.perf_counter()
        calibrate(ctx)
        key = op_key(seed, j)
        order = ((False,) if tracer is None
                 else (False, True) if j % 2 == 0 else (True, False))
        for wrapped in order:
            if wrapped:
                restore = layers.install(tracer)
                try:
                    result = run_op(ctx, tracer, key)
                finally:
                    layers.uninstall(restore)
            else:
                result = run_op(ctx, ctx.plain, key)
            if result is not None:
                (traced if wrapped else untraced).append(result)
        lap.append(time.perf_counter() - lap0)
    return untraced, traced


def end_to_end(ctx, results, setup):
    print(f"host speed {host_speed(ctx):.4f} (median kernel "
          f"{statistics.median(ctx.calibration):.4f} s over "
          f"{len(ctx.calibration)} samples)")
    return {"op_s": median([r["wall"] for r in results]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0}


def per_layer(ctx, tracer, traced, untraced, probes):
    n = max(len(traced), 1)
    spans = tracer.spans
    incl = tracing.inclusive_times(spans)
    own = tracing.self_times(spans)
    calls = tracing.call_counts(spans)
    counters = tracer.counters
    out = {}
    for metric, name in INCLUSIVE.items():
        out[metric] = incl.get(name, 0.0) / n
    for metric, names in SELF.items():
        out[metric] = sum(own.get(name, 0.0) for name in names) / n
    for metric, name in CALLS.items():
        out[metric] = calls.get(name, 0) / n
    for name in COUNTERS:
        out[name] = counters.get(name, 0.0) / n
    lookups = counters.get("boosters.os_phi_lookups", 0.0)
    out["boosters.os_phi_hit_ratio"] = (
        1.0 - counters.get("boosters.os_phi_misses", 0.0) / lookups
        if lookups else 0.0)
    out["conditions.game_gap_max"] = counters.get("conditions.game_gap_max",
                                                  0.0)
    by_layer = dict.fromkeys(layers.LAYERS, 0.0)
    for name, seconds in own.items():
        by_layer[layers.layer_of(name)] += seconds
    for layer, seconds in by_layer.items():
        out[f"layer.{layer}_self_s"] = seconds / n
    both = {r["key"] for r in traced} & {r["key"] for r in untraced}
    traced_wall = sum(r["wall"] for r in traced if r["key"] in both)
    untraced_wall = sum(r["wall"] for r in untraced if r["key"] in both)
    op_span = sum(tracer.durations("bench.op"))
    out["trace.op_s"] = op_span / n
    out["trace.untraced_op_s"] = untraced_wall / max(len(both), 1)
    out["trace_overhead_frac"] = (traced_wall / untraced_wall - 1.0
                                  if untraced_wall else 0.0)
    out["trace.residual_s"] = (op_span - sum(by_layer.values())) / n
    out["harness.artifacts_identical"] = next(
        (r["identical"] for r in traced if r["key"][1] == 0), 0)
    errors = [r["test_error"] for r in traced if r["test_error"] is not None]
    out["harness.test_error"] = median(errors)
    tally = ctx.tally
    attempted = tally.attempted + probes.attempted
    out["bench.ops_failed_frac"] = ((tally.failed + probes.failed) / attempted
                                    if attempted else 0.0)
    out["bench.host_speed"] = host_speed(ctx) if ctx.calibration else 0.0
    out["bench.probes_failed"] = probes.failed
    out["repo.src_lines"] = src_lines()
    return out


def environment(args):
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": nproc,
            "threads": {v: os.environ.get(v) for v in (
                "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
            "repo.src_lines": src_lines()}


def write_spans(tracer, path):
    with open(path, "w") as fh:
        for name, start, end, parent in tracer.spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end,
                                 "parent": parent}) + "\n")


def run(args):
    with open(REFERENCE) as fh:
        reference = json.load(fh)[args.workload]
    workload = WORKLOADS[args.workload]
    os.makedirs(WORKDIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORKDIR)
    try:
        print("env " + json.dumps(environment(args), sort_keys=True))
        ctx = Context(workload, workdir, reference)
        probes = Tally()
        if args.trace:
            tracer = tracing.Tracer()
            untraced, traced = measure(ctx, args.seed, args.seconds, tracer)
            results = traced
            write_spans(tracer, os.path.join(
                WORKDIR, f"spans-{args.workload}-{args.seed}.jsonl"))
        else:
            setup = setup_times(ctx, SETUP_SAMPLES)
            results, _ = measure(ctx, args.seed, args.seconds)
        if ctx.first is not None:
            workload.probe(probes, *ctx.first)
        for problem in ctx.tally.problems:
            print(f"FAILED {problem}")
        for problem in probes.problems:
            print(f"probe failed (known defect) {problem}")
        print(f"ops {len(results)}; checked calls {ctx.tally.attempted}, "
              f"failed {ctx.tally.failed}; probes {probes.attempted}, "
              f"failed {probes.failed}")
        for stage in workload.stages:
            print(f"{stage} median {median(ctx.plain.durations(stage)):.4f} s "
                  f"(untraced)")
        if args.trace:
            metrics = per_layer(ctx, tracer, traced, untraced, probes)
            units = PER_LAYER
        else:
            metrics = end_to_end(ctx, results, setup)
            units = END_TO_END
        for name, value in metrics.items():
            print(f"{name} {value:.6g} {units[name]}")
        ok = bool(results) and ctx.tally.failed == 0
        return {"correct": ok, "attempted": ctx.tally.attempted,
                "failed": ctx.tally.failed,
                "metrics": {name: {"value": metrics[name], "unit": unit}
                            for name, unit in units.items()}}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
