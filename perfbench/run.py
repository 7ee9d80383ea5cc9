"""Benchmark of driftboost.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; it works on the checkout that contains this file,
using the package under src/ as it is (nothing is installed). Workloads:
train-numeric, train-os-lowcard, certify (see workloads.py and
BENCHMARK.json). Inputs are generated from --seed; the run measures for
--seconds, checks every output, and prints as its last line one JSON
object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end ones of an untraced run; with
--trace 1 they are the per-layer ones, taken by wrapping the program's
public functions from outside (the spans go to .perfbench_work/). Every
workload in turn:

    for w in train-numeric train-os-lowcard certify; do
        python3 perfbench/run.py --workload $w --seed 0 --seconds 30; done

Self-tests: python3 -m pytest perfbench/tests
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
MAX_THREADS = 1


def cap_threads():
    """At most MAX_THREADS BLAS/OpenMP threads; must run before numpy
    is first imported."""
    for var in THREAD_VARS:
        try:
            current = int(os.environ.get(var, MAX_THREADS))
        except ValueError:
            current = MAX_THREADS
        os.environ[var] = str(max(1, min(current, MAX_THREADS)))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("train-numeric", "train-os-lowcard", "certify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("need --seed >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "driftboost", "__init__.py")):
        print(f"error: no driftboost package under {SRC}", file=sys.stderr)
        return 2
    cap_threads()
    sys.path.insert(0, SRC)
    import bench
    result = bench.run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
