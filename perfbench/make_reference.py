"""Regenerate reference.json, the program's outputs on the reference
inputs (keys (p, 0) of every workload) that runs are checked against.

    python3 perfbench/make_reference.py

Run it only for a change that is meant to alter outputs, and say why in
that change; a speed-up must leave the reference as it is.
"""

import json
import os
import shutil
import sys
import tempfile

import run

run.cap_threads()
sys.path.insert(0, run.SRC)

import bench  # noqa: E402
import tracing  # noqa: E402
from workloads import REFERENCE_INPUTS, WORKLOADS, Tally  # noqa: E402


def main():
    os.makedirs(bench.WORKDIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="reference-", dir=bench.WORKDIR)
    try:
        out = {}
        for name, workload in WORKLOADS.items():
            out[name] = {}
            for p in range(REFERENCE_INPUTS):
                inp = workload.prepare(workdir, (p, 0))
                obs = workload.run(tracing.Tracer(), inp)
                tally = Tally()
                workload.check(tally, inp, obs, None)
                if tally.failed:
                    sys.exit("\n".join(tally.problems))
                out[name][str(p)] = workload.summary(inp, obs)
                print(name, p, "ok")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(bench.REFERENCE, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
