#!/usr/bin/env python3
"""The trajgraph benchmark.

Run from the repository root:

    python3 trajbench/run.py --workload train-small --seed 1 --seconds 30 --trace 0

Workloads: train-small, train-dense, predict-map (see trajbench/METRICS.md).
The program is imported from ./src of the same checkout. Inputs are made
from --seed in a scratch directory under the checkout, which is removed at
exit. The report is printed as readable lines followed by one JSON line
{"correct", "attempted", "failed", "metrics"}:

  --trace 0  end-to-end metrics, measured with no tracing;
  --trace 1  the workload once untraced and once traced; per-layer metrics
             of the traced run and trace.overhead_frac, the traced over
             the untraced median time per timed unit, minus one.

Exit codes: 0 done (see "correct"), 2 usage error or no program to run.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BLAS_THREADS = 1        # one process, one BLAS thread: steadier than one per core

END_TO_END_UNITS = {
    "setup_s": "s", "scenes_per_s": "1/s", "scene_ms_p50": "ms", "scene_ms_p90": "ms",
    "val_minADE": "m", "val_minFDE": "m", "peak_rss_mb": "MB",
}


def _pin_threads():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def environment():
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS}


def _print_lines(title, items):
    print(title)
    for name, (value, unit) in items.items():
        print(f"  {name:<32} {value:>16.6f} {unit}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "trajgraph", "__init__.py")):
        print(f"error: no trajgraph sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    _pin_threads()
    sys.dont_write_bytecode = True
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import layers
    import tracer as tracer_mod
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    make = workloads.WORKLOADS[args.workload]
    env = environment()
    print(f"trajbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))

    scratch_parent = os.path.join(ROOT, ".trajbench_tmp")
    os.makedirs(scratch_parent, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=scratch_parent)
    try:
        if args.trace == 0:
            outs = [workloads.run_phase(make, args.seed, args.seconds, workdir)]
            out = outs[0]
            out.values["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
            metrics = {name: (out.values.get(name, math.nan), unit)
                       for name, unit in END_TO_END_UNITS.items()}
            _print_lines("end-to-end metrics", metrics)
        else:
            plain = workloads.run_phase(make, args.seed, args.seconds, workdir, 1)
            trace = tracer_mod.Tracer()
            traced = workloads.run_phase(make, args.seed, args.seconds, workdir, 1, tracer=trace)
            outs = [plain, traced]
            if traced.digest != plain.digest:
                traced.problems.append(
                    f"traced digest {traced.digest} != untraced digest {plain.digest}")
            overhead = (statistics.median(traced.unit_s) / statistics.median(plain.unit_s) - 1.0
                        if traced.unit_s and plain.unit_s else math.nan)
            metrics = layers.per_layer_metrics(trace, overhead)
            _print_lines("per-layer metrics (per scene unless a count)", metrics)
            if trace.calls["tensor.backward"]:
                _print_lines("per-layer, train workloads only (not in the JSON line)",
                             layers.train_only_metrics(trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not os.listdir(scratch_parent):
            os.rmdir(scratch_parent)

    attempted = sum(o.attempted for o in outs)
    failed = sum(o.failed for o in outs)
    problems = [p for o in outs for p in o.problems]
    for name, value in outs[-1].reference.items():
        print(f"reference {name} = {value}")
    print(f"failed_frac = {failed}/{attempted} = {failed / max(attempted, 1):.6f}")
    print("digest " + " ".join(o.digest for o in outs))
    for problem in problems:
        print(f"check failed: {problem}")
    print("checks " + ("passed" if not problems else f"FAILED ({len(problems)})"))
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
