"""Benchmark of the avfusion study pipeline; see perfbench/README.md.

    python3 perfbench/run.py --workload train-dfn --seed 0 --seconds 60 --trace 0

Runs whole passes over a workload's fixed list of seed-derived inputs, one
round per input, while a further pass fits in ``--seconds`` (at least one
pass), checks every round's outputs apart from the program, and prints one
JSON object as the last line of standard output. ``--trace 0`` reports the
end-to-end metrics, each the mean over rounds; ``--trace 1`` runs each
input untraced and then traced, and reports the per-layer metrics.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["train-dfn", "staged"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def blas_info() -> dict:
    """numpy and OpenBLAS versions and the BLAS thread count in effect."""
    import numpy as np

    info = {"numpy": np.__version__, "nproc": os.cpu_count(),
            "python": platform.python_version()}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError, ValueError):
        info["blas"] = "unknown"
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*.so*"))
    for lib in libs:
        try:
            fn = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        fn.argtypes = []
        threads = int(fn())
        break
    info["blas_threads"] = threads
    return info


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "avfusion").is_dir():
        print(f"error: no avfusion sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from tracing import COUNT_METRICS, TIME_METRICS, TRACE_METRICS, Tracer

    harness = workloads.Harness(args.workload, args.seed)
    setup_s = time.perf_counter() - T_START

    work = OUT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    counts = {"attempted": 0, "failed": 0}

    def one_round(tracer=None) -> dict:
        out_dir = work / f"round{counts['attempted']}"
        rnd = harness.run_round(out_dir, tracer)
        counts["attempted"] += rnd["cells"]
        try:
            if rnd["error"]:
                raise RuntimeError(rnd["error"])
            rnd["wer"] = workloads.row_averages(out_dir)
            counts["failed"] += len(harness.check(out_dir))
        except Exception:
            # a program fault fails every cell of its round
            traceback.print_exc()
            counts["failed"] += rnd["cells"]
        shutil.rmtree(out_dir)
        if tracer:
            rnd["layers"] = tracer.layer_metrics()
            rnd["layers"]["trace.unattributed_s"] = rnd["run_s"] - \
                tracer.covered(rnd["start"], rnd["end"])
        return rnd

    # a pass works through the workload's fixed list of inputs, each
    # untraced and then (with --trace 1) traced; passes repeat while a
    # whole further pass fits in --seconds, and one always runs, so every
    # run covers the same inputs equally however fast the code is
    inputs = workloads.WORKLOADS[args.workload]["inputs"]
    deadline = time.perf_counter() + args.seconds
    plain, traced, spans = [], [], []
    try:
        while True:
            began = time.perf_counter()
            for index in range(inputs):
                harness.prepare(index)
                plain.append(one_round())
                if args.trace:
                    tracer = Tracer()
                    traced.append(one_round(tracer))
                    spans.append(tracer.export())
            now = time.perf_counter()
            if now + (now - began) > deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted, failed = counts["attempted"], counts["failed"]

    # a run's figure is the mean over its rounds; with three to seven
    # rounds a run, it spread less across seeds than their median
    mean = statistics.fmean
    if args.trace == 0:
        metrics = {
            "setup_s": (setup_s, "s"),
            "run_s": (mean(r["run_s"] for r in plain), "s"),
            "train_s": (mean(r["train_s"] for r in plain), "s"),
            "eval_cells_per_s": (
                sum(r["cells"] for r in plain) /
                sum(r["run_s"] - r["train_s"] for r in plain), "cells/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0, "MB"),
        }
    else:
        units = {name: "s" for name in TIME_METRICS}
        units.update(COUNT_METRICS)
        units.update({name: "s" for name in TRACE_METRICS})
        metrics = {name: (mean(r["layers"][name] for r in traced), unit)
                   for name, unit in units.items()
                   if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (
            mean(t["run_s"] - p["run_s"] for p, t in zip(plain, traced)), "s")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "env": blas_info(),
              "rounds": {"plain": plain, "traced": traced},
              "result": result}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1))
    if spans:
        Path(f"{stem}.spans.json").write_text(json.dumps(
            {"columns": ["id", "name", "start", "end", "parent", "thread"],
             "rounds": spans}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
