"""Run the benchmark twice over on ten seeds per workload and summarize it.

    python3 perfbench/summarize.py

Reads the workloads, the end-to-end metrics with their bounds, and
``run_seconds`` from ``BENCHMARK.json``. For each workload, runs
``perfbench/run.py`` untraced, one run after another, on seeds 1..10 (set A)
and then on seeds 11..20 (set B). Prints the environment and, per set, each
end-to-end metric's median, quartiles and quartile spread (q3 - q1 as a
share of the median, as ``statistics.quantiles(values, n=4)`` gives them),
then how far set B's median lies from set A's, in the metric's worse
direction, as a share of set A's median, the failed share of each set, and
each strategy's mean WER row average over all rounds.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
SETS = {"A": range(1, RUNS + 1), "B": range(RUNS + 1, 2 * RUNS + 1)}


def run(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".perfbench_out" /
                         f"{workload}-seed{seed}-trace0.json").read_text())
    return result, record


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]
    env = None
    for workload in (w["name"] for w in bench["workloads"]):
        values: dict = {}
        failed: dict = {}
        wer: dict = {}
        for set_name, seeds in SETS.items():
            attempted = bad = 0
            for seed in seeds:
                result, record = run(workload, seed, seconds)
                env = record["env"]
                attempted += result["attempted"]
                bad += result["failed"]
                for name, m in result["metrics"].items():
                    values.setdefault((set_name, name), []).append(m["value"])
                for rnd in record["rounds"]["plain"]:
                    for strategy, avg in rnd.get("wer", {}).items():
                        wer.setdefault(strategy, []).append(avg)
            failed[set_name] = f"{bad} of {attempted}"
        print(f"\n{workload}: {RUNS} runs of {seconds} s per set, failed "
              + ", ".join(f"{k}: {v}" for k, v in failed.items()))
        print("| metric | set | median | q1 | q3 | spread | B vs A | bound |")
        print("|---|---|---:|---:|---:|---:|---:|---:|")
        for m in metrics:
            name = m["name"]
            medians = {}
            for set_name in SETS:
                vals = values[set_name, name]
                q1, _, q3 = statistics.quantiles(vals, n=4)
                medians[set_name] = med = statistics.median(vals)
                worse = ""
                if set_name == "B":
                    diff = (medians["B"] - medians["A"]) / medians["A"]
                    worse = f"{diff if m['better'] == 'lower' else -diff:+.3f}"
                print(f"| {name} | {set_name} | {med:.4g} | {q1:.4g} | "
                      f"{q3:.4g} | {(q3 - q1) / med:.3f} | {worse} | "
                      f"{m['bound']} |")
        print("WER row averages (mean over rounds): " + ", ".join(
            f"{s}={statistics.fmean(v):.4f}" for s, v in sorted(wer.items())))
    print(f"\nenvironment: {json.dumps(env)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
