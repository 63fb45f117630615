"""Repeat run.py over several seeds and summarise each metric.

Usage, from the repository root:

    python3 perfbench/repeat.py --runs 10 [--first-seed 1] [--trace 1] [--label NAME]

Runs every workload of BENCHMARK.json one after another, each for its
run_seconds, on seeds first-seed .. first-seed + runs - 1, and appends every
result line to perfbench/out/<label>.jsonl.  Prints, per workload and
metric, the median, the quartiles (statistics.quantiles with n=4) and the
interquartile range as a share of the median.  With --trace 1 this is the
traced split of every per-layer metric and the tracing overhead.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarise(rows):
    """{(workload, metric): (median, q1, q3, iqr share)} plus failure counts."""
    values, fails = {}, {}
    for row in rows:
        w = row["workload"]
        fails.setdefault(w, []).append((row["result"]["failed"], row["result"]["attempted"]))
        for name, m in row["result"]["metrics"].items():
            values.setdefault((w, name), []).append(m["value"])
    out = {}
    for key, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        out[key] = (med, q1, q3, (q3 - q1) / med if med else 0.0, len(vals))
    return out, fails


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--label", default="repeat")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    log = out_dir / f"{args.label}.jsonl"
    rows = []
    for workload in (w["name"] for w in bench["workloads"]):
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                sys.exit(f"repeat.py: {workload} seed {seed} exited with code {proc.returncode}")
            lines = proc.stdout.strip().splitlines()
            row = {"workload": workload, "seed": seed, "info": json.loads(lines[-2]), "result": json.loads(lines[-1])}
            rows.append(row)
            with open(log, "a") as fh:
                fh.write(json.dumps(row) + "\n")
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in row["result"]["metrics"].items() if k in ("setup_s", "pass_s", "peak_rss_mb", "trace.overhead_s")
            ), flush=True)
    stats, fails = summarise(rows)
    print(f"{'workload':16} {'metric':48} {'median':>11} {'q1':>11} {'q3':>11} {'iqr/med':>8}")
    for (w, name), (med, q1, q3, share, n) in stats.items():
        print(f"{w:16} {name:48} {med:11.5g} {q1:11.5g} {q3:11.5g} {share:8.4f}")
    for w, pairs in fails.items():
        print(f"{w}: failed/attempted per run: {sorted(set(pairs))}")


if __name__ == "__main__":
    main()
