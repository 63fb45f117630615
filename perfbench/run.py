"""Run one workload of the flagforms benchmark for a fixed time.

Usage, from the repository root:

    python3 perfbench/run.py --workload exact-push --seed 1 --seconds 40 --trace 0

Each pass runs in a fresh single-threaded child process (worker.py) while
this process waits on it.  The first pass checks every output against
routes separate from the code under test; later passes must reproduce its
outputs exactly.  Passes are started until the next one would end past
--seconds (at least MIN_PASSES).  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, and with --trace 1 the per-layer metrics
of traced passes, which alternate with untraced ones, plus the tracing
overhead.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("exact-push", "mc-fiber", "pointwise-forms")
MIN_PASSES = 3
#: a run, its set-up included, ends within this many seconds or fails
DEADLINE_S = 170


def _env():
    env = dict(os.environ)
    env.update(
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=str(ROOT / "src"),
    )
    return env


def _pass(args, index, traced, t0):
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--check", "1" if index == 0 else "0", "--trace", "1" if traced else "0",
    ]
    if traced and index == 1:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        cmd += ["--spans", str(out_dir / f"spans-{args.workload}-seed{args.seed}.json")]
    spawn = time.monotonic()
    proc = subprocess.run(
        cmd, env=_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, DEADLINE_S - (spawn - t0)),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"pass {index} exited with code {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["first_call"] - spawn
    out["wall_s"] = out["pass_end"] - spawn
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "flagforms" / "__init__.py").is_file():
        sys.exit(f"run.py: no flagforms sources under {ROOT / 'src'}")

    load_start = os.getloadavg()
    t0 = time.monotonic()
    passes = []
    attempted = failed = 0
    reference = None
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        try:
            p = _pass(args, len(passes), traced, t0)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            sys.exit(f"run.py: {exc}")
        if reference is None:
            reference = p["digests"]
        bad = set(p["errors"])
        bad |= {k for k in p["ops"] if k not in bad and p["digests"].get(k) != reference.get(k)}
        for name in sorted(bad)[:5]:
            print(f"failed: {name}: {p['errors'].get(name, 'output differs from the checked pass')}", file=sys.stderr)
        attempted += len(p["ops"])
        failed += len(bad)
        p["traced"] = traced
        passes.append(p)
        elapsed = time.monotonic() - t0
        next_s = statistics.median(q["wall_s"] for q in passes)
        need = 2 * MIN_PASSES if args.trace else MIN_PASSES
        if len(passes) >= need and elapsed + next_s > args.seconds:
            break

    plain = [p for p in passes if not p["traced"]]
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        metrics = {
            key: {"value": statistics.median(p["layers"][key] for p in traced), "unit": _unit(key)}
            for key in traced[0]["layers"]
        }
        overhead = statistics.median(p["pass_s"] for p in traced) - statistics.median(p["pass_s"] for p in plain)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(p["setup_s"] for p in plain), "unit": "s"},
            "pass_s": {"value": statistics.median(p["pass_s"] for p in plain), "unit": "s"},
            "peak_rss_mb": {"value": max(p["rss_mb"] for p in plain), "unit": "MB"},
        }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(passes),
        "pass_s": [round(p["pass_s"], 4) for p in passes],
        "host": dict(passes[0]["host"], loadavg_start=load_start, loadavg_end=os.getloadavg()),
    }
    print(json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))


def _unit(key):
    if key.endswith("_per_s"):
        return "1/s"
    if key.endswith("_s"):
        return "s"
    if key.endswith(".reuse"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    main()
