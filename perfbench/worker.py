"""One pass of one workload, in a process of its own.

Usage: python3 perfbench/worker.py --workload NAME --seed N --check 0|1
       [--trace 0|1] [--spans FILE]

Builds the workload's inputs, makes its timed calls one after another,
then (outside the timed region) checks the outputs when --check is 1 and
digests every output, so that later passes can be compared with a checked
one.  Prints one JSON object.  Run by run.py, which sets the thread and
hash-seed environment before this process starts.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import time
from fractions import Fraction

import numpy as np

from flagforms import charpoly, combinat, formlab

import spans
from workloads import WORKLOADS


def canon(obj):
    """A hashable, exact rendering of an operation's output."""
    if obj is None or isinstance(obj, (bool, int, float, complex, str)):
        return repr(obj)
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, np.ndarray):
        return (obj.dtype.str, obj.shape, hashlib.sha256(obj.tobytes()).hexdigest())
    if isinstance(obj, charpoly.ChernPoly):
        return (type(obj).__name__, obj.r, tuple((e, str(c)) for e, c in obj.sorted_terms()))
    if isinstance(obj, charpoly.SchurVector):
        return ("SchurVector", obj.degree, obj.rank, tuple(sorted((p.parts, str(c)) for p, c in obj.items())))
    if isinstance(obj, combinat.Partition):
        return obj.parts
    if isinstance(obj, formlab.ExtForm):
        return tuple(sorted((k, repr(complex(v))) for k, v in obj.terms.items()))
    if isinstance(obj, formlab.FormMatrix):
        return canon(obj.entries)
    if isinstance(obj, (list, tuple)):
        return tuple(canon(x) for x in obj)
    if isinstance(obj, dict):
        return tuple(sorted((repr(k), canon(v)) for k, v in obj.items()))
    if dataclasses.is_dataclass(obj):
        return (type(obj).__name__, canon({f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}))
    raise TypeError(f"no canonical form for {type(obj).__name__}")


def digest(obj):
    return hashlib.sha256(repr(canon(obj)).encode()).hexdigest()[:16]


def host():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--check", type=int, choices=(0, 1), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans")
    args = ap.parse_args()

    # numpy seeds must be non-negative
    workload = WORKLOADS[args.workload](args.seed % 2**32)
    tracer = spans.Tracer()
    if args.trace:
        tracer.install()
    results, errors = {}, {}

    tracer.on = bool(args.trace)
    first_call = time.monotonic()
    start = time.perf_counter()
    for name, call in workload.ops:
        try:
            results[name] = call(results)
        except Exception as exc:  # a failed operation is counted, not fatal
            errors[name] = f"raised {exc!r}"
    pass_s = time.perf_counter() - start
    pass_end = time.monotonic()
    tracer.on = False
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if args.check:
        try:
            errors.update({k: v for k, v in workload.check(results).items() if k not in errors})
        except Exception as exc:
            errors.update({name: f"check raised {exc!r}" for name, _ in workload.ops if name not in errors})
    out = {
        "first_call": first_call,
        "pass_end": pass_end,
        "pass_s": pass_s,
        "rss_mb": rss_mb,
        "ops": [name for name, _ in workload.ops],
        "errors": errors,
        "digests": {name: digest(value) for name, value in results.items()},
        "host": host(),
    }
    if args.trace:
        out["layers"] = tracer.summary()
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump({"workload": args.workload, "seed": args.seed, "spans": tracer.dump()}, fh)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
