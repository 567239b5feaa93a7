"""One repetition of one workload, in a fresh interpreter.

run.py starts this script once per repetition, because the class memo and
the `families` caches are module globals that every `melon` invocation
fills cold; a second pass in the same process would measure a warm
program.  The last line of stdout is one JSON object describing the
repetition.

Modes:
  setup  build the inputs, note when the timed region would start, exit
  run    set up, then time every item with tracing off
  trace  the same items with spans around each public library call
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_out")
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.dirname(os.path.abspath(__file__))]

import workloads  # noqa: E402  (needs the path set above)
from tracer import Tracer  # noqa: E402


def run_items(items: list, run_item, tracer=None) -> dict:
    """Time each item; an exception or a failed check is a failure."""
    latencies, outputs, problems = [], [], {}
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.item = i
        start = time.perf_counter()
        try:
            output, problem = run_item(item)
        except Exception as exc:  # a failing item must not end the run
            output = None
            problem = "".join(traceback.format_exception_only(exc)).strip()
        latencies.append(time.perf_counter() - start)
        outputs.append(output)
        if problem is not None:
            problems[i] = problem
    return {"latencies": latencies, "outputs": outputs, "problems": problems}


def digest(outputs: list) -> str:
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def peak_rss_mb() -> float:
    """ru_maxrss (KiB on Linux) of this process plus its children, in MiB."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=["setup", "run", "trace"],
                        required=True)
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for the search workload")
    parser.add_argument("--cpu", type=int, default=None,
                        help="bind this process to one CPU")
    parser.add_argument("--check-direct", action="store_true",
                        help="after the timed region, check oracle counts "
                             "against the reference method")
    args = parser.parse_args()

    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        cls = workloads.WORKLOADS[args.workload]
        extra = {"workers": args.workers} if args.workload == "search" else {}
        wl = cls(args.seed, workdir, **extra)
        result: dict = {"sizes": wl.sizes()}
        tracer = Tracer() if args.mode == "trace" else None
        if tracer is not None:
            tracer.install()
        result["region_start"] = time.monotonic()
        if args.mode == "setup":
            print(json.dumps(result))
            return 0

        start = time.perf_counter()
        done = run_items(wl.items, wl.run_item, tracer)
        wall_s = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()

        problems = done["problems"]
        if args.check_direct:
            for i, problem in wl.direct_problems(done["outputs"]).items():
                problems[i] = "; ".join(filter(None, [problems.get(i), problem]))
        import numpy
        result.update({
            "wall_s": wall_s,
            "latencies": done["latencies"],
            "units": len(wl.items) * wl.units_per_item,
            "attempted": len(wl.items),
            "failed": len(problems),
            "problems": [f"item {i}: {p}" for i, p in sorted(problems.items())][:10],
            "digest": digest(done["outputs"]),
            "peak_rss_mb": peak_rss_mb(),
            "numpy": numpy.__version__,
        })
        if tracer is not None:
            result["layers"] = tracer.layer_metrics(wall_s)
            tracer.write(os.path.join(
                OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
