"""melonclass benchmark: run one workload (or all four) and print every
metric by name and unit.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

    python3 benchmarks/run.py --workload verify --seed 1 --seconds 30 --trace 0

Each repetition runs in a fresh interpreter (rep.py).  Repetitions are
started until the next one would end after --seconds, taking turns on
the CPUs.  The timing metrics are taken from each item's best latency
over the repetitions, because the speed of a shared machine changes from
one second to the next and a slow spell only ever adds time; `setup_s`
and `peak_rss_mb` are medians.  --trace 1 alternates untraced and traced
repetitions and reports the per-layer metrics instead.  See README.md
for the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("search", "verify", "classes", "oracle")
SETUP_SAMPLES = 9
REP_TIMEOUT_S = 150
# Repetitions take turns on the CPUs this process may use.  On a shared
# machine one CPU can run slow for tens of seconds while another does
# not, and each item's best time is taken over all repetitions.
CPUS = sorted(os.sched_getaffinity(0))
# A traced run whose library spans cover less of the timed region than
# this is not `correct`: its per-layer split would leave too much out.
MIN_COVERAGE = 0.90

UNITS = {
    "setup_s": "s", "wall_s": "s", "items_per_s": "1/s",
    "item_p50_ms": "ms", "item_p90_ms": "ms", "peak_rss_mb": "MiB",
}


class BenchError(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str, *extra: str) -> dict:
    """Run rep.py once and return its result, with `setup_s` measured
    from just before the interpreter is started."""
    cmd = [sys.executable, os.path.join(HERE, "rep.py"), "--workload",
           workload, "--seed", str(seed), "--mode", mode, *extra]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{' '.join(cmd[1:])}: no result within "
                         f"{REP_TIMEOUT_S} s") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or result is None:
        raise BenchError(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n"
                         + err[-2000:])
    result["setup_s"] = result["region_start"] - started
    return result


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    s = sorted(values)
    k = (len(s) - 1) * p
    lo = int(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def best_latencies(reps: list[dict]) -> list[float]:
    """Each item's lowest latency over the repetitions.  Every repetition
    runs the same items in the same order from a cold start, so an item
    does the same work in each; the machine's speed is what differs."""
    return [min(item) for item in zip(*(r["latencies"] for r in reps))]


def repeat(workload: str, seed: int, seconds: float, modes: list[str],
           first_extra: list[str]) -> list[dict]:
    """Cycle through `modes` (one fresh interpreter each) until the next
    repetition would end after `seconds`; every mode runs at least once."""
    reps: list[dict] = []
    start = time.monotonic()
    while True:
        for mode in modes:
            extra = first_extra if not reps else []
            cpu = CPUS[len(reps) // len(modes) % len(CPUS)]
            t0 = time.monotonic()
            rep = spawn(workload, seed, mode, "--cpu", str(cpu), *extra)
            rep["mode"] = mode
            rep["cpu"] = cpu
            rep["elapsed"] = time.monotonic() - t0
            reps.append(rep)
        longest = max(r["elapsed"] for r in reps)
        if time.monotonic() - start + longest * len(modes) > seconds:
            return reps


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    spawn(workload, seed, "setup")  # warm-up: bytecode and file caches
    first_extra = ["--check-direct"] if workload == "oracle" else []
    modes = ["run", "trace"] if trace else ["run"]
    reps = repeat(workload, seed, seconds, modes, first_extra)
    runs = [r for r in reps if r["mode"] == "run"]
    setups = [r["setup_s"] for r in runs]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(workload, seed, "setup")["setup_s"])
    if trace and workload == "search":
        w2 = spawn(workload, seed, "run", "--workers", "2")
        w2["mode"] = "w2"
        reps.append(w2)

    # the traced and the two-worker outputs must equal the plain one too
    digests = {r["digest"] for r in reps}
    problems = [p for r in reps for p in r["problems"]]
    if len(digests) > 1:
        problems.append(f"outputs differ between repetitions: {sorted(digests)}")
    walls = [r["wall_s"] for r in runs]
    best = best_latencies(runs)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(best),
        "items_per_s": runs[0]["units"] / sum(best),
        "item_p50_ms": 1000 * percentile(best, 0.5),
        "item_p90_ms": 1000 * percentile(best, 0.9),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    layers: dict[str, float] = {}
    if trace:
        traced = [r for r in reps if r["mode"] == "trace"]
        for name in traced[0]["layers"]:
            # median_low keeps exact counts integral with two repetitions
            layers[name] = statistics.median_low(r["layers"][name]
                                                 for r in traced)
        layers["trace.overhead_frac"] = (
            sum(best_latencies(traced)) / metrics["wall_s"] - 1)
        layers["cli.search.w2_wall_s"] = sum(r["wall_s"] for r in reps
                                             if r["mode"] == "w2")
        if layers["trace.coverage"] < MIN_COVERAGE:
            problems.append(f"trace.coverage {layers['trace.coverage']:.3f} "
                            f"is below {MIN_COVERAGE}")
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    return {
        "workload": workload,
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "problems": problems[:10],
        "repetitions": dict(Counter(r["mode"] for r in reps)),
        "setup_samples": len(setups),
        "items_per_repetition": runs[0]["attempted"],
        "output_digest": runs[0]["digest"],
        "metrics": metrics,
        "samples": {"setup_s": setups, "wall_s": walls,
                    "cpu": [r["cpu"] for r in runs]},
        "layers": layers,
        "provenance": provenance(seed, runs[0]),
    }


def provenance(seed: int, rep: dict) -> dict:
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": rep["numpy"],
        "nproc": os.cpu_count(),
        "seed": seed,
        "inputs": rep["sizes"],
        "src.lines": src_lines(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; the
    benchmark may run in a copy that is not a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines() -> int:
    """Lines of Python under src/; recorded for information only."""
    total = 0
    for path in glob.glob(os.path.join(ROOT, "src", "**", "*.py"),
                          recursive=True):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def report(res: dict, trace: bool) -> None:
    """Human-readable lines, then the result file and the JSON line."""
    w = res["workload"]
    reps = ", ".join(f"{n} {m}" for m, n in res["repetitions"].items())
    print(f"workload {w}: {reps} repetitions, "
          f"{res['items_per_repetition']} items each")
    metrics = res["layers"] if trace else res["metrics"]
    for name, value in metrics.items():
        print(f"  {name:<30} {value:>14.6g} {unit(name)}")
    print(f"  {'failed_frac':<30} {res['failed_frac']:>14.6g} "
          f"({res['failed']} of {res['attempted']} items)")
    print(f"  output_digest {res['output_digest']}")
    for problem in res["problems"]:
        print(f"  problem: {problem}")
    print("provenance " + json.dumps(res["provenance"], sort_keys=True))
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"result-{w}-seed{res['provenance']['seed']}"
                                 f"-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(res, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": {k: {"value": v, "unit": unit(k)}
                                  for k, v in metrics.items()}}))


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.startswith("trace."):
        return "ratio"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "melonclass", "__init__.py")):
        print(f"error: no melonclass sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    selected = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for workload in selected:
            res = run_workload(workload, args.seed, args.seconds,
                               bool(args.trace))
            report(res, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
