"""The library names the benchmark under benchmarks/ relies on.

The benchmark imports the library from outside and wraps some of its
functions to time them, so renaming or folding one of those names breaks
the benchmark without breaking any other test.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

from melonclass import melonic

from conftest import src_env

ROOT = Path(__file__).resolve().parent.parent


def _load_benchmark(name: str):
    spec = importlib.util.spec_from_file_location(
        f"benchmark_{name}", ROOT / "benchmarks" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_traced_name():
    tracer = _load_benchmark("tracer").Tracer()
    try:
        tracer.install()
        saved = list(tracer._saved)
        assert saved
        for owner, attr, fn in saved:
            assert getattr(owner, attr) is not fn, attr
    finally:
        tracer.uninstall()
    for owner, attr, fn in saved:
        assert getattr(owner, attr) is fn, attr
    # read by the tracer's metrics, which skip it silently when absent
    assert isinstance(melonic._class_memo, dict)


def test_oracle_counts_match_the_direct_method(tmp_path):
    # the benchmark's untimed check: the CLI's q = 2 counts against the
    # spanning-tree reference, on the first (9 edges, 4 vertices) cell,
    # half of whose graphs have a K4 minor
    workloads = _load_benchmark("workloads")
    oracle = workloads.Oracle(1, str(tmp_path))
    items = oracle.items[:20]
    assert sum(map(workloads.has_k4_minor, oracle.graphs[:20])) == 10
    outputs = []
    for path in items:
        out, problem = oracle.run_item(path)
        assert problem is None, (path, problem)
        outputs.append(out)
    assert oracle.direct_problems(outputs) == {}


def test_benchmark_tests_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "benchmarks/tests", "-q",
         "-p", "no:cacheprovider"],
        cwd=ROOT, env=src_env(), capture_output=True, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
