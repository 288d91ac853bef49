"""Tests of the benchmark runner itself.

Run from the repository root with ``python3 -m pytest bench/test_smoke.py``.
"""

import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def test_smoke_reports_every_named_metric():
    done = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.count(": ok") == 6, done.stdout


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "calibration", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_tracer_self_time_and_nested_peaks():
    tracer = tracing.Tracer()
    tracemalloc.start()
    tracer.memory = True
    try:
        with tracer.span("outer"):
            held = bytearray(4_000_000)
            with tracer.span("inner"):
                scratch = bytearray(1_000_000)
                del scratch
            del held
    finally:
        tracemalloc.stop()
    outer, inner = tracer.spans
    assert (outer.parent, inner.parent) == (None, 0)
    assert 1_000_000 <= inner.peak_bytes < 1_500_000
    assert outer.peak_bytes >= 5_000_000  # 4 MB held while the inner span took 1 MB
    assert abs(outer.self_s - (outer.duration_s - inner.duration_s)) < 1e-9
    summary = tracer.per_op(0, memory=True)
    assert summary["layers"]["inner"]["calls"] == 1
    assert summary["top_s"] == outer.duration_s
