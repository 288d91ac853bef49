"""revaudit benchmark runner.

Run from the repository root:

    python3 bench/run.py --workload calibration --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --smoke

One invocation runs one workload (see ``BENCHMARK.json``) in this process,
with BLAS pinned to one thread.  It sets the workload up three times and
reports the median set-up time, then repeats the workload's operation until
``--seconds`` of operation time have passed, checks the outputs outside the
timed region, and prints every metric with its unit.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the ``end_to_end`` metrics of ``BENCHMARK.json``
with ``--trace 0``, its ``per_layer`` metrics with ``--trace 1``.

End-to-end metrics: ``setup_s`` (median of the set-ups), ``run_rel`` (median
operation time, each timed step divided by a fixed reference computation
timed just before and after it), ``peak_rss_mb`` (process high-water mark
after the untraced operations) and ``success_rate`` (one minus failed over
attempted operations and output checks).  A shared host's speed drifts by
tens of percent within minutes; the reference drifts with it, so
``run_rel`` stays steady where seconds do not.  The median operation time in
seconds is printed as a note next to it.

With ``--trace 1`` the first half of the time is measured untraced and the
second half with spans around every call into the library's layers; one more
operation then runs with ``tracemalloc`` on for the per-layer peaks.  The
spans go to ``.bench_out/spans/`` and the per-layer metrics are medians over
the traced operations.  Full results, provenance and artifact digests go to
``.bench_out/results/``.  ``--smoke`` runs every workload at a tiny scale in
both modes and fails if a metric named in ``BENCHMARK.json`` is missing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
SETUPS = 3
MAX_FAILED_OPS = 3
CLI_COMMANDS = (
    "ingest", "extract-citations", "filter", "analyze", "diagnostics",
    "effect-size", "report", "assign",
)


def _count_citations(span, relation, dataset, pairs):
    sids = {sid for sid, _ in pairs}
    span.counts["entries_parsed"] = sum(
        len(dataset.submissions[sid].reference_entries) for sid in sids
    )
    span.counts["pairs_evaluated"] = len(relation.cited)
    span.counts["pairs_cited"] = sum(1 for pair in relation.cited if relation.indicator(pair))


def _count_filter(span, result, dataset, *args, **kwargs):
    span.counts["retained_pairs"] = result[1].retained_pairs
    span.counts["reviews"] = len(dataset.reviews)


def _count_match(span, triples, analysis, *args, **kwargs):
    span.counts["triples"] = len(triples)
    span.counts["cited_records"] = sum(
        record.cited for records in analysis.by_submission.values() for record in records
    )


def _count_solve(span, result, sim, *args, **kwargs):
    span.counts["pairs_allowed"] = len(sim.sim) - sum(1 for p in sim.forbidden if p in sim.sim)


# (module, attribute, span name, counter): the public functions whose calls
# become spans.  The CLI imports load_dataset/save_dataset by name, so those
# are patched where it looks them up.
TARGETS = (
    ("revaudit.synthetic", "generate", "synthetic.generate", None),
    ("revaudit.cli", "load_dataset", "dataset.load_dataset", None),
    ("revaudit.cli", "save_dataset", "dataset.save_dataset", None),
    ("revaudit.citations", "detect_citations", "citations.detect_citations", _count_citations),
    ("revaudit.filtering", "filter_dataset", "filtering.filter_dataset", _count_filter),
    ("revaudit.filtering", "missingness_report", "filtering.missingness_report", None),
    ("revaudit.parametric", "build_rows", "parametric.build_rows", None),
    ("revaudit.parametric", "fit_wls", "parametric.fit_wls", None),
    ("revaudit.parametric", "diagnostics", "parametric.diagnostics", None),
    ("revaudit.nonparametric", "match", "nonparametric.match", _count_match),
    ("revaudit.nonparametric", "permutation_test", "nonparametric.permutation_test", None),
    ("revaudit.nonparametric", "bootstrap_ci", "nonparametric.bootstrap_ci", None),
    ("revaudit.assignment", "load_similarity", "assignment.load_similarity", None),
    ("revaudit.assignment", "solve", "assignment.solve", _count_solve),
    ("revaudit.ranking", "rank_improvement", "ranking.rank_improvement", None),
    ("revaudit.reporting", "save_reports", "reporting.save_reports", None),
)
SPAN_NAMES = {target[2] for target in TARGETS} | {f"cli.{c}" for c in CLI_COMMANDS}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Per-operation values of the per-layer metrics that are not a span's time,
# calls or peak; each takes one operation's span summary.
DERIVED = {
    "citations.entries_parsed": lambda s: s["counts"].get("entries_parsed", 0),
    "citations.cited_ratio": lambda s: _ratio(s["counts"].get("pairs_cited", 0),
                                              s["counts"].get("pairs_evaluated", 0)),
    "filtering.retained_ratio": lambda s: _ratio(s["counts"].get("retained_pairs", 0),
                                                 s["counts"].get("reviews", 0)),
    "nonparametric.triples": lambda s: s["counts"].get("triples", 0),
    "nonparametric.match_ratio": lambda s: _ratio(s["counts"].get("triples", 0),
                                                  s["counts"].get("cited_records", 0)),
    "assignment.pairs_allowed": lambda s: _ratio(
        s["counts"].get("pairs_allowed", 0),
        s["layers"].get("assignment.solve", {}).get("calls", 0)),
    "dataset.bytes_written": lambda s: s["bytes_written"],
}


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def tail(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it."""
    n = len(values)
    if n < 20:
        return None
    q = math.floor(100 * (n - 10) / n)
    return q, statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metric(name: str, summaries: list[dict]) -> float:
    if name in DERIVED:
        return _median(DERIVED[name](s) for s in summaries)
    span, _, kind = name.rpartition(".")
    if span not in SPAN_NAMES or kind not in ("ms", "calls", "peak_mb"):
        raise KeyError(f"per-layer metric {name!r} names no traced span")
    field_, scale = {
        "ms": ("self_s", 1e3), "calls": ("calls", 1), "peak_mb": ("peak_bytes", 1e-6),
    }[kind]
    return _median(s["layers"].get(span, {}).get(field_, 0) * scale for s in summaries)


REFERENCE_TEXT = " ".join(
    f"Smith{i}, J. and Doe{i}, A. ({1990 + i % 30}). Title {i}. In Proc. Venue."
    for i in range(3000)
)
REFERENCE_GRAPH = {i: {(i * 31 + j) % 5000: j for j in range(8)} for i in range(5000)}


def reference_s() -> float:
    """Median of three timings of a fixed reference computation.

    The reference streams a sign matrix through NumPy, sorts an array, scans
    reference-like text with a regular expression and walks a dict-of-dicts
    graph: the kinds of work the library's time goes to.  Timed next to an
    operation it slows down with the machine, so the ratio of the two
    cancels most of a shared host's speed drift.  The median leaves out the
    first sample, which refills the caches the operation evicted.  No
    library code runs here.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    weights = np.arange(300.0)
    samples = []
    for _ in range(3):
        started = time.perf_counter()
        signs = rng.integers(0, 2, size=(1500, 300)) * 2 - 1
        (signs * weights).mean(axis=1)
        np.sort(np.arange(500_000, dtype=float) % 97.0)
        re.findall(r"([A-Z][a-z]+\d*), ([A-Z])\.", REFERENCE_TEXT)
        sum(len(REFERENCE_GRAPH[j]) + w for node in REFERENCE_GRAPH.values()
            for j, w in node.items())
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


class Pace:
    """Relative time: each timed step divided by the mean of the reference
    timings just before and just after it.

    Workloads call ``step`` after every timed step, outside its timing; the
    reference timed then is shared with the next step.
    """

    def __init__(self) -> None:
        self.last = reference_s()
        self.relative = 0.0

    def step(self, seconds: float) -> None:
        now = reference_s()
        self.relative += seconds * 2 / (self.last + now)
        self.last = now


def measure(workload, seconds: float, tracer=None) -> tuple[list, list[float]]:
    """Run operations until their summed time reaches ``seconds`` (at least one).

    Returns the results and, untraced, each operation's relative time.
    """
    pace = Pace() if tracer is None else None
    results, relative, busy, failed = [], [], 0.0, 0
    while not results or busy < seconds:
        gc.collect()
        if tracer is not None:
            tracer.op = len(results)
        before = pace.relative if pace else 0.0
        result = workload.op(tracer, pace)
        relative.append(pace.relative - before if pace else 0.0)
        results.append(result)
        busy += result.seconds
        failed += not result.ok
        if failed >= MAX_FAILED_OPS:
            break
    return results, relative


def tree_sha256(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(workload: str, seed: int, why: str) -> dict:
    import networkx
    import numpy
    import scipy
    from importlib.metadata import version

    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "workload": workload,
        "seed": seed,
        "why": why,
        "git_commit": commit,
        "source_sha256": tree_sha256(ROOT / "src" / "revaudit"),
        "bench_sha256": tree_sha256(Path(__file__).resolve().parent),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": os.environ["OMP_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "click": version("click"),
        "platform": platform.platform(),
    }


def compare_digests(workload, scale: str, seed: int, source: str, digests: dict):
    """Compare with the digests that earlier runs of this seed stored for the same
    library and benchmark sources, then add these."""
    from workloads import Check

    path = OUT / "digests" / f"{workload}-{scale}-seed{seed}.json"
    earlier = {}
    if path.exists():
        stored = json.loads(path.read_text(encoding="utf-8"))
        if stored.get("source_sha256") == source:
            earlier = stored["digests"]
    differ = sorted(k for k in digests if k in earlier and earlier[k] != digests[k])
    shared = sum(1 for k in digests if k in earlier)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"source_sha256": source, "digests": {**earlier, **digests}},
                               indent=1, sort_keys=True) + "\n", encoding="utf-8")
    detail = (f"differ from earlier runs: {differ}" if differ
              else f"{shared} digests equal to earlier runs, {len(digests) - shared} new")
    return Check("digests-match-earlier-runs", not differ, detail)


def run_workload(args, spec: dict) -> dict:
    import tracing
    import workloads

    tiny = args.scale == "tiny"
    workload = workloads.WORKLOADS[args.workload](ROOT, args.seed, tiny)
    try:
        setup_times = [workload.setup() for _ in range(SETUPS)]
        window = args.seconds / 2 if args.trace else args.seconds
        untraced, relative = measure(workload, window)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        traced, memory, tracer = [], [], None
        if args.trace:
            workload.restart()
            tracer = tracing.Tracer()
            for module, attr, name, count in TARGETS:
                tracer.patch(module, attr, name, count)
            try:
                traced, _ = measure(workload, window, tracer)
                tracemalloc.start()
                tracer.memory = True
                memory, _ = measure(workload, 0.0, tracer)
            finally:
                tracemalloc.stop()
                tracer.unpatch()
        try:
            checks = workload.setup_checks() + workload.checks()
        except Exception as exc:  # a check that cannot run is a failed check
            checks = [workloads.Check("checks", False, f"{type(exc).__name__}: {exc}")]
        digests = workload.digests()
    finally:
        workload.close()

    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    prov = provenance(args.workload, args.seed, why)
    checks.append(compare_digests(args.workload, args.scale, args.seed,
                                  prov["source_sha256"] + prov["bench_sha256"], digests))

    ops = untraced + traced + memory
    attempted = len(ops) + len(checks)
    failed = sum(not r.ok for r in ops) + sum(not c.ok for c in checks)
    times = [r.seconds for r in untraced if r.ok] or [r.seconds for r in untraced]
    relative = [x for x, r in zip(relative, untraced) if r.ok] or relative
    values = {
        "setup_s": statistics.median(setup_times),
        "run_rel": statistics.median(relative),
        "peak_rss_mb": peak_rss_mb,
        "success_rate": 1.0 - failed / attempted,
    }
    notes = {
        "run_s.p50": {"value": statistics.median(times), "n": len(times)},
        "error_rate": failed / attempted,
        "operations": len(untraced),
        "setup_s.all": setup_times,
    }
    span_report = None
    if tracer is not None:
        summaries = []
        for op, result in enumerate(traced):
            summary = tracer.per_op(op)
            summary["bytes_written"] = result.bytes_written
            summaries.append(summary)
        traced_times = [r.seconds for r in traced if r.ok] or [r.seconds for r in traced]
        values["trace.untraced_run_s"] = statistics.median(times)
        values["trace.traced_run_s"] = statistics.median(traced_times)
        values["trace.overhead_s"] = values["trace.traced_run_s"] - values["trace.untraced_run_s"]
        values["trace.top_spans_s"] = _median(s["top_s"] for s in summaries)
        peaks = [tracer.per_op(op, memory=True) for op in range(len(memory))]
        for metric in spec["per_layer"]:
            name = metric["name"]
            if name not in values:
                source = peaks if name.endswith(".peak_mb") else summaries
                values[name] = layer_metric(name, source)
        span_path = OUT / "spans" / f"{args.workload}-{args.scale}-seed{args.seed}.json"
        tracer.dump(span_path)
        span_report = str(span_path.relative_to(ROOT))
        layers = {}
        for s in summaries:
            for name, entry in s["layers"].items():
                layers[name] = layers.get(name, 0.0) + entry["self_s"] / len(summaries)
        notes["dominant_layers_ms"] = {
            name: round(sec * 1e3, 3)
            for name, sec in sorted(layers.items(), key=lambda kv: -kv[1])[:6]
        }
        notes["traced_operations"] = len(traced)
        notes["memory_traced_operations"] = len(memory)
    else:
        t = tail(times)
        if t is not None:
            notes[f"run_s.p{t[0]}"] = t[1]
        for key in sorted({k for r in untraced for k in r.parts}):
            ok_parts = [r.parts[key] for r in untraced if r.ok and key in r.parts]
            notes[f"{key}_ms.p50"] = {"value": _median(ok_parts) * 1e3, "n": len(ok_parts)}
        if args.workload == "calibration":
            notes["replications_per_s"] = 2 * len(untraced) / max(sum(times), 1e-9)

    return {
        "provenance": prov,
        "values": values,
        "notes": notes,
        "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in checks],
        "failures": [r.error for r in ops if not r.ok],
        "op_seconds": {"untraced": [r.seconds for r in untraced],
                       "traced": [r.seconds for r in traced],
                       "memory_traced": [r.seconds for r in memory]},
        "digests": digests,
        "spans": span_report,
        "attempted": attempted,
        "failed": failed,
    }


def emit(args, spec: dict, report: dict) -> None:
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": report["values"][m["name"]], "unit": m["unit"]}
               for m in wanted}
    prov = report["provenance"]
    print(f"revaudit benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} scale={args.scale}")
    print(f"why: {prov['why']}")
    print("provenance: " + json.dumps(prov, sort_keys=True))
    for name, metric in metrics.items():
        print(f"metric {name} = {metric['value']:.6g} {metric['unit']}")
    for name, value in report["notes"].items():
        print(f"note {name} = {json.dumps(value)}")
    for check in report["checks"]:
        print(f"check {'PASS' if check['ok'] else 'FAIL'} {check['name']}: {check['detail']}")
    for error in report["failures"]:
        print(f"failed operation: {error}")
    digests = report["digests"]
    for name in sorted(digests)[:24]:
        print(f"sha256 {name} {digests[name]}")
    if len(digests) > 24:
        print(f"sha256 ... {len(digests) - 24} more in the results file")

    stem = f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}"
    results = OUT / "results" / f"{stem}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"results: {results.relative_to(ROOT)}")
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }, allow_nan=False))


def smoke(spec: dict) -> int:
    """Every workload at tiny scale, untraced and traced; fail on a missing metric."""
    bad = 0
    for workload in spec["workloads"]:
        for trace in (0, 1):
            wanted = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload["name"],
                 "--seed", "0", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
                capture_output=True, text=True, timeout=300, cwd=ROOT,
            )
            problem = f"exit {done.returncode}: {done.stderr.strip()[-500:]}"
            if done.returncode == 0:
                result = json.loads(done.stdout.strip().splitlines()[-1])
                missing = wanted - set(result["metrics"])
                problem = (f"missing {sorted(missing)}" if missing
                           else "" if result["correct"] else f"{result['failed']} failed")
            bad += bool(problem)
            print(f"smoke {workload['name']} trace={trace}: {problem or 'ok'}")
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "revaudit" / "__init__.py").is_file() or not spec_path.is_file():
        print("error: run from a revaudit checkout (src/revaudit and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.smoke:
        return smoke(spec)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")

    for var in BLAS_THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    started = time.perf_counter()
    report = run_workload(args, spec)
    report["notes"]["wall_s"] = time.perf_counter() - started
    emit(args, spec, report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
