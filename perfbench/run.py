"""Benchmark for torusbraid: one workload, one seeded list of jobs, one pass.

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``.  A run
executes the workload's job list once in a closed loop (one client, one
process, no threads), checks every output after the pass, and prints one JSON
line.  ``--trace 0`` reports the end-to-end metrics, with set-up time taken
from cold starts before and after the pass; ``--trace 1`` runs each job traced
and then untraced and reports per-layer metrics and the tracing overhead.
``--seconds`` is the nominal length of the pass: the list is bounded by count,
not by time, and is sized to take at most about that long on the reference
machine (see README.md).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
COLD_STARTS = 8  # in each of two phases: before the pass and after its checks

# "<span>.hit_ratio": useful outcomes over attempts, as counts of that span
HIT_RATIO = {
    "presentations.finite_quotient_count": ("homomorphisms", "tuples"),
    "quandles.torus_colorings": ("colorings", "vectors"),
}


def _import_package():
    if not (SRC / "torusbraid" / "__init__.py").is_file():
        sys.exit(f"error: no package at {SRC / 'torusbraid'}; run from a source checkout")
    sys.path.insert(0, str(SRC))


def setup(workload: str, seed: int):
    """What a fresh interpreter does before its first job."""
    import workloads
    from torusbraid import cli

    cli.build_parser()
    return workloads.make_jobs(workload, seed)


def cold_starts(workload: str, seed: int, n: int) -> list[float]:
    """Wall times of n fresh interpreters running :func:`setup`."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def failed(result) -> bool:
    if isinstance(result, BaseException):
        return True
    return isinstance(result, tuple) and result[0] != 0  # a CLI exit code


def call(job):
    try:
        return job.fn(*job.args)
    except (Exception, SystemExit) as exc:  # counted as failed by check_all
        return exc


def run_pass(jobs):
    """Execute every job once; returns results by key, latencies and totals."""
    results, latencies = {}, []
    cpu0, wall0 = time.process_time(), time.perf_counter()
    for job in jobs:
        t0 = time.perf_counter()
        results[job.key] = call(job)
        latencies.append(time.perf_counter() - t0)
    return results, latencies, time.perf_counter() - wall0, time.process_time() - cpu0


def run_traced(jobs, tracer):
    """Each job traced, then at once again untraced.

    The traced call comes first, so it starts from the state an end-to-end
    run would.  The untraced call right after it runs at the machine's speed
    of the moment, so drift in that speed cancels out of the overhead.
    """
    traced, plain = {}, {}
    traced_s = plain_s = 0.0
    for n, job in enumerate(jobs):
        tracer.install()
        t0 = time.perf_counter()
        tracer.begin_job(n)
        traced[job.key] = call(job)
        tracer.exit()
        traced_s += time.perf_counter() - t0
        tracer.restore()
        t0 = time.perf_counter()
        plain[job.key] = call(job)
        plain_s += time.perf_counter() - t0
    return traced, plain, traced_s, plain_s


def check_all(jobs, results) -> tuple[bool, int]:
    ok, n_failed = True, 0
    for job in jobs:
        result = results[job.key]
        if failed(result):
            n_failed += 1
            if not job.known_failure:
                ok = False
                print(f"unexpected failure: {job.key}: {result!r}", file=sys.stderr)
                continue
        try:
            job.check(result, results)
        except Exception as exc:  # a check that cannot read the output fails too
            ok = False
            print(f"check failed: {job.key}: {exc!r}", file=sys.stderr)
    return ok, n_failed


def layer_metrics(tracer, traced_s: float, plain_s: float) -> dict:
    """Every ``per_layer`` metric of BENCHMARK.json, named ``<span>.<field>``.

    ``self_ms`` is the span's summed self time; any other field is one of its
    counts.  ``transforms.self_ms`` sums the module's spans, and
    ``trace.overhead_pct`` compares the traced and untraced calls.
    """
    self_ms = tracer.self_ms()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {}
    for m in spec["per_layer"]:
        name = m["name"]
        span, field = name.rsplit(".", 1)
        if name == "trace.overhead_pct":
            value = 100.0 * (traced_s - plain_s) / plain_s
        elif name == "transforms.self_ms":
            value = sum((v for k, v in self_ms.items() if k.startswith("transforms.")), 0.0)
        elif field == "self_ms":
            value = self_ms.get(span, 0.0)
        elif field == "hit_ratio":
            hits, tries = (tracer.counts[span][f] for f in HIT_RATIO[span])
            value = hits / tries if tries else 0.0
        else:
            value = tracer.counts[span][field]
        out[name] = (value, m["unit"])
    return out


def write_trace(path: Path, tracer) -> None:
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["id", "parent", "job", "name", "start_s", "end_s", "self_s"],
                   "spans": tracer.spans,
                   "counts": {k: dict(v) for k, v in tracer.counts.items()}}, fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("census", "long-words", "invariants"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30,
                    help="nominal pass length (the list is count-bounded)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    _import_package()
    if args.setup_only:
        setup(args.workload, args.seed)
        return 0

    if args.trace:
        from spans import Tracer

        jobs = setup(args.workload, args.seed)
        tracer = Tracer()
        results, plain, traced_s, plain_s = run_traced(jobs, tracer)
        correct, n_failed = check_all(jobs, results)
        plain_ok, _ = check_all(jobs, plain)
        problems = tracer.tree_problems()
        for problem in problems[:10]:
            print(f"span tree: {problem}", file=sys.stderr)
        correct = correct and plain_ok and not problems
        metrics = layer_metrics(tracer, traced_s, plain_s)
        write_trace(RESULTS / f"trace-{args.workload}-seed{args.seed}.json", tracer)
        latencies = []
    else:
        cold_starts(args.workload, args.seed, 1)  # warms the bytecode cache
        setup_times = cold_starts(args.workload, args.seed, COLD_STARTS)
        jobs = setup(args.workload, args.seed)
        results, latencies, wall, cpu = run_pass(jobs)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        correct, n_failed = check_all(jobs, results)
        # a second phase half a minute later, so that one slow spell of the
        # machine does not set the median
        setup_times += cold_starts(args.workload, args.seed, COLD_STARTS)
        n = len(jobs)
        metrics = {
            "throughput_jobs_s": (n / wall, "1/s"),
            "latency_p50_ms": (statistics.median(latencies) * 1000.0, "ms"),
            "latency_p90_ms": (statistics.quantiles(latencies, n=10)[8] * 1000.0, "ms"),
            "cpu_ms_per_job": (cpu / n * 1000.0, "ms"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    doc = {
        "correct": correct,
        "attempted": len(jobs),
        "failed": n_failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(
        {**doc, "latency_s": dict(zip((j.key for j in jobs), latencies))}, indent=1) + "\n")
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
