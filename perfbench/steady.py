"""Steadiness check: two sets of ten runs of the same code, compared.

    python3 perfbench/steady.py [--first-seed N]

Every run gets its own seed: set 1 uses N .. N+9, set 2 uses N+10 .. N+19,
as the benchmark's seeds vary between runs.  For every end-to-end metric of
every workload the command prints each set's median and quartiles, the
spread (q3 - q1) / median, and whether the spread stays within the metric's
bound in BENCHMARK.json and the second set's median is not worse than the
first's by more than the bound.  The failed share must be identical in every
run.  Results are also written to perfbench/results/steady.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS, SETS = 10, 2


def one_run(spec: dict, workload: str, seed: int) -> dict:
    cmd = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    if not doc["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect output\n{proc.stderr}")
    return doc


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]

    runs: dict = {w: [[] for _ in range(SETS)] for w in workloads}
    for s in range(SETS):
        for i in range(RUNS):
            seed = args.first_seed + s * RUNS + i
            for w in workloads:  # interleaved, so slow phases of the machine hit every workload
                runs[w][s].append(one_run(spec, w, seed))
                print(f"set {s + 1} run {i + 1} {w} done", file=sys.stderr)

    report, ok = {}, True
    for w in workloads:
        shares = {d["failed"] / d["attempted"] for sets in runs[w] for d in sets}
        share_ok = len(shares) == 1
        ok &= share_ok
        print(f"\n{w}: failed share {sorted(shares)} {'ok' if share_ok else 'DIFFERS'}")
        report[w] = {"failed_share": sorted(shares), "metrics": {}}
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            first, second = (summary([d["metrics"][name]["value"] for d in sets])
                             for sets in runs[w])
            line = f"  {name:18s}"
            for s in (first, second):
                wide = s["spread"] > bound
                ok &= not wide
                line += (f"  med {s['median']:10.4f} [{s['q1']:.4f}, {s['q3']:.4f}]"
                         f" spread {s['spread']:.3f}{' WIDE' if wide else ''}")
            a, b = first["median"], second["median"]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            agree = worse <= bound
            ok &= agree
            line += f"  worse by {worse:+.3f} (bound {bound}) {'ok' if agree else 'FAIL'}"
            report[w]["metrics"][name] = {"bound": bound, "sets": [first, second],
                                          "second_worse_by": worse}
            print(line)
    (HERE / "results").mkdir(exist_ok=True)
    (HERE / "results" / "steady.json").write_text(json.dumps(report, indent=1) + "\n")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
