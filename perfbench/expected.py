"""Recompute expected.json: homomorphism counts for the invariants workload.

    python3 perfbench/expected.py

Each count is the number of tuples in G^m fixed by both braids' Artin action
(Joyce), counted by brute force in ``checks.hom_count``; for S4 at degree 4
that takes far longer than the job it checks, hence the stored file.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402


def main() -> None:
    table = {
        name: {g: workloads.expected_homs(m, a, b, g) for g in workloads.QUOTIENT_GROUPS}
        for name, (m, a, b) in workloads.QUOTIENT_POOL.items()
    }
    workloads.EXPECTED_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(json.dumps(table, sort_keys=True))


if __name__ == "__main__":
    main()
