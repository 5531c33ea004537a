"""Determinism self-test: two traced runs of one seed give identical counts.

    python3 perfbench/selftest.py

Runs ``run.py --trace 1`` twice per workload at seed 1 and compares every
``.calls`` count and ``crossing.memo_entries``.  It does not pin the counts:
a change to the engine is expected to move them.  Exits 1 if any count
differs or a run's outputs fail their checks.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("ladder_cold", "session_warm", "phase_fuzz")
SEED = 1
SECONDS = 1


def traced_counts(workload: str):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "1"],
        cwd=BENCH_DIR.parent, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run failed\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    counts = {
        key: m["value"] for key, m in result["metrics"].items()
        if key.endswith(".calls") or key == "crossing.memo_entries"
    }
    return result["correct"], counts


def main() -> int:
    status = 0
    for workload in WORKLOADS:
        (ok_a, a), (ok_b, b) = (traced_counts(workload) for _ in range(2))
        differ = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
        if differ or not (ok_a and ok_b):
            status = 1
        verdict = "outputs fail their checks" if not (ok_a and ok_b) else (
            f"{len(differ)} counts differ: " + ", ".join(f"{k} {a.get(k)} vs {b.get(k)}" for k in differ)
            if differ else f"{len(a)} counts identical")
        print(f"{workload}: {verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main())
