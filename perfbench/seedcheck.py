"""Check that the seed picks values only, never sizes or the job mix.

    python3 perfbench/seedcheck.py

Runs the traced benchmark (``run.py --trace 1``, one pass pair) on every
workload with two seeds and requires every per-layer metric whose unit is
``count`` (calls, coefficient products, summed terms) to be identical.
Value-dependent sizes (units ``bits`` and ``bytes``) may differ. Exits 1
on any difference or failed run.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SEEDS = (1, 2)


def traced_counts(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "1"],
        check=True, capture_output=True, text=True,
    ).stdout
    result = json.loads(out.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: run not correct:\n{out}")
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}


def main() -> int:
    ok = True
    for workload in workloads.WORKLOADS:
        first, second = (traced_counts(workload, seed) for seed in SEEDS)
        for name, value in first.items():
            same = value == second[name]
            ok &= same
            print(f"{workload:15s} {name:38s} {value:>10} {'==' if same else '!='} {second[name]}")
    print("counts identical across seeds" if ok else "counts DIFFER across seeds")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
