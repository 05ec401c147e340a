"""Run every workload over seeds 1-10 and print each metric's spread.

Usage (from the repository root):
    python3 perfbench/report.py

Each run is ``perfbench/run.py --trace 0`` for BENCHMARK.json's
``run_seconds``, in its own process, one after another.
For every workload and metric this prints the median of the runs and
the spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, beside
the metric's bound from BENCHMARK.json.  A spread above a third of the
bound is flagged, since the benchmark is meant to stay well inside it.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 when the median is 0)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    all_correct = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
            cmd += ["--seconds", str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            runs.append(result)
            values = " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items())
            verdict = "PASS" if result["correct"] else "FAIL"
            print(f"{workload} seed={seed} {verdict} {result['failed']}/{result['attempted']} failed {values}", flush=True)
            all_correct &= result["correct"]
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            s = spread(values)
            flag = ", over a third of it" if s > m["bound"] / 3 else ""
            print(
                f"{workload} {m['name']}: median {statistics.median(values):.6g} {m['unit']}, "
                f"spread {s:.4f} (bound {m['bound']}{flag})",
                flush=True,
            )
    print("all output checks passed" if all_correct else "SOME OUTPUT CHECKS FAILED")
    return 0 if all_correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
