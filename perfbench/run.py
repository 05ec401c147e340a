"""fillperm benchmark: one workload, one seed, one process, one thread.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  With ``--trace 0`` the last line of
standard output is a JSON object holding every end-to-end metric listed
in BENCHMARK.json; with ``--trace 1`` it holds every per-layer metric.
The line before it is the run record (interpreter, source revision,
processors, seed, sample counts, solution and node counts, failures).
Workloads, metrics and the reasons for them are in perfbench/RATIONALE.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 15
BUILD_DIR = ".bench_build"  # scratch space inside the checkout
MIN_PASSES = 3  # untraced passes per run, even if they overrun --seconds
MIN_TRACE_PASSES = 2  # of each kind in a traced run


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "fillperm").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _setup_samples(workload: str, seed: int) -> list[float]:
    """Set-up time in fresh interpreters, one after another, each compiling from source.

    Every probe runs with ``-E -B`` and an empty bytecode-cache prefix, so
    it neither reads nor writes cached bytecode and ignores the caller's
    ``PYTHON*`` variables: the figure does not depend on whether an earlier
    run or a test run left ``__pycache__`` directories behind.
    """
    (ROOT / BUILD_DIR).mkdir(exist_ok=True)
    samples = []
    with tempfile.TemporaryDirectory(dir=ROOT / BUILD_DIR, prefix="pycache-") as empty:
        cmd = [sys.executable, "-E", "-B", "-X", f"pycache_prefix={empty}", str(HERE / "setup_probe.py")]
        for _ in range(SETUP_SAMPLES):
            out = subprocess.run(
                [*cmd, workload, str(seed)], cwd=ROOT, capture_output=True, text=True, timeout=60, check=True
            )
            samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


class Run:
    """The passes of one run, their verdicts and the counts they produced."""

    def __init__(self, fp, name: str, inputs: dict) -> None:
        self.fp, self.name, self.inputs = fp, name, inputs
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.counts: dict = {}

    def one_pass(self, span=None) -> float:
        gc.collect()
        result = workloads.run_pass(self.fp, self.name, self.inputs, span)
        attempted, failed, reasons = workloads.check(self.name, result.outputs)
        self.attempted += attempted
        self.failed += failed
        self.reasons.extend(reasons[: max(0, 5 - len(self.reasons))])
        self.counts = workloads.counts(self.name, result.outputs)
        return result.seconds


def _untraced(run: Run, seconds: float) -> list[float]:
    walls: list[float] = []
    start = time.perf_counter()
    while True:
        walls.append(run.one_pass())
        elapsed = time.perf_counter() - start
        if len(walls) >= MIN_PASSES and elapsed + statistics.median(walls) > seconds:
            return walls


def _traced(run: Run, seconds: float) -> tuple[list[float], list[float], list[dict], list[str]]:
    """Alternate untraced and traced passes; per-layer metrics from the traced ones."""
    tracer = spans.Tracer()
    plain: list[float] = []
    traced: list[float] = []
    layers: list[dict] = []
    patched: list[str] = []
    start = time.perf_counter()
    while True:
        plain.append(run.one_pass())
        tracer.reset()
        with spans.instrumented(tracer) as patched:
            traced.append(run.one_pass(tracer.span))
        layers.append(tracer.pass_metrics())
        elapsed = time.perf_counter() - start
        next_pair = statistics.median(plain) + statistics.median(traced)
        if len(traced) >= MIN_TRACE_PASSES and elapsed + next_pair > seconds:
            return plain, traced, layers, patched


def _metric_block(specs: list[dict], values: dict) -> dict:
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise RuntimeError(f"benchmark computes no value for {missing}")
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "fillperm" / "__init__.py").is_file():
        print(f"error: no fillperm sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    setup = [] if args.trace else _setup_samples(args.workload, args.seed)
    fp = workloads.import_fillperm()
    run = Run(fp, args.workload, workloads.build_inputs(fp, args.workload, args.seed))

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_used": args.workload not in workloads.FIXED,
        "trace": args.trace,
        "seconds": args.seconds,
        "loop": "closed, one caller, one thread",
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
    }
    if args.trace:
        plain, traced, layers, patched = _traced(run, args.seconds)
        exact = {k for k in layers[0] if k.endswith("_calls") or k in ("search.nodes", "search.solutions")}
        # Counts are exact and should repeat in every pass; times are medians.
        values = {
            k: statistics.median_low(p[k] for p in layers) if k in exact else statistics.median(p[k] for p in layers)
            for k in layers[0]
        }
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        record["counts_repeat_exactly"] = all(len({p[k] for p in layers}) == 1 for k in exact)
        record["samples"] = {"untraced_passes": len(plain), "traced_passes": len(traced)}
        record["wall_s_untraced"] = plain
        record["wall_s_traced"] = traced
        record["patched"] = patched
        metrics = _metric_block(spec["per_layer"], values)
    else:
        walls = _untraced(run, args.seconds)
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_ratio": (run.attempted - run.failed) / run.attempted,
        }
        record["samples"] = {"setup_s": len(setup), "wall_s": len(walls), "peak_rss_mb": 1, "ok_ratio": run.attempted}
        record["wall_s_all"] = walls
        record["setup_s_all"] = setup
        record["setup_s_bytecode"] = "compiled from source: -E -B, empty pycache_prefix"
        metrics = _metric_block(spec["end_to_end"], values)
    record["counts"] = run.counts
    record["attempted"] = run.attempted
    record["failed"] = run.failed
    record["failed_ratio"] = run.failed / run.attempted
    record["failures"] = run.reasons

    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} check: {'PASS' if run.failed == 0 else 'FAIL'} ({run.failed}/{run.attempted} failed)")
    print(json.dumps({"run_record": record}))
    print(
        json.dumps(
            {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
