"""The four benchmark workloads: seeded inputs, one timed pass, output checks.

A pass is a closed loop on one thread: each call into ``fillperm`` is
made only after the previous one returns.  Every call goes through a
module attribute (``fp.verify.validate``, never a name bound at import
time) so the traced run can substitute its wrappers.

``run_pass`` returns the pass's wall time and its outputs; ``check``
compares those outputs with the constants recorded at the seed commit
and returns ``(attempted, failed, reasons)``.  A check runs inside the
pass only when it is cheaper than the call it checks; the rest run in
``check``, outside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import random
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

LAYER_MODULES = ("permutations", "arcs", "verify", "moves", "search", "tables", "svg", "cli")

WORKLOADS = ("enumerate", "classify", "ladder", "emptiness")

# Workloads whose inputs do not depend on --seed.
FIXED = {"enumerate", "classify", "emptiness"}

ENUMERATE_QUERY = (2, 4, 6)
CLASSIFY_ARGV = ("search", "--genus", "2", "--punctures", "3", "--n", "5")
LADDER_GENUS = 2
LADDER_START_P = 3
LADDER_TARGET_P = 151
EMPTINESS_GENUS = 0
EMPTINESS_PUNCTURES = (0, 1, 2, 3)
EMPTINESS_N_MAX = 6


@dataclass(frozen=True)
class Expected:
    """Output constants recorded at the seed commit."""

    enumerate_raw: int = 23616
    enumerate_sha256: str = "9cc0c68f5108561779655e5a6710bf04a63081cebf9c568ad27a1b0da7742aea"
    classify_summary: str = "count=2300 dedup=92"
    classify_sha256: str = "75cedc73936978397fea9b4b7b8be61993b45d53fd9c9b563080d041bfc023d6"
    reject_check: str = "parity-reversing"
    ladder_genus: int = LADDER_GENUS  # every ladder step: valid, n == 2g+p-2, glue genus, round trip, svg
    emptiness_count: int = 0


EXPECTED = Expected()


@dataclass
class PassResult:
    seconds: float
    outputs: dict = field(default_factory=dict)


def import_fillperm() -> SimpleNamespace:
    """Import the package and every layer module; this is the user's set-up."""
    pkg = importlib.import_module("fillperm")
    mods = {name: importlib.import_module(f"fillperm.{name}") for name in LAYER_MODULES}
    mods["certificates"] = importlib.import_module("fillperm.certificates")
    return SimpleNamespace(pkg=pkg, **mods)


def build_inputs(fp: SimpleNamespace, workload: str, seed: int) -> dict:
    """Everything a pass needs, made from ``seed`` before any timing starts."""
    if workload == "enumerate":
        return {"query": fp.search.SearchQuery(*ENUMERATE_QUERY)}
    if workload == "classify":
        return {"argv": list(CLASSIFY_ARGV)}
    if workload == "ladder":
        rng = random.Random(seed)
        steps = (LADDER_TARGET_P - LADDER_START_P) // 2
        base = fp.permutations.Permutation.parse(fp.certificates.GENUS2_BASE)
        return {
            "start": fp.verify.FillingInstance(base, LADDER_GENUS, LADDER_START_P),
            # Per step: site choice, odd corrupted symbol, even corrupted symbol.
            "draws": [(rng.getrandbits(32), rng.getrandbits(32), rng.getrandbits(32)) for _ in range(steps)],
        }
    if workload == "emptiness":
        return {"cases": [(EMPTINESS_GENUS, p, EMPTINESS_N_MAX) for p in EMPTINESS_PUNCTURES]}
    raise ValueError(f"unknown workload {workload!r}")


def _nullspan(name: str):
    return contextlib.nullcontext()


def run_pass(fp: SimpleNamespace, workload: str, inputs: dict, span=None) -> PassResult:
    """One timed pass.  Exceptions from fillperm are outputs, not crashes.

    ``span(name)`` opens a benchmark-side span; only the traced run passes one.
    """
    return _PASSES[workload](fp, inputs, span or _nullspan)


def _pass_enumerate(fp, inputs, span) -> PassResult:
    t0 = time.perf_counter()
    try:
        result = fp.search.enumerate_solutions(inputs["query"])
    except Exception as exc:  # any raise is a failed operation
        return PassResult(time.perf_counter() - t0, {"error": repr(exc)})
    return PassResult(time.perf_counter() - t0, {"result": result})


def _pass_classify(fp, inputs, span) -> PassResult:
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = fp.cli.main(list(inputs["argv"]))
    except SystemExit as exc:  # argparse exits on a usage error
        code = exc.code
    except Exception as exc:
        return PassResult(time.perf_counter() - t0, {"error": repr(exc)})
    return PassResult(time.perf_counter() - t0, {"code": code, "stdout": buf.getvalue()})


def _corrupt(fp, sigma, draw_odd: int, draw_even: int):
    """Swap the images of one odd and one even symbol: never parity-reversing."""
    half = sigma.degree // 2
    odd = 2 * (draw_odd % half) + 1
    even = 2 * (draw_even % half) + 2
    images = list(sigma.images)
    images[odd - 1], images[even - 1] = images[even - 1], images[odd - 1]
    return fp.permutations.Permutation(images)


def _pass_ladder(fp, inputs, span) -> PassResult:
    """Double-bigon steps with parse/validate/glue/svg after each, plus a rejection.

    Each step and each rejection is one operation.  The pass records the
    facts ``check`` needs; the comparisons that produce them (a
    round-trip equality, a prefix test) cost less than the calls.
    """
    draws = inputs["draws"]
    steps: list[tuple] = []
    rejections: list = []
    current = inputs["start"]
    error = None
    t0 = time.perf_counter()
    for site_draw, odd_draw, even_draw in draws:
        try:
            sites = fp.moves.available_sites(current)
            current = fp.moves.double_bigon(current, sites[site_draw % len(sites)])
            sigma = current.sigma
            reparsed = fp.permutations.Permutation.parse(str(sigma))
            report = fp.verify.validate(current)
            surface = fp.verify.glue(sigma, current.punctures)
            markup = fp.svg.render_svg(surface)
        except Exception as exc:
            # Later steps and rejections cannot run without this step's output.
            error = f"step {len(steps)}: {exc!r}"
            break
        steps.append(
            (
                report.valid,
                current.n - (2 * current.genus + current.punctures - 2),
                surface.genus,
                reparsed == sigma,
                markup.startswith("<svg"),
            )
        )
        try:
            corrupted = _corrupt(fp, sigma, odd_draw, even_draw)
            with span("verify.reject"):
                bad = fp.verify.validate(fp.verify.FillingInstance(corrupted, current.genus, current.punctures))
            rejections.append((bad.valid, {c.name for c in bad.failures()}))
        except Exception as exc:
            rejections.append(repr(exc))
    seconds = time.perf_counter() - t0
    outputs = {"operations": 2 * len(draws), "steps": steps, "rejections": rejections, "error": error, "final_n": current.n}
    return PassResult(seconds, outputs)


def _pass_emptiness(fp, inputs, span) -> PassResult:
    outcomes = []
    t0 = time.perf_counter()
    for genus, punctures, n_max in inputs["cases"]:
        try:
            outcomes.append(fp.tables.cross_validate(genus, punctures, n_max))
        except Exception as exc:
            outcomes.append(exc)
    return PassResult(time.perf_counter() - t0, {"outcomes": outcomes})


_PASSES = {
    "enumerate": _pass_enumerate,
    "classify": _pass_classify,
    "ladder": _pass_ladder,
    "emptiness": _pass_emptiness,
}


def solutions_sha256(solutions) -> str:
    digest = hashlib.sha256()
    for images in sorted(s.images for s in solutions):
        digest.update(",".join(map(str, images)).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def classify_sha256(stdout: str) -> str:
    """Digest of the CLI output with the node count removed from the summary."""
    lines = stdout.splitlines()
    if lines:
        lines[-1] = " ".join(f for f in lines[-1].split() if not f.startswith("nodes="))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def check(workload: str, outputs: dict, expected: Expected = EXPECTED) -> tuple[int, int, list[str]]:
    """Compare one pass's outputs with ``expected``: (attempted, failed, reasons)."""
    if workload == "ladder":
        reasons = [outputs["error"]] if outputs["error"] else []
        good_step = (True, 0, expected.ladder_genus, True, True)
        reasons += [f"step {k}: {s}" for k, s in enumerate(outputs["steps"]) if s != good_step]
        for k, r in enumerate(outputs["rejections"]):
            if isinstance(r, str) or r[0] or expected.reject_check not in r[1]:
                reasons.append(f"rejection {k}: {r}")
        missing = outputs["operations"] - len(outputs["steps"]) - len(outputs["rejections"])
        failed = len(reasons) - (1 if outputs["error"] else 0) + missing
        return outputs["operations"], failed, reasons
    if workload == "emptiness":
        reasons = []
        for outcome in outputs["outcomes"]:
            if isinstance(outcome, Exception):
                reasons.append(repr(outcome))
            elif any(count != expected.emptiness_count for _, count in outcome.counts):
                reasons.append(f"punctures={outcome.punctures}: counts {outcome.counts}")
        return len(outputs["outcomes"]), len(reasons), reasons
    if "error" in outputs:
        return 1, 1, [outputs["error"]]
    if workload == "enumerate":
        result = outputs["result"]
        if result.raw_count != expected.enumerate_raw:
            return 1, 1, [f"raw_count {result.raw_count} != {expected.enumerate_raw}"]
        if solutions_sha256(result.solutions) != expected.enumerate_sha256:
            return 1, 1, ["solution digest differs"]
        return 1, 0, []
    if workload == "classify":
        stdout = outputs["stdout"]
        last = stdout.rstrip("\n").rsplit("\n", 1)[-1]
        if outputs["code"] != 0:
            return 1, 1, [f"exit code {outputs['code']}"]
        if not last.startswith(expected.classify_summary):
            return 1, 1, [f"summary {last!r}"]
        if classify_sha256(stdout) != expected.classify_sha256:
            return 1, 1, ["stdout digest differs"]
        return 1, 0, []
    raise ValueError(f"unknown workload {workload!r}")


def counts(workload: str, outputs: dict) -> dict:
    """Solution and node counts of one pass, for the run record."""
    if workload == "enumerate" and "result" in outputs:
        r = outputs["result"]
        return {"solutions": r.raw_count, "nodes": r.nodes_explored}
    if workload == "classify" and "stdout" in outputs:
        last = outputs["stdout"].rstrip("\n").rsplit("\n", 1)[-1]
        fields = dict(f.split("=", 1) for f in last.split() if "=" in f)
        return {k: int(v) for k, v in fields.items() if v.isdigit()}
    if workload == "emptiness":
        return {
            "solutions": sum(c for o in outputs["outcomes"] if not isinstance(o, Exception) for _, c in o.counts)
        }
    if workload == "ladder":
        return {"final_n": outputs["final_n"]}
    return {}
