"""Self-test of the benchmark's checks and tracer; about ten seconds.

Usage (from the repository root): python3 perfbench/selftest.py

Shows that a wrong expected constant, or a call that raises, is reported
as failed operations rather than as a crash; that the traced run counts
the calls it should; and that it restores every function it replaced.
Exits 1 on the first broken expectation.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spans  # noqa: E402
import workloads as w  # noqa: E402


def expect(condition: bool, message: str) -> None:
    if not condition:
        print(f"selftest FAILED: {message}", file=sys.stderr)
        raise SystemExit(1)
    print(f"ok: {message}")


def wrong(**changes) -> w.Expected:
    return dataclasses.replace(w.EXPECTED, **changes)


def main() -> int:
    fp = w.import_fillperm()

    classify = w.run_pass(fp, "classify", w.build_inputs(fp, "classify", 0))
    expect(w.check("classify", classify.outputs)[:2] == (1, 0), "classify passes against the seed-commit constants")
    expect(w.check("classify", classify.outputs, wrong(classify_sha256="0" * 64))[:2] == (1, 1), "a wrong classify digest is one failed operation")
    expect(w.check("classify", classify.outputs, wrong(classify_summary="count=2301"))[:2] == (1, 1), "a wrong classify summary is one failed operation")

    # The enumerate check applied to a smaller search's result.
    small = {"result": fp.search.enumerate_solutions(fp.search.SearchQuery(2, 3, 5))}
    expect(w.check("enumerate", small)[:2] == (1, 1), "an unexpected enumerate result is one failed operation")
    expect(w.check("enumerate", {"error": "RuntimeError()"})[:2] == (1, 1), "a raising enumerate call is one failed operation")

    inputs = w.build_inputs(fp, "ladder", 7)
    inputs["draws"] = inputs["draws"][:3]
    ladder = w.run_pass(fp, "ladder", inputs)
    expect(w.check("ladder", ladder.outputs)[:2] == (6, 0), "a short ladder passes")
    expect(w.check("ladder", ladder.outputs, wrong(ladder_genus=3))[:2] == (6, 3), "a wrong ladder genus fails every step")
    expect(w.check("ladder", ladder.outputs, wrong(reject_check="degree-divisible-by-4"))[:2] == (6, 3), "a wrong rejection reason fails every rejection")
    broken = dict(inputs, start=dataclasses.replace(inputs["start"], genus=3))
    expect(w.check("ladder", w.run_pass(fp, "ladder", broken).outputs)[:2] == (6, 6), "a ladder whose first step raises fails all its operations")

    empty = w.run_pass(fp, "emptiness", {"cases": [(0, 3, 3)]})
    expect(w.check("emptiness", empty.outputs)[:2] == (1, 0), "an empty sphere search passes")
    expect(w.check("emptiness", empty.outputs, wrong(emptiness_count=1))[:2] == (1, 1), "a wrong emptiness count is one failed operation")
    nonempty = w.run_pass(fp, "emptiness", {"cases": [(0, 4, 2)]})  # S_0,4 has solutions at n=2
    expect(w.check("emptiness", nonempty.outputs)[:2] == (1, 1), "a nonzero emptiness count is one failed operation")
    raising = w.run_pass(fp, "emptiness", {"cases": [(-1, 0, 1)]})
    expect(w.check("emptiness", raising.outputs)[:2] == (1, 1), "a raising cross_validate call is one failed operation")

    originals = {name: getattr(fp.search, name) for name in ("validate", "enumerate_solutions", "canonical_form")}
    original_str = fp.permutations.Permutation.__str__
    tracer = spans.Tracer()
    with spans.instrumented(tracer) as patched:
        expect("fillperm.moves.validate" in patched and "fillperm.tables.enumerate_solutions" in patched, "importers of a layer are patched")
        w.run_pass(fp, "classify", w.build_inputs(fp, "classify", 0))
    layer = tracer.pass_metrics()
    expect(layer["search.canonical_form_calls"] == 2300, "traced classify canonicalises 2300 solutions")
    expect(layer["verify.validate_calls"] == layer["search.solutions"] == 2300, "traced classify re-validates each of its 2300 solutions")
    expect(layer["permutations.format_calls"] == 2300, "traced classify formats each solution once")
    expect(0 < layer["cli.self_s"] < layer["cli.main_s"], "cli self time excludes nested spans")
    expect(
        all(getattr(fp.search, k) is v for k, v in originals.items()) and fp.permutations.Permutation.__str__ is original_str,
        "tracing restores the original functions",
    )
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
