"""The experiment scripts, run as a user runs them, and the names the benchmark's tracer wraps."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from fillperm import Permutation

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SPANS = SCRIPTS.parent / "perfbench" / "spans.py"


def test_genus2_odd_punctures_certifies_every_cell(checkout_on_pythonpath):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "genus2_odd_punctures.py"), "--max-punctures", "13"],
        capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    assert (proc.returncode, proc.stderr) == (0, "")
    assert [line.split()[0] for line in lines] == [f"S_2,{p}" for p in range(3, 14, 2)]
    assert sum("certified" in line.split() for line in lines) == 6


def test_every_traced_name_resolves():
    # perfbench/spans.py (read, never changed) looks each name up by a bare getattr and wraps parse as a
    # classmethod: a missing name crashes every traced run.  So arcs.reversal_pairing and arcs.curve_advance,
    # which no code path calls, stay until the tracer's arcs.structure_map layer points elsewhere.
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for _, module, attr in spans.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
    assert all(attr in Permutation.__dict__ for _, attr in spans.METHODS)
    assert isinstance(Permutation.__dict__["parse"], classmethod)
