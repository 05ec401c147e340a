"""Time one set-up in a fresh interpreter: import fillperm, build the inputs.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED
Prints the seconds taken.  The clock starts after the benchmark's own
module (and the standard-library modules it needs) is loaded, so only
importing ``fillperm`` and building the workload's inputs are counted.
``run.py`` starts each probe with a fixed bytecode-cache state.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
import workloads  # noqa: E402

t0 = time.perf_counter()
workloads.build_inputs(workloads.import_fillperm(), sys.argv[1], int(sys.argv[2]))
print(repr(time.perf_counter() - t0))
