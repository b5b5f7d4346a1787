"""Print the set-up time of one workload in this fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <seed> <tiny 0|1>

Set-up is `import cmlab` plus building the workload's inputs, up to its
first timed call. run.py starts this several times and reports the median.
"""

from time import perf_counter

start = perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# run.py checked that the checkout has src/cmlab before starting this
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import cmlab  # noqa: E402,F401

import workloads  # noqa: E402

workloads.make(sys.argv[1], int(sys.argv[2]), bool(int(sys.argv[3]))).setup()
print(perf_counter() - start)
