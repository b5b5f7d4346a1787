"""Rewrite recorded_sha256.json: the sha256 of each Monte Carlo workload's
first operation output for seeds 0-9, computed at one thread.

    python3 perfbench/record_hashes.py

large_2t and sweep_2t run at two threads in the benchmark, so their
recorded values check that the thread path is byte-identical to the serial
one. Re-record only when a change alters report bytes on purpose, and say
why.
"""

import json

import run

run.use_checkout_source()
import workloads  # noqa: E402

SEEDS = range(10)


def first_output(name: str, seed: int) -> str:
    wl = workloads.make(name, seed)
    wl.setup()
    wl.threads = 1
    return wl.run(0, workloads.no_span)


if __name__ == "__main__":
    recorded = {
        name: {str(s): workloads.sha256_hex(first_output(name, s)) for s in SEEDS}
        for name in ("desk", "large_2t", "sweep_2t")
    }
    (run.BENCH / "recorded_sha256.json").write_text(json.dumps(recorded, indent=2) + "\n")
