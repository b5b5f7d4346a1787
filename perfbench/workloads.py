"""The benchmark's workloads: inputs made from a seed, the timed operation
and the check of its output.

One operation is one call of the public API (two for the oracle, one per
sequence). Every operation's output is checked the way a user would read
it: the JSON report or CSV text, parsed strictly.
"""

from __future__ import annotations

import hashlib
import json
import math
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from cmlab import BuildTargets, ExperimentConfig, build_sequence, exact_law, run_experiment, sweep
from cmlab.degseq import from_counts
from cmlab.oracle import enumerate_matchings

#: sha256 of the first operation's output for the seeds listed, recorded
#: at one thread by record_hashes.py
RECORDED = json.loads((Path(__file__).parent / "recorded_sha256.json").read_text())

# the acceptance-fixture targets (ROADMAP headline config)
RHO1, P2, BULK = 1.0, 0.3, 3

SWEEP_STATS = ("connected", "simple", "S", "M", "complement",
               "deg3_outside_giant", "C1", "C2", "L2", "L3")


def no_span(name: str):
    return nullcontext()


def master_seed(seed: int, i: int) -> int:
    """Master seed of operation i of a run: a 64-bit hash of (seed, i)."""
    return int.from_bytes(hashlib.sha256(f"{seed}:{i}".encode()).digest()[:8], "big")


def _reject_constant(name: str):
    raise ValueError(f"non-JSON constant {name}")


def strict_json(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class _Workload:
    """Shared seed and recorded-hash handling."""

    name = ""

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.recorded = {} if tiny else RECORDED.get(self.name, {})

    def hash_problem(self, i: int, text: str) -> list[str]:
        want = self.recorded.get(str(self.seed)) if i == 0 else None
        if want is not None and sha256_hex(text) != want:
            return [f"sha256 {sha256_hex(text)} != recorded {want}"]
        return []

    def enumerate_seconds(self) -> float:
        return 0.0


class MonteCarlo(_Workload):
    """run_experiment on a sequence built during set-up."""

    def __init__(self, name, seed, tiny, n, replicates, threads, condition_on_simple):
        self.name = name
        super().__init__(seed, tiny)
        self.n = n
        self.replicates = replicates
        self.threads = threads
        self.condition_on_simple = condition_on_simple
        # every replicate samples and aggregates exactly one matching
        self.replicates_per_op = self.matchings_per_op = replicates

    def setup(self, span=no_span) -> None:
        with span("degseq.build_sequence"):
            self.seq = build_sequence(self.n, RHO1, P2, BULK)
        self.seq.half_edge_owners  # first touch belongs to set-up

    def run(self, i: int, span) -> str:
        cfg = ExperimentConfig(
            seq=self.seq,
            replicates=self.replicates,
            master_seed=master_seed(self.seed, i),
            condition_on_simple=self.condition_on_simple,
            threads=self.threads,
        )
        with span("montecarlo.run_experiment"):
            report = run_experiment(cfg)
        return report.to_json()

    def check(self, i: int, text: str) -> list[str]:
        report = strict_json(text)
        problems = self.hash_problem(i, text)
        if sum(report["complement_histogram"]) != report["replicates"]:
            problems.append("complement histogram does not sum to the replicate count")
        stats = report["stats"]
        total = stats["giant_size"]["mean"] + stats["complement"]["mean"]
        if not math.isclose(total, self.seq.n, rel_tol=1e-12):
            problems.append(f"mean giant + mean complement = {total} != n = {self.seq.n}")
        return problems


class Sweep(_Workload):
    """sweep over small n, straddling the census's labeller switch at 256."""

    name = "sweep_2t"

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        self.n_values = [100, 200] if tiny else [100, 200, 400, 1000]
        self.replicates = 10 if tiny else 100
        self.threads = 2
        self.replicates_per_op = self.matchings_per_op = self.replicates * len(self.n_values)

    def setup(self, span=no_span) -> None:
        self.targets = BuildTargets(n=self.n_values[0], rho1=RHO1, p2=P2, bulk_degree=BULK)

    def run(self, i: int, span) -> str:
        template = ExperimentConfig(targets=self.targets, replicates=self.replicates,
                                    master_seed=master_seed(self.seed, i), threads=self.threads)
        with span("montecarlo.sweep"):
            return sweep(template, self.n_values)

    def check(self, i: int, text: str) -> list[str]:
        problems = self.hash_problem(i, text)
        lines = text.splitlines()
        if lines[0] != "n,stat,empirical,stderr,theory,z":
            problems.append(f"unexpected header {lines[0]!r}")
        rows = [line.split(",") for line in lines[1:]]
        problems += [f"row {','.join(r)}" for r in rows if r[1].startswith("error:")]
        seen = {(int(r[0]), r[1]) for r in rows}
        want = {(n, s) for n in self.n_values for s in SWEEP_STATS}
        if seen != want:
            problems.append(f"rows missing {sorted(want - seen)}, extra {sorted(seen - want)}")
        for r in rows:
            if not all(math.isfinite(float(v)) for v in r[2:] if v):
                problems.append(f"non-finite value in row {','.join(r)}")
        return problems


class Oracle(_Workload):
    """exact_law on two fixed sequences of 135,135 matchings each.

    The inputs do not depend on the seed: the oracle is deterministic, and
    its check compares against exact values.
    """

    name = "oracle"

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        # (degree counts, total matchings, exact P(connected))
        self.cases = ([({1: 2, 2: 1}, 3, Fraction(2, 3)), ({2: 3}, 15, Fraction(8, 15))] if tiny
                      else [({1: 2, 2: 3, 3: 2}, 135135, Fraction(512, 1001)),
                            ({2: 7}, 135135, Fraction(1024, 3003))])
        self.matchings_per_op = sum(total for _, total, _ in self.cases)
        # one exact law per sequence, the oracle's counterpart of a replicate
        self.replicates_per_op = len(self.cases)

    def setup(self, span=no_span) -> None:
        self.seqs = [from_counts(counts) for counts, _, _ in self.cases]
        for seq in self.seqs:
            seq.half_edge_owners

    def run(self, i: int, span) -> list[str]:
        out = []
        for seq in self.seqs:
            with span("oracle.exact_law"):
                law = exact_law(seq)
            out.append(json.dumps(law.to_json_dict(), sort_keys=True, indent=2))
        return out

    def check(self, i: int, texts: list[str]) -> list[str]:
        problems = []
        for text, (counts, total, p_conn) in zip(texts, self.cases):
            law = strict_json(text)
            if law["total_matchings"] != total:
                problems.append(f"{counts}: total_matchings {law['total_matchings']} != {total}")
            if Fraction(law["p_connected"]) != p_conn:
                problems.append(f"{counts}: p_connected {law['p_connected']} != {p_conn}")
            if sum(Fraction(p) for p in law["joint_pmf"].values()) != 1:
                problems.append(f"{counts}: joint pmf does not sum to 1")
        return problems

    def enumerate_seconds(self) -> float:
        """Time to drain enumerate_matchings alone, once per sequence."""
        start = perf_counter()
        for seq in self.seqs:
            for _ in enumerate_matchings(seq):
                pass
        return perf_counter() - start


WORKLOADS = ("desk", "large_2t", "sweep_2t", "oracle")


def make(name: str, seed: int, tiny: bool = False):
    """The named workload; tiny shrinks every size for a smoke test."""
    if name == "desk":
        return MonteCarlo("desk", seed, tiny, n=1000 if tiny else 100_000,
                          replicates=64, threads=1, condition_on_simple=True)
    if name == "large_2t":
        return MonteCarlo("large_2t", seed, tiny, n=2000 if tiny else 1_000_000,
                          replicates=4, threads=2, condition_on_simple=False)
    if name == "sweep_2t":
        return Sweep(seed, tiny)
    if name == "oracle":
        return Oracle(seed, tiny)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
