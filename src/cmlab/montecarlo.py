"""Reproducible multi-replicate experiments against theory predictions.

Replicate i draws its graph from Seed(master_seed, i), so results are a
pure function of the configuration. Every reported statistic is one entry
of an ordered table (`_STATS`): its name, the integer it reads from each
replicate's census, and its theory value. The replicates are split into
at most min(threads, os.cpu_count()) contiguous ranges, one pool worker
each; each range adds its integers into its own fixed-size
accumulator, and the accumulators are merged by integer addition.
Integer addition is exact, so the same config gives byte-identical JSON
reports on any machine and for any thread count.
Each range also allocates its working arrays once, 16 bytes a
half-edge: the pairing buffer and the census's CensusBuffers. It reuses
them for every replicate, allocates nothing ell-sized per replicate, and
its memory does not grow with the replicate count.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial, reduce
from typing import Callable

import numpy as np

from .census import (
    CensusBuffers,
    ComponentCensus,
    component_census,
    is_connected,
    is_simple,
)
from .degseq import (
    DegreeSequence,
    LimitParams,
    build_sequence,
    check_build_targets,
    is_integer,
    limit_params,
)
from .errors import CmlabError, InvalidConfig, SeriesDivergence, ZeroAcceptedSamples
from .generator import Seed, sample
from .theory import (
    MAX_K,
    TRUNC_K,
    X_MAX,
    X_MAX_LIMIT,
    Prediction,
    expected_complement,
    lambda_cycle,
    lambda_line,
    p_connected,
    p_simple,
    predict,
)

_WILSON_Z = 1.959963984540054  # 95% two-sided normal quantile


@dataclass(frozen=True)
class BuildTargets:
    """build_sequence arguments carried by a config (file-less source).

    Each field is checked on construction, as build_sequence checks it;
    a bad one raises InfeasibleTargets naming it. The fields are stored
    as Python numbers, so a report or a limit sees no numpy scalar.
    """

    n: int
    rho1: float
    p2: float
    bulk_degree: int = 3

    def __post_init__(self):
        fields = ("n", "rho1", "p2", "bulk_degree")
        checked = check_build_targets(*(getattr(self, name) for name in fields))
        for name, value in zip(fields, checked):
            object.__setattr__(self, name, value)

    def limit_params(self) -> LimitParams:
        """The n -> infinity window parameters of the built family.

        Degree-1 mass vanishes (n1 ~ sqrt(n)), so the limit mix is p2 at
        degree 2 and 1-p2 at the bulk degree.
        """
        b = self.bulk_degree
        d = 2 * self.p2 + b * (1 - self.p2)
        nu = (2 * self.p2 + b * (b - 1) * (1 - self.p2)) / d
        return LimitParams(rho1=self.rho1, p2=self.p2, d=d, nu=nu)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; exactly one of seq/targets must be set.

    `threads` caps worker parallelism without affecting any reported
    value, so it is not part of the report's config echo. The fields are
    checked on construction: a bad one raises InvalidConfig naming it.
    `seq` must be a DegreeSequence or None, `targets` a BuildTargets or
    None, `source` a str or None and `condition_on_simple` a bool. The
    integer fields may be Python or numpy integers and are stored as
    Python ints, so the report's echo of them is JSON; x_max is at most
    theory.X_MAX_LIMIT.
    """

    seq: DegreeSequence | None = None
    targets: BuildTargets | None = None
    replicates: int = 1000
    master_seed: int = 0
    condition_on_simple: bool = False
    x_max: int = X_MAX
    trunc_k: int = TRUNC_K
    threads: int = 1
    source: str | None = None

    def __post_init__(self):
        for name, kind in (("seq", DegreeSequence), ("targets", BuildTargets)):
            value = getattr(self, name)
            if not (value is None or isinstance(value, kind)):
                raise InvalidConfig(
                    f"{name} must be a {kind.__name__} or None, got {value!r}")
        if (self.seq is None) == (self.targets is None):
            raise InvalidConfig("config needs exactly one of seq or targets")
        if not isinstance(self.condition_on_simple, bool):
            raise InvalidConfig(
                f"condition_on_simple must be a bool, got {self.condition_on_simple!r}")
        if not (self.source is None or isinstance(self.source, str)):
            raise InvalidConfig(f"source must be a str or None, got {self.source!r}")
        if not (is_integer(self.master_seed) and 0 <= self.master_seed < 2**64):
            raise InvalidConfig(
                f"master_seed must be a 64-bit unsigned integer, got {self.master_seed}"
            )
        for name, low in (("replicates", 1), ("x_max", 0), ("trunc_k", 1),
                          ("threads", 1)):
            value = getattr(self, name)
            if not (is_integer(value) and value >= low):
                raise InvalidConfig(f"{name} must be an integer >= {low}, got {value}")
        if self.x_max > X_MAX_LIMIT:  # the histogram holds x_max + 2 counts
            raise InvalidConfig(f"x_max must be at most {X_MAX_LIMIT}, got {self.x_max}")
        for name in ("master_seed", "replicates", "x_max", "trunc_k", "threads"):
            object.__setattr__(self, name, int(getattr(self, name)))

    def resolve_sequence(self) -> DegreeSequence:
        if self.seq is not None:
            return self.seq
        t = self.targets
        return build_sequence(t.n, t.rho1, t.p2, t.bulk_degree)


@dataclass(frozen=True)
class _Stat:
    """One reported statistic.

    `value` reads its per-replicate integer from a census; `theory` gives
    its limit at parameters p for n vertices, or None where the formula
    does not apply. A theory that needs the limit series (2*p2 < d) is
    null when the series diverges; `in_sweep` marks the sweep's rows.
    """

    name: str
    value: Callable[[ComponentCensus], int]
    theory: Callable[[LimitParams, int], float | None]
    needs_series: bool = True
    in_sweep: bool = False


def _if_nu_finite(fn: Callable[[LimitParams], float]):
    return lambda p, n: None if math.isinf(p.nu) else fn(p)


def _overflow(counts: dict[int, int]) -> int:
    return sum(cnt for k, cnt in counts.items() if k > MAX_K)


def _lambda_tail(p: LimitParams, fn) -> float:
    """Poisson-mean mass folded into the k > MAX_K overflow bucket."""
    total = 0.0
    for k in range(MAX_K + 1, MAX_K + 400):
        term = fn(k, p)
        total += term
        if term < 1e-15:
            break
    return total


#: the ordered table of statistics, with cycle and line buckets k <= MAX_K
#: and one overflow bucket each
_STATS = (
    _Stat("connected", is_connected, lambda p, n: p_connected(p), in_sweep=True),
    _Stat("simple", is_simple, _if_nu_finite(p_simple), in_sweep=True),
    _Stat("S", lambda c: c.self_loops, _if_nu_finite(lambda p: p.nu / 2),
          needs_series=False, in_sweep=True),
    _Stat("M", lambda c: c.multi_edges, _if_nu_finite(lambda p: p.nu**2 / 4),
          needs_series=False, in_sweep=True),
    _Stat("complement", lambda c: c.complement,
          lambda p, n: expected_complement(p), in_sweep=True),
    _Stat("deg3_outside_giant", lambda c: c.deg3_outside_giant,
          lambda p, n: 0.0, needs_series=False, in_sweep=True),
    _Stat("other_outside_giant", lambda c: c.other_outside_giant,
          lambda p, n: 0.0, needs_series=False),
    _Stat("giant_size", lambda c: c.giant_size,
          lambda p, n: n - expected_complement(p)),
    *(_Stat(f"C{k}", lambda c, k=k: c.cycle_counts.get(k, 0),
            lambda p, n, k=k: lambda_cycle(k, p), in_sweep=k <= 2)
      for k in range(1, MAX_K + 1)),
    _Stat(f"C_gt{MAX_K}", lambda c: _overflow(c.cycle_counts),
          lambda p, n: _lambda_tail(p, lambda_cycle)),
    *(_Stat(f"L{k}", lambda c, k=k: c.line_counts.get(k, 0),
            lambda p, n, k=k: lambda_line(k, p), in_sweep=k <= 3)
      for k in range(2, MAX_K + 1)),
    _Stat(f"L_gt{MAX_K}", lambda c: _overflow(c.line_counts),
          lambda p, n: _lambda_tail(p, lambda_line)),
)


class _Accumulator:
    """Fixed-size streaming moments: exact integer sums per statistic, the
    connected-and-simple count and a bounded complement histogram; memory
    independent of replicate count."""

    def __init__(self, x_max: int):
        self.count = 0
        self.sums = [0] * len(_STATS)
        self.sumsqs = [0] * len(_STATS)
        self.connected_simple = 0
        self.histogram = [0] * (x_max + 2)
        self.x_max = x_max

    def add(self, c: ComponentCensus) -> None:
        """Add one replicate's row: each statistic's integer, in table order."""
        self.count += 1
        for j, s in enumerate(_STATS):
            v = int(s.value(c))
            self.sums[j] += v
            self.sumsqs[j] += v * v
        self.connected_simple += is_connected(c) and is_simple(c)
        self.histogram[min(c.complement, self.x_max + 1)] += 1

    def merge(self, other: _Accumulator) -> _Accumulator:
        self.count += other.count
        self.connected_simple += other.connected_simple
        for mine, theirs in ((self.sums, other.sums), (self.sumsqs, other.sumsqs),
                             (self.histogram, other.histogram)):
            for j, v in enumerate(theirs):
                mine[j] += v
        return self

    def total(self, name: str) -> int:
        return self.sums[[s.name for s in _STATS].index(name)]

    def mean_stderr(self, j: int) -> tuple[float, float]:
        r = self.count
        mean = self.sums[j] / r
        if r < 2:
            return mean, 0.0
        var = (self.sumsqs[j] - self.sums[j] ** 2 / r) / (r - 1)
        return mean, math.sqrt(max(var, 0.0) / r)


def _fill(seq: DegreeSequence, master: int, x_max: int,
          replicates: range) -> _Accumulator:
    acc = _Accumulator(x_max)
    # the pairing buffer and the census's two arrays are allocated once for
    # the range: freed every replicate, they hand their pages back to the
    # system, and a desk replicate then took about 1,250 page faults and
    # 1.7-2.8 ms of system time to get them again
    perm = np.empty(seq.ell, dtype=np.int64)
    buffers = CensusBuffers(seq)
    for i in replicates:
        acc.add(component_census(sample(seq, Seed(master, i), perm), seq, buffers))
    return acc


def wilson_interval(successes: int, total: int, z: float = _WILSON_Z) -> tuple[float, float]:
    """95% Wilson score interval; well-behaved at frequencies near 0 or 1."""
    if total == 0:
        return 0.0, 1.0
    phat = successes / total
    denom = 1 + z * z / total
    center = (phat + z * z / (2 * total)) / denom
    half = z * math.sqrt(phat * (1 - phat) / total + z * z / (4 * total * total)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _frequency(successes: int, total: int, theory: float | None) -> dict:
    lo, hi = wilson_interval(successes, total)
    return {"frequency": successes / total, "wilson_low": lo, "wilson_high": hi,
            "theory": theory}


@dataclass(frozen=True)
class EstimateReport:
    """Aggregated estimates with standard errors and theory deltas; the
    unserialised `prediction` has no log-count (it needs scipy.special)."""

    config: dict
    replicates: int
    stats: dict[str, dict]
    connectivity: dict
    simplicity: dict
    conditional_connectivity: dict | None
    complement_histogram: list[int]
    complement_pmf_theory: list[float] | None
    prediction: Prediction | None

    def to_json_dict(self) -> dict:
        return {
            "config": self.config,
            "replicates": self.replicates,
            "stats": self.stats,
            "connectivity": self.connectivity,
            "simplicity": self.simplicity,
            "conditional_connectivity": self.conditional_connectivity,
            "complement_histogram": self.complement_histogram,
            "complement_pmf_theory": self.complement_pmf_theory,
        }

    def to_json(self) -> str:
        return json.dumps(
            self.to_json_dict(), sort_keys=True, indent=2, allow_nan=False
        ) + "\n"


def _stat_entry(mean: float, stderr: float, theory: float | None) -> dict:
    z = None
    if theory is not None and stderr > 0:
        z = (mean - theory) / stderr
    return {"mean": mean, "stderr": stderr, "theory": theory, "z": z}


def run_experiment(cfg: ExperimentConfig) -> EstimateReport:
    """Run all replicates and aggregate the census statistics.

    Conditioning on simplicity is by rejection within the same replicate
    set; the report carries the acceptance rate. Raises ZeroAcceptedSamples
    if conditioning rejects every replicate. Its prediction has no log-count.
    """
    seq = cfg.resolve_sequence()
    r = cfg.replicates

    # each range allocates its own buffers, 16 bytes a half-edge, so there
    # are no more ranges than CPUs to run them
    parts = min(cfg.threads, r, os.cpu_count() or 1)
    ranges = [range(r * k // parts, r * (k + 1) // parts) for k in range(parts)]
    fill = partial(_fill, seq, cfg.master_seed, cfg.x_max)
    # a lone range runs on the calling thread: in a pool thread it gets a
    # malloc arena of its own, which raised the peak RSS of 1-thread runs
    with ThreadPoolExecutor(max_workers=parts) as pool:
        acc = reduce(_Accumulator.merge, (pool.map if parts > 1 else map)(fill, ranges))

    params = limit_params(seq)
    # degenerate sequences (2*p2 >= d) fall outside the limit theory;
    # their reports carry empirical values with null theory columns
    try:
        pred = predict(params, x_max=cfg.x_max, trunc_k=cfg.trunc_k)
    except SeriesDivergence:
        pred = None

    report_stats = {
        s.name: _stat_entry(
            *acc.mean_stderr(j),
            s.theory(params, seq.n) if pred is not None or not s.needs_series else None,
        )
        for j, s in enumerate(_STATS)
    }
    simple_count = acc.total("simple")
    conditional = None
    if cfg.condition_on_simple:
        if simple_count == 0:
            raise ZeroAcceptedSamples(
                "conditioning on simplicity rejected all replicates"
            )
        conditional = {
            **_frequency(acc.connected_simple, simple_count,
                         pred.p_connected_given_simple if pred else None),
            "accepted": simple_count,
            "acceptance_rate": simple_count / r,
        }

    config_echo = {
        "n": seq.n,
        "counts": {str(d): m for d, m in sorted(seq.counts.items())},
        "replicates": r,
        "master_seed": cfg.master_seed,
        "condition_on_simple": cfg.condition_on_simple,
        # every statistic is always collected; both keys stay in the echo
        # so reports keep the bytes (and sha256) recorded before that
        "collect_components": True,
        "collect_simplicity": True,
        "x_max": cfg.x_max,
        "trunc_k": cfg.trunc_k,
        # a constant, not a config field; echoed for the same reason
        "max_k": MAX_K,
        "source": cfg.source,
    }
    return EstimateReport(
        config=config_echo,
        replicates=r,
        stats=report_stats,
        connectivity=_frequency(acc.total("connected"), r,
                                pred.p_connected if pred else None),
        simplicity=_frequency(simple_count, r, pred.p_simple if pred else None),
        conditional_connectivity=conditional,
        complement_histogram=list(acc.histogram),
        complement_pmf_theory=list(pred.complement_pmf) if pred else None,
        prediction=pred,
    )


SWEEP_HEADER = "n,stat,empirical,stderr,theory,z"


def sweep(template: ExperimentConfig, n_values: list[int]) -> str:
    """Run the template experiment at each n; returns a CSV table.

    The template must carry BuildTargets (its n is replaced per row).
    This is a convergence-in-n study, so the theory column holds the
    fixed target-parameter limit every row converges to, not the per-n
    finite ratios. Rows where the rebuilt sequence is infeasible surface
    the error in the stat column instead of aborting the sweep.
    """
    if template.targets is None:
        raise ValueError("sweep needs a config with build targets")
    if list(n_values) != sorted(n_values):
        raise ValueError("n_values must be ascending")
    # BuildTargets keeps p2 < 1 and bulk >= 3, so the limit has 2*p2 < d
    # and a finite nu: every theory value exists
    limit = template.targets.limit_params()
    stats = [s for s in _STATS if s.in_sweep]

    lines = [SWEEP_HEADER]
    for n in n_values:
        try:
            cfg = replace(template, targets=replace(template.targets, n=n))
            report = run_experiment(cfg)
        except CmlabError as exc:
            lines.append(f"{n},error:{type(exc).__name__},,,,")
            continue
        for s in stats:
            measured = report.stats[s.name]
            entry = _stat_entry(measured["mean"], measured["stderr"], s.theory(limit, n))
            cells = [entry[k] for k in ("mean", "stderr", "theory", "z")]
            lines.append(f"{n},{s.name}," + ",".join("" if v is None else repr(v)
                                                     for v in cells))
    return "\n".join(lines) + "\n"
