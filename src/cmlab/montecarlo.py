"""Reproducible multi-replicate experiments against theory predictions.

Replicate i draws its graph from Seed(master_seed, i), so results are a
pure function of the configuration: the same config gives byte-identical
JSON reports on any machine and under any degree of parallelism (workers
only compute per-replicate vectors; aggregation always runs in replicate
order). Accumulators are fixed-size, so memory does not grow with the
replicate count.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .census import component_census
from .degseq import (
    DegreeSequence,
    LimitParams,
    build_sequence,
    check_build_targets,
    to_limit_params,
    window_params,
)
from .errors import CmlabError, InvalidConfig, SeriesDivergence, ZeroAcceptedSamples
from .generator import Seed, sample
from .theory import (
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
    a bad one raises InfeasibleTargets naming it.
    """

    n: int
    rho1: float
    p2: float
    bulk_degree: int = 3

    def __post_init__(self):
        check_build_targets(self.n, self.rho1, self.p2, self.bulk_degree)

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
    """

    seq: DegreeSequence | None = None
    targets: BuildTargets | None = None
    replicates: int = 1000
    master_seed: int = 0
    condition_on_simple: bool = False
    collect_components: bool = True
    collect_simplicity: bool = True
    x_max: int = 50
    trunc_k: int = 60
    max_k: int = 10
    threads: int = 1
    source: str | None = None

    def __post_init__(self):
        if (self.seq is None) == (self.targets is None):
            raise InvalidConfig("config needs exactly one of seq or targets")
        if not 0 <= self.master_seed < 2**64:
            raise InvalidConfig(
                f"master_seed must be a 64-bit unsigned integer, got {self.master_seed}"
            )
        for name, low in (("replicates", 1), ("x_max", 0), ("trunc_k", 1),
                          ("max_k", 1), ("threads", 1)):
            value = getattr(self, name)
            if not value >= low:
                raise InvalidConfig(f"{name} must be >= {low}, got {value}")

    def resolve_sequence(self) -> DegreeSequence:
        if self.seq is not None:
            return self.seq
        t = self.targets
        return build_sequence(t.n, t.rho1, t.p2, t.bulk_degree)


# per-replicate integer vector layout
_CONN, _SIMPLE, _BOTH, _S, _M, _COMP, _DEG3, _OTHER, _GIANT = range(9)
_FIXED = 9


def _vector_length(max_k: int) -> int:
    # cycles k=1..max_k plus overflow, lines k=2..max_k plus overflow
    return _FIXED + (max_k + 1) + max_k


def _replicate_vector(
    seq: DegreeSequence, master: int, stream: int, max_k: int
) -> np.ndarray:
    g = sample(seq, Seed(master, stream))
    c = component_census(g, seq)
    vec = np.zeros(_vector_length(max_k), dtype=np.int64)
    connected = c.complement == 0
    simple = c.self_loops == 0 and c.multi_edges == 0
    vec[_CONN] = connected
    vec[_SIMPLE] = simple
    vec[_BOTH] = connected and simple
    vec[_S] = c.self_loops
    vec[_M] = c.multi_edges
    vec[_COMP] = c.complement
    vec[_DEG3] = c.deg3_outside_giant
    vec[_OTHER] = c.other_outside_giant
    vec[_GIANT] = c.giant_size
    cyc0 = _FIXED
    lin0 = _FIXED + max_k + 1
    for k, cnt in c.cycle_counts.items():
        vec[cyc0 + k - 1 if k <= max_k else cyc0 + max_k] += cnt
    for k, cnt in c.line_counts.items():
        vec[lin0 + k - 2 if k <= max_k else lin0 + max_k - 1] += cnt
    return vec


class _Accumulator:
    """Fixed-size streaming moments: exact integer sums per statistic plus
    a bounded complement histogram; memory independent of replicate count."""

    def __init__(self, length: int, x_max: int):
        self.count = 0
        self.sums = [0] * length
        self.sumsqs = [0] * length
        self.histogram = [0] * (x_max + 2)
        self.x_max = x_max

    def add(self, vec: np.ndarray) -> None:
        self.count += 1
        for j, v in enumerate(vec.tolist()):
            self.sums[j] += v
            self.sumsqs[j] += v * v
        comp = int(vec[_COMP])
        self.histogram[comp if comp <= self.x_max else self.x_max + 1] += 1

    def mean_stderr(self, j: int) -> tuple[float, float]:
        r = self.count
        mean = self.sums[j] / r
        if r < 2:
            return mean, 0.0
        var = (self.sumsqs[j] - self.sums[j] ** 2 / r) / (r - 1)
        return mean, math.sqrt(max(var, 0.0) / r)


def wilson_interval(successes: int, total: int, z: float = _WILSON_Z) -> tuple[float, float]:
    """95% Wilson score interval; well-behaved at frequencies near 0 or 1."""
    if total == 0:
        return 0.0, 1.0
    phat = successes / total
    denom = 1 + z * z / total
    center = (phat + z * z / (2 * total)) / denom
    half = z * math.sqrt(phat * (1 - phat) / total + z * z / (4 * total * total)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _lambda_tail(p: LimitParams, max_k: int, which: str) -> float:
    """Poisson-mean mass folded into the k > max_k overflow bucket."""
    fn = lambda_cycle if which == "cycle" else lambda_line
    total = 0.0
    for k in range(max_k + 1, max_k + 400):
        term = fn(k, p)
        total += term
        if term < 1e-15:
            break
    return total


@dataclass(frozen=True)
class EstimateReport:
    """Aggregated estimates with standard errors and theory deltas."""

    config: dict
    replicates: int
    stats: dict[str, dict]
    connectivity: dict
    simplicity: dict | None
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


def _stat_entry(acc: _Accumulator, j: int, theory: float | None) -> dict:
    mean, stderr = acc.mean_stderr(j)
    z = None
    if theory is not None and stderr > 0:
        z = (mean - theory) / stderr
    return {"mean": mean, "stderr": stderr, "theory": theory, "z": z}


def run_experiment(cfg: ExperimentConfig) -> EstimateReport:
    """Run all replicates and aggregate the census statistics.

    Conditioning on simplicity is by rejection within the same replicate
    set; the report carries the acceptance rate. Raises ZeroAcceptedSamples
    if conditioning rejects every replicate.
    """
    seq = cfg.resolve_sequence()
    r = cfg.replicates

    acc = _Accumulator(_vector_length(cfg.max_k), cfg.x_max)
    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            for vec in pool.map(
                lambda i: _replicate_vector(seq, cfg.master_seed, i, cfg.max_k),
                range(r),
            ):
                acc.add(vec)
    else:
        for i in range(r):
            acc.add(_replicate_vector(seq, cfg.master_seed, i, cfg.max_k))

    params = to_limit_params(window_params(seq))
    # degenerate sequences (2*p2 >= d) fall outside the limit theory;
    # their reports carry empirical values with null theory columns
    try:
        pred = predict(params, seq=seq, x_max=cfg.x_max, trunc_k=cfg.trunc_k,
                       max_k=cfg.max_k)
    except SeriesDivergence:
        pred = None
    nu_ok = not math.isinf(params.nu)

    stats: dict[str, dict] = {}
    stats["connected"] = _stat_entry(acc, _CONN, pred.p_connected if pred else None)
    stats["complement"] = _stat_entry(
        acc, _COMP, pred.expected_complement if pred else None
    )
    stats["deg3_outside_giant"] = _stat_entry(acc, _DEG3, 0.0)
    stats["other_outside_giant"] = _stat_entry(acc, _OTHER, 0.0)
    stats["giant_size"] = _stat_entry(
        acc, _GIANT, seq.n - pred.expected_complement if pred else None
    )
    if cfg.collect_simplicity:
        stats["simple"] = _stat_entry(acc, _SIMPLE, pred.p_simple if pred else None)
        stats["S"] = _stat_entry(acc, _S, params.nu / 2 if nu_ok else None)
        stats["M"] = _stat_entry(acc, _M, params.nu**2 / 4 if nu_ok else None)
    if cfg.collect_components:
        cyc0 = _FIXED
        lin0 = _FIXED + cfg.max_k + 1
        for k in range(1, cfg.max_k + 1):
            stats[f"C{k}"] = _stat_entry(
                acc, cyc0 + k - 1, lambda_cycle(k, params) if pred else None
            )
        stats[f"C_gt{cfg.max_k}"] = _stat_entry(
            acc, cyc0 + cfg.max_k,
            _lambda_tail(params, cfg.max_k, "cycle") if pred else None,
        )
        for k in range(2, cfg.max_k + 1):
            stats[f"L{k}"] = _stat_entry(
                acc, lin0 + k - 2, lambda_line(k, params) if pred else None
            )
        stats[f"L_gt{cfg.max_k}"] = _stat_entry(
            acc, lin0 + cfg.max_k - 1,
            _lambda_tail(params, cfg.max_k, "line") if pred else None,
        )

    conn_count = acc.sums[_CONN]
    lo, hi = wilson_interval(conn_count, r)
    connectivity = {
        "frequency": conn_count / r,
        "wilson_low": lo,
        "wilson_high": hi,
        "theory": pred.p_connected if pred else None,
    }

    simplicity = None
    if cfg.collect_simplicity:
        simple_count = acc.sums[_SIMPLE]
        lo, hi = wilson_interval(simple_count, r)
        simplicity = {
            "frequency": simple_count / r,
            "wilson_low": lo,
            "wilson_high": hi,
            "theory": pred.p_simple if pred else None,
        }

    conditional = None
    if cfg.condition_on_simple:
        accepted = acc.sums[_SIMPLE]
        if accepted == 0:
            raise ZeroAcceptedSamples(
                "conditioning on simplicity rejected all replicates"
            )
        both = acc.sums[_BOTH]
        lo, hi = wilson_interval(both, accepted)
        conditional = {
            "frequency": both / accepted,
            "wilson_low": lo,
            "wilson_high": hi,
            "theory": pred.p_connected_given_simple if pred else None,
            "accepted": accepted,
            "acceptance_rate": accepted / r,
        }

    histogram = list(acc.histogram)

    config_echo = {
        "n": seq.n,
        "counts": {str(d): m for d, m in sorted(seq.counts.items())},
        "replicates": r,
        "master_seed": cfg.master_seed,
        "condition_on_simple": cfg.condition_on_simple,
        "collect_components": cfg.collect_components,
        "collect_simplicity": cfg.collect_simplicity,
        "x_max": cfg.x_max,
        "trunc_k": cfg.trunc_k,
        "max_k": cfg.max_k,
        "source": cfg.source,
    }
    return EstimateReport(
        config=config_echo,
        replicates=r,
        stats=stats,
        connectivity=connectivity,
        simplicity=simplicity,
        conditional_connectivity=conditional,
        complement_histogram=histogram,
        complement_pmf_theory=list(pred.complement_pmf) if pred else None,
        prediction=pred,
    )


# statistics emitted per sweep row, in order
_SWEEP_STATS = ("connected", "simple", "S", "M", "complement",
                "deg3_outside_giant", "C1", "C2", "L2", "L3")

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
    limit = template.targets.limit_params()
    try:
        targets_theory = {
            "connected": p_connected(limit),
            "simple": p_simple(limit),
            "S": limit.nu / 2,
            "M": limit.nu**2 / 4,
            "complement": expected_complement(limit),
            "deg3_outside_giant": 0.0,
            "C1": lambda_cycle(1, limit),
            "C2": lambda_cycle(2, limit),
            "L2": lambda_line(2, limit),
            "L3": lambda_line(3, limit),
        }
    except CmlabError:
        targets_theory = {k: None for k in _SWEEP_STATS}

    lines = [SWEEP_HEADER]
    for n in n_values:
        try:
            cfg = replace(template, targets=replace(template.targets, n=n))
            report = run_experiment(cfg)
        except CmlabError as exc:
            lines.append(f"{n},error:{type(exc).__name__},,,,")
            continue
        for stat in _SWEEP_STATS:
            entry = report.stats.get(stat)
            if entry is None:
                continue
            theory = targets_theory.get(stat)
            z = None
            if theory is not None and entry["stderr"] > 0:
                z = (entry["mean"] - theory) / entry["stderr"]
            theory_txt = "" if theory is None else repr(theory)
            z_txt = "" if z is None else repr(z)
            lines.append(
                f"{n},{stat},{entry['mean']!r},{entry['stderr']!r},{theory_txt},{z_txt}"
            )
    return "\n".join(lines) + "\n"
