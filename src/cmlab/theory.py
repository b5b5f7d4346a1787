"""Closed-form limits and finite-n log graph counts for the critical window.

All limits are driven by LimitParams (rho1, p2, d, nu). Outside 2*p2 < d
the underlying series diverge and every operation raises SeriesDivergence
instead of returning garbage. Graph counts are returned in natural-log
space only: (ell-1)!! overflows any fixed-width float for ell beyond a
few hundred.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .degseq import DegreeSequence, LimitParams, is_integer, shown
from .errors import NuInfinite, SeriesDivergence

#: series terms below this are dropped (geometric tail, ratio 2*p2/d < 1)
SERIES_TOL = 1e-12
#: terms a limit series adds one by one before its closed-form rest
_SERIES_BUDGET = 399
#: per-component Poisson truncation mass for the complement pmf
_PMF_COMPONENT_TAIL = 1e-12
#: the complement pmf adds components up to this k by np.convolve, as when
#: it was cut there, and above it by shifted sums, whose cost is not k-fold;
#: on either path an all-subnormal pmf (its sums are slow) is taken as 0
_CONVOLVE_MAX_K = 60
#: defaults of every report: the complement pmf covers 0..X_MAX; C_k and
#: L_k are listed, and a report gives each its own row, for k <= MAX_K
X_MAX = 50
#: the largest x_max of a report: the pmf and a simulation's histogram hold
#: x_max + 1 entries, and the pmf costs up to about x_max^2 operations; at
#: this bound a theory report took 0.3-0.4 s at p2 = 0.499995, d = 1 and
#: 0.1 s at rho1 = 30, p2 = 0.4995, d = 1, on a 2-core machine
X_MAX_LIMIT = 10**4
MAX_K = 10


def _require_series(p: LimitParams) -> None:
    if p.d <= 0 or 2 * p.p2 >= p.d:
        raise SeriesDivergence(
            f"p2 and d must satisfy 2*p2 < d for the limit series, got p2={p.p2}, d={p.d}"
        )


def _require_finite_nu(p: LimitParams) -> None:
    if math.isinf(p.nu):
        raise NuInfinite("formula requires a finite nu")


def lambda_line(k: int, p: LimitParams) -> float:
    """Poisson mean of the number of length-k line components.

    Zero for k = 1: a degree-1 vertex cannot carry a self-loop, so there
    are no length-1 lines.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    _require_series(p)
    if k == 1:
        return 0.0
    return p.rho1**2 / (2 * p.d) * (2 * p.p2 / p.d) ** (k - 2)


def lambda_cycle(k: int, p: LimitParams) -> float:
    """Poisson mean of the number of length-k cycle components."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    _require_series(p)
    return (2 * p.p2 / p.d) ** k / (2 * k)


def p_connected(p: LimitParams) -> float:
    """Limit probability that the pairing produces a connected graph.

    Equals sqrt((d-2p2)/d) * exp(-rho1^2/(2(d-2p2))), which is
    exp(-sum_k lambda_cycle - sum_k lambda_line) in closed form.
    """
    _require_series(p)
    return math.sqrt((p.d - 2 * p.p2) / p.d) * math.exp(
        -p.rho1**2 / (2 * (p.d - 2 * p.p2))
    )


def p_simple(p: LimitParams) -> float:
    """Limit probability of no self-loops and no parallel edges."""
    _require_finite_nu(p)
    return math.exp(-p.nu / 2 - p.nu**2 / 4)


def p_connected_given_simple(p: LimitParams) -> float:
    """Limit connectivity probability conditioned on simplicity.

    Simplicity already forbids cycles of length 1 and 2, which lifts the
    unconditional value by exp((p2^2 + d*p2)/d^2).
    """
    _require_series(p)
    _require_finite_nu(p)
    return math.sqrt((p.d - 2 * p.p2) / p.d) * math.exp(
        -p.rho1**2 / (2 * (p.d - 2 * p.p2)) + (p.p2**2 + p.d * p.p2) / p.d**2
    )


def expected_complement(p: LimitParams) -> float:
    """Expected number of vertices outside the largest component: the
    series sum_k k*(lambda_cycle(k) + lambda_line(k)) by _series at
    SERIES_TOL, with closed form p2/(d-2p2) + rho1^2 (d-p2)/(d-2p2)^2.
    A cut at a term below SERIES_TOL drops under 2*SERIES_TOL of the sum;
    past the term budget (2*p2/d above about 0.93) the rest is added."""
    _require_series(p)
    x = 2 * p.p2 / p.d
    c = p.rho1**2 / (2 * p.d)
    # the rest from k = m: cycles contribute x^k/2 a term, lines c*k*x^(k-2)
    return _series(lambda k: k * (lambda_cycle(k, p) + lambda_line(k, p)), 1,
                   lambda m: (x**m / (2 * (1 - x))
                              + c * x ** (m - 2) * (m - (m - 1) * x) / (1 - x) ** 2),
                   SERIES_TOL)


def _series(term: Callable[[int], float], start: int,
            rest: Callable[[int], float], tol: float) -> float:
    """sum_{k >= start} term(k) of a limit series: the terms in order, to
    the first one below tol from k = 2 on (the line means begin there);
    or, after _SERIES_BUDGET terms, those plus rest(k), the closed-form
    sum of the terms from k on."""
    total = 0.0
    for k in range(start, start + _SERIES_BUDGET):
        t = term(k)
        total += t
        if t < tol and k >= 2:
            return total
    return total + rest(start + _SERIES_BUDGET)


def paper_closed_form_complement(p: LimitParams) -> float:
    """Alternative complement-expectation closed form reported alongside.

    rho1^2 (2d-p2)/(2(d-p2)^2) + p2/(d-2p2). Its second term is the cycle
    series, sum_k k lambda_cycle(k) = p2/(d-2p2); its first is the line
    series, sum_{k>=2} k rho1^2/(2d) r^(k-2), taken at the ratio r = p2/d
    instead of lambda_line's 2p2/d, as if each degree-2 vertex offered a
    line one half-edge, not two. So it disagrees with expected_complement
    whenever rho1 > 0 and p2 > 0; the series value is the one
    corroborated by exact enumeration and Monte Carlo, so reports carry
    both numbers side by side.
    """
    _require_series(p)
    return p.rho1**2 * (2 * p.d - p.p2) / (2 * (p.d - p.p2) ** 2) + p.p2 / (
        p.d - 2 * p.p2
    )


def tail_means(p: LimitParams, k_max: int) -> tuple[float, float]:
    """Sums over k > k_max of lambda_cycle(k) and of lambda_line(k), with
    x = 2*p2/d: (-log(1 - x) - sum_{k<=k_max} x^k/k)/2, to a few ulps of
    -log(1 - x), and rho1^2/(2d) x^(max(k_max, 1) - 1)/(1 - x)."""
    _require_series(p)
    x = 2 * p.p2 / p.d
    head = math.fsum(x**k / k for k in range(1, k_max + 1))
    return (max(0.0, (-math.log1p(-x) - head) / 2),
            p.rho1**2 / (2 * p.d) * x ** (max(k_max, 1) - 1) / (1 - x))


def overflow_means(p: LimitParams) -> tuple[float, float]:
    """Cycle and line mean mass of the k > MAX_K overflow bucket, each by
    _series at 1e-15, with tail_means' closed form as its rest."""
    def mean(fn: Callable[[int, LimitParams], float], part: int) -> float:
        return _series(lambda k: fn(k, p), MAX_K + 1,
                       lambda k: tail_means(p, k - 1)[part], 1e-15)

    return mean(lambda_cycle, 0), mean(lambda_line, 1)


def complement_pmf(p: LimitParams, x_max: int) -> np.ndarray:
    """Law of sum_k k*(C_k + L_k), the limit number of vertices outside
    the giant, on 0..x_max; its entry 0 is p_connected(p). Iterated
    convolution, for k <= x_max, of the k-scaled Poisson components, each
    cut to all but 1e-12 of its mass. From k = 2 on neither mean grows, so
    the loop stops at the first k >= 2 where both have exp(-lambda) == 1.0
    (the pmf [1.0]); past x_max, all k > x_max scale the pmf by one factor.
    """
    _require_series(p)
    if not is_integer(x_max):
        raise ValueError(f"x_max must be an integer, got {shown(x_max, repr)}")
    if not 0 <= x_max <= X_MAX_LIMIT:
        raise ValueError(
            f"x_max must be >= 0 and at most {X_MAX_LIMIT}, got {shown(x_max)}")
    dist = np.zeros(x_max + 1)
    dist[0] = 1.0
    for k in range(1, x_max + 1):
        lams = [lam for lam in (lambda_cycle(k, p), lambda_line(k, p))
                if math.exp(-lam) < 1.0]
        if k >= 2 and not lams:
            return dist
        for lam in lams:
            if dist.max() < np.finfo(float).tiny:  # < 1e-303 from here on, and slow
                return np.zeros(x_max + 1)
            probs = _poisson_pmf_truncated(lam, x_max // k)
            if k <= _CONVOLVE_MAX_K:
                comp = np.zeros((len(probs) - 1) * k + 1)
                comp[::k] = probs
                dist = np.convolve(dist, comp)[: x_max + 1]
            else:
                out = dist * probs[0]
                for j in range(1, min(len(probs), x_max // k + 1)):
                    out[j * k:] += probs[j] * dist[: x_max + 1 - j * k]
                dist = out
    return dist * math.exp(-sum(tail_means(p, x_max)))


def _poisson_pmf_truncated(lam: float, max_j: int) -> np.ndarray:
    """Poisson(lam) probabilities of 0, 1, ..., j, for the first j that
    leaves at most _PMF_COMPONENT_TAIL of the mass out.

    The recurrence p_j = p_(j-1) * lam / j runs with a left-to-right
    running sum. It cannot finish where exp(-lam) underflows: from 0 the
    terms stay 0, and a subnormal start loses enough precision that the
    sum can stall short of 1 - tail. Then every term comes from log space
    instead, and the list ends at j = max_j at the latest; the caller
    reads no entry beyond it.
    """
    probs = _poisson_recurrence(lam, _PMF_COMPONENT_TAIL)
    if probs is None:
        log_lam, total, probs = math.log(lam), 0.0, []
        for j in range(max_j + 1):
            probs.append(math.exp(j * log_lam - lam - math.lgamma(j + 1)))
            total += probs[-1]
            if 1.0 - total <= _PMF_COMPONENT_TAIL:
                break
    return np.array(probs)


def _poisson_recurrence(lam: float, tail: float) -> list[float] | None:
    """The recurrence's terms, or None if its sum never reaches 1 - tail."""
    p = total = math.exp(-lam)
    if p == 0.0:
        return None
    probs = [p]
    j = 0
    while 1.0 - total > tail:
        j += 1
        p = p * lam / j
        # past the mode the terms shrink, so once one leaves the sum
        # unchanged every later one does too
        if j > lam and total + p == total:
            return None
        probs.append(p)
        total += p
    return probs


def log_double_factorial_odd(ell: int) -> float:
    """log((ell-1)!!) for even ell >= 0, via math.lgamma.

    (ell-1)!! = (ell-1)! / (2^(ell/2-1) (ell/2-1)!) counts the pairings
    of ell half-edges; in this form its log is exactly 0.0 at ell = 2.
    """
    if ell % 2 != 0 or ell < 0:
        raise ValueError(f"ell must be even and >= 0, got {ell}")
    if ell == 0:
        return 0.0
    half = ell // 2
    return math.lgamma(ell) - (half - 1) * math.log(2) - math.lgamma(half)


def log_count_simple(seq: DegreeSequence, p: LimitParams) -> float:
    """Natural log of the asymptotic count of simple graphs with these
    degrees: (ell-1)!! / prod_v deg(v)! * exp(-nu/2 - nu^2/4)."""
    _require_finite_nu(p)
    log_fact = sum(m * math.lgamma(deg + 1) for deg, m in seq.counts.items())
    return (
        log_double_factorial_odd(seq.ell) - log_fact - p.nu / 2 - p.nu**2 / 4
    )


def log_count_connected_simple(seq: DegreeSequence, p: LimitParams) -> float:
    """Natural log of the asymptotic count of connected simple graphs.

    The simple-graph count multiplied by the conditional connectivity
    probability; all factorial terms evaluated in log space, and the
    probability's logarithm in closed form, so it stays finite where the
    probability itself underflows to 0.
    """
    _require_series(p)
    _require_finite_nu(p)
    free = p.d - 2 * p.p2
    log_p = (0.5 * math.log(free / p.d) - p.rho1**2 / (2 * free)
             + (p.p2**2 + p.d * p.p2) / p.d**2)
    return log_count_simple(seq, p) + log_p


@dataclass(frozen=True)
class Prediction:
    """Bundle of every closed-form value for one parameter point.

    Fields whose formula needs a finite nu (or a concrete sequence, for
    the log-count) are None when unavailable. paper_closed_form carries
    the alternative complement-expectation form for side-by-side
    reporting; acceptance binds to expected_complement (the series, with
    its closed-form rest wherever its term budget cuts it).
    """

    params: LimitParams
    p_connected: float
    p_simple: float | None
    p_connected_given_simple: float | None
    lambda_lines: dict[int, float]
    lambda_cycles: dict[int, float]
    expected_complement: float
    paper_closed_form: float
    complement_pmf: list[float]
    log_count_connected_simple: float | None

    def to_json_dict(self) -> dict:
        return {
            "params": {
                "rho1": self.params.rho1,
                "p2": self.params.p2,
                "d": self.params.d,
                "nu": None if math.isinf(self.params.nu) else self.params.nu,
            },
            "p_connected": self.p_connected,
            "p_simple": self.p_simple,
            "p_connected_given_simple": self.p_connected_given_simple,
            "lambda_lines": {str(k): v for k, v in sorted(self.lambda_lines.items())},
            "lambda_cycles": {str(k): v for k, v in sorted(self.lambda_cycles.items())},
            "expected_complement": self.expected_complement,
            "paper_closed_form": self.paper_closed_form,
            "complement_pmf": self.complement_pmf,
            "log_count_connected_simple": self.log_count_connected_simple,
        }


def predict(
    p: LimitParams,
    seq: DegreeSequence | None = None,
    x_max: int = X_MAX,
) -> Prediction:
    """Evaluate every prediction at `p`; include the log graph count when
    a concrete sequence is supplied and nu is finite. The complement pmf
    is the full limit law on 0..x_max, so its entry 0 is p_connected."""
    _require_series(p)
    nu_ok = not math.isinf(p.nu)
    return Prediction(
        params=p,
        p_connected=p_connected(p),
        p_simple=p_simple(p) if nu_ok else None,
        p_connected_given_simple=p_connected_given_simple(p) if nu_ok else None,
        lambda_lines={k: lambda_line(k, p) for k in range(1, MAX_K + 1)},
        lambda_cycles={k: lambda_cycle(k, p) for k in range(1, MAX_K + 1)},
        expected_complement=expected_complement(p),
        paper_closed_form=paper_closed_form_complement(p),
        complement_pmf=[float(v) for v in complement_pmf(p, x_max)],
        log_count_connected_simple=(
            log_count_connected_simple(seq, p) if (seq is not None and nu_ok) else None
        ),
    )
