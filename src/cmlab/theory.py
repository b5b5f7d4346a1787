"""Closed-form limits and finite-n exact formulas for the critical window.

All limits are driven by LimitParams (rho1, p2, d, nu). Outside 2*p2 < d
the underlying series diverge and every operation raises SeriesDivergence
instead of returning garbage. Graph counts are returned in natural-log
space only: (ell-1)!! overflows any fixed-width float for ell beyond a
few hundred.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .degseq import DegreeSequence, LimitParams
from .errors import InfeasibleProduct, NuInfinite, SeriesDivergence

#: series terms below this are dropped (geometric tail, ratio 2*p2/d < 1)
SERIES_TOL = 1e-12
#: hard cap on series length
SERIES_MAX_K = 10_000
#: per-component Poisson truncation mass for the complement pmf
_PMF_COMPONENT_TAIL = 1e-12
#: defaults of every report: the complement pmf covers 0..X_MAX and sums
#: the k-scaled components for k <= TRUNC_K; C_k and L_k are listed, and
#: a report gives each its own row, for k <= MAX_K
X_MAX = 50
#: the largest x_max of a report: the pmf and a simulation's histogram
#: hold x_max + 1 entries, and near 2*p2/d = 1 with a raised trunc_k the
#: pmf costs about x_max^2 operations; a theory report at this bound takes
#: about 2 s on a 2-core machine at rho1 = 1, p2 = 0.49, d = 1, trunc_k = 1000
X_MAX_LIMIT = 10**4
TRUNC_K = 60
MAX_K = 10


def _require_series(p: LimitParams) -> None:
    if p.d <= 0 or 2 * p.p2 >= p.d:
        raise SeriesDivergence(
            f"p2 must be below d/2 for the limit series, got p2={p.p2}, d={p.d}"
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
    """Expected number of vertices outside the largest component.

    Computed as sum_k k*(lambda_cycle(k) + lambda_line(k)), truncated once
    a term falls below SERIES_TOL. The sum's geometric closed form,
    p2/(d-2p2) + rho1^2 (d-p2)/(d-2p2)^2, is checked against it in the
    theory tests.
    """
    value, _ = _complement_series(p)
    return value


def _complement_series(p: LimitParams) -> tuple[float, float]:
    """Series sum plus an exact bound on the truncated geometric tail."""
    _require_series(p)
    x = 2 * p.p2 / p.d
    total = 0.0
    term = math.inf
    k = 0
    while (term >= SERIES_TOL or k < 2) and k < SERIES_MAX_K:
        k += 1
        term = k * (lambda_cycle(k, p) + lambda_line(k, p))
        total += term
    if x == 0.0:
        return total, 0.0
    # tail of sum_j j*lambda: cycles contribute x^j/2, lines c*j*x^(j-2)
    m = k + 1
    cycle_tail = x**m / (2 * (1 - x))
    c = p.rho1**2 / (2 * p.d)
    line_tail = c * x ** (m - 2) * (m - (m - 1) * x) / (1 - x) ** 2
    return total, cycle_tail + line_tail


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


def complement_pmf(p: LimitParams, x_max: int, trunc_k: int) -> np.ndarray:
    """Distribution of sum_{k<=trunc_k} k*(C_k + L_k) on 0..x_max.

    Iterated convolution of the k-scaled Poisson components, each
    truncated to all but 1e-12 of its mass. A component whose mean has
    exp(-lambda) == 1.0 has the pmf [1.0] and changes nothing, and from
    k = 2 on neither mean grows, so the loop stops at the first k >= 2
    where both are such: a huge trunc_k costs no more than a small one.
    """
    _require_series(p)
    if not 0 <= x_max <= X_MAX_LIMIT:
        raise ValueError(f"x_max must be >= 0 and at most {X_MAX_LIMIT}, got {x_max}")
    if trunc_k < 1:
        raise ValueError(f"trunc_k must be >= 1, got {trunc_k}")
    dist = np.zeros(x_max + 1)
    dist[0] = 1.0
    for k in range(1, trunc_k + 1):
        lams = [lam for lam in (lambda_cycle(k, p), lambda_line(k, p))
                if math.exp(-lam) < 1.0]
        if k >= 2 and not lams:
            break
        for lam in lams:
            if k > x_max:
                # only the pmf's 0 lands in 0..x_max: the convolution is
                # one product per entry, with the same bits. Near
                # 2*p2/d = 1 the loop can run to k in the millions
                dist *= math.exp(-lam)
                continue
            probs = _poisson_pmf_truncated(lam, x_max // k)
            comp = np.zeros((len(probs) - 1) * k + 1)
            comp[::k] = probs
            dist = np.convolve(dist, comp)[: x_max + 1]
    return dist


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
    """log((ell-1)!!) for even ell, via log-gamma.

    (ell-1)!! = ell! / (2^(ell/2) (ell/2)!) counts the pairings of ell
    half-edges. scipy's gammaln is imported on the first call, not with
    the module; math.lgamma differs from it in the last bits, so it would
    change the reports.
    """
    # local: only the log-counts need scipy, whose import is slow
    from scipy.special import gammaln

    if ell % 2 != 0 or ell < 0:
        raise ValueError(f"ell must be even and >= 0, got {ell}")
    half = ell // 2
    return float(gammaln(ell + 1) - half * math.log(2) - gammaln(half + 1))


def log_count_simple(seq: DegreeSequence, p: LimitParams) -> float:
    """Natural log of the asymptotic count of simple graphs with these degrees.

    Imports scipy's gammaln on the first call, like log_double_factorial_odd.
    """
    # local, as in log_double_factorial_odd: only the log-counts need scipy
    from scipy.special import gammaln

    _require_finite_nu(p)
    log_fact = sum(m * float(gammaln(deg + 1)) for deg, m in seq.counts.items())
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


def p_no_line2_fraction(seq: DegreeSequence) -> Fraction:
    """Exact rational probability that no two degree-1 vertices are paired.

    prod_{i=1..n1} (ell - n1 - i + 1)/(ell - 2i + 1); requires
    2*n1 <= ell (otherwise some such pairing is forced).
    """
    n1, ell = seq.n1, seq.ell
    if 2 * n1 > ell:
        raise InfeasibleProduct(f"need 2*n1 <= ell, got n1={n1}, ell={ell}")
    prod = Fraction(1)
    for i in range(1, n1 + 1):
        prod *= Fraction(ell - n1 - i + 1, ell - 2 * i + 1)
    return prod


@dataclass(frozen=True)
class Prediction:
    """Bundle of every closed-form value for one parameter point.

    Fields whose formula needs a finite nu (or a concrete sequence, for
    the log-count) are None when unavailable. paper_closed_form carries
    the alternative complement-expectation form for side-by-side
    reporting; acceptance binds to expected_complement (the series).
    """

    params: LimitParams
    p_connected: float
    p_simple: float | None
    p_connected_given_simple: float | None
    lambda_lines: dict[int, float]
    lambda_cycles: dict[int, float]
    expected_complement: float
    expected_complement_truncation_bound: float
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
            "expected_complement_truncation_bound": self.expected_complement_truncation_bound,
            "paper_closed_form": self.paper_closed_form,
            "complement_pmf": self.complement_pmf,
            "log_count_connected_simple": self.log_count_connected_simple,
        }


def predict(
    p: LimitParams,
    seq: DegreeSequence | None = None,
    x_max: int = X_MAX,
    trunc_k: int = TRUNC_K,
) -> Prediction:
    """Evaluate every prediction at `p`; include the log graph count when
    a concrete sequence is supplied and nu is finite."""
    _require_series(p)
    nu_ok = not math.isinf(p.nu)
    value, bound = _complement_series(p)
    return Prediction(
        params=p,
        p_connected=p_connected(p),
        p_simple=p_simple(p) if nu_ok else None,
        p_connected_given_simple=p_connected_given_simple(p) if nu_ok else None,
        lambda_lines={k: lambda_line(k, p) for k in range(1, MAX_K + 1)},
        lambda_cycles={k: lambda_cycle(k, p) for k in range(1, MAX_K + 1)},
        expected_complement=value,
        expected_complement_truncation_bound=bound,
        paper_closed_form=paper_closed_form_complement(p),
        complement_pmf=[float(v) for v in complement_pmf(p, x_max, trunc_k)],
        log_count_connected_simple=(
            log_count_connected_simple(seq, p) if (seq is not None and nu_ok) else None
        ),
    )
