import json
import math
import re
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from cmlab import degseq, montecarlo, oracle, theory
from cmlab.degseq import LimitParams
from cmlab.errors import InvalidLimitParams, NuInfinite, SeriesDivergence
from reference_oracle import p_no_line2_fraction

P = LimitParams(rho1=1.0, p2=0.3, d=2.7, nu=16 / 9)


# expected values below were frozen from high-precision direct evaluation
# of the closed forms, cross-checked against the series definitions


def test_lambda_line_values():
    assert theory.lambda_line(1, P) == 0.0
    assert theory.lambda_line(2, P) == pytest.approx(0.18518518518518517, abs=1e-12)
    assert theory.lambda_line(3, P) == pytest.approx(0.04115226337448559, abs=1e-12)


def test_lambda_cycle_values():
    assert theory.lambda_cycle(1, P) == pytest.approx(0.1111111111111111, abs=1e-12)
    assert theory.lambda_cycle(2, P) == pytest.approx(0.012345679012345677, abs=1e-12)
    zero_p2 = LimitParams(1.0, 0.0, 3.0, 2.0)
    for k in (1, 2, 5):
        assert theory.lambda_cycle(k, zero_p2) == 0.0


def test_lambda_series_divergence():
    bad = LimitParams(1.0, 0.5, 1.0, 1.0)
    for fn in (theory.lambda_line, theory.lambda_cycle):
        with pytest.raises(SeriesDivergence):
            fn(2, bad)


def test_series_divergence_names_the_joint_bound():
    # p2 = 0.3 is fine on its own; it is d = 0.5 that breaks 2*p2 < d
    with pytest.raises(SeriesDivergence) as info:
        theory.predict(LimitParams(rho1=1, p2=0.3, d=0.5, nu=2))
    message = str(info.value)
    for part in ("2*p2 < d", "p2=0.3", "d=0.5"):
        assert part in message, message


def test_p_connected_values():
    assert theory.p_connected(LimitParams(0.0, 0.0, 3.0, 2.0)) == 1.0
    assert theory.p_connected(P) == pytest.approx(0.6950632347977941, abs=1e-12)
    assert theory.p_connected(LimitParams(0.0, 0.5, 3.0, 2.0)) == pytest.approx(
        0.816496580927726, abs=1e-12
    )


def test_p_simple_values():
    assert theory.p_simple(LimitParams(0, 0, 3, 0.0)) == 1.0
    assert theory.p_simple(P) == pytest.approx(0.18655814003237628, abs=1e-12)
    assert theory.p_simple(LimitParams(0, 0, 3, 1.0)) == pytest.approx(
        0.4723665527410147, abs=1e-12
    )
    with pytest.raises(NuInfinite):
        theory.p_simple(LimitParams(0, 0, 3, math.inf))


def test_p_connected_given_simple_values():
    assert theory.p_connected_given_simple(LimitParams(0, 0, 3, 2.0)) == 1.0
    assert theory.p_connected_given_simple(P) == pytest.approx(
        0.7863953193901837, abs=1e-12
    )
    assert theory.p_connected_given_simple(
        LimitParams(0.0, 0.3, 2.7, 16 / 9)
    ) == pytest.approx(0.9978019951412145, abs=1e-12)


def test_expected_complement_series_and_closed_forms():
    assert theory.expected_complement(LimitParams(0, 0, 3, 2.0)) == 0.0
    assert theory.expected_complement(P) == pytest.approx(0.6870748299319729, abs=1e-9)
    # the series' geometric closed form: p2/(d-2p2) + rho1^2 (d-p2)/(d-2p2)^2
    closed_form = (P.p2 / (P.d - 2 * P.p2)
                   + P.rho1**2 * (P.d - P.p2) / (P.d - 2 * P.p2) ** 2)
    assert closed_form == pytest.approx(
        0.14285714285714285 + 0.54421768707483, abs=1e-12
    )
    only_cycles = LimitParams(0.0, 0.3, 2.7, 16 / 9)
    assert theory.expected_complement(only_cycles) == pytest.approx(
        0.3 / 2.1, abs=1e-9
    )
    # p2 = 0 leaves only the length-2 line term
    only_lines = LimitParams(1.0, 0.0, 3.0, 2.0)
    assert theory.expected_complement(only_lines) == pytest.approx(1 / 3, abs=1e-12)


@pytest.mark.parametrize("rho1", [0, 1])
@pytest.mark.parametrize("x", [0, 0.22, 0.6, 0.9, 0.95, 0.99, 0.9998, 0.99999])
def test_expected_complement_is_the_closed_form(x, rho1):
    """expected_complement is p2/(d-2p2) + rho1^2 (d-p2)/(d-2p2)^2 up to
    2*p2/d = 0.99999, where its series needs millions of terms: past the
    term budget (from 2*p2/d = 0.95 on here) the rest is added in closed
    form, within 1e-12. Where the series ends at a term below SERIES_TOL
    instead, it drops the rest: for the cycles, whose terms x^k/2 fall by
    the ratio x, that is under twice SERIES_TOL of their sum x/(2(1-x))."""
    p = LimitParams(rho1, x / 2, 1.0, 2.0)
    closed = p.p2 / (p.d - 2 * p.p2) + p.rho1**2 * (p.d - p.p2) / (p.d - 2 * p.p2) ** 2
    rel = 2.5 * theory.SERIES_TOL if 0 < x <= 0.9 else 1e-12
    assert theory.expected_complement(p) == pytest.approx(closed, rel=rel, abs=0)


def test_paper_closed_form_reported_separately():
    # the alternative closed form disagrees with the series; both exposed
    assert theory.paper_closed_form_complement(P) == pytest.approx(
        0.585565476190476, abs=1e-12
    )
    assert theory.paper_closed_form_complement(P) != pytest.approx(
        theory.expected_complement(P), abs=1e-3
    )
    # they do agree when rho1 = 0 (pure cycle part)
    rho0 = LimitParams(0.0, 0.3, 2.7, 16 / 9)
    assert theory.paper_closed_form_complement(rho0) == pytest.approx(
        theory.expected_complement(rho0), abs=1e-9
    )


def _lambda_sum(p, kmax=4000):
    total = 0.0
    for k in range(1, kmax + 1):
        total += theory.lambda_cycle(k, p) + theory.lambda_line(k, p)
    return total


def _valid_grid():
    grid = []
    for rho1 in (0.0, 0.25, 0.7, 1.0, 2.0):
        for p2 in (0.0, 0.1, 0.25, 0.4, 0.6):
            for d in (1.5, 2.1, 2.7, 3.6):
                if 2 * p2 < d * 0.95:
                    grid.append(LimitParams(rho1, p2, d, 2.0))
    return grid


def test_identity_p_connected_equals_exp_sum_lambda():
    grid = _valid_grid()
    assert len(grid) >= 100
    for p in grid:
        assert theory.p_connected(p) == pytest.approx(
            math.exp(-_lambda_sum(p)), abs=1e-9
        )


def test_monotone_in_rho1_and_p2():
    for p2 in (0.0, 0.2, 0.4):
        vals = [theory.p_connected(LimitParams(r, p2, 2.7, 2.0))
                for r in np.linspace(0, 3, 13)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
    for rho1 in (0.0, 1.0):
        vals = [theory.p_connected(LimitParams(rho1, q, 2.7, 2.0))
                for q in np.linspace(0, 1.3, 14)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_boundary_regimes_of_p_connected():
    # vanishing degree-1 and degree-2 mass forces connectivity
    assert theory.p_connected(LimitParams(0.0, 0.0, 2.7, 2.0)) == 1.0
    # heavy degree-1 mass kills it
    assert theory.p_connected(LimitParams(1000.0, 0.3, 2.7, 2.0)) < 1e-12


def test_conditional_dominates_unconditional():
    for p in _valid_grid():
        conditional = theory.p_connected_given_simple(p)
        unconditional = theory.p_connected(p)
        assert conditional >= unconditional
        if p.p2 == 0:
            assert conditional == pytest.approx(unconditional, abs=1e-15)
        else:
            assert conditional > unconditional


def test_complement_pmf_values():
    pmf = theory.complement_pmf(P, x_max=50)
    assert pmf[0] == pytest.approx(theory.p_connected(P), abs=1e-9)
    # the only weight-1 atom is a single length-1 cycle
    assert pmf[1] == pytest.approx(theory.lambda_cycle(1, P) * pmf[0], abs=1e-9)
    assert pmf.sum() >= 1 - 1e-6
    assert (pmf >= 0).all()
    mean = float((np.arange(len(pmf)) * pmf).sum())
    trunc_mass = 1.0 - float(pmf.sum())
    assert abs(mean - theory.expected_complement(P)) <= 1e-6 + trunc_mass * 50

    degenerate = theory.complement_pmf(LimitParams(0, 0, 3, 2.0), 10)
    assert degenerate[0] == 1.0
    assert degenerate[1:].sum() == 0.0


def _convolve_pmf(p, x_max, k_last):
    """The pmf loop by np.convolve over k = 1..k_last, for each nonzero
    mean; and the first k >= 2 where both means have exp(-lambda) == 1.0
    (complement_pmf's stop), or None."""
    dist = np.zeros(x_max + 1)
    dist[0] = 1.0
    stop = None
    for k in range(1, k_last + 1):
        lams = (theory.lambda_cycle(k, p), theory.lambda_line(k, p))
        if stop is None and k >= 2 and all(math.exp(-lam) == 1.0 for lam in lams):
            stop = k
        for lam in lams:
            if lam == 0.0:
                continue
            probs = theory._poisson_pmf_truncated(lam, x_max // k)
            comp = np.zeros((len(probs) - 1) * k + 1)
            comp[::k] = probs
            dist = np.convolve(dist, comp)[:x_max + 1]
    return dist, stop


@pytest.mark.parametrize(
    "p",
    [P, LimitParams(0, 0.3, 2.7, 2.0), LimitParams(1, 0, 2.7, 2.0),
     LimitParams(2, 0.45, 1.0, 2.0), LimitParams(0, 0, 3, 2.0)],
)
def test_complement_pmf_stops_early_with_the_same_bits(p):
    """Where the loop stops at or before x_max, complement_pmf equals the
    plain loop over all k up to 1,000 (the means there are below 1e-16
    for each p above) bit for bit. Where it gets past x_max, it is the
    plain loop to x_max times one factor exp(-tail_means), bit for bit;
    this moved the bits of such a pmf on purpose, from a product of one
    exp(-lambda) per k > x_max, which it matches within 1e-12."""
    for x_max in (50, 0, 1, 5, 17):
        old, _ = _convolve_pmf(p, x_max, 1000)
        head, stop = _convolve_pmf(p, x_max, x_max)
        new = theory.complement_pmf(p, x_max)
        if stop is not None:
            assert np.array_equal(new, old)
        else:
            tail = math.exp(-sum(theory.tail_means(p, x_max)))
            assert np.array_equal(new, head * tail)
            np.testing.assert_allclose(new, old, rtol=1e-12, atol=0)


@pytest.mark.parametrize("x", [0, 0.22, 0.6, 0.9, 0.98, 0.998, 0.99999])
def test_complement_pmf_is_the_full_law(x):
    """complement_pmf(p, x_max)[0] is p_connected(p), the law's mass at 0,
    at any x_max, also where the means near 2*p2/d = 1 fall below 1e-16
    only at k in the millions; and the pmf is a sub-probability vector."""
    for rho1 in (0, 1):
        p = LimitParams(rho1, x / 2, 1.0, 2.0)
        for x_max in (0, 1, 17, 50):
            pmf = theory.complement_pmf(p, x_max)
            target = theory.p_connected(p)
            if max(pmf[0], target) >= 1e-300:
                assert pmf[0] == pytest.approx(target, rel=1e-12, abs=0)
            assert (pmf >= 0).all()
            assert pmf.sum() <= 1 + 1e-12


@pytest.mark.parametrize("p", [LimitParams(2, 0.45, 1.0, 2.0), LimitParams(0, 0.499, 1.0, 2.0),
                               LimitParams(1, 0.499, 1.0, 2.0)])
def test_complement_pmf_shifted_sums_match_convolve(p):
    """Above k = 60 a component is added by shifted sums, not
    np.convolve; the pmf agrees with np.convolve's within 1e-12."""
    x_max = 300
    head, _ = _convolve_pmf(p, x_max, x_max)
    ref = head * math.exp(-sum(theory.tail_means(p, x_max)))
    np.testing.assert_allclose(theory.complement_pmf(p, x_max), ref, rtol=1e-12, atol=1e-300)


def test_complement_pmf_near_critical_underflows_to_zero():
    """At rho1 = 1, 2*p2/d = 0.99999 the law's mass on 0..2000 is about
    exp(-1000) or less: every entry is 0, as p_connected is."""
    p = LimitParams(1, 0.499995, 1.0, 2.0)
    assert theory.p_connected(p) == 0.0
    assert not theory.complement_pmf(p, 2000).any()


def test_tail_means_closed_form():
    """tail_means(p, K) is the sum of the means over k > K: the lines'
    within 1e-12 relative, the cycles' (a difference of two sums of about
    -log(1 - x)) within 1e-15 absolute, which is what exp(-tail) needs."""
    for p in (P, LimitParams(2, 0.45, 1.0, 2.0), LimitParams(1, 0, 2.7, 2.0)):
        for k_max in (0, 1, 2, 10, 50):
            cycles, lines = theory.tail_means(p, k_max)
            k = range(k_max + 1, 5000)
            assert cycles == pytest.approx(math.fsum(theory.lambda_cycle(j, p) for j in k),
                                           rel=1e-12, abs=1e-15)
            assert lines == pytest.approx(math.fsum(theory.lambda_line(j, p) for j in k),
                                          rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("x_max", [-1, 10**30, pytest.param(10**5000, id="huge_x_max")])
def test_complement_pmf_rejects_bad_range(x_max):
    with pytest.raises(ValueError, match=r"^x_max must be >= "):
        theory.complement_pmf(P, x_max=x_max)


@pytest.mark.parametrize("x_max", [True, 5.5, "5", None])
def test_complement_pmf_rejects_non_integer_x_max(x_max):
    with pytest.raises(ValueError, match=rf"^x_max must be an integer, got {re.escape(repr(x_max))}$"):
        theory.complement_pmf(P, x_max=x_max)
    with pytest.raises(ValueError, match=r"^x_max must be an integer"):
        theory.predict(P, x_max=x_max)


def test_complement_pmf_all_subnormal_stops_on_the_convolve_path():
    """At rho1 = 30, 2*p2/d = 0.999 the law's mass on 0..10,000 underflows
    to 0 from k = 10 on; the pmf stops there, on the np.convolve path too,
    instead of convolving zeros to k = 60 (that took 3.3 s)."""
    p = LimitParams(30, 0.4995, 1.0, 2.0)
    start = time.perf_counter()
    pmf = theory.complement_pmf(p, 10_000)
    assert time.perf_counter() - start < 1.0
    assert len(pmf) == 10_001
    assert not pmf.any()


def _recurrence_pmf(lam, max_terms):
    """The pmf loop this package used before it kept a running sum: None
    where it does not end within max_terms terms."""
    probs = [math.exp(-lam)]
    while 1.0 - sum(probs) > 1e-12:
        if len(probs) == max_terms:
            return None
        probs.append(probs[-1] * lam / len(probs))
    return np.array(probs)


@pytest.mark.parametrize(
    "lam",
    [1e-9, 0.02, 0.185, 1.0, 3.7, 16.0, 120.5, 600.0, 708.0, 709.5, 712.0, 716.0,
     718.5714285714286, 725.0, 733.0, 745.1, 746.0, 907.4, 5e4],
)
def test_poisson_pmf_same_bits_where_the_recurrence_ends(lam):
    """Where the plain recurrence ends, the pmf is bit for bit the same;
    where it would loop forever (exp(-lam) underflows), it still ends,
    at max_j at the latest, with finite terms."""
    old = _recurrence_pmf(lam, 1300)
    new = theory._poisson_pmf_truncated(lam, 10**9)
    if old is not None:
        assert new.tobytes() == old.tobytes()
    else:
        assert np.isfinite(new).all()
        assert new.sum() == pytest.approx(1.0, abs=1e-10)
        short = theory._poisson_pmf_truncated(lam, 25)
        assert len(short) == 26
        assert short.tobytes() == new[:26].tobytes()


def test_log_double_factorial():
    assert theory.log_double_factorial_odd(6) == pytest.approx(math.log(15), abs=1e-12)
    assert theory.log_double_factorial_odd(12) == pytest.approx(
        math.log(10395), abs=1e-12
    )
    assert theory.log_double_factorial_odd(2) == 0.0


def test_log_double_factorial_against_exact_and_gammaln():
    """log((ell-1)!!) by math.lgamma: within 2e-15 of the log of the exact
    integer for every even ell <= 400, and within 1e-14 of scipy's gammaln
    form at int32 scale."""
    for ell in range(0, 401, 2):
        exact = math.log(oracle.double_factorial_odd(ell))
        assert theory.log_double_factorial_odd(ell) == pytest.approx(exact, rel=2e-15, abs=0)
    for ell in (2**20, 2**30, 2**31 - 2, 1_234_567_890):
        half = ell // 2
        ref = float(gammaln(ell + 1) - half * math.log(2) - gammaln(half + 1))
        assert theory.log_double_factorial_odd(ell) == pytest.approx(ref, rel=1e-14, abs=0)


@pytest.mark.parametrize(
    "fn, args, message",
    [
        (montecarlo.sweep,
         (montecarlo.ExperimentConfig(seq=degseq.validate([2, 2])), [10]),
         "sweep needs a config with build targets"),
        (oracle.double_factorial_odd, (3,), "ell must be even and >= 0, got 3"),
        (oracle.double_factorial_odd, (-2,), "ell must be even and >= 0, got -2"),
        (theory.lambda_line, (0, P), "k must be >= 1, got 0"),
        (theory.lambda_cycle, (-1, P), "k must be >= 1, got -1"),
        (theory.log_double_factorial_odd, (5,), "ell must be even and >= 0, got 5"),
    ],
)
def test_out_of_domain_arguments_raise(fn, args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        fn(*args)


def test_log_count_connected_simple_hand_value():
    seq = degseq.validate([3, 3, 3, 3])
    params = degseq.limit_params(seq)
    assert (params.rho1, params.p2, params.d, params.nu) == (0.0, 0.0, 3.0, 2.0)
    # log(11!!) - 4*log(3!) - nu/2 - nu^2/4 = log 10395 - 4 log 6 - 2
    expect = math.log(10395) - 4 * math.log(6) - 2.0
    assert theory.log_count_connected_simple(seq, params) == pytest.approx(
        expect, abs=1e-10
    )
    assert expect == pytest.approx(0.08204232337988948, abs=1e-12)


def test_log_count_connected_below_simple_count():
    rng = np.random.default_rng(17)
    for _ in range(40):
        degs = rng.integers(1, 6, size=int(rng.integers(4, 60)))
        if degs.sum() % 2 != 0:
            degs = np.append(degs, 1)
        seq = degseq.validate(degs)
        params = degseq.limit_params(seq)
        if 2 * params.p2 >= params.d:
            continue
        connected = theory.log_count_connected_simple(seq, params)
        simple = theory.log_count_simple(seq, params)
        assert connected <= simple


def test_p_no_line2_exact_values():
    assert float(p_no_line2_fraction(degseq.validate([2, 2]))) == 1.0  # empty product
    seq = degseq.from_counts({1: 2, 2: 49})
    assert p_no_line2_fraction(seq) == Fraction(98, 99)
    assert float(p_no_line2_fraction(seq)) == pytest.approx(
        0.98989898989899, abs=1e-12
    )
    # [1,1,2]: product (2/3)*(1/1); the exhaustive oracle agrees exactly
    assert p_no_line2_fraction(degseq.validate([1, 1, 2])) == Fraction(2, 3)


def test_p_no_line2_infeasible():
    with pytest.raises(ValueError, match=r"need 2\*n1 <= ell"):
        p_no_line2_fraction(degseq.validate([1, 1]))  # 2*n1 = 4 > ell = 2


def test_no_line2_approaches_boundary_formula():
    # n1^2/ell fixed at 0.04: the exact product tends to exp(-0.02)
    target = math.exp(-0.02)
    gaps = []
    for ell in (10**2, 10**4, 10**6):
        n1 = round(math.sqrt(0.04 * ell))
        seq = degseq.from_counts({1: n1, 2: (ell - n1) // 2})
        assert seq.ell == ell
        gaps.append(abs(float(p_no_line2_fraction(seq)) - target))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-3


def test_predict_bundle():
    pred = theory.predict(P, x_max=30)
    d = pred.to_json_dict()
    assert d["p_connected"] == pytest.approx(0.6950632347977941, abs=1e-12)
    assert d["lambda_lines"]["2"] == pytest.approx(0.18518518518518517, abs=1e-12)
    assert d["lambda_cycles"]["1"] == pytest.approx(0.1111111111111111, abs=1e-12)
    assert d["paper_closed_form"] == pytest.approx(0.585565476190476, abs=1e-12)
    assert d["log_count_connected_simple"] is None

    infinite_nu = theory.predict(LimitParams(1.0, 0.3, 2.7, math.inf))
    assert infinite_nu.p_simple is None
    assert infinite_nu.p_connected_given_simple is None
    assert infinite_nu.p_connected == pytest.approx(0.6950632347977941, abs=1e-12)


# 0, moderate values, and powers of ten from subnormal to near the float max
_EXTREME = st.one_of(
    st.just(0.0),
    st.floats(0.0, 5.0),
    st.floats(-320.0, 308.0).map(lambda e: 10.0**e),
)


@settings(max_examples=300, deadline=None)
@given(rho1=_EXTREME, d=_EXTREME, share=st.floats(0.0, 0.5),
       nu=st.one_of(st.just(math.inf), _EXTREME))
def test_accepted_limit_params_predict_strict_json(rho1, d, share, nu):
    """LimitParams either names a bad field, or predict raises
    SeriesDivergence, or every predicted value is a finite float."""
    try:
        p = LimitParams(rho1=rho1, p2=share * d, d=d, nu=nu)
    except InvalidLimitParams:
        return
    try:
        pred = theory.predict(p, x_max=10)
    except SeriesDivergence:
        return
    json.dumps(pred.to_json_dict(), allow_nan=False)
