"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one pass/fail line
per criterion. The desk-scale experiment (n = 1e5, 2000 replicates) is
shared by criteria 3-8 and 10 and uses a fixed master seed, so the whole
gate is deterministic.
"""

import math
from fractions import Fraction

import pytest
from scipy.stats import chi2

from cmlab import degseq, generator, montecarlo, oracle, theory
from reference_oracle import p_no_line2_fraction

MASTER_SEED = 20260809
TARGET = degseq.LimitParams(rho1=1.0, p2=0.3, d=2.7, nu=16 / 9)

# spec-stated theory constants for the desk-scale experiment
P_CONNECTED = 0.695065
P_SIMPLE = 0.186581
P_CONNECTED_GIVEN_SIMPLE = 0.786394
EXPECTED_COMPLEMENT = 0.687075
LAMBDAS = {"C1": 0.111111, "C2": 0.012346, "L2": 0.185185, "L3": 0.041152}
S_MEAN = 0.888889
M_MEAN = 0.790123


def _line(criterion: str, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} | {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def desk_report():
    cfg = montecarlo.ExperimentConfig(
        targets=montecarlo.BuildTargets(n=10**5, rho1=1.0, p2=0.3, bulk_degree=3),
        replicates=2000,
        master_seed=MASTER_SEED,
        condition_on_simple=True,
        x_max=50,
        threads=1,
    )
    return montecarlo.run_experiment(cfg)


def test_criterion_1_oracle_exactness():
    law22 = oracle.exact_law(degseq.validate([2, 2]))
    law112 = oracle.exact_law(degseq.validate([1, 1, 2]))
    ok = law22.p_connected == Fraction(2, 3) and law112.p_connected == Fraction(2, 3)

    yields_ok = True
    for counts, ell in (({1: 2}, 2), ({2: 2}, 4), ({3: 2}, 6), ({2: 4}, 8),
                        ({1: 2, 2: 4}, 10), ({2: 6}, 12)):
        seq = degseq.from_counts(counts)
        assert seq.ell == ell
        got = sum(1 for _ in oracle.enumerate_matchings(seq))
        yields_ok &= got == oracle.double_factorial_odd(ell)

    # exact agreement between the enumeration law and the closed product.
    # The common value is 2/3 (one of the three matchings pairs the two
    # degree-1 vertices); see the decisions ledger for the spec's printed
    # value at this point.
    p_oracle = law112.prob("L2", 0)
    p_product = p_no_line2_fraction(degseq.validate([1, 1, 2]))
    agree = p_oracle == p_product == Fraction(2, 3)

    _line(
        "1",
        ok and yields_ok and agree,
        f"p_conn[2,2]={law22.p_connected}, p_conn[1,1,2]={law112.p_connected}, "
        f"yield counts exact, P(L2=0)={p_oracle}=product={p_product}",
    )


def _matching_chi2(raw: list[int], master: int, n_samples: int = 30_000) -> float:
    seq = degseq.validate(raw)
    matchings = list(oracle.enumerate_matchings(seq))
    counts = dict.fromkeys(matchings, 0)
    rng = generator.Seed(master).generator()
    for _ in range(n_samples):
        perm = rng.permutation(seq.ell).tolist()
        pairs = [
            (perm[i], perm[i + 1]) if perm[i] < perm[i + 1]
            else (perm[i + 1], perm[i])
            for i in range(0, len(perm), 2)
        ]
        counts[tuple(sorted(pairs))] += 1
    expected = n_samples / len(matchings)
    return sum((c - expected) ** 2 / expected for c in counts.values())


def test_criterion_2_generator_uniformity():
    crit = chi2.ppf(0.999, df=2)
    stat_a = _matching_chi2([2, 2], master=MASTER_SEED + 1)
    stat_b = _matching_chi2([1, 1, 2], master=MASTER_SEED + 2)
    _line(
        "2",
        stat_a < crit and stat_b < crit,
        f"chi2[2,2]={stat_a:.2f}, chi2[1,1,2]={stat_b:.2f} < {crit:.2f} (alpha=0.001)",
    )


def test_criterion_3_connectivity_probability(desk_report):
    freq = desk_report.connectivity["frequency"]
    dev = abs(freq - P_CONNECTED)
    _line("3", dev <= 0.02, f"|{freq:.4f} - {P_CONNECTED}| = {dev:.4f} <= 0.02")


def test_criterion_4_component_poisson_means(desk_report):
    ok = True
    details = []
    for stat, lam in LAMBDAS.items():
        entry = desk_report.stats[stat]
        dev = abs(entry["mean"] - lam)
        bound = 4 * entry["stderr"]
        ok &= dev <= bound
        details.append(f"{stat}: |{entry['mean']:.4f}-{lam}|={dev:.4f}<={bound:.4f}")
    _line("4", ok, "; ".join(details))


def test_criterion_5_simplicity_and_imperfections(desk_report):
    freq = desk_report.simplicity["frequency"]
    ok = abs(freq - P_SIMPLE) <= 0.02
    details = [f"simple |{freq:.4f}-{P_SIMPLE}|={abs(freq - P_SIMPLE):.4f}<=0.02"]
    for stat, mean in (("S", S_MEAN), ("M", M_MEAN)):
        entry = desk_report.stats[stat]
        dev = abs(entry["mean"] - mean)
        bound = 4 * entry["stderr"]
        ok &= dev <= bound
        details.append(f"{stat}: dev={dev:.4f}<={bound:.4f}")
    _line("5", ok, "; ".join(details))


def test_criterion_6_conditional_connectivity(desk_report):
    cond = desk_report.conditional_connectivity
    dev = abs(cond["frequency"] - P_CONNECTED_GIVEN_SIMPLE)
    _line(
        "6",
        dev <= 0.03,
        f"|{cond['frequency']:.4f} - {P_CONNECTED_GIVEN_SIMPLE}| = {dev:.4f} <= 0.03 "
        f"(accepted {cond['accepted']}/{desk_report.replicates})",
    )


def test_criterion_7_complement_distribution(desk_report):
    mean = desk_report.stats["complement"]["mean"]
    dev = abs(mean - EXPECTED_COMPLEMENT)
    ok_mean = dev <= 0.05

    pmf = theory.complement_pmf(TARGET, x_max=50)
    bucket_p = [float(pmf[0]), float(pmf[1]), float(pmf[2]), float(pmf[3]),
                float(1.0 - pmf[:4].sum())]
    h = desk_report.complement_histogram
    observed = [h[0], h[1], h[2], h[3], sum(h[4:])]
    expected = [desk_report.replicates * p for p in bucket_p]
    stat = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
    crit = chi2.ppf(0.999, df=len(observed) - 1)
    ok_gof = stat < crit

    # the alternative closed form is reported side by side; it evaluates to
    # 0.585565 here and disagrees with the series value the acceptance
    # binds to (documented mismatch, theory module)
    paper = theory.paper_closed_form_complement(TARGET)
    reported = desk_report.prediction.paper_closed_form
    ok_paper = (
        abs(paper - 0.585565476190476) < 1e-9 and reported is not None
    )

    _line(
        "7",
        ok_mean and ok_gof and ok_paper,
        f"mean |{mean:.4f}-{EXPECTED_COMPLEMENT}|={dev:.4f}<=0.05; "
        f"GOF chi2={stat:.2f}<{crit:.2f} on buckets 0,1,2,3,>=4; "
        f"series={EXPECTED_COMPLEMENT} vs paper_closed_form={paper:.6f} (both reported)",
    )


def test_criterion_8_high_degree_in_giant(desk_report):
    mean = desk_report.stats["deg3_outside_giant"]["mean"]
    _line("8", mean <= 0.01, f"mean deg3_outside_giant = {mean:.4f} <= 0.01")


def test_criterion_9_identity_suite():
    grid = []
    for rho1 in (0.0, 0.25, 0.7, 1.0, 2.0):
        for p2 in (0.0, 0.1, 0.25, 0.4, 0.6):
            for d in (1.5, 2.1, 2.7, 3.6):
                if 2 * p2 < 0.95 * d:
                    grid.append(degseq.LimitParams(rho1, p2, d, 2.0))
    assert len(grid) >= 100
    ok_identity = True
    for p in grid:
        lam_sum = sum(
            theory.lambda_cycle(k, p) + theory.lambda_line(k, p)
            for k in range(1, 3000)
        )
        ok_identity &= abs(theory.p_connected(p) - math.exp(-lam_sum)) <= 1e-9
        # at x_max = 0 every mean enters through the closed-form tail
        pmf0 = theory.complement_pmf(p, x_max=0)[0]
        ok_identity &= abs(pmf0 - theory.p_connected(p)) <= 1e-9

    seq100 = degseq.from_counts({1: 2, 2: 49})
    exact100 = float(p_no_line2_fraction(seq100))
    boundary = math.exp(-0.02)
    ok_values = abs(exact100 - 0.989899) < 1e-6 and abs(boundary - 0.980199) < 1e-6

    gaps = []
    for ell in (10**2, 10**4, 10**6):
        n1 = round(math.sqrt(0.04 * ell))
        seq = degseq.from_counts({1: n1, 2: (ell - n1) // 2})
        gaps.append(abs(float(p_no_line2_fraction(seq)) - boundary))
    ok_gap = gaps[0] > gaps[1] > gaps[2] and gaps[2] < 1e-3

    _line(
        "9",
        ok_identity and ok_values and ok_gap,
        f"identities hold to 1e-9 on {len(grid)} params; exact(n1=2,ell=100)="
        f"{exact100:.6f} vs boundary {boundary:.6f}; gap at n1^2/ell=0.04: "
        f"{gaps[0]:.2e} > {gaps[1]:.2e} > {gaps[2]:.2e} (<1e-3 at ell=1e6)",
    )


def test_criterion_10_thread_determinism(desk_report):
    cfg8 = montecarlo.ExperimentConfig(
        targets=montecarlo.BuildTargets(n=10**5, rho1=1.0, p2=0.3, bulk_degree=3),
        replicates=2000,
        master_seed=MASTER_SEED,
        condition_on_simple=True,
        x_max=50,
        threads=8,
    )
    report8 = montecarlo.run_experiment(cfg8)
    single = desk_report.to_json().encode()
    many = report8.to_json().encode()
    _line(
        "10",
        single == many,
        f"1-thread and 8-thread reports byte-identical ({len(single)} bytes)",
    )
