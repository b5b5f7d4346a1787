from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from cmlab import degseq, generator, oracle, theory
from cmlab.errors import TooLarge
from reference_oracle import reference_law


def test_double_factorial():
    assert [oracle.double_factorial_odd(ell) for ell in (2, 4, 6, 8, 10, 12)] == [
        1, 3, 15, 105, 945, 10395,
    ]


@pytest.mark.parametrize(
    "counts,ell",
    [
        ({1: 2}, 2),
        ({2: 2}, 4),
        ({3: 3, 1: 1}, 10),  # mixed degrees
        ({3: 2}, 6),
        ({2: 4}, 8),
        ({1: 2, 2: 5}, 12),
    ],
)
def test_enumeration_yield_counts(counts, ell):
    seq = degseq.from_counts(counts)
    assert seq.ell == ell
    matchings = list(oracle.enumerate_matchings(seq))
    assert len(matchings) == oracle.double_factorial_odd(ell)
    assert len(set(matchings)) == len(matchings)  # each exactly once
    for m in matchings:
        assert all(a < b for a, b in m)
        assert [a for a, _ in m] == sorted(a for a, _ in m)


def test_enumeration_cap():
    seq = degseq.from_counts({3: 6})  # ell = 18
    with pytest.raises(TooLarge):
        list(oracle.enumerate_matchings(seq))
    # raising the cap is allowed
    assert sum(1 for _ in oracle.enumerate_matchings(degseq.from_counts({2: 7}),
                                                     cap=18)) == 135135


def test_exact_law_two_deg2():
    law = oracle.exact_law(degseq.validate([2, 2]))
    assert law.total_matchings == 3
    assert law.p_connected == Fraction(2, 3)
    assert law.p_simple == 0
    assert law.expectation("S") == Fraction(2, 3)
    assert law.expectation("M") == Fraction(2, 3)
    assert law.expectation("complement") == Fraction(1, 3)
    assert sum(law.joint_pmf.values()) == 1


def test_exact_law_line_seq():
    law = oracle.exact_law(degseq.validate([1, 1, 2]))
    assert law.p_connected == Fraction(2, 3)
    assert law.expectation("L2") == Fraction(1, 3)
    assert law.expectation("L3") == Fraction(2, 3)
    assert law.expectation("C1") == Fraction(1, 3)


def test_exact_law_trivial_edge():
    law = oracle.exact_law(degseq.validate([1, 1]))
    assert law.p_connected == 1
    assert law.p_simple == 1
    assert law.total_matchings == 1


def test_exact_law_two_deg3():
    law = oracle.exact_law(degseq.validate([3, 3]))
    assert law.total_matchings == 15
    assert law.p_connected == 1
    # 6 of 15 matchings give the triple edge; none are simple
    assert law.p_simple == 0
    assert law.prob("M", 3) == Fraction(6, 15)
    assert law.prob("S", 2) == Fraction(9, 15)


def test_line2_probability_matches_exact_product():
    seq = degseq.validate([1, 1, 2])
    law = oracle.exact_law(seq)
    assert law.prob("L2", 0) == theory.p_no_line2_fraction(seq) == Fraction(2, 3)
    # consistency with the expectation: L2 is 0/1-valued here
    assert law.prob("L2", 1) == law.expectation("L2") == Fraction(1, 3)


def test_factorial_moments():
    seq = degseq.validate([2, 2])
    law = oracle.exact_law(seq)
    assert oracle.exact_factorial_moment(seq, {"C1": 1}, law=law) == Fraction(2, 3)
    assert oracle.exact_factorial_moment(seq, {"C1": 2}, law=law) == Fraction(2, 3)
    assert oracle.exact_factorial_moment(seq, {}, law=law) == 1
    assert oracle.exact_factorial_moment(seq, {"C1": 1, "S": 1}, law=law) == Fraction(
        4, 3
    )  # only the two-self-loop outcome contributes: (1/3) * 2 * 2
    mixed = oracle.exact_factorial_moment(seq, {"C2": 1, "M": 1}, law=law)
    assert mixed == Fraction(2, 3)


def test_factorial_moment_rejects_negative_order():
    with pytest.raises(ValueError):
        oracle.exact_factorial_moment(degseq.validate([1, 1]), {"S": -1})


def _canonical_matching(perm):
    pairs = [
        (perm[i], perm[i + 1]) if perm[i] < perm[i + 1] else (perm[i + 1], perm[i])
        for i in range(0, len(perm), 2)
    ]
    return tuple(sorted(pairs))


@pytest.mark.parametrize(
    "raw,master",
    [([2, 2], 101), ([1, 1, 2], 102), ([3, 3], 103), ([1, 1, 2, 2], 104)],
)
def test_monte_carlo_agrees_with_exact_law(raw, master):
    """1e5 samples land within 4 SE of every exact outcome probability."""
    seq = degseq.validate(raw)
    law = oracle.exact_law(seq)
    census_of = {}
    for matching in oracle.enumerate_matchings(seq):
        from cmlab.census import component_census

        g = generator.Multigraph(n=seq.n, owners=seq.half_edge_owners,
                                 pairing=np.array(matching))
        census_of[matching] = oracle.census_key(component_census(g, seq))

    n_samples = 100_000
    rng = generator.Seed(master).generator()
    freq = Counter()
    for _ in range(n_samples):
        perm = rng.permutation(seq.ell).tolist()
        freq[census_of[_canonical_matching(perm)]] += 1

    for key, p in law.joint_pmf.items():
        phat = freq[key] / n_samples
        se = float(p * (1 - p) / n_samples) ** 0.5
        assert abs(phat - float(p)) <= 4 * se + 1e-12, key
    # connectivity and simplicity frequencies inherit the same bound
    conn = sum(f for k, f in freq.items() if dict(k).get("complement") == 0)
    pc = float(law.p_connected)
    assert abs(conn / n_samples - pc) <= 4 * (pc * (1 - pc) / n_samples) ** 0.5 + 1e-12


def test_json_rationals():
    law = oracle.exact_law(degseq.validate([2, 2]))
    d = law.to_json_dict()
    assert d["p_connected"] == "2/3"
    assert d["total_matchings"] == 3
    assert d["census_expectations"]["S"] == "2/3"


def _partitions(total, largest=None):
    """Every multiset of degrees >= 1 summing to `total`, descending."""
    largest = total if largest is None else largest
    if total == 0:
        yield []
        return
    for first in range(min(total, largest), 0, -1):
        for rest in _partitions(total - first, first):
            yield [first] + rest


SMALL_MULTISETS = [p for ell in range(2, 11, 2) for p in _partitions(ell)]


@pytest.mark.parametrize("degrees", SMALL_MULTISETS, ids=str)
def test_exact_law_equals_matching_walk_small(degrees):
    """Weighted multigraphs give the very law of the matching walk, with
    the vertices laid out in descending and in ascending degree order."""
    for seq in (degseq.validate(degrees), degseq.validate(degrees[::-1])):
        assert oracle.exact_law(seq) == reference_law(seq)


@pytest.mark.parametrize(
    "counts",
    [{1: 2, 2: 3, 3: 2}, {2: 6}, {4: 3}, {1: 4, 3: 4}],
    ids=str,
)
def test_exact_law_equals_matching_walk(counts):
    seq = degseq.from_counts(counts)
    assert oracle.exact_law(seq) == reference_law(seq)


@pytest.mark.parametrize(
    "counts,graphs",
    [({1: 2, 2: 3, 3: 2}, 1265), ({2: 7}, 2461), ({2: 2}, 2), ({3: 2}, 2)],
    ids=str,
)
def test_one_census_per_multigraph(counts, graphs, monkeypatch):
    seq = degseq.from_counts(counts)
    found = list(oracle.enumerate_multigraphs(seq))
    assert len(found) == graphs
    assert len({tuple(sorted(map(tuple, seq.half_edge_owners[p].tolist())))
                for p, _ in found}) == graphs
    calls = []
    census = oracle.component_census

    def counting_census(g, s):
        calls.append(g)
        return census(g, s)

    monkeypatch.setattr(oracle, "component_census", counting_census)
    oracle.exact_law(seq)
    assert len(calls) == graphs
    # every pairing shares the sequence's layout, so no degree re-check
    assert all(g.owners is seq.half_edge_owners for g in calls)


@pytest.mark.parametrize(
    "counts",
    [{1: 2}, {2: 2}, {3: 3, 1: 1}, {1: 2, 2: 5}, {1: 2, 2: 3, 3: 2}, {2: 7}, {4: 3},
     {1: 4, 3: 4}, {2: 8}, {4: 4}, {1: 1, 15: 1}],
    ids=str,
)
def test_multigraph_weights_sum_to_all_matchings(counts):
    seq = degseq.from_counts(counts)
    weights = [w for _, w in oracle.enumerate_multigraphs(seq)]
    assert all(w >= 1 for w in weights)
    assert sum(weights) == oracle.double_factorial_odd(seq.ell)


def test_exact_law_cap_raises_before_any_census(monkeypatch):
    def no_census(g, s):
        raise AssertionError("census ran before the cap check")

    monkeypatch.setattr(oracle, "component_census", no_census)
    seq = degseq.from_counts({2: 9})  # ell = 18
    with pytest.raises(TooLarge, match=r"ell=18 exceeds the enumeration cap 16"):
        oracle.exact_law(seq, cap=16)
    with pytest.raises(TooLarge):
        oracle.enumerate_multigraphs(seq, cap=16)  # raises on the call itself
