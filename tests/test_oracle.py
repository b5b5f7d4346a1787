import hashlib
import math
import random
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from cmlab import census, cli, degseq, generator, oracle
from cmlab.census import component_census
from cmlab.errors import InvalidConfig, TooLarge
from cmlab.oracle import census_key
from reference_census import reference_census
from reference_oracle import (
    enumerate_multigraphs,
    exact_factorial_moment,
    p_no_line2_fraction,
    reference_law,
)


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
    assert law.prob("L2", 0) == p_no_line2_fraction(seq) == Fraction(2, 3)
    # consistency with the expectation: L2 is 0/1-valued here
    assert law.prob("L2", 1) == law.expectation("L2") == Fraction(1, 3)
    # and on every small multiset where the product is defined
    checked = 0
    for degrees in SMALL_MULTISETS:
        seq = degseq.validate(degrees)
        if 2 * seq.n1 <= seq.ell:
            assert oracle.exact_law(seq).prob("L2", 0) == p_no_line2_fraction(seq), degrees
            checked += 1
    assert checked > 20


def test_factorial_moments():
    seq = degseq.validate([2, 2])
    law = oracle.exact_law(seq)
    assert exact_factorial_moment(seq, {"C1": 1}, law=law) == Fraction(2, 3)
    assert exact_factorial_moment(seq, {"C1": 2}, law=law) == Fraction(2, 3)
    assert exact_factorial_moment(seq, {}, law=law) == 1
    assert exact_factorial_moment(seq, {"C1": 1, "S": 1}, law=law) == Fraction(
        4, 3
    )  # only the two-self-loop outcome contributes: (1/3) * 2 * 2
    mixed = exact_factorial_moment(seq, {"C2": 1, "M": 1}, law=law)
    assert mixed == Fraction(2, 3)


def test_factorial_moment_rejects_negative_order():
    with pytest.raises(ValueError):
        exact_factorial_moment(degseq.validate([1, 1]), {"S": -1})


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
        g = generator.Multigraph(n=seq.n, owners=seq.half_edge_owners,
                                 pairing=np.array(matching))
        census_of[matching] = census_key(component_census(g, seq))

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
    """The counted law is the very law of the matching walk, with the
    vertices laid out in descending, ascending and one shuffled order:
    the order enters only through the giant's tie-break."""
    shuffled = list(degrees)
    random.Random(str(degrees)).shuffle(shuffled)
    for order in (degrees, degrees[::-1], shuffled):
        seq = degseq.validate(order)
        assert oracle.exact_law(seq) == reference_law(seq)


@pytest.mark.parametrize(
    "counts",
    [{1: 2, 2: 3, 3: 2}, {2: 6}, {4: 3}, {1: 4, 3: 4}],
    ids=str,
)
def test_exact_law_equals_matching_walk(counts):
    seq = degseq.from_counts(counts)
    assert oracle.exact_law(seq) == reference_law(seq)


def _summary(seq, pairing):
    """A multigraph's summary: self-loops, parallel-edge pairs, the
    giant's signature (the first largest component in lowest-vertex
    order) and the other signatures, sorted."""
    rows = census._components(seq.degrees, seq.half_edge_owners[pairing])
    giant = max(rows, key=lambda row: row[1])
    others = tuple(sorted(row[1:4] for row in rows if row is not giant))
    g = generator.Multigraph(n=seq.n, owners=seq.half_edge_owners, pairing=pairing)
    ref = reference_census(g, seq)
    return ref.self_loops, ref.multi_edges, giant[1:4], others


@pytest.mark.parametrize(
    "counts,graphs",
    [({1: 2, 2: 3, 3: 2}, 1265), ({2: 7}, 2461), ({2: 2}, 2), ({3: 2}, 2)],
    ids=str,
)
def test_one_census_per_multigraph(counts, graphs, monkeypatch):
    """Each multigraph comes out of the reference walk once, its summary
    fixes its census, and exact_law classifies each distinct component
    structure (the giant's and the other signatures) once, with no
    self-loops or parallel edges."""
    seq = degseq.from_counts(counts)
    found = list(enumerate_multigraphs(seq))
    assert len(found) == graphs
    assert len({tuple(sorted(map(tuple, seq.half_edge_owners[p].tolist())))
                for p, _ in found}) == graphs
    structures = set()
    for pairing, _ in found:
        loops, multi, giant, others = _summary(seq, pairing)
        rows = [(0, *giant, 1)] + [(i, *sig, 1) for i, sig in enumerate(others, 1)]
        g = generator.Multigraph(n=seq.n, owners=seq.half_edge_owners, pairing=pairing)
        assert census_key(component_census(g, seq)) == census_key(
            census._classify(seq, loops, multi, rows))
        structures.add((giant, others))

    calls = []
    classify = oracle._classify

    def counting_classify(s, loops, multi, rows):
        assert all(row[4] == 1 for row in rows)
        assert loops == multi == 0
        calls.append((rows[0][1:4], tuple(sorted(r[1:4] for r in rows[1:]))))
        return classify(s, loops, multi, rows)

    monkeypatch.setattr(oracle, "_classify", counting_classify)
    oracle.exact_law(seq)
    assert sorted(calls) == sorted(structures)


@pytest.mark.parametrize(
    "counts",
    [{1: 2}, {2: 2}, {3: 3, 1: 1}, {1: 2, 2: 5}, {1: 2, 2: 3, 3: 2}, {2: 7}, {4: 3},
     {1: 4, 3: 4}, {2: 8}, {4: 4}, {1: 1, 15: 1}],
    ids=str,
)
def test_multigraph_weights_sum_to_all_matchings(counts):
    seq = degseq.from_counts(counts)
    weights = [w for _, w in enumerate_multigraphs(seq)]
    assert all(w >= 1 for w in weights)
    assert sum(weights) == oracle.double_factorial_odd(seq.ell)


def test_exact_law_cap_raises_before_any_census(monkeypatch):
    def no_count(*args):
        raise AssertionError("counting began before the cap check")

    monkeypatch.setattr(oracle, "_summaries", no_count)
    seq = degseq.from_counts({2: 9})  # ell = 18
    with pytest.raises(TooLarge, match=r"ell=18 exceeds the enumeration cap 16"):
        oracle.exact_law(seq, cap=16)


def test_exact_law_cap_beyond_str_is_named_by_magnitude():
    """A cap too long for str() (over 4300 digits) still gives the cap
    message, with the cap's magnitude."""
    with pytest.raises(TooLarge, match=r"^ell=2 exceeds the enumeration cap about -1e5000$"):
        oracle.exact_law(degseq.validate([1, 1]), cap=-10**5000)


def test_exact_law_tables_past_the_budget_raise():
    """The cap bounds half-edges, not tables: with a raised cap,
    {1:4,2:8,3:8} (ell 44) would store about two million (S, M) entries,
    and stops at the budget."""
    with pytest.raises(TooLarge, match=r"pass the budget 500000$"):
        oracle.exact_law(degseq.from_counts({1: 4, 2: 8, 3: 8}), cap=44)


@pytest.mark.parametrize("cap", [2.5, "16", True, None])
@pytest.mark.parametrize("entry", [oracle.exact_law, oracle.enumerate_matchings])
def test_cap_must_be_an_integer(entry, cap):
    with pytest.raises(InvalidConfig, match=rf"^cap must be an integer, got {re.escape(repr(cap))}$"):
        entry(degseq.validate([1, 1]), cap=cap)


def test_exact_law_keeps_no_tables_between_calls(monkeypatch):
    """A second call on the same sequence counts everything again."""
    calls = []
    matchings = oracle._matchings

    def counting_matchings(free, tables):
        calls.append(free)
        return matchings(free, tables)

    monkeypatch.setattr(oracle, "_matchings", counting_matchings)
    seq = degseq.from_counts({1: 2, 2: 3, 3: 2})
    first = oracle.exact_law(seq)
    ran = len(calls)
    assert ran > 0
    assert oracle.exact_law(seq) == first
    assert len(calls) == 2 * ran


# sha256 of `cmlab enumerate --counts C [--cap N]` stdout, recorded while exact_law
# still walked every multigraph; the report must not change by a byte. The
# last two at the default cap lie at ell = 16, where the two ways of
# counting differ most. The ones with `--cap` lie beyond any walk's reach:
# the first two were recorded while exact_law counted per (S, M) summary,
# the last (30,175 outcomes, key stride 137) while its tables were keyed
# by (S, M) pairs
ENUMERATE_SHA256 = {
    "1:2,2:3,3:2": "1e72d6c78223bf3b8d393184632d6df94600d0a0a4860369c51c7d8dd13a2909",
    "2:7": "dc61ad2f68e617683e9de245109a537ce9b5f0a3c7c80e89b536f60660ea0cf9",
    "2:8": "88a37bc0218c30cff454634332e3e39e7f60e296bfbe98e83e1f8b194c883d9b",
    "1:4,3:4": "48f1d2e13f592049db8f5db814f1e1774c691d43a7ea2ab8d6ed2830ba810426",
    "4:4": "0edd2eab8bf6437bfc70e23a9c4f3bbdeb870fa4fc0edde79eac60d84af3de09",
    "1:16": "62903525c51afab1a4fdb8acbf4d38ccb31849c337b5fad8e2ce9e02d0d5477e",
    "1:8,2:4": "758a37e29bd9ad4d7e429c3a849422e96486fc84a7e97430296a2c15234be31a",
    "3:10 --cap 30": "5fdc7852220d7feb2a1bef126876747a90f4a9396acd6f28ab545af52f80e115",
    "1:2,2:4,3:6 --cap 28": "8d71abe51282f2a41b91c7c1184d5c0395d4afe513f65162b20983c54145e441",
    "1:4,2:6,3:6 --cap 34": "7b257630c9b6b50648231a36efa89dc81b080377e2a34acf75c7761ad2565a92",
}


@pytest.mark.parametrize("args", ENUMERATE_SHA256)
def test_enumerate_report_bytes_pinned(args, capsys):
    assert cli.run(["enumerate", "--counts", *args.split()]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_SHA256[args]


@pytest.mark.parametrize(
    "counts",
    # every pinned law, and the largest of each raised-cap family below
    [args.split()[0] for args in ENUMERATE_SHA256] + ["12:2", "2:12", "1:2,2:11"])
def test_tested_laws_fill_under_half_the_budget(counts):
    """The budget leaves room: no law the tests compute comes near it."""
    seq = degseq.from_counts(cli._degree_counts(counts))
    tables = oracle._Tables(seq.ell)
    oracle._summaries(tuple(seq.degrees.tolist()), tables)
    assert 0 < tables.entries < oracle.TABLE_BUDGET // 2


@pytest.mark.parametrize("k, cap", [(k, oracle.HALF_EDGE_CAP) for k in range(2, 9)]
                         + [(10, 20), (12, 24)])
def test_two_vertex_loops_and_parallel_pairs_law(k, cap):
    """{k:2}: r edges join the two vertices and each keeps (k - r)/2
    self-loops, so S = k - r and M = C(r, 2), in C(k, r)^2 r! ((k-r-1)!!)^2
    of the (2k-1)!! matchings. At r = k, M = C(k, 2) is the most
    parallel-edge pairs of any matching of 2k half-edges: one less than
    the stride of exact_law's (S, M) keys."""
    law = oracle.exact_law(degseq.from_counts({k: 2}), cap=cap)
    got = Counter()
    for key, p in law.joint_pmf.items():
        stats = dict(key)
        got[stats["S"], stats["M"]] += p
    total = oracle.double_factorial_odd(2 * k)
    assert got == {
        (k - r, math.comb(r, 2)): Fraction(
            math.comb(k, r) ** 2 * math.factorial(r) * oracle.double_factorial_odd(k - r) ** 2,
            total)
        for r in range(k % 2, k + 1, 2)
    }
    assert max(m for _, m in got) == oracle._Tables(2 * k).stride - 1


@pytest.mark.parametrize("k", range(2, 13))
def test_all_degree_two_connected_closed_form(k):
    """{2:k} is connected iff it is one k-cycle: 2^(k-1) (k-1)! of the
    (2k-1)!! matchings. k >= 9 lies above the default cap, and {2:12}
    has 171,453,343 multigraphs."""
    law = oracle.exact_law(degseq.from_counts({2: k}), cap=2 * k)
    assert law.p_connected == Fraction(2 ** (k - 1) * math.factorial(k - 1),
                                       oracle.double_factorial_odd(2 * k))
    if k == 7:
        assert law.p_connected == Fraction(1024, 3003)


@pytest.mark.parametrize("k", range(12))
def test_single_path_connected_closed_form(k):
    """{1:2, 2:k} is connected iff it is one path through all k degree-2
    vertices: k! orders times 2^k ways to enter each, of the (2k+1)!!
    matchings."""
    law = oracle.exact_law(degseq.validate([1, 1] + [2] * k), cap=2 * k + 2)
    assert law.p_connected == Fraction(math.factorial(k) * 2 ** k,
                                       oracle.double_factorial_odd(2 * k + 2))


def test_all_degree_one_at_the_cap_is_a_point_mass():
    """{1:16}: every one of the 2,027,025 matchings is its own multigraph,
    eight two-vertex lines; the giant is one of them."""
    law = oracle.exact_law(degseq.from_counts({1: 16}))
    assert law.total_matchings == 2_027_025
    assert len(law.joint_pmf) == 1
    assert law.prob("L2", 8) == law.prob("complement", 14) == 1
    assert law.p_simple == 1
    assert law.p_connected == 0


@pytest.mark.parametrize(
    "n,simple,connected",
    [(4, 1, 1), (6, 70, 70), (8, 19355, 19320), (10, 11180820, 11166120)],
)
def test_cubic_simple_graph_counts(n, simple, connected):
    """The labelled simple cubic graphs on n vertices (OEIS A002829) and
    the connected ones (A004109), read off the law beyond the cap: each
    simple graph is 6^n of the (3n-1)!! matchings."""
    law = oracle.exact_law(degseq.from_counts({3: n}), cap=3 * n)
    per_graph = Fraction(6 ** n, oracle.double_factorial_odd(3 * n))
    assert law.p_simple / per_graph == simple
    p_connected_simple = sum(
        (p for key, p in law.joint_pmf.items()
         if dict(key)["S"] == dict(key)["M"] == dict(key)["complement"] == 0),
        Fraction(0),
    )
    assert p_connected_simple / per_graph == connected
