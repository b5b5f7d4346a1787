import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2_contingency, chisquare

from cmlab import census, degseq, generator, oracle
from cmlab.errors import DegreeMismatch

from reference_census import reference_census, reference_labels, run_exploration
from reference_oracle import enumerate_multigraphs
from test_degseq import degree_sequences
from test_oracle import SMALL_MULTISETS


def _graph(n, rows):
    return generator.Multigraph.from_edges(n, rows)


def test_double_edge_outcome():
    s = degseq.validate([2, 2])
    c = census.component_census(_graph(2, [(0, 1), (0, 1)]), s)
    assert c.cycle_counts == {2: 1}
    assert c.self_loops == 0 and c.multi_edges == 1
    assert c.giant_size == 2 and c.complement == 0
    assert census.is_connected(c) and not census.is_simple(c)


def test_two_self_loops_outcome():
    s = degseq.validate([2, 2])
    c = census.component_census(_graph(2, [(0, 0), (1, 1)]), s)
    assert c.cycle_counts == {1: 2}
    assert c.self_loops == 2 and c.multi_edges == 0
    assert c.giant_size == 1 and c.complement == 1
    assert not census.is_connected(c)


def test_line_plus_loop_outcome():
    s = degseq.validate([1, 1, 2])
    c = census.component_census(_graph(3, [(0, 1), (2, 2)]), s)
    assert c.line_counts == {2: 1}
    assert c.cycle_counts == {1: 1}
    assert c.complement == 1
    assert c.deg3_outside_giant == 0


def test_single_edge_connected():
    s = degseq.validate([1, 1])
    c = census.component_census(_graph(2, [(0, 1)]), s)
    assert c.line_counts == {2: 1}
    assert census.is_connected(c)
    assert census.is_simple(c)


def test_triple_edge_connected():
    s = degseq.validate([3, 3])
    c = census.component_census(_graph(2, [(0, 1), (0, 1), (0, 1)]), s)
    assert census.is_connected(c)
    assert c.multi_edges == 3  # C(3,2) pairs of parallel edges
    assert c.cycle_counts == {} and c.line_counts == {}


def test_longer_line_and_cycle():
    # path 0-2-3-1 (ends degree 1) plus a 2-cycle on 4,5
    s = degseq.validate([1, 1, 2, 2, 2, 2])
    g = _graph(6, [(0, 2), (2, 3), (1, 3), (4, 5), (4, 5)])
    c = census.component_census(g, s)
    assert c.line_counts == {4: 1}
    assert c.cycle_counts == {2: 1}
    assert c.giant_size == 4
    assert c.complement == 2
    assert c.other_outside_giant == 0


def test_giant_tie_breaks_by_lowest_vertex():
    # two components of size 2; the one containing vertex 0 wins
    s = degseq.validate([1, 1, 1, 1])
    c = census.component_census(_graph(4, [(0, 3), (1, 2)]), s)
    assert c.giant_size == 2
    assert c.complement == 2
    assert c.deg3_outside_giant == 0
    # a tie between a triple edge and a line: the one holding vertex 0 wins
    s = degseq.validate([3, 1, 1, 3])
    c = census.component_census(_graph(4, [(1, 2), (0, 3), (0, 3), (0, 3)]), s)
    assert c.deg3_outside_giant == 0 and c.other_outside_giant == 0
    s = degseq.validate([1, 3, 3, 1])
    c = census.component_census(_graph(4, [(1, 2), (0, 3), (1, 2), (1, 2)]), s)
    assert c.deg3_outside_giant == 2 and c.other_outside_giant == 2


def test_deg3_outside_giant_counted():
    # path component {0,1,2,3} is the giant; the degree-3 pair joined by a
    # triple edge sits outside it
    s = degseq.validate([1, 1, 2, 2, 3, 3])
    g = _graph(6, [(0, 2), (2, 3), (1, 3), (4, 5), (4, 5), (4, 5)])
    c = census.component_census(g, s)
    assert c.giant_size == 4
    assert c.deg3_outside_giant == 2
    assert c.other_outside_giant == 2


def test_degree_mismatch_detected():
    s = degseq.validate([2, 2])
    with pytest.raises(DegreeMismatch):
        census.component_census(_graph(2, [(0, 1), (1, 1)]), s)
    with pytest.raises(DegreeMismatch):
        census.component_census(_graph(3, [(0, 1), (1, 2)]), s)
    with pytest.raises(DegreeMismatch, match="vertex 2 is outside 0..1"):
        census.component_census(_graph(2, [(0, 1), (1, 2)]), s)


def test_census_json_field_names():
    s = degseq.validate([2, 2])
    c = census.component_census(_graph(2, [(0, 0), (1, 1)]), s)
    d = json.loads(json.dumps(c.to_json_dict()))
    assert d["cycle_counts"] == {"1": 2}
    assert d["self_loops"] == 2
    assert d["multi_edges"] == 0
    assert d["giant_size"] == 1
    assert d["complement"] == 1
    assert d["other_outside_giant"] == 0
    assert d["deg3_outside_giant"] == 0


def test_union_find_and_scipy_paths_agree(monkeypatch):
    """The plain-Python union-find and the search-then-label path give the
    same census on the same graphs, whichever side of the switch n falls."""
    rng = np.random.default_rng(99)
    graphs = []
    for _ in range(60):
        degs = rng.integers(1, 5, size=int(rng.integers(2, 400)))
        if degs.sum() % 2 != 0:
            degs = np.append(degs, 1)
        s = degseq.validate(degs)
        graphs.append((s, generator.sample(s, generator.Seed(int(rng.integers(2**63))))))
    results = []
    for switch in (0, 10**9):
        monkeypatch.setattr(census, "_UNION_FIND_MAX_N", switch)
        results.append([census.component_census(g, s) for s, g in graphs])
    assert results[0] == results[1]


@st.composite
def census_inputs(draw):
    """A shuffled degree sequence of up to 750 vertices, either side of the
    union-find switch at 128, and a sampling seed."""
    counts = draw(st.dictionaries(st.integers(1, 5), st.integers(1, 150), min_size=1))
    degs = [d for d, m in sorted(counts.items()) for _ in range(m)]
    if sum(degs) % 2:
        degs.append(1)
    order = draw(st.permutations(range(len(degs))))
    return [degs[i] for i in order], draw(st.integers(0, 2**63 - 1))


@settings(max_examples=120, deadline=None)
@given(census_inputs())
def test_census_equals_edge_list_reference(inputs):
    raw, seed = inputs
    s = degseq.validate(raw)
    g = generator.sample(s, generator.Seed(seed))
    assert census.component_census(g, s) == reference_census(g, s)


def _cycle(vertices):
    return [(u, v) for u, v in zip(vertices, vertices[1:] + vertices[:1])]


# hand-made graphs that a sampled graph rarely shows, on 300 vertices but
# one: (degrees, 0-based edges, census fields they must give); each runs
# through both census paths
_BIG_CASES = {
    # the maximum-degree vertices 0 and 1 form a 4-fold edge; the giant is
    # the 298-cycle the search did not reach
    "search_starts_outside_giant": (
        [4, 4] + [2] * 298,
        [(0, 1)] * 4 + _cycle(list(range(2, 300))),
        {"giant_size": 298, "cycle_counts": {298: 1}, "other_outside_giant": 2,
         "deg3_outside_giant": 2},
    ),
    # the search starts at the vertex with two loops; the leftover also
    # holds a double edge, a loop and a triple edge: duplicate matrix
    # entries that scipy must label
    "duplicates_among_leftover": (
        [3] * 290 + [2, 2, 2, 4, 3, 3] + [2] * 4,
        [(i, (i + 1) % 290) for i in range(290)]
        + [(i, (i + 145) % 290) for i in range(145)]
        + [(290, 291), (290, 291), (292, 292), (293, 293), (293, 293)]
        + [(294, 295)] * 3 + _cycle([296, 297, 298, 299]),
        {"giant_size": 290, "self_loops": 3, "multi_edges": 4,
         "cycle_counts": {2: 1, 1: 1, 4: 1}},
    ),
    # every vertex has degree 2 and the whole graph is one cycle
    "giant_is_a_cycle": (
        [2] * 300, _cycle(list(range(300))), {"cycle_counts": {300: 1}, "complement": 0},
    ),
    # 150 single edges of equal size; the one holding vertex 0 is the giant
    "all_components_tie": (
        [1] * 300, [(2 * i, 2 * i + 1) for i in range(150)][::-1],
        {"giant_size": 2, "line_counts": {2: 150}},
    ),
    # ties between a line and triple edges: the line holds vertex 0 and wins,
    # though the search starts at vertex 2 ...
    "tie_won_by_leftover": (
        [1, 1] + [3] * 298, [(0, 1)] + [(2 * i, 2 * i + 1) for i in range(1, 150)] * 3,
        {"other_outside_giant": 298, "deg3_outside_giant": 298},
    ),
    # ... and the triple edge holding vertex 0 wins where the search starts
    "tie_won_by_search": (
        [3, 3] + [1] * 298, [(0, 1)] * 3 + [(2 * i, 2 * i + 1) for i in range(1, 150)],
        {"other_outside_giant": 0, "line_counts": {2: 149}},
    ),
    # at n = 50,000 the vertex-pair keys min * n + max of the last vertices
    # pass 2**31: two loops at vertex 49,997 (the search's start) and a
    # triple edge joining 49,998 and 49,999. A wrapped loop key would no
    # longer be a multiple of n + 1, and the loops would count as parallel
    "keys_above_int32": (
        [2] * 49_997 + [4, 3, 3],
        _cycle(list(range(49_997))) + [(49_997, 49_997)] * 2 + [(49_998, 49_999)] * 3,
        {"giant_size": 49_997, "self_loops": 2, "multi_edges": 3,
         "cycle_counts": {49_997: 1}, "other_outside_giant": 3, "deg3_outside_giant": 3},
    ),
}


@pytest.mark.parametrize("name", sorted(_BIG_CASES))
def test_census_equals_reference_on_hand_made_graphs(name, monkeypatch):
    raw, rows, expected = _BIG_CASES[name]
    s = degseq.validate(raw)
    g = _graph(s.n, rows)
    for switch in (0, 10**9):  # the search path, then the union-find
        monkeypatch.setattr(census, "_UNION_FIND_MAX_N", switch)
        c = census.component_census(g, s)
        assert c == reference_census(g, s)
        assert {field: getattr(c, field) for field in expected} == expected


def test_search_path_hands_small_leftover_to_union_find(monkeypatch):
    """With the switch just below n the search path runs, and the vertices
    it missed, at most n - 1 of them, go through the union-find; at a
    switch of 0 (the tests above) scipy labels them instead."""
    cases = [(raw, rows) for raw, rows, _ in _BIG_CASES.values()]
    # the search reaches {1, 2, 3}, which ties in size with the leftover's
    # {4, 5, 6}; only the leftover's own vertex ids put it second
    cases.append(([2, 4, 3, 1, 3, 3, 4],
                  [(0, 0), (1, 2), (1, 2), (1, 2), (1, 3), (4, 5), (4, 5), (5, 6), (6, 4), (6, 6)]))
    graphs = [(degseq.validate(raw), _graph(len(raw), rows)) for raw, rows in cases]
    for counts in ({1: 300}, {2: 300}, {1: 30, 2: 100, 3: 170}):
        s = degseq.from_counts(counts)
        graphs += [(s, generator.sample(s, generator.Seed(31, i))) for i in range(10)]
    for s, g in graphs:
        monkeypatch.setattr(census, "_UNION_FIND_MAX_N", s.n - 1)
        assert census.component_census(g, s) == reference_census(g, s)


def test_reused_buffers_equal_fresh_census():
    """One pairing buffer and one set of census buffers per sequence, reused
    graph after graph, give the fresh-buffer census and the reference: on
    window graphs (a search misses a few lines and cycles), on leftovers
    above 128 vertices (scipy labels them) and on a graph whose search
    starts outside the giant."""
    raw, rows, _ = _BIG_CASES["search_starts_outside_giant"]
    hand_made = degseq.validate(raw)
    for s in (degseq.build_sequence(2000, 1.0, 0.3, 3), degseq.from_counts({1: 400, 2: 300}),
              hand_made):
        perm = np.empty(s.ell, dtype=np.int64)
        buffers = census.CensusBuffers(s)
        outcomes = set()
        for i in range(8):
            c = census.component_census(
                generator.sample(s, generator.Seed(17, i), out=perm), s, buffers)
            fresh = generator.sample(s, generator.Seed(17, i))
            assert c == census.component_census(fresh, s) == reference_census(fresh, s)
            outcomes.add((c.complement, c.self_loops, c.multi_edges))
        # the graphs differ, so stale buffers would show
        assert len(outcomes) > 1
        if s.counts == {1: 400, 2: 300}:
            # the searched component is at most the giant, so the search
            # missed more than 128 vertices
            assert min(complement for complement, _, _ in outcomes) > 128
    # the buffers last held a sampled graph of the sequence
    g = _graph(hand_made.n, rows)
    c = census.component_census(g, hand_made, buffers)
    assert c == reference_census(g, hand_made)
    assert c.giant_size == 298


def test_census_paths_agree_on_every_small_multigraph(monkeypatch):
    """Every multigraph of every degree multiset with ell <= 10: the
    union-find census equals the search-path census and the reference."""
    graphs = []
    for degrees in SMALL_MULTISETS:
        s = degseq.validate(degrees)
        graphs += [(s, generator.Multigraph(n=s.n, owners=s.half_edge_owners, pairing=p))
                   for p, _ in enumerate_multigraphs(s)]
    results = []
    for switch in (10**9, 0):
        monkeypatch.setattr(census, "_UNION_FIND_MAX_N", switch)
        results.append([census.component_census(g, s) for s, g in graphs])
    assert results[0] == results[1]
    assert results[0] == [reference_census(g, s) for s, g in graphs]


@pytest.mark.parametrize("counts", [{1: 40}, {1: 400}, {2: 40}, {2: 400}])
def test_census_equals_reference_on_tie_and_cycle_sequences(counts):
    s = degseq.from_counts(counts)
    for stream in range(20):
        g = generator.sample(s, generator.Seed(2024, stream))
        assert census.component_census(g, s) == reference_census(g, s)


@settings(max_examples=50, deadline=None)
@given(degree_sequences())
def test_census_partition(raw):
    s = degseq.validate(raw)
    g = generator.sample(s, generator.Seed(sum(raw) * 7919 + len(raw)))
    c = census.component_census(g, s)
    in_cycles_lines = sum(k * v for k, v in c.cycle_counts.items())
    in_cycles_lines += sum(k * v for k, v in c.line_counts.items())
    # the giant is itself either one of the counted cycles/lines or "other"
    assert in_cycles_lines + c.other_outside_giant in (s.n, s.n - c.giant_size)
    assert 1 not in c.line_counts
    assert (c.complement == 0) == census.is_connected(c)


def test_simple_iff_no_duplicate_or_loop_rescan():
    rng = np.random.default_rng(31337)
    for _ in range(300):
        degs = rng.integers(1, 6, size=int(rng.integers(2, 25)))
        if degs.sum() % 2 != 0:
            degs = np.append(degs, 1)
        s = degseq.validate(degs)
        g = generator.sample(s, generator.Seed(int(rng.integers(2**63))))
        c = census.component_census(g, s)
        rows = [tuple(e) for e in g.edges.tolist()]
        has_loop = any(u == v for u, v in rows)
        has_dup = len(set(rows)) != len(rows)
        assert census.is_simple(c) == (not has_loop and not has_dup)


# ---------------------------------------------------------------------------
# Exploration process
# ---------------------------------------------------------------------------


def test_exploration_starts_at_degree():
    s = degseq.from_counts({1: 2, 2: 3, 3: 4})
    for start in range(s.n):
        tr = run_exploration(s, generator.Seed(8, start), start=start)
        assert tr.s_values[0] == int(s.degrees[start])
        assert tr.neutral_counts[0] == s.ell - int(s.degrees[start])


def test_exploration_self_pair_hits_zero():
    s = degseq.validate([2, 2])
    # the start vertex's two half-edges pair together
    assert [0, 1] in np.sort(generator.sample_pairing(s, generator.Seed(400, 0))).tolist()
    tr = run_exploration(s, generator.Seed(400, 0), start=0)
    assert tr.s_values == [2, 0]
    assert tr.t_zero == 1
    assert tr.stop_reason == "hit-zero"
    assert tr.vertices_found == 1


def test_exploration_increments_in_allowed_set():
    allowed_base = {-2, -1}
    rng = np.random.default_rng(5150)
    for _ in range(120):
        degs = rng.integers(1, 6, size=int(rng.integers(2, 30)))
        if degs.sum() % 2 != 0:
            degs = np.append(degs, 1)
        s = degseq.validate(degs)
        allowed = allowed_base | {int(d) - 2 for d in s.degrees}
        tr = run_exploration(
            s, generator.Seed(int(rng.integers(2**63))), start=0,
            run_to_completion=True,
        )
        steps = np.diff(tr.s_values)
        assert set(steps.tolist()) <= allowed
        assert tr.stop_reason in {"hit-zero", "exhausted"}
        assert tr.t_zero == len(tr.s_values) - 1


def test_exploration_records_both_threshold_readings():
    s = degseq.build_sequence(50, 1.0, 0.2, 3)
    tr = run_exploration(s, generator.Seed(21, 3), start=0)
    assert tr.half_threshold == s.n / 2
    assert all(
        a >= b for a, b in zip(tr.neutral_counts, tr.neutral_counts[1:])
    )  # neutral count never increases
    if tr.stop_reason == "passed-t-half":
        assert tr.neutral_counts[-1] <= tr.half_threshold
        assert tr.t_half == len(tr.s_values) - 2


def test_exploration_component_size_matches_census():
    """Marginal of the start component size agrees between the on-the-fly
    exploration and sample+census, over 10k paired runs (alpha = 0.001)."""
    s = degseq.build_sequence(60, 1.0, 0.3, 3)
    runs = 10_000
    explored = Counter()
    censused = Counter()
    start = 0
    for i in range(runs):
        tr = run_exploration(
            s, generator.Seed(606, 2 * i + 1), start=start, run_to_completion=True
        )
        explored[tr.vertices_found] += 1
        g = generator.sample(s, generator.Seed(606, 2 * i))
        labels = reference_labels(g.n, g.edges)
        censused[int((labels == labels[start]).sum())] += 1

    buckets = [1, 2, 3, 4, 5]  # plus the ">5" bucket (the giant)
    def bucketize(counter):
        row = [counter.get(b, 0) for b in buckets]
        row.append(sum(v for k, v in counter.items() if k > buckets[-1]))
        return row

    table = np.array([bucketize(explored), bucketize(censused)])
    table = table[:, table.sum(axis=0) > 0]
    stat, pvalue, _, _ = chi2_contingency(table)
    assert pvalue > 0.001


def test_exploration_distribution_matches_oracle():
    """Exploration builds the same uniform pairing law as enumeration:
    P(component of a [1,1,2] leaf has size 2) is exactly 1/3."""
    s = degseq.validate([1, 1, 2])
    sizes = Counter()
    runs = 30_000
    for i in range(runs):
        tr = run_exploration(s, generator.Seed(55, i), start=0, run_to_completion=True)
        sizes[tr.vertices_found] += 1
    assert set(sizes) == {2, 3}
    freq2 = sizes[2] / runs
    se = (1 / 3 * 2 / 3 / runs) ** 0.5
    assert abs(freq2 - 1 / 3) < 4 * se


@pytest.mark.parametrize("counts", [{1: 10, 2: 30, 3: 60}, {1: 40, 2: 160}, {1: 2, 2: 3, 3: 2},
                                    {2: 7}, {3: 20, 4: 5}])
def test_exploration_explores_the_sampled_graph(counts):
    """An exploration run to completion finds exactly the start vertex's
    component in the graph generator.sample draws from the same seed."""
    s = degseq.from_counts(counts)
    for i in range(400):
        start = i % s.n
        tr = run_exploration(s, generator.Seed(77, i), start, run_to_completion=True)
        g = generator.sample(s, generator.Seed(77, i))
        labels = reference_labels(g.n, g.edges)
        assert tr.vertices_found == int((labels == labels[start]).sum())


def test_exploration_matches_exact_root_component_law():
    """The start vertex's component size over 20k explorations of
    {1:2,2:3,3:2} against its exact law (alpha = 0.001): the matchings in
    which vertex 0's component is a set T of s vertices number Conn(T) *
    (r - 1)!!, with r the half-edges outside T, summed over the sets T."""
    s = degseq.from_counts({1: 2, 2: 3, 3: 2})
    weights = Counter()
    tables = oracle._Tables(s.ell)
    for ways, piece, rest in oracle._root_pieces(tuple(s.degrees.tolist()), tables):
        if sum(piece) % 2 == 0:
            connected = sum(oracle._connected(piece, tables).values())
            weights[len(piece)] += ways * connected * oracle.double_factorial_odd(sum(rest))
    assert sum(weights.values()) == oracle.double_factorial_odd(s.ell)

    runs = 20_000
    sizes = Counter(
        run_exploration(s, generator.Seed(15, i), 0, run_to_completion=True).vertices_found
        for i in range(runs)
    )
    assert set(sizes) <= set(weights)
    support = sorted(weights)
    expected = [runs * weights[k] / oracle.double_factorial_odd(s.ell) for k in support]
    assert chisquare([sizes[k] for k in support], expected).pvalue > 0.001
