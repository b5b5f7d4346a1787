from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from scipy.stats import chi2

from cmlab import degseq, generator, oracle
from cmlab.errors import InvalidConfig

from test_degseq import degree_sequences


def test_single_edge_sequence():
    s = degseq.validate([1, 1])
    g = generator.sample(s, generator.Seed(123))
    assert g.edges.tolist() == [[0, 1]]


def test_two_vertex_degree2_outcomes():
    s = degseq.validate([2, 2])
    seen = set()
    for stream in range(200):
        g = generator.sample(s, generator.Seed(9, stream))
        key = tuple(sorted(map(tuple, g.edges.tolist())))
        seen.add(key)
    # either two self-loops or a double edge, nothing else
    assert seen == {((0, 0), (1, 1)), ((0, 1), (0, 1))}


def test_triple_sequence_always_connected_shapes():
    s = degseq.validate([3, 3])
    for stream in range(150):
        g = generator.sample(s, generator.Seed(11, stream))
        loops = int((g.edges[:, 0] == g.edges[:, 1]).sum())
        cross = int((g.edges[:, 0] != g.edges[:, 1]).sum())
        # triple edge, or one edge plus one self-loop on each vertex
        assert (loops, cross) in {(0, 3), (2, 1)}


def test_seed_determinism_across_runs_and_threads():
    s = degseq.build_sequence(500, 1.0, 0.3, 3)
    seed = generator.Seed(77, 5)
    ref = generator.sample(s, seed).edges
    again = generator.sample(s, seed).edges
    assert np.array_equal(ref, again)

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: generator.sample(s, seed).edges, range(16)))
    for r in results:
        assert np.array_equal(ref, r)


def test_streams_differ():
    s = degseq.build_sequence(100, 1.0, 0.3, 3)
    a = generator.sample(s, generator.Seed(1, 0)).edges
    b = generator.sample(s, generator.Seed(1, 1)).edges
    assert not np.array_equal(a, b)


def test_pairing_buffer_gives_the_fresh_pairing():
    """One buffer reused for consecutive streams, each time still holding
    the previous permutation, gives the pairing a fresh draw gives: the
    ids of `rng.permutation(ell)`, as before the in-place fill."""
    s = degseq.from_counts({1: 40, 2: 30, 3: 30})
    buf = np.empty(s.ell, dtype=np.int64)
    for i in range(6):
        pairing = generator.sample_pairing(s, generator.Seed(5, i), out=buf)
        assert np.shares_memory(pairing, buf)
        assert np.array_equal(pairing, generator.sample_pairing(s, generator.Seed(5, i)))
        perm = generator.Seed(5, i).generator().permutation(s.ell)
        assert np.array_equal(pairing, perm.reshape(-1, 2))
        g = generator.sample(s, generator.Seed(5, i), out=buf)
        assert np.array_equal(g.edges, generator.sample(s, generator.Seed(5, i)).edges)


@pytest.mark.parametrize("buf", [np.empty(10, dtype=np.int64), np.empty(11, dtype=np.int64),
                                 np.empty(12, dtype=np.int32)])
def test_pairing_buffer_of_wrong_size_or_type_rejected(buf):
    s = degseq.validate([2, 2, 3, 3, 2])
    with pytest.raises(ValueError, match="int64 array of 12 entries"):
        generator.sample_pairing(s, generator.Seed(1), out=buf)


def test_seed_range_validated():
    with pytest.raises(ValueError):
        generator.Seed(-1)
    with pytest.raises(ValueError):
        generator.Seed(0, 2**64)


@pytest.mark.parametrize("field,args", [("master", (-1,)), ("stream", (0, -1))])
def test_seed_out_of_range_is_a_cmlab_error_giving_the_value(field, args):
    with pytest.raises(InvalidConfig,
                       match=rf"^{field} must be a 64-bit unsigned integer, got -1$"):
        generator.Seed(*args)


@pytest.mark.parametrize("field,args,value", [("master", (2.9,), "2.9"),
                                              ("stream", (1, 0.5), "0.5"),
                                              ("master", ("3",), "3"),
                                              ("master", (True,), "True")])
def test_seed_non_integer_is_a_cmlab_error_giving_the_value(field, args, value):
    with pytest.raises(InvalidConfig,
                       match=rf"^{field} must be a 64-bit unsigned integer, got {value}$"):
        generator.Seed(*args)


def test_seed_takes_numpy_integers():
    s = degseq.validate([2, 2, 3, 3, 2])
    assert np.array_equal(generator.sample_pairing(s, generator.Seed(np.int64(7))),
                          generator.sample_pairing(s, generator.Seed(7)))
    assert np.array_equal(
        generator.sample_pairing(s, generator.Seed(np.uint64(7), np.int32(2))),
        generator.sample_pairing(s, generator.Seed(7, 2)))


@settings(max_examples=50, deadline=None)
@given(degree_sequences())
def test_degree_exactness(raw):
    s = degseq.validate(raw)
    g = generator.sample(s, generator.Seed(hash(tuple(raw)) % 2**63))
    assert np.array_equal(g.realized_degrees(), np.asarray(s.degrees))
    assert len(g.edges) == s.ell // 2


def test_degree_exactness_many_random_pairs():
    rng = np.random.default_rng(4242)
    for _ in range(1000):
        degs = rng.integers(1, 7, size=int(rng.integers(1, 30)))
        if degs.sum() % 2 != 0:
            degs = np.append(degs, 1)
        s = degseq.validate(degs)
        g = generator.sample(s, generator.Seed(int(rng.integers(2**63))))
        assert np.array_equal(g.realized_degrees(), np.asarray(s.degrees))


def _canonical_matching(perm):
    pairs = [
        (perm[i], perm[i + 1]) if perm[i] < perm[i + 1] else (perm[i + 1], perm[i])
        for i in range(0, len(perm), 2)
    ]
    return tuple(sorted(pairs))


def _matching_frequencies(seq, n_samples, master):
    rng = generator.Seed(master).generator()
    counts = Counter()
    for _ in range(n_samples):
        perm = rng.permutation(seq.ell).tolist()
        counts[_canonical_matching(perm)] += 1
    return counts


@pytest.mark.parametrize("raw,master", [([2, 2], 2026), ([1, 1, 2], 2027)])
def test_uniform_over_matchings(raw, master):
    """Chi-square over the 3 matchings at significance 0.001."""
    seq = degseq.validate(raw)
    matchings = list(oracle.enumerate_matchings(seq))
    assert len(matchings) == 3
    n_samples = 30_000
    counts = _matching_frequencies(seq, n_samples, master)
    assert set(counts) <= set(matchings)
    expected = n_samples / len(matchings)
    stat = sum((counts[m] - expected) ** 2 / expected for m in matchings)
    assert stat < chi2.ppf(0.999, df=len(matchings) - 1)


def test_edge_dump_round_trip():
    s = degseq.validate([1, 2, 3, 2, 2])
    g = generator.sample(s, generator.Seed(5))
    text = generator.format_edges(g)
    back = generator.parse_edges(text, n=s.n)
    assert back.n == g.n
    assert np.array_equal(back.edges, g.edges)
    # 1-indexed pairs, self-loop printed as "v v"
    for line in text.splitlines():
        u, v = map(int, line.split())
        assert 1 <= u <= v <= s.n
