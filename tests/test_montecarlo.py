import csv
import io
import json
import math
import os
import re
import statistics
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmlab import census, degseq, generator, montecarlo, theory
from cmlab.errors import CmlabError, InfeasibleTargets, InvalidConfig, ZeroAcceptedSamples


def _cfg(**kw):
    defaults = dict(replicates=200, master_seed=11)
    defaults.update(kw)
    return montecarlo.ExperimentConfig(**defaults)


def test_connectivity_matches_oracle_for_tiny_sequence():
    """30k replicates of the two-vertex degree-2 sequence: the exact
    connectivity probability 2/3 lies in the 95% Wilson interval."""
    cfg = _cfg(seq=degseq.validate([2, 2]), replicates=30_000, master_seed=2024)
    rep = montecarlo.run_experiment(cfg)
    lo, hi = rep.connectivity["wilson_low"], rep.connectivity["wilson_high"]
    assert lo <= 2 / 3 <= hi
    assert 0.0 <= lo <= hi <= 1.0


def test_report_reproducible_across_thread_counts():
    base = dict(seq=degseq.build_sequence(300, 1.0, 0.3, 3), replicates=60,
                master_seed=77, condition_on_simple=True)
    single = montecarlo.run_experiment(_cfg(threads=1, **base)).to_json()
    many = montecarlo.run_experiment(_cfg(threads=8, **base)).to_json()
    repeat = montecarlo.run_experiment(_cfg(threads=1, **base)).to_json()
    assert single == many == repeat
    assert isinstance(json.loads(single), dict)


def test_single_replicate_report_byte_identical():
    cfg = _cfg(seq=degseq.build_sequence(100, 1.0, 0.3, 3), replicates=1,
               master_seed=8)
    first = montecarlo.run_experiment(cfg).to_json()
    second = montecarlo.run_experiment(cfg).to_json()
    assert first == second
    report = montecarlo.run_experiment(cfg)
    assert report.stats["connected"]["stderr"] == 0.0
    assert report.stats["connected"]["z"] is None


def _replicate_row(seq, master, i):
    # the integers of replicate i alone: an accumulator over range(i, i + 1)
    return montecarlo._fill(seq, master, 50, range(i, i + 1)).sums


def test_replicate_streams_are_independent_of_order():
    # the row of replicate i depends only on (master, i)
    seq = degseq.build_sequence(120, 0.5, 0.2, 3)
    v5 = _replicate_row(seq, 9, 5)
    v0 = _replicate_row(seq, 9, 0)
    again5 = _replicate_row(seq, 9, 5)
    assert v5 == again5
    assert v5 != v0


def test_thread_pool_gets_one_task_per_range(monkeypatch):
    """Two threads split 1,000 replicates into two ranges: two tasks, not
    one per replicate, so memory stays flat as the replicate count grows."""
    calls = []
    submit = montecarlo.ThreadPoolExecutor.submit

    def counting_submit(self, *args, **kwargs):
        calls.append(1)
        return submit(self, *args, **kwargs)

    monkeypatch.setattr(montecarlo.ThreadPoolExecutor, "submit", counting_submit)
    cfg = _cfg(seq=degseq.validate([1, 1, 2, 2]), replicates=1000, threads=2)
    two = montecarlo.run_experiment(cfg).to_json()
    assert len(calls) <= cfg.threads
    assert two == montecarlo.run_experiment(replace(cfg, threads=1)).to_json()


def test_thread_pool_has_at_most_cpu_count_workers(monkeypatch):
    """Each range allocates its own buffers, so threads=16 on 2 CPUs makes
    two ranges, not 16, run by two pool workers; the report is the
    1-thread one."""
    workers = []
    fills = []

    class RecordingPool(montecarlo.ThreadPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            workers.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    def recording_fill(*args):
        fills.append(args[-1])
        return fill(*args)

    fill = montecarlo._fill
    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(montecarlo, "_fill", recording_fill)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    cfg = _cfg(seq=degseq.validate([1, 1, 2, 2]), replicates=64, threads=16)
    sixteen = montecarlo.run_experiment(cfg).to_json()
    assert workers == [2]
    assert len(fills) <= 2, fills
    assert sixteen == montecarlo.run_experiment(replace(cfg, threads=1)).to_json()


def test_fill_memory_does_not_grow_with_replicates():
    """A range's traced peak over 20 replicates stays within 16 KiB of its
    peak over 2 (numpy's and Python's small caches): each range allocates
    its arrays once, and nothing is kept per replicate. One leaked pairing
    at n = 2,000 is 43 KB."""
    seq = degseq.build_sequence(2000, 1.0, 0.3, 3)
    montecarlo._fill(seq, 3, 50, range(1))  # imports and caches first
    peaks = []
    for replicates in (2, 20):
        tracemalloc.start()
        try:
            montecarlo._fill(seq, 3, 50, range(replicates))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 16384, peaks


def test_reused_buffers_keep_page_faults_down():
    """A run at n = 1e5 takes under 300 minor page faults a replicate once
    the process has run one before: a range reuses its pairing buffer and
    census buffers (about 38 a replicate). Without them, each sample and
    census allocating its own arrays, a replicate took about 1,215."""
    resource = pytest.importorskip("resource")
    cfg = _cfg(seq=degseq.build_sequence(10**5, 1.0, 0.3, 3), replicates=32)
    montecarlo.run_experiment(cfg)  # imports, caches and the heap's first growth
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    montecarlo.run_experiment(cfg)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 300 * cfg.replicates, faults


def test_conditioning_consistency():
    cfg = _cfg(seq=degseq.build_sequence(150, 1.0, 0.3, 3), replicates=400,
               master_seed=5, condition_on_simple=True)
    rep = montecarlo.run_experiment(cfg)
    cond = rep.conditional_connectivity
    simple_freq = rep.simplicity["frequency"]
    censuses = [
        census.component_census(generator.sample(cfg.seq, generator.Seed(5, i)), cfg.seq)
        for i in range(cfg.replicates)
    ]
    both_freq = sum(
        census.is_connected(c) and census.is_simple(c) for c in censuses
    ) / cfg.replicates
    assert cond["acceptance_rate"] == pytest.approx(simple_freq, abs=1e-12)
    assert cond["frequency"] == pytest.approx(both_freq / simple_freq, abs=1e-12)


def test_zero_accepted_samples():
    # two degree-2 vertices are never simple (loops or a double edge)
    cfg = _cfg(seq=degseq.validate([2, 2]), replicates=40,
               condition_on_simple=True)
    with pytest.raises(ZeroAcceptedSamples):
        montecarlo.run_experiment(cfg)


def test_census_sanity_per_replicate():
    seq = degseq.build_sequence(200, 1.0, 0.3, 3)
    for i in range(150):
        g = generator.sample(seq, generator.Seed(31, i))
        c = census.component_census(g, seq)
        assert (c.complement == 0) == census.is_connected(c)
        assert 1 not in c.line_counts


def test_report_fields_and_theory_columns():
    cfg = _cfg(seq=degseq.build_sequence(500, 1.0, 0.3, 3), replicates=80,
               master_seed=3)
    rep = montecarlo.run_experiment(cfg)
    for name, entry in rep.stats.items():
        assert entry["stderr"] >= 0, name
        if entry["theory"] is not None and entry["z"] is not None:
            assert math.isfinite(entry["z"])
    assert rep.stats["connected"]["theory"] == pytest.approx(
        rep.connectivity["theory"]
    )
    assert len(rep.complement_histogram) == cfg.x_max + 2
    assert sum(rep.complement_histogram) == cfg.replicates
    assert rep.complement_pmf_theory is not None
    assert rep.config["master_seed"] == 3
    assert "threads" not in rep.config


def test_degenerate_sequence_report_has_null_theory():
    rep = montecarlo.run_experiment(_cfg(seq=degseq.validate([2, 2]), replicates=30))
    assert rep.connectivity["theory"] is None
    assert rep.stats["connected"]["theory"] is None
    assert rep.complement_pmf_theory is None
    payload = json.loads(rep.to_json())
    assert payload["connectivity"]["theory"] is None


def test_wilson_interval_behaviour():
    lo, hi = montecarlo.wilson_interval(0, 100)
    assert 0.0 <= lo < 1e-12 and 0 < hi < 0.05
    lo, hi = montecarlo.wilson_interval(100, 100)
    assert 0.95 < lo < 1 and hi == 1.0
    lo, hi = montecarlo.wilson_interval(50, 100)
    assert lo < 0.5 < hi


def test_config_requires_one_source():
    with pytest.raises(ValueError):
        _cfg().resolve_sequence()
    with pytest.raises(ValueError):
        _cfg(
            seq=degseq.validate([1, 1]),
            targets=montecarlo.BuildTargets(n=10, rho1=0, p2=0),
        ).resolve_sequence()


@pytest.mark.parametrize(
    "field,kwargs",
    [
        ("replicates", {"replicates": 0}),
        ("x_max", {"x_max": -2}),
        ("trunc_k", {"trunc_k": -5}),
        ("trunc_k", {"trunc_k": 0}),
        ("threads", {"threads": 0}),
        ("master_seed", {"master_seed": -1}),
        ("master_seed", {"master_seed": 2**64}),
        ("condition_on_simple", {"condition_on_simple": "no"}),
        ("condition_on_simple", {"condition_on_simple": np.True_}),
        ("seq", {"seq": [2, 2]}),
        ("targets", {"targets": {"n": 10}}),
        ("source", {"source": 5}),
        ("x_max", {"x_max": 10**4 + 1}),
        ("x_max", {"x_max": 10**30}),
    ],
)
def test_config_rejects_bad_field(field, kwargs):
    with pytest.raises(InvalidConfig, match=rf"^{field} must be") as exc:
        _cfg(**{"seq": degseq.validate([2, 2]), **kwargs})
    assert isinstance(exc.value, ValueError)


@pytest.mark.parametrize("value", [2.5, True])
@pytest.mark.parametrize("field", ["master_seed", "replicates", "x_max", "trunc_k",
                                   "threads"])
def test_config_rejects_non_integer_field(field, value):
    with pytest.raises(InvalidConfig,
                       match=rf"^{field} must be .*integer.*, got {re.escape(str(value))}$"):
        _cfg(seq=degseq.validate([2, 2]), **{field: value})


@pytest.mark.parametrize(
    "field,kwargs",
    [
        ("n", {"n": 0}),
        ("rho1", {"rho1": math.nan}),
        ("rho1", {"rho1": -1.0}),
        ("rho1", {"rho1": math.inf}),
        ("p2", {"p2": math.nan}),
        ("p2", {"p2": 1.0}),
        ("bulk_degree", {"bulk_degree": 2}),
        ("rho1", {"rho1": "1"}),
        ("rho1", {"rho1": True}),
        ("p2", {"p2": "0.3"}),
        ("p2", {"p2": None}),
        ("bulk_degree", {"bulk_degree": 2**31}),
        ("n", {"n": 10**400}),
        ("n", {"n": 10**5000}),
        ("rho1", {"rho1": np.float32("inf")}),
    ],
)
def test_build_targets_reject_bad_field(field, kwargs):
    args = {"n": 100, "rho1": 1.0, "p2": 0.3, **kwargs}
    with pytest.raises(InfeasibleTargets, match=rf"^{field} must be"):
        montecarlo.BuildTargets(**args)


@pytest.mark.parametrize("field,value", [("n", 100.5), ("n", True), ("bulk_degree", 3.5)])
def test_build_targets_reject_non_integer_field(field, value):
    args = {"n": 100, "rho1": 1.0, "p2": 0.3, field: value}
    message = rf"^{field} must be an integer >= \d, got {re.escape(str(value))}$"
    with pytest.raises(InfeasibleTargets, match=message):
        montecarlo.BuildTargets(**args)
    with pytest.raises(InfeasibleTargets, match=message):
        degseq.build_sequence(**args)


def test_config_numpy_integers_echo_as_json():
    seq = degseq.validate([1, 1, 2, 2])
    plain = _cfg(seq=seq, replicates=3, master_seed=5, x_max=4)
    numpy = _cfg(seq=seq, replicates=np.int64(3), master_seed=np.uint64(5),
                 x_max=np.int32(4))
    assert numpy == plain
    assert (montecarlo.run_experiment(numpy).to_json()
            == montecarlo.run_experiment(plain).to_json())


def test_build_sequence_names_rho1_when_counts_exceed_n():
    for rho1 in (4.2, 1e300):
        with pytest.raises(InfeasibleTargets, match=r"^rho1 must be small enough"):
            degseq.build_sequence(20, rho1, 0.3)


@pytest.mark.parametrize("field,n,rho1,p2", [
    ("n", 1, 1.0, 0.3),  # one degree-1 vertex: an odd total, no bulk vertex
    ("n", 2, 1.0, 0.3),  # degrees 1 and 2
    ("p2", 100, 1.0, 0.995),  # round(99.5) = 100 degree-2 vertices and 10 of degree 1
])
def test_build_sequence_names_the_target_it_cannot_meet(field, n, rho1, p2):
    """BuildTargets takes these, as a sweep template may; the run names
    the field."""
    cfg = _cfg(targets=montecarlo.BuildTargets(n=n, rho1=rho1, p2=p2), replicates=1)
    with pytest.raises(InfeasibleTargets, match=rf"^{field} must be"):
        montecarlo.run_experiment(cfg)


def test_build_targets_hold_python_numbers():
    t = montecarlo.BuildTargets(n=np.int64(40), rho1=np.float32(1.5), p2=np.float64(0.3),
                                bulk_degree=np.int32(4))
    assert [type(v) for v in (t.n, t.rho1, t.p2, t.bulk_degree)] == [int, float, float, int]
    assert t == montecarlo.BuildTargets(n=40, rho1=1.5, p2=0.3, bulk_degree=4)


# one value for one field of an entry point: None, bools, strings, lists,
# NaN/+-inf, huge ints, numpy scalars and arrays, 0, -1 and 2.5, and small
# ints and reals in (0, 1), where a tiny n or a p2 near 1 leaves build
# targets that construct but cannot be built. The reals start at 0.7: a d
# at or below 2 * p2 = 0.6 breaks a bound on both, which predict's
# SeriesDivergence names by p2, as it must for p2 = 2.5 at d = 2.7
_FLOATS = st.sampled_from([0.0, -1.0, 2.5, math.nan, math.inf, -math.inf])
_HUGE = st.one_of(st.integers(2**53, 2**1100), st.integers(-(2**1100), -(2**53)))
_ANY_VALUE = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.lists(st.integers(-1, 3), max_size=3),
    _FLOATS,
    st.sampled_from([0, -1]),
    st.integers(1, 4),
    st.floats(0.7, 0.999),
    _HUGE,
    _FLOATS.map(np.float64),
    _FLOATS.map(np.float32),
    st.sampled_from([0, -1]).map(np.int64),
    st.integers(2**53, 2**63 - 1).map(np.int64),
    st.integers(2**63, 2**64 - 1).map(np.uint64),
    st.sampled_from([np.True_, np.str_("1")]),
    st.sampled_from([np.array(2.5), np.array([1, 1]), np.zeros(0), np.array(["a"])]),
)


def _limit_params(**field):
    p = degseq.LimitParams(**{"rho1": 1.0, "p2": 0.3, "d": 2.7, "nu": 2.0, **field})
    return [theory.predict(p).to_json_dict()]


def _build_targets(**field):
    t = montecarlo.BuildTargets(**{"n": 20, "rho1": 1.0, "p2": 0.3, "bulk_degree": 3, **field})
    out = [theory.predict(t.limit_params()).to_json_dict()]
    if t.n <= 50 and t.bulk_degree <= 50:  # only a tiny graph is run
        cfg = montecarlo.ExperimentConfig(targets=t, replicates=3)
        out.append(montecarlo.run_experiment(cfg).to_json_dict())
    return out


def _experiment_config(**field):
    # each of seq and targets is tried where the other one is set
    source = {"targets": montecarlo.BuildTargets(n=20, rho1=1.0, p2=0.3)} if "seq" in field \
        else {"seq": degseq.validate([1, 1])}
    cfg = montecarlo.ExperimentConfig(**{**source, "replicates": 3, **field})
    if cfg.replicates > 3 or cfg.x_max > theory.X_MAX or cfg.trunc_k > theory.TRUNC_K:
        return []  # valid, but not a tiny run
    return [montecarlo.run_experiment(cfg).to_json_dict()]


def _seed(**field):
    seq = degseq.validate([1, 1, 2, 3, 3])
    g = generator.sample(seq, generator.Seed(**{"master": 1, "stream": 0, **field}))
    return [census.component_census(g, seq).to_json_dict()]


_ENTRY_FIELDS = [
    *((_limit_params, f) for f in ("rho1", "p2", "d", "nu")),
    *((_build_targets, f) for f in ("n", "rho1", "p2", "bulk_degree")),
    *((_experiment_config, f) for f in ("seq", "targets", "replicates", "master_seed",
                                        "condition_on_simple", "x_max", "trunc_k",
                                        "threads", "source")),
    *((_seed, f) for f in ("master", "stream")),
]


@settings(max_examples=1000, deadline=None)
@given(entry=st.sampled_from(_ENTRY_FIELDS), value=_ANY_VALUE)
def test_entry_point_gives_strict_json_or_names_the_field(entry, value):
    """LimitParams, BuildTargets, ExperimentConfig and Seed, with one field
    set to `value` and the rest valid, either construct and give strict
    JSON from predict or a tiny run, or raise a CmlabError whose message
    starts with the field's name."""
    make, field = entry
    try:
        outputs = make(**{field: value})
    except CmlabError as exc:
        assert str(exc).startswith(f"{field} "), (field, value, str(exc))
        return
    for out in outputs:
        json.dumps(out, allow_nan=False)


def test_sweep_infeasible_n_row_surfaced():
    template = _cfg(targets=montecarlo.BuildTargets(n=1, rho1=1.0, p2=0.3), replicates=5)
    rows = _sweep_rows(montecarlo.sweep(template, [0, 50]))
    assert rows[0]["n"] == "0"
    assert rows[0]["stat"] == "error:InfeasibleTargets"
    assert {r["n"] for r in rows[1:]} == {"50"}


def test_build_targets_limit_params():
    p = montecarlo.BuildTargets(n=10, rho1=1.0, p2=0.3, bulk_degree=3).limit_params()
    assert (p.rho1, p.p2) == (1.0, 0.3)
    assert p.d == pytest.approx(2.7)
    assert p.nu == pytest.approx(16 / 9)


def _sweep_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_sweep_empty_and_header():
    template = montecarlo.ExperimentConfig(
        targets=montecarlo.BuildTargets(n=1, rho1=1.0, p2=0.3), replicates=10
    )
    text = montecarlo.sweep(template, [])
    assert text == montecarlo.SWEEP_HEADER + "\n"


def test_sweep_infeasible_row_surfaced():
    template = montecarlo.ExperimentConfig(
        targets=montecarlo.BuildTargets(n=1, rho1=2.0, p2=0.9), replicates=10
    )
    text = montecarlo.sweep(template, [50])
    rows = _sweep_rows(text)
    assert rows[0]["n"] == "50"
    assert rows[0]["stat"] == "error:InfeasibleTargets"


def test_sweep_rejects_unordered_n():
    template = montecarlo.ExperimentConfig(
        targets=montecarlo.BuildTargets(n=1, rho1=1.0, p2=0.3), replicates=10
    )
    with pytest.raises(ValueError):
        montecarlo.sweep(template, [1000, 100])


def test_sweep_rows_and_fixed_theory():
    template = montecarlo.ExperimentConfig(
        targets=montecarlo.BuildTargets(n=1, rho1=1.0, p2=0.3), replicates=40,
        master_seed=12,
    )
    rows = _sweep_rows(montecarlo.sweep(template, [100, 300]))
    connected = [r for r in rows if r["stat"] == "connected"]
    assert [r["n"] for r in connected] == ["100", "300"]
    # theory column is the fixed limit value of the target family
    assert float(connected[0]["theory"]) == float(connected[1]["theory"])
    assert float(connected[0]["theory"]) == pytest.approx(0.6950632347977941)


def test_sweep_deviation_shrinks_with_n():
    """Median |empirical - theory| over 3 repeats decreases from the small-n
    end to the large-n end of the sweep (envelope of the convergence claim).

    True deviations from the limit, measured independently at 40k
    replicates, are ~0.060 / 0.024 / 0.002; with 2000 replicates the
    noise floor is ~0.01 per repeat, so the chain below is a fixed-seed
    instance of an ordering that holds with large margin in expectation.
    """
    devs = {n: [] for n in (100, 1000, 10000)}
    for repeat, master in enumerate((7001, 7002, 7003)):
        template = montecarlo.ExperimentConfig(
            targets=montecarlo.BuildTargets(n=1, rho1=1.0, p2=0.3),
            replicates=2000,
            master_seed=master,
        )
        rows = _sweep_rows(montecarlo.sweep(template, [100, 1000, 10000]))
        for row in rows:
            if row["stat"] == "connected":
                devs[int(row["n"])].append(
                    abs(float(row["empirical"]) - float(row["theory"]))
                )
    med = {n: statistics.median(v) for n, v in devs.items()}
    assert med[100] > med[1000] > med[10000]
