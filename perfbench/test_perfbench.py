"""Tests of the benchmark itself: span arithmetic, metric names, output
checks, and a tiny-size run of every workload.

    python3 -m pytest -q perfbench
"""

import json
import math
import re

import numpy as np
import pytest

import run

run.use_checkout_source()

import cmlab.generator  # noqa: E402
import workloads  # noqa: E402
from tracing import END, ID, NAME, NAMES, PARENT, START, TID, Tracer, covered, self_time  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _row(sid, start, end, parent, tid=1):
    return [sid, 0, start, end, parent, tid, 0, 0]


def test_self_time_subtracts_direct_children_only():
    table = np.array([
        _row(1, 0.0, 10.0, 0),
        _row(2, 1.0, 4.0, 1),
        _row(3, 2.0, 3.0, 2),  # grandchild, inside its parent's interval
        _row(4, 5.0, 6.0, 1),
    ])
    assert self_time(table, 1) == 10 - 3 - 1
    assert self_time(table, 2) == 3 - 1
    assert self_time(table, 3) == 1


def test_self_time_counts_overlapping_children_from_two_threads_once():
    table = np.array([
        _row(1, 0.0, 10.0, 0),
        _row(2, 1.0, 5.0, 1, tid=7),
        _row(3, 3.0, 8.0, 1, tid=8),
        _row(4, 4.0, 6.0, 1, tid=7),
    ])
    assert self_time(table, 1) == 10 - 7


def test_covered_clips_to_the_parent_interval():
    assert covered(2.0, 6.0, [(0.0, 3.0), (5.0, 9.0)]) == 2.0
    assert covered(0.0, 1.0, []) == 0.0


def test_worker_thread_spans_hang_under_the_root_and_wrappers_come_off():
    seq = cmlab.build_sequence(300, 1.0, 0.3)
    original = cmlab.generator.sample_pairing
    tracer = Tracer()
    with tracer.installed():
        assert cmlab.generator.sample_pairing is not original
        with tracer.span("montecarlo.run_experiment"):
            cmlab.run_experiment(cmlab.ExperimentConfig(seq=seq, replicates=8, threads=2))
    assert cmlab.generator.sample_pairing is original

    table = tracer.table()
    root = table[table[:, NAME] == NAMES.index("montecarlo.run_experiment")][0]
    samples = table[table[:, NAME] == NAMES.index("generator.sample")]
    pairings = table[table[:, NAME] == NAMES.index("generator.sample_pairing")]
    assert len(samples) == len(pairings) == 8
    assert (samples[:, PARENT] == root[ID]).all()
    assert (samples[:, TID] != root[TID]).all()
    assert set(pairings[:, PARENT]) == set(samples[:, ID])
    assert (samples[:, START] >= root[START]).all() and (samples[:, END] <= root[END]).all()


def test_metric_names_and_units_are_well_formed():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for m in metrics:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_run_passes_its_checks_and_reports_every_metric(name, trace):
    result = run.measure(name, seed=5, seconds=0, trace=trace, tiny=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    json.dumps(result, allow_nan=False)


def test_monte_carlo_check_rejects_a_bad_report():
    wl = workloads.make("desk", 1, tiny=True)
    wl.setup()
    text = wl.run(0, workloads.no_span)
    assert wl.check(0, text) == []
    report = json.loads(text)
    report["complement_histogram"][0] += 1
    assert wl.check(0, json.dumps(report))
    with pytest.raises(ValueError):
        wl.check(0, text.replace('"mean": 0.', '"mean": NaN, "x": 0.', 1))


def test_oracle_check_rejects_a_wrong_probability():
    wl = workloads.make("oracle", 0, tiny=True)
    wl.setup()
    texts = wl.run(0, workloads.no_span)
    assert wl.check(0, texts) == []
    law = json.loads(texts[0])
    law["p_connected"] = "1/2"
    assert wl.check(0, [json.dumps(law)] + texts[1:])


def test_recorded_hash_is_checked_on_the_first_operation_only():
    wl = workloads.make("desk", 0)
    assert wl.hash_problem(0, "not the report")
    assert wl.hash_problem(1, "not the report") == []
    assert workloads.make("desk", 0, tiny=True).hash_problem(0, "x") == []


def test_failed_checks_are_counted_against_attempted(monkeypatch):
    monkeypatch.setattr(workloads.Oracle, "check", lambda self, i, out: ["wrong"])
    result = run.measure("oracle", seed=0, seconds=0, trace=False, tiny=True)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_untraced_run_installs_no_wrapper(monkeypatch):
    import tracing

    def refuse(self):
        raise AssertionError("untraced run installed wrappers")

    monkeypatch.setattr(tracing.Tracer, "installed", refuse)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    assert run.measure("sweep_2t", seed=0, seconds=0, trace=False, tiny=True)["correct"]
