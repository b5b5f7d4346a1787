"""Span recorder for the benchmark's traced runs.

The recorder wraps cmlab functions by rebinding the module-level names
that cmlab's own callers look up, so the package is not modified and an
untraced run executes none of this code. Each span is one row of eight
floats (see the column constants below) kept in a per-thread buffer until
the run ends, which keeps a run of a million spans to tens of megabytes.
"""

from __future__ import annotations

import importlib
import itertools
import threading
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

#: (module, attribute, span name) rebound by Tracer.installed(). A name
#: that the package no longer has is skipped, so its metrics read zero.
TARGETS = (
    ("cmlab.montecarlo", "build_sequence", "degseq.build_sequence"),
    ("cmlab.montecarlo", "sample", "generator.sample"),
    ("cmlab.montecarlo", "component_census", "census.component_census"),
    ("cmlab.montecarlo", "predict", "theory.predict"),
    ("cmlab.generator", "sample_pairing", "generator.sample_pairing"),
    ("cmlab.generator", "multigraph_from_pairing", "generator.collapse"),
    ("cmlab.oracle", "multigraph_from_pairing", "generator.collapse"),
    ("cmlab.oracle", "component_census", "census.component_census"),
)

#: spans the benchmark opens itself around its timed calls
ROOTS = ("montecarlo.run_experiment", "montecarlo.sweep", "oracle.exact_law")

NAMES = tuple(dict.fromkeys([name for _, _, name in TARGETS] + list(ROOTS)))

# columns of a span row; ELL is the half-edge count of the sequence the
# call was given (0 if none), COMPLEMENT the census result's complement
ID, NAME, START, END, PARENT, TID, ELL, COMPLEMENT = range(8)


def _ell(args) -> int:
    return next((a.ell for a in args if hasattr(a, "ell")), 0)


class Tracer:
    """Records spans: name, start, end, parent span and thread id.

    A span opened on a thread with no open span of its own (a worker of
    run_experiment's thread pool) takes the benchmark's open root span as
    its parent.
    """

    def __init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._buffers: list[array] = []
        self._lock = threading.Lock()
        self._root = 0

    def _thread_state(self) -> tuple[list[int], array]:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], array("d"))
            with self._lock:
                self._buffers.append(state[1])
        return state

    def _open(self) -> tuple[list[int], array, int, int]:
        stack, buf = self._thread_state()
        sid = next(self._ids)
        parent = stack[-1] if stack else self._root
        stack.append(sid)
        return stack, buf, sid, parent

    @contextmanager
    def span(self, name: str):
        """A span the benchmark opens; a top-level one becomes the root."""
        stack, buf, sid, parent = self._open()
        outer_root = self._root
        if len(stack) == 1:
            self._root = sid
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            self._root = outer_root
        buf.extend((sid, NAMES.index(name), start, end, parent,
                    threading.get_ident(), 0, 0))

    def _wrap(self, fn, name: str):
        code = NAMES.index(name)

        def traced(*args, **kwargs):
            stack, buf, sid, parent = self._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
            buf.extend((sid, code, start, end, parent, threading.get_ident(),
                        _ell(args), getattr(result, "complement", 0)))
            return result

        return traced

    @contextmanager
    def installed(self):
        """Rebind every TARGETS name to a recording wrapper, then restore."""
        saved = []
        try:
            for modname, attr, name in TARGETS:
                try:
                    module = importlib.import_module(modname)
                except ModuleNotFoundError:
                    continue
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name))
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def table(self) -> np.ndarray:
        """All spans recorded so far, one row each."""
        with self._lock:
            rows = [np.frombuffer(buf, dtype=np.float64) for buf in self._buffers]
        flat = np.concatenate(rows) if rows else np.zeros(0)
        return flat.reshape(-1, 8)


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def covered(lo: float, hi: float, intervals) -> float:
    """Length of [lo, hi] covered by the union of the intervals.

    Intervals that overlap (children run on two threads at once) are
    counted once.
    """
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_time(table: np.ndarray, span_id: float) -> float:
    """A span's duration less the part its direct children cover."""
    row = table[table[:, ID] == span_id][0]
    kids = table[table[:, PARENT] == span_id]
    return row[END] - row[START] - covered(row[START], row[END], kids[:, [START, END]].tolist())


def _rows(table: np.ndarray, name: str) -> np.ndarray:
    return table[table[:, NAME] == NAMES.index(name)]


def _durations(table: np.ndarray, name: str) -> np.ndarray:
    rows = _rows(table, name)
    return rows[:, END] - rows[:, START]


def _pct(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(table: np.ndarray, ops: int, enumerate_s: float) -> dict[str, float]:
    """Per-layer figures from the spans of `ops` traced operations.

    Counts are per operation, so they repeat exactly from run to run.
    `enumerate_s` is the time to drain enumerate_matchings once for each
    oracle sequence of an operation (0 outside the oracle workload).
    """
    ops = max(ops, 1)
    sample = _durations(table, "generator.sample")
    pairing = _rows(table, "generator.sample_pairing")
    collapse = _durations(table, "generator.collapse")
    census = _rows(table, "census.component_census")
    census_s = census[:, END] - census[:, START]
    predict = _durations(table, "theory.predict")

    mc_roots = np.concatenate([_rows(table, "montecarlo.run_experiment"),
                               _rows(table, "montecarlo.sweep")])
    mc_self, mc_busy = [], []
    for root in mc_roots:
        wall = root[END] - root[START]
        kids = table[table[:, PARENT] == root[ID]]
        mc_self.append(self_time(table, root[ID]))
        mc_busy.append((kids[:, END] - kids[:, START]).sum() / wall)

    exact = _rows(table, "oracle.exact_law")
    under_exact = np.isin(table[:, PARENT], exact[:, ID])
    matchings = (under_exact & (table[:, NAME] == NAMES.index("generator.collapse"))).sum() / ops
    distinct = (under_exact & (table[:, NAME] == NAMES.index("census.component_census"))).sum() / ops
    exact_self = sum(self_time(table, sid) for sid in exact[:, ID]) / ops

    roots_wall = sum((r[:, END] - r[:, START]).sum() for r in (mc_roots, exact))
    return {
        "degseq.build_sequence_ms": _pct(_durations(table, "degseq.build_sequence"), 50) * 1e3,
        "generator.sample_ms.p50": _pct(sample, 50) * 1e3,
        "generator.sample_ms.p90": _pct(sample, 90) * 1e3,
        "generator.sample_calls": len(sample) / ops,
        "generator.sample_pairing_ms.p50": _pct(pairing[:, END] - pairing[:, START], 50) * 1e3,
        "generator.half_edges_per_s": _rate(pairing[:, ELL].sum(),
                                            (pairing[:, END] - pairing[:, START]).sum()),
        "generator.collapse_us.p50": _pct(collapse, 50) * 1e6,
        "generator.collapse_calls": len(collapse) / ops,
        "census.component_census_ms.p50": _pct(census_s, 50) * 1e3,
        "census.component_census_ms.p90": _pct(census_s, 90) * 1e3,
        "census.calls": len(census) / ops,
        "census.half_edges_per_s": _rate(census[:, ELL].sum(), census_s.sum()),
        "census.share": _rate(census_s.sum(), roots_wall),
        "census.complement_mean": float(census[:, COMPLEMENT].mean()) if len(census) else 0.0,
        "oracle.enumerate_s": enumerate_s,
        "oracle.matchings": float(matchings),
        "oracle.distinct_graphs": float(distinct),
        "oracle.census_cache_hit_ratio": 1 - distinct / matchings if matchings else 0.0,
        "oracle.self_s": exact_self - enumerate_s if len(exact) else 0.0,
        "montecarlo.self_ms": _pct(np.array(mc_self), 50) * 1e3,
        "montecarlo.busy_overlap": _pct(np.array(mc_busy), 50),
        "theory.predict_ms": _pct(predict, 50) * 1e3,
        "theory.predict_calls": len(predict) / ops,
    }
