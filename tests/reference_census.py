"""Test-only references for cmlab.census: an edge-list census and the
half-edge exploration process.

The edge-list census labels every vertex from the collapsed edge list
with one scipy pass and counts each statistic over all components, the
slow and direct way. The package's census must agree with it on every
graph.

The exploration process of the paper's proof pairs one active half-edge
at a time with a uniform free partner. run_exploration draws no partner
itself: it reveals the matching generator.sample_pairing draws one pair
at a time. The laws agree by the principle of deferred decisions: given
the pairs revealed so far, the partner of any active half-edge is
uniform among the other free half-edges, whichever one a step takes. So
a trace explores the graph the census of the same seed sees.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from cmlab.census import ComponentCensus
from cmlab.degseq import DegreeSequence
from cmlab.generator import Seed, sample_pairing


def reference_labels(n: int, edges: np.ndarray) -> np.ndarray:
    """Component label of every vertex of an edge list."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    adj = csr_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(n, n))
    return connected_components(adj, directed=True, connection="weak")[1]


def reference_census(g, seq) -> ComponentCensus:
    edges = g.edges
    deg = np.asarray(seq.degrees, dtype=np.int64)
    _, first_vertex, labels = np.unique(
        reference_labels(g.n, edges), return_index=True, return_inverse=True
    )
    k = len(first_vertex)
    sizes = np.bincount(labels, minlength=k)
    edges_per = np.bincount(labels[edges[:, 0]], minlength=k)
    n1_per = np.bincount(labels[deg == 1], minlength=k)
    n2_per = np.bincount(labels[deg == 2], minlength=k)
    is_cycle = (n2_per == sizes) & (edges_per == sizes)
    is_line = (n1_per == 2) & (n2_per == sizes - 2) & (edges_per == sizes - 1)

    cands = np.flatnonzero(sizes == sizes.max())
    giant = cands[np.argmin(first_vertex[cands])]
    outside = np.arange(k) != giant

    loops = edges[:, 0] == edges[:, 1]
    mult = Counter(map(tuple, edges[~loops].tolist())).values()
    return ComponentCensus(
        n=g.n,
        cycle_counts=dict(Counter(sizes[is_cycle].tolist())),
        line_counts=dict(Counter(sizes[is_line].tolist())),
        self_loops=int(loops.sum()),
        multi_edges=sum(m * (m - 1) // 2 for m in mult),
        giant_size=int(sizes[giant]),
        complement=g.n - int(sizes[giant]),
        other_outside_giant=int(sizes[outside & ~is_cycle & ~is_line].sum()),
        deg3_outside_giant=int(((deg >= 3) & (labels != giant)).sum()),
    )


# ---------------------------------------------------------------------------
# Exploration process
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExplorationTrace:
    """Record of the active/dead/neutral half-edge exploration.

    s_values[t] is the active-set size S_t (S_0 = degree of the start
    vertex); neutral_counts[t] is the neutral half-edge count |N_t|. The
    stop rule compares |N_t| (half-edges) against half_threshold = n/2
    (vertex count): t_half is the last t with |N_t| > n/2, None while that
    has not been observed, -1 if even |N_0| <= n/2. vertices_found is the
    number of distinct vertices reached; it equals the component size of
    the start vertex when the trace ends with S_t = 0.
    """

    start_vertex: int
    s_values: list[int]
    neutral_counts: list[int]
    t_zero: int | None
    t_half: int | None
    half_threshold: float
    stop_reason: str
    vertices_found: int


def run_exploration(
    seq: DegreeSequence,
    seed: Seed,
    start: int,
    run_to_completion: bool = False,
) -> ExplorationTrace:
    """Explore the component of `start` in the graph `generator.sample`
    draws from `seed`, revealing the pairing `sample_pairing(seq, seed)`
    gives one pair at a time.

    Each step reveals the partner of the most recently activated
    half-edge; by deferred decisions (see the module docstring) it is
    uniform among the other free half-edges. Stops at the first t with
    S_t = 0 (reason "hit-zero") or, unless run_to_completion is set, once
    |N_t| <= n/2 (reason "passed-t-half"). With run_to_completion the
    walk continues to S_t = 0, reports "exhausted" if the threshold was
    passed along the way, and finds all of `start`'s component.
    """
    if not 0 <= start < seq.n:
        raise ValueError(f"start vertex {start} out of range")
    pairing = sample_pairing(seq, seed)
    partner = np.empty(seq.ell, dtype=np.int64)
    partner[pairing] = pairing[:, ::-1]
    partner = partner.tolist()
    deg = seq.degrees.tolist()
    offsets = seq.half_edge_offsets.tolist()
    owners = seq.half_edge_owners.tolist()
    threshold = seq.n / 2

    # the active half-edges, in the order they were activated
    active = dict.fromkeys(range(offsets[start], offsets[start + 1]))
    neutral = seq.ell - deg[start]
    s_values = [len(active)]
    neutral_counts = [neutral]
    t_half: int | None = -1 if neutral <= threshold else None
    vertices_found = 1
    while active and (t_half is None or run_to_completion):
        e2 = partner[active.popitem()[0]]
        if e2 in active:
            del active[e2]
        else:
            v2 = owners[e2]
            neutral -= deg[v2]
            vertices_found += 1
            for h in range(offsets[v2], offsets[v2 + 1]):
                if h != e2:
                    active[h] = None
        s_values.append(len(active))
        neutral_counts.append(neutral)
        if t_half is None and neutral <= threshold:
            t_half = len(s_values) - 2
    if active:
        reason = "passed-t-half"
    elif t_half is not None and run_to_completion:
        reason = "exhausted"
    else:
        reason = "hit-zero"
    return ExplorationTrace(
        start_vertex=start,
        s_values=s_values,
        neutral_counts=neutral_counts,
        t_zero=None if active else len(s_values) - 1,
        t_half=t_half,
        half_threshold=threshold,
        stop_reason=reason,
        vertices_found=vertices_found,
    )
