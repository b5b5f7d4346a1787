"""Component census of a multigraph and the half-edge exploration process.

The census classifies every connected component and extracts the counters
whose limit laws the theory module predicts: cycle components C_k (k
degree-2 vertices, k edges; a degree-2 vertex with a self-loop is a cycle
of length 1), line components L_k (2 degree-1 endpoints, k-2 degree-2
interior vertices), self-loop edges S, parallel-edge pairs M, the largest
component, and the vertices outside it.

The census reads the graph's half-edge pairing directly; no edge list is
built. It has two paths that give the same census, chosen by vertex
count.

Up to _UNION_FIND_MAX_N = 384 vertices it runs in plain Python, with no
numpy call per graph beyond reading the pairing, owners and degrees as
lists. One pass over the pairs counts self-loops, counts parallel edges
in a dict keyed on the vertex pair, and joins components by union-find;
one pass over the vertices tallies each component's size and its
degree-1 and degree-2 vertices. At that size a numpy or scipy call costs
more than the work it does, and the exact oracle, whose graphs have a
handful of vertices, runs the census once per multigraph.

Above it the adjacency matrix comes straight from the pairing: its row
pointer is the sequence's half-edge offsets, and the column of half-edge
h is the owner of h's partner. In the critical window every vertex of
degree >= 3 lies in the giant with high probability, and what is left is
a few lines and cycles of degree-1 and degree-2 vertices. So one
breadth-first search from a maximum-degree vertex covers the giant in the
usual case, and only the vertices it did not reach are labelled. The
per-component counts run over those vertices alone; the searched
component's counts are the sequence totals minus theirs.

Either way the giant is chosen among all components by size and lowest
vertex id, which is exact whichever component the search happened to
cover.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components

from .degseq import DegreeSequence
from .errors import DegreeMismatch
from .generator import Multigraph, Seed, _as_generator

# Up to this vertex count the plain-Python census is faster than the
# search path; on sampled window graphs (rho1 = 1, p2 = 0.3, bulk 3) the
# two cross between n = 384 and 416 (BENCH_micro_census.json).
_UNION_FIND_MAX_N = 384


def _tally(vertices: np.ndarray, labels: np.ndarray, deg: np.ndarray) -> np.ndarray:
    """Per-component rows (size, #degree 1, #degree 2, #degree >= 3,
    lowest vertex) of the listed vertices, given in ascending order and
    grouped by label; one column per component."""
    _, first, comp = np.unique(labels, return_index=True, return_inverse=True)
    k = len(first)
    d = deg[vertices]
    return np.stack((
        np.bincount(comp, minlength=k),
        np.bincount(comp[d == 1], minlength=k),
        np.bincount(comp[d == 2], minlength=k),
        np.bincount(comp[d >= 3], minlength=k),
        vertices[first],
    ))


def _tally_search(seq: DegreeSequence, pairing: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """_tally of every component: one search, then labels for the rest."""
    n = seq.n
    deg = seq.degrees
    cols = np.empty(seq.ell, dtype=np.int32)
    cols[pairing[:, 0]] = ends[:, 1]
    cols[pairing[:, 1]] = ends[:, 0]
    # int32 indices and float64 data are what scipy's graph routines use
    # internally; any other dtype is copied on every call
    adj = csr_matrix((np.ones(seq.ell), cols, seq.half_edge_offsets), shape=(n, n))
    # the matrix is symmetric, so a directed search covers the component
    reached = breadth_first_order(adj, int(np.argmax(deg)), directed=True,
                                  return_predecessors=False)
    rest = labels = np.zeros(0, dtype=np.int32)
    if len(reached) < n:
        unreached = np.ones(n, dtype=bool)
        unreached[reached] = False
        rest = np.flatnonzero(unreached)
        # "weak" on a symmetric matrix is undirected connectivity; scipy's
        # "strong" mode does not return on a matrix with duplicate entries
        _, labels = connected_components(adj[rest][:, rest], directed=True,
                                         connection="weak")
    table = _tally(rest, labels, deg)
    left1, left2, left3 = table[1:4].sum(axis=1)
    searched = (len(reached), seq.n1 - left1, seq.n2 - left2,
                n - seq.n1 - seq.n2 - left3, int(reached.min()))
    return np.column_stack((searched, table))


def _check_degrees(g: Multigraph, degrees: DegreeSequence) -> None:
    if g.n != degrees.n:
        raise DegreeMismatch(f"graph has {g.n} vertices, sequence has {degrees.n}")
    realized = g.realized_degrees()
    if len(realized) > g.n:
        raise DegreeMismatch(f"vertex {len(realized) - 1} is outside 0..{g.n - 1}")
    deg = degrees.degrees
    if not np.array_equal(realized, deg):
        bad = int(np.flatnonzero(realized != deg)[0])
        raise DegreeMismatch(
            f"vertex {bad}: realized degree {int(realized[bad])} != "
            f"prescribed {int(deg[bad])}"
        )


@dataclass(frozen=True)
class ComponentCensus:
    """Counts of every statistic with a predicted limit law.

    multi_edges counts unordered pairs of parallel edges, i.e. C(m, 2)
    summed over vertex pairs with multiplicity m; self_loops counts
    self-loop edges singly. Those are exactly the counters with Poisson
    limits Poi(nu^2/4) and Poi(nu/2).
    """

    n: int
    cycle_counts: dict[int, int]
    line_counts: dict[int, int]
    self_loops: int
    multi_edges: int
    giant_size: int
    complement: int
    other_outside_giant: int
    deg3_outside_giant: int

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "cycle_counts": {str(k): v for k, v in sorted(self.cycle_counts.items())},
            "line_counts": {str(k): v for k, v in sorted(self.line_counts.items())},
            "self_loops": self.self_loops,
            "multi_edges": self.multi_edges,
            "giant_size": self.giant_size,
            "complement": self.complement,
            "other_outside_giant": self.other_outside_giant,
            "deg3_outside_giant": self.deg3_outside_giant,
        }


def is_connected(c: ComponentCensus) -> bool:
    return c.complement == 0


def is_simple(c: ComponentCensus) -> bool:
    return c.self_loops == 0 and c.multi_edges == 0


def component_census(g: Multigraph, degrees: DegreeSequence) -> ComponentCensus:
    """Classify all components of `g` against its prescribed degrees.

    The largest component breaks size ties by lowest minimum vertex id.
    Cycles and lines are counted over all components, including the
    largest. A graph sampled from `degrees` is trusted; any other graph
    has its realized degrees checked first and raises DegreeMismatch if
    they disagree with the sequence.
    """
    if g.owners is not degrees.half_edge_owners:
        _check_degrees(g, degrees)
    if degrees.n <= _UNION_FIND_MAX_N:
        return _census_union_find(degrees, g.pairing)
    return _census_search(degrees, g.pairing)


def _census_union_find(seq: DegreeSequence, pairing: np.ndarray) -> ComponentCensus:
    """The census in plain Python: one pass over the pairs, one over the
    vertices, and no numpy call beyond reading three arrays as lists."""
    n = seq.n
    owner = seq.half_edge_owners.tolist()
    deg = seq.degrees.tolist()
    # a root is always the lowest vertex of its tree, and parent[v] <= v
    parent = list(range(n))
    self_loops = multi_edges = 0
    edges_seen: dict[int, int] = {}
    for h1, h2 in pairing.tolist():
        u, v = owner[h1], owner[h2]
        if u == v:
            self_loops += 1
            continue
        key = u * n + v if u < v else v * n + u
        m = edges_seen.get(key, 0)
        # the (m+1)-th u-v edge pairs with the m before it: C(m, 2) in all
        multi_edges += m
        edges_seen[key] = m + 1
        while parent[u] != u:  # find, halving the path
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u < v:
            parent[v] = u
        elif v < u:
            parent[u] = v

    # ascending, parent[v]'s root is known before v is reached
    size = [0] * n
    ones = [0] * n
    twos = [0] * n
    roots = []
    for v in range(n):
        r = parent[v] = parent[parent[v]]
        if r == v:
            roots.append(v)
        size[r] += 1
        d = deg[v]
        if d == 1:
            ones[r] += 1
        elif d == 2:
            twos[r] += 1

    giant = max(roots, key=size.__getitem__)  # the first maximum: lowest vertex
    cycle_counts: dict[int, int] = {}
    line_counts: dict[int, int] = {}
    other = 0
    for r in roots:
        s = size[r]
        if twos[r] == s:
            cycle_counts[s] = cycle_counts.get(s, 0) + 1
        elif ones[r] == 2 and twos[r] == s - 2:
            line_counts[s] = line_counts.get(s, 0) + 1
        elif r != giant:
            other += s
    giant_size = size[giant]
    return ComponentCensus(
        n=n,
        cycle_counts=cycle_counts,
        line_counts=line_counts,
        self_loops=self_loops,
        multi_edges=multi_edges,
        giant_size=giant_size,
        complement=n - giant_size,
        other_outside_giant=other,
        deg3_outside_giant=(n - seq.n1 - seq.n2) - (giant_size - ones[giant] - twos[giant]),
    )


def _census_search(seq: DegreeSequence, pairing: np.ndarray) -> ComponentCensus:
    """The census from one search and labels for the rest, in numpy."""
    n = seq.n
    ends = seq.half_edge_owners[pairing]
    a, b = ends[:, 0], ends[:, 1]
    sizes, n1, n2, n3, lowest = _tally_search(seq, pairing, ends)
    is_cycle = n2 == sizes
    is_line = (n1 == 2) & (n2 == sizes - 2)
    biggest = np.flatnonzero(sizes == sizes.max())
    giant = biggest[np.argmin(lowest[biggest])]
    outside = np.ones(len(sizes), dtype=bool)
    outside[giant] = False

    key = np.minimum(a, b).astype(np.int64)
    key *= n
    key += np.maximum(a, b)
    key.sort()
    repeats = key[1:][key[1:] == key[:-1]]
    # a self-loop at v has the key v*(n+1), which no other edge has; loops
    # at one vertex are not parallel edges
    repeats = repeats[repeats % (n + 1) != 0]
    multi_edges = 0
    if len(repeats):
        # a pair joined by m parallel edges repeats m-1 times: C(m, 2) pairs
        _, extra = np.unique(repeats, return_counts=True)
        multi_edges = int((extra * (extra + 1) // 2).sum())

    giant_size = int(sizes[giant])
    return ComponentCensus(
        n=n,
        cycle_counts=dict(Counter(sizes[is_cycle].tolist())),
        line_counts=dict(Counter(sizes[is_line].tolist())),
        self_loops=int(np.count_nonzero(a == b)),
        multi_edges=multi_edges,
        giant_size=giant_size,
        complement=n - giant_size,
        other_outside_giant=int(sizes[outside & ~is_cycle & ~is_line].sum()),
        deg3_outside_giant=int(n3.sum() - n3[giant]),
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
    seed: Seed | np.random.Generator | int,
    start: int,
    run_to_completion: bool = False,
) -> ExplorationTrace:
    """Explore the component of `start`, pairing half-edges on the fly.

    Each step pairs a uniformly chosen active half-edge with a uniform
    partner among all remaining free half-edges, so the pairing built has
    the same distribution as `generator.sample`. Stops at the first t with
    S_t = 0 (reason "hit-zero") or, unless run_to_completion is set, once
    |N_t| <= n/2 (reason "passed-t-half"). With run_to_completion the walk
    continues to S_t = 0 and reports "exhausted" if the threshold was
    passed along the way.
    """
    if not 0 <= start < seq.n:
        raise ValueError(f"start vertex {start} out of range")
    rng = _as_generator(seed)
    deg = seq.degrees
    offsets = seq.half_edge_offsets
    owners = seq.half_edge_owners
    ell = seq.ell
    threshold = seq.n / 2

    free_list = list(range(ell))
    free_pos = list(range(ell))
    active_list: list[int] = []
    active_pos = [-1] * ell

    def _remove(lst: list[int], pos: list[int], h: int) -> None:
        i = pos[h]
        last = lst[-1]
        lst[i] = last
        pos[last] = i
        lst.pop()
        pos[h] = -1

    for h in range(int(offsets[start]), int(offsets[start + 1])):
        active_pos[h] = len(active_list)
        active_list.append(h)

    neutral = ell - int(deg[start])
    s_values = [len(active_list)]
    neutral_counts = [neutral]
    t_half: int | None = None
    vertices_found = 1
    t = 0
    passed = False

    while True:
        if t_half is None and neutral <= threshold:
            t_half = t - 1
            passed = True
        if s_values[t] == 0:
            reason = "exhausted" if (passed and run_to_completion) else "hit-zero"
            return ExplorationTrace(
                start_vertex=start,
                s_values=s_values,
                neutral_counts=neutral_counts,
                t_zero=t,
                t_half=t_half,
                half_threshold=threshold,
                stop_reason=reason,
                vertices_found=vertices_found,
            )
        if passed and not run_to_completion:
            return ExplorationTrace(
                start_vertex=start,
                s_values=s_values,
                neutral_counts=neutral_counts,
                t_zero=None,
                t_half=t_half,
                half_threshold=threshold,
                stop_reason="passed-t-half",
                vertices_found=vertices_found,
            )

        e1 = active_list[int(rng.integers(len(active_list)))]
        _remove(active_list, active_pos, e1)
        _remove(free_list, free_pos, e1)
        e2 = free_list[int(rng.integers(len(free_list)))]
        _remove(free_list, free_pos, e2)
        if active_pos[e2] >= 0:
            _remove(active_list, active_pos, e2)
        else:
            v2 = int(owners[e2])
            neutral -= int(deg[v2])
            vertices_found += 1
            for h in range(int(offsets[v2]), int(offsets[v2 + 1])):
                if h != e2:
                    active_pos[h] = len(active_list)
                    active_list.append(h)
        t += 1
        s_values.append(len(active_list))
        neutral_counts.append(neutral)
