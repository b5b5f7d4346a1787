"""Component census of a multigraph.

The census classifies every connected component and extracts the counters
whose limit laws the theory module predicts: cycle components C_k (k
degree-2 vertices, k edges; a degree-2 vertex with a self-loop is a cycle
of length 1), line components L_k (2 degree-1 endpoints, k-2 degree-2
interior vertices), self-loop edges S, parallel-edge pairs M, the largest
component, and the vertices outside it.

The census reads the graph's half-edge pairing directly; no edge list is
built. Components are labelled one of two ways, and one classifier turns
the labels' rows (lowest vertex, size, #degree 1, #degree 2 per
component) into the census. A plain-Python union-find over the vertex
pairs labels a graph of up to _UNION_FIND_MAX_N = 128 vertices: at that
size a scipy search costs more than the labelling does. The exact oracle
builds no graph: it hands _classify rows of its own.

A larger graph gets an adjacency matrix straight from the pairing: its
row pointer is the sequence's half-edge offsets, and the column of
half-edge h is the owner of h's partner. In the critical window every
vertex of degree >= 3 lies in the giant with high probability, and what
is left is a few lines and cycles of degree-1 and degree-2 vertices. So
one breadth-first search from a maximum-degree vertex covers the giant in
the usual case. The vertices it missed, named by its predecessors, make
one CSR of their own rows for the union-find, up to _UNION_FIND_MAX_N of
them, else for scipy's connected_components (equal components, one row).
scipy is imported there, on the first such graph, not with the module:
the import costs more than the whole exact oracle, which never needs it.
Outside the window a search can miss most of the graph, and the Python
loop would take about 2 us a vertex. The searched component's counts are
the sequence totals minus theirs.

The labellers count no edges. Self-loops and parallel edges are counted
one way for every graph: by one sort of the vertex pairs as int64s, in
the columns once the labels are known. The two ell-sized arrays, the
pair owners and the columns, can be made once (CensusBuffers) for every
graph of a sequence, so their pages are not faulted in again for each
graph.

Either way the giant is chosen among all components by size and lowest
vertex id, which is exact whichever component the search happened to
cover.

The half-edge exploration process of the paper's proof is not here: no
output reads it, so it lives with the tests (tests/reference_census.py),
where it cross-checks the pairing law against the census and the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import TYPE_CHECKING

import numpy as np

from .degseq import DegreeSequence
from .errors import DegreeMismatch
from .generator import Multigraph

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

# Up to this vertex count the plain-Python union-find labels a graph, or
# what a search missed, faster than a search or scipy does. It only
# labels: the one key sort counts loops and parallel edges on both sides.
# On sampled window graphs (rho1 = 1, p2 = 0.3, bulk 3) it and the search
# cross between n = 160 and 192 (BENCH_census_one_counter.json); on
# leftovers of degree-1 and degree-2 vertices it and scipy cross near 512
# vertices (BENCH_micro_census.json).
_UNION_FIND_MAX_N = 128

# (lowest vertex, size, #degree 1, #degree 2, count): `count` components
# of this size and these degree counts, the first of which has this lowest
# vertex
Row = tuple[int, int, int, int, int]


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


@dataclass
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


def component_census(g: Multigraph, degrees: DegreeSequence,
                     buffers: CensusBuffers | None = None) -> ComponentCensus:
    """Classify all components of `g` against its prescribed degrees.

    The largest component breaks size ties by lowest minimum vertex id.
    Cycles and lines are counted over all components, including the
    largest. A graph sampled from `degrees` is trusted; any other graph
    has its realized degrees checked first and raises DegreeMismatch if
    they disagree with the sequence. `buffers`, made for `degrees`, hold
    the census's working arrays; without them it allocates its own.
    """
    if g.owners is not degrees.half_edge_owners:
        _check_degrees(g, degrees)
    if buffers is None:
        buffers = CensusBuffers(degrees)
    # every id in a pairing is below ell, so "clip" never clips; mode
    # "raise" would fill a temporary copy of `out` first
    ends = np.take(degrees.half_edge_owners, g.pairing, out=buffers.ends, mode="clip")
    if degrees.n <= _UNION_FIND_MAX_N:
        rows = _components(degrees.degrees, ends)
    else:  # the column of a half-edge is its partner's owner
        buffers.cols[g.pairing[:, 0]] = ends[:, 1]
        buffers.cols[g.pairing[:, 1]] = ends[:, 0]
        rows = _search_rows(degrees, buffers.cols)

    # self-loops and parallel edges: one sort of (max, min) word pairs in the spent columns
    a, b = ends[:, 0], ends[:, 1]
    self_loops = int(np.count_nonzero(a == b))
    words = buffers.cols.reshape(-1, 2)
    np.maximum(a, b, out=words[:, 0])
    np.minimum(a, b, out=words[:, 1])
    key = buffers.cols.view(np.int64)
    key.sort()
    repeats = key[1:][key[1:] == key[:-1]]
    # loops at one vertex, keys of two equal words, are not parallel edges
    repeats = repeats[repeats >> 32 != repeats & 0xFFFFFFFF]
    # a pair joined by m parallel edges repeats m-1 times, the i-th repeat
    # (from 1) adding i: C(m, 2) pairs. A run starts at its searchsorted
    multi_edges = int((np.arange(1, len(repeats) + 1)
                       - np.searchsorted(repeats, repeats)).sum())

    rows.sort()  # _classify breaks size ties by row order
    return _classify(degrees, self_loops, multi_edges, rows)


def _components(deg: np.ndarray, ends: np.ndarray) -> list[Row]:
    """One row per component (count 1), in ascending order, of the graph
    on vertices 0..len(deg)-1 whose edges are the vertex pairs `ends`."""
    n = len(deg)
    deg = deg.tolist()
    # a root is always the lowest vertex of its tree, and parent[v] <= v
    parent = list(range(n))
    for u, v in ends.tolist():
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
    return [(r, size[r], ones[r], twos[r], 1) for r in roots]


def _classify(seq: DegreeSequence, self_loops: int, multi_edges: int,
              rows: list[Row]) -> ComponentCensus:
    """The census of `seq`'s graph from its component rows. The giant is
    the first row of largest size, so the rows come in ascending order of
    lowest vertex, as _components returns them, or with the giant first."""
    giant = max(rows, key=itemgetter(1))  # the first maximum: lowest vertex
    cycle_counts: dict[int, int] = {}
    line_counts: dict[int, int] = {}
    other = 0
    for row in rows:
        _, s, ones, twos, m = row
        if twos == s:
            cycle_counts[s] = cycle_counts.get(s, 0) + m
        elif ones == 2 and twos == s - 2:
            line_counts[s] = line_counts.get(s, 0) + m
        else:  # the giant is the first component of its row
            other += s * (m - (row is giant))
    n = seq.n
    _, giant_size, ones, twos, _ = giant
    return ComponentCensus(
        n=n,
        cycle_counts=cycle_counts,
        line_counts=line_counts,
        self_loops=self_loops,
        multi_edges=multi_edges,
        giant_size=giant_size,
        complement=n - giant_size,
        other_outside_giant=other,
        deg3_outside_giant=(n - seq.n1 - seq.n2) - (giant_size - ones - twos),
    )


class CensusBuffers:
    """The two ell-sized working arrays of a census, for graphs of one
    sequence; one set serves one thread at a time. A census given these
    writes into them: made afresh each census, their pages and the pairing
    buffer's cost a replicate at n = 1e5 about 1,250 faults and 2 ms of
    system time. The census's other temporaries are not kept: once warm, a
    census given these buffers takes about 0.1 minor faults at n = 1e5.
    """

    def __init__(self, seq: DegreeSequence):
        self.ends = np.empty((seq.ell // 2, 2), dtype=np.int32)  # owners of each pair
        self.cols = np.empty(seq.ell, dtype=np.int32)  # columns, if any, then vertex pairs


def _search_rows(seq: DegreeSequence, cols: np.ndarray) -> list[Row]:
    """The rows, unordered, of one search's component and of what it
    missed, in the graph whose adjacency columns are `cols`."""
    # local: only graphs above _UNION_FIND_MAX_N need scipy, whose import is slow
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import breadth_first_order

    # int32 indices and float64 data are what scipy's graph routines use
    # internally; any other dtype is copied on every call. Every entry is
    # 1.0, so the data is one float broadcast to ell entries
    adj = csr_matrix((np.broadcast_to(1.0, seq.ell), cols, seq.half_edge_offsets),
                     shape=(seq.n, seq.n))
    # the matrix is symmetric, so a directed search covers the component
    root = int(np.argmax(seq.degrees))
    reached, pred = breadth_first_order(adj, root, directed=True, return_predecessors=True)
    rows: list[Row] = []
    if len(reached) < seq.n:
        pred[root] = root  # the others with a negative predecessor were missed
        rest = (pred < 0).nonzero()[0]
        m, deg = len(rest), seq.degrees[rest]
        # their own rows, ranges of cols end to end, relabelled 0..m-1
        # through pred: both ends of an edge lie on the same side
        ptr = np.zeros(m + 1, dtype=np.int32)
        np.add.accumulate(deg, out=ptr[1:])
        at = np.repeat(seq.half_edge_offsets[rest] - ptr[:-1], deg)
        at += np.arange(len(at), dtype=np.int32)
        pred[rest] = np.arange(m, dtype=np.int32)
        local = pred[cols[at]]
        if m <= _UNION_FIND_MAX_N:
            vertex = rest.tolist()
            pairs = np.array((np.repeat(np.arange(m), deg), local)).T
            rows = [(vertex[r], *counts) for r, *counts in _components(deg, pairs)]
        else:  # scipy would copy broadcast data, which is slower than ones
            rows = _sparse_rows(csr_matrix((np.ones(len(local)), local, ptr), shape=(m, m)),
                                deg, rest)
    rows.append((int(reached.min()), len(reached), seq.n1 - sum(r[2] * r[4] for r in rows),
                 seq.n2 - sum(r[3] * r[4] for r in rows), 1))
    return rows


def _sparse_rows(adj: csr_matrix, deg: np.ndarray, vertex: np.ndarray) -> list[Row]:
    """_components's rows, unordered, from scipy's labels, of the graph
    `adj` whose vertex i is `vertex[i]` (ascending) and has degree
    `deg[i]`; equal components share one row."""
    # local, as in _search_rows: only graphs above _UNION_FIND_MAX_N get here
    from scipy.sparse.csgraph import connected_components

    # "weak" on a symmetric matrix is undirected connectivity; scipy's
    # "strong" mode does not return on a matrix with duplicate entries
    _, labels = connected_components(adj, directed=True, connection="weak")
    # scipy numbers the components in the order of their lowest vertex, so
    # the running maximum of the labels steps up exactly at those vertices
    lowest = vertex[np.flatnonzero(np.diff(np.maximum.accumulate(labels), prepend=-1))]
    size = np.bincount(labels)
    counts = np.stack((size, np.bincount(labels[deg == 1], minlength=len(size)),
                       np.bincount(labels[deg == 2], minlength=len(size))))
    # one row for each distinct column of counts: outside the window tens of
    # thousands of components can be equal, too many to classify one by
    # one. lexsort is stable, so a group starts at its lowest component
    order = np.lexsort(counts)
    starts = np.flatnonzero(np.diff(counts[:, order], axis=1, prepend=-1).any(axis=0))
    first = order[starts]
    return list(zip(lowest[first].tolist(), *counts[:, first].tolist(),
                    np.diff(starts, append=len(order)).tolist()))
