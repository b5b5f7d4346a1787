"""Edge-list census kept as a test-only reference for cmlab.census.

It labels every vertex from the collapsed edge list with one scipy pass
and counts each statistic over all components, the slow and direct way.
The package's census must agree with it on every graph.
"""

from collections import Counter

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from cmlab.census import ComponentCensus


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
