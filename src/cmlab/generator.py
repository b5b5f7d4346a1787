"""Uniform random pairing of half-edges into a multigraph.

Vertex v owns d_v half-edges; the half-edges are laid out contiguously by
vertex as ids 0..ell-1. A uniform shuffle of the ids paired at positions
(2i, 2i+1) is a perfect matching drawn uniformly from all (ell-1)!!
matchings, which induces the sampled multigraph.

A Multigraph is kept as that pairing, not as an edge list: the census
reads the pairing directly, and the edge list is derived only when it is
asked for (the edge dump, tests). An edge list read from outside becomes
a pairing too, with its endpoints numbered by a stable rank of their
vertex, so it enters the same census after its degrees are checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .degseq import DegreeSequence, is_integer, shown
from .errors import InvalidConfig, MalformedEdgeList

_U64 = 2**64


@dataclass(frozen=True)
class Seed:
    """Reproducible RNG identity: (master, stream) fully determines a sample.

    Streams index independent replicates. Derivation goes through numpy's
    SeedSequence, which hashes (master, stream) into the PCG64 state, so
    streams are independent and order-insensitive, and identical seeds give
    identical samples on every platform. Each field must be a Python or
    numpy integer in 0..2**64 - 1, not a bool; else InvalidConfig.
    """

    master: int
    stream: int = 0

    def __post_init__(self):
        for name in ("master", "stream"):
            value = getattr(self, name)
            if not (is_integer(value) and 0 <= value < _U64):
                raise InvalidConfig(
                    f"{name} must be a 64-bit unsigned integer, got {shown(value)}")

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.master, spawn_key=(self.stream,))
        return np.random.Generator(np.random.PCG64(ss))


@dataclass(frozen=True)
class Multigraph:
    """A perfect matching of half-edges and the multigraph it induces.

    `owners[h]` is the vertex of half-edge h, non-decreasing in h, and
    `pairing` is an (ell/2, 2) array of half-edge ids, one row per edge.
    A sampled graph shares its sequence's `half_edge_owners` array; that
    is how the census knows its degrees need no re-check. Self-loops and
    parallel edges are kept.
    """

    n: int
    owners: np.ndarray
    pairing: np.ndarray

    @classmethod
    def from_edges(cls, n: int, edges) -> Multigraph:
        """The multigraph of a 0-based edge list (vertex pairs, one row per
        edge). Half-edge ids number the endpoints by a stable rank of
        their vertex, so a graph whose degrees match a sequence gets that
        sequence's owner layout."""
        ends = np.asarray(edges, dtype=np.int64).ravel()
        order = np.argsort(ends, kind="stable")
        ids = np.empty_like(order)
        ids[order] = np.arange(len(order))
        return cls(n=n, owners=ends[order], pairing=ids.reshape(-1, 2))

    @cached_property
    def edges(self) -> np.ndarray:
        """Read-only (ell/2, 2) vertex pairs with u <= v per row, in pairing
        order; a self-loop at v is the row (v, v). Derived on first access."""
        edges = np.sort(self.owners[self.pairing], axis=1)
        edges.flags.writeable = False
        return edges

    def realized_degrees(self) -> np.ndarray:
        return np.bincount(self.edges.ravel(), minlength=self.n)


def sample_pairing(seq: DegreeSequence, seed: Seed,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Draw a uniform perfect matching of the half-edges.

    Returns an (ell/2, 2) array of half-edge ids: a single uniform shuffle,
    paired at positions (2i, 2i+1), drawn from `seed.generator()`, so the
    pairing is a pure function of the seed.

    With `out`, an int64 array of ell entries, the shuffle runs in it and
    the result is a view of it, whatever `out` held before, with no
    allocation: a caller drawing many pairings of one sequence passes one
    buffer to all of them. Without it the buffer is allocated here. Either
    way the ids are the ones `seed.generator().permutation(ell)` gives.
    """
    if out is None:
        out = np.empty(seq.ell, dtype=np.int64)
    elif out.shape != (seq.ell,) or out.dtype != np.int64:
        raise ValueError(f"out must be an int64 array of {seq.ell} entries")
    # permutation(ell) is arange(ell) shuffled. arange would allocate, so
    # the ids are written in place: each step writes the next block as the
    # ids before it plus their count, one vectorised add a doubling
    # (np.cumsum, also in place, is six times slower)
    out[:1] = 0
    done = 1
    while done < len(out):
        block = out[done:2 * done]
        np.add(out[:len(block)], done, out=block)
        done *= 2
    seed.generator().shuffle(out)
    return out.reshape(-1, 2)


def sample(seq: DegreeSequence, seed: Seed,
           out: np.ndarray | None = None) -> Multigraph:
    """Sample the uniform half-edge pairing `seed` determines as a
    multigraph of `seq`; `out` is sample_pairing's buffer, so the graph
    lives only until its next use."""
    return Multigraph(n=seq.n, owners=seq.half_edge_owners,
                      pairing=sample_pairing(seq, seed, out))


# ---------------------------------------------------------------------------
# Edge dump: one "u v" pair per line, 1-indexed, self-loop as "v v".
# ---------------------------------------------------------------------------


def format_edges(g: Multigraph) -> str:
    lines = [f"{u + 1} {v + 1}" for u, v in g.edges]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_edges(text: str, n: int | None = None) -> Multigraph:
    """Parse an edge dump; n defaults to the largest vertex id seen.

    Raises MalformedEdgeList, naming the line, for a line that is not two
    integer vertex ids in 1..n.
    """
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            u, v = (int(f) for f in line.split())
        except ValueError:
            raise MalformedEdgeList(
                f"line {lineno}: expected two integer vertex ids, got {line!r}"
            ) from None
        if min(u, v) < 1:
            raise MalformedEdgeList(f"line {lineno}: vertex ids are 1-indexed")
        if n is not None and max(u, v) > n:
            raise MalformedEdgeList(f"line {lineno}: vertex id {max(u, v)} exceeds n = {n}")
        rows.append((u - 1, v - 1))
    edges = np.array(rows, dtype=np.int64).reshape(-1, 2)
    if n is None:
        n = int(edges.max()) + 1 if len(rows) else 0
    return Multigraph.from_edges(n, edges)
