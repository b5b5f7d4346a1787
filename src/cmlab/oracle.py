"""Exact laws of tiny sequences by exhaustive enumeration.

Every probabilistic claim in the package grounds out here. The oracle
enumerates each multigraph with the prescribed degrees exactly once and
weights it by the number of the (ell-1)!! half-edge matchings that induce
it:

    prod_v d_v! / (prod_{u<v} m_uv! * prod_v 2^l_v l_v!),

where m_uv is the number of u-v edges and l_v the number of self-loops at
v (Bollobas 1980). The weights sum to (ell-1)!!, so the law is the same
as over all matchings. The walk that builds each multigraph edge by edge
also keeps its self-loops, its parallel-edge pairs and its components,
and two multigraphs with the same counts and the same component
signatures in lowest-vertex order have the same census. So the weights
are summed per such class, and the census classifier runs once per
class, not once per multigraph. Arbitrary-precision arithmetic keeps the
results exact. The default cap ell <= 16 bounds the run time: with all
degrees 1 every matching is a multigraph of its own (2,027,025 at
ell = 16, in 1,430 classes, about 6 s), and at ell = 24 all degrees 2
alone give 171,453,343.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .census import ComponentCensus, Row, _classify
from .degseq import DegreeSequence
from .errors import TooLarge

HALF_EDGE_CAP = 16

#: joint-pmf key: sorted (statistic, value) pairs; per-k counters appear
#: only when nonzero, scalar statistics always.
CensusKey = tuple[tuple[str, int], ...]


def double_factorial_odd(ell: int) -> int:
    """(ell-1)!! for even ell >= 0: the number of perfect matchings."""
    if ell % 2 != 0 or ell < 0:
        raise ValueError(f"ell must be even and >= 0, got {ell}")
    return math.prod(range(ell - 1, 0, -2))


def _check_cap(seq: DegreeSequence, cap: int) -> None:
    if seq.ell > cap:
        raise TooLarge(f"ell={seq.ell} exceeds the enumeration cap {cap}")


def enumerate_matchings(
    seq: DegreeSequence, cap: int = HALF_EDGE_CAP
) -> Iterator[tuple[tuple[int, int], ...]]:
    """Yield every perfect matching of the half-edges exactly once.

    The recursion always matches the lowest-indexed free half-edge, so
    each matching comes out in canonical form: (min, max) pairs sorted by
    first id. Raises TooLarge when ell exceeds `cap`.
    """
    _check_cap(seq, cap)

    def rec(free: tuple[int, ...]) -> Iterator[tuple[tuple[int, int], ...]]:
        if not free:
            yield ()
            return
        first = free[0]
        rest = free[1:]
        for i, partner in enumerate(rest):
            head = ((first, partner),)
            for tail in rec(rest[:i] + rest[i + 1 :]):
                yield head + tail

    return rec(tuple(range(seq.ell)))


#: a multigraph's class along the walk: (self-loops, parallel-edge pairs,
#: packed component signatures); see _walk. Equal classes have equal
#: censuses.
WalkKey = tuple[int, int, int]


def _walk(
    seq: DegreeSequence, cap: int
) -> Iterator[tuple[list[tuple[int, int]], int, WalkKey]]:
    """Every multigraph with the degrees of `seq` exactly once, as (its
    pairing, the number of matchings that induce it, its class).

    The recursion joins a free half-edge of the lowest vertex u that has
    one to a vertex v >= u, no lower than u's previous partner (v = u
    takes two), so the edges come out in lexicographic order of their
    (lower, upper) vertex pair and each multiset of edges once. Each end
    takes the next free half-edge id of its vertex, so the pairing is
    laid out on `seq.half_edge_owners`. A run of r equal partners
    multiplies the weight's denominator by r (by 2r for a self-loop),
    which builds up prod m_uv! * prod 2^l_v l_v!; the r-th u-v edge
    also makes r - 1 new pairs of parallel edges.

    The components grow along the walk and are undone on backtrack: each
    vertex knows the lowest vertex of its component, and the component's
    signature (size, #degree 1, #degree 2) sits in the bits of the class
    integer that belong to that lowest vertex, fields of n.bit_length()
    bits each, so the integer reads the signatures in lowest-vertex
    order. The pairing list is shared and changes once the walk goes on.
    Raises TooLarge, on the call itself, when ell exceeds `cap`.
    """
    _check_cap(seq, cap)
    n = seq.n
    degrees = seq.degrees.tolist()
    free = list(degrees)
    # one past the last half-edge id of each vertex
    end = seq.half_edge_offsets[1:].tolist()
    numerator = math.prod(math.factorial(d) for d in degrees)
    pairs: list[tuple[int, int]] = []
    field = n.bit_length()
    width = 3 * field
    mask = (1 << width) - 1
    low = list(range(n))  # the lowest vertex of each vertex's component
    members = [[v] for v in range(n)]  # the vertices of each lowest vertex's component
    signatures = 0
    for v, d in enumerate(degrees):
        signatures |= (1 | (d == 1) << field | (d == 2) << 2 * field) << v * width

    def rec(u: int, last: int, run: int, denom: int, loops: int, multi: int,
            comps: int) -> Iterator[tuple[list[tuple[int, int]], int, WalkKey]]:
        if free[u] == 0:  # u is done: go on to the next vertex with a free half-edge
            while u < n and free[u] == 0:
                u += 1
            if u == n:
                yield pairs, numerator // denom, (loops, multi, comps)
                return
            last, run = u, 0
        hu = end[u] - free[u]
        for v in range(last, n):
            r = run + 1 if v == last else 1
            if v == u and free[u] >= 2:
                free[u] -= 2
                pairs.append((hu, hu + 1))
                yield from rec(u, v, r, denom * 2 * r, loops + 1, multi, comps)
                pairs.pop()
                free[u] += 2
            elif v != u and free[v]:
                free[u] -= 1
                pairs.append((hu, end[v] - free[v]))
                free[v] -= 1
                a, b = low[u], low[v]
                if a == b:
                    yield from rec(u, v, r, denom * r, loops, multi + r - 1, comps)
                else:  # join the component of the higher lowest vertex to the other
                    if b < a:
                        a, b = b, a
                    joined = members[b]
                    for w in joined:
                        low[w] = a
                    kept = members[a]
                    size = len(kept)
                    kept += joined
                    sig = comps >> b * width & mask
                    yield from rec(u, v, r, denom * r, loops, multi + r - 1,
                                   comps + (sig << a * width) - (sig << b * width))
                    del kept[size:]
                    for w in joined:
                        low[w] = b
                pairs.pop()
                free[v] += 1
                free[u] += 1

    return rec(0, 0, 0, 1, 0, 0, signatures)


def enumerate_multigraphs(
    seq: DegreeSequence, cap: int = HALF_EDGE_CAP
) -> Iterator[tuple[np.ndarray, int]]:
    """Yield every multigraph with the degrees of `seq` exactly once, as
    (pairing, number of matchings that induce it); see _walk. Raises
    TooLarge when ell exceeds `cap`.
    """
    walk = _walk(seq, cap)  # checks the cap now, not at the first item
    return ((np.array(pairs), weight) for pairs, weight, _ in walk)


def _class_census(seq: DegreeSequence, key: WalkKey) -> CensusKey:
    """The census key of every multigraph of walk class `key`."""
    loops, multi, comps = key
    field = seq.n.bit_length()
    width = 3 * field
    mask = (1 << field) - 1
    rows: list[Row] = []
    for v in range(seq.n):
        sig = comps >> v * width
        if sig & mask:  # a size: v is the lowest vertex of a component
            rows.append((v, sig & mask, sig >> field & mask, sig >> 2 * field & mask, 1))
    return census_key(_classify(seq, loops, multi, rows))


def census_key(c: ComponentCensus) -> CensusKey:
    """Canonicalize a census as sorted (statistic, value) pairs."""
    items = [(f"C{k}", v) for k, v in c.cycle_counts.items() if v]
    items += [(f"L{k}", v) for k, v in c.line_counts.items() if v]
    items += [
        ("S", c.self_loops),
        ("M", c.multi_edges),
        ("giant_size", c.giant_size),
        ("complement", c.complement),
        ("other_outside_giant", c.other_outside_giant),
        ("deg3_outside_giant", c.deg3_outside_giant),
    ]
    return tuple(sorted(items))


def _key_value(key: CensusKey, stat: str) -> int:
    return dict(key).get(stat, 0)


@dataclass(frozen=True)
class ExactLaw:
    """Exact joint law of the component census under uniform pairing."""

    n: int
    ell: int
    total_matchings: int
    p_connected: Fraction
    p_simple: Fraction
    census_expectations: dict[str, Fraction]
    joint_pmf: dict[CensusKey, Fraction]

    def prob(self, stat: str, value: int) -> Fraction:
        """Exact marginal probability P(stat = value)."""
        return sum(
            (p for key, p in self.joint_pmf.items() if _key_value(key, stat) == value),
            Fraction(0),
        )

    def expectation(self, stat: str) -> Fraction:
        return self.census_expectations.get(stat, Fraction(0))

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "ell": self.ell,
            "total_matchings": self.total_matchings,
            "p_connected": str(self.p_connected),
            "p_simple": str(self.p_simple),
            "census_expectations": {
                k: str(v) for k, v in sorted(self.census_expectations.items())
            },
            "joint_pmf": {
                ",".join(f"{s}={v}" for s, v in key): str(p)
                for key, p in sorted(self.joint_pmf.items())
            },
        }


def exact_law(seq: DegreeSequence, cap: int = HALF_EDGE_CAP) -> ExactLaw:
    """Aggregate the exact census law over every matching.

    Each matching carries weight 1/(ell-1)!!. The walk over multigraphs
    (see _walk) adds each multigraph's weight, the number of matchings
    inducing it, to its class; each class is classified once.
    """
    classes: dict[WalkKey, int] = {}
    get = classes.get
    for _, weight, key in _walk(seq, cap):
        classes[key] = get(key, 0) + weight
    outcome_counts: dict[CensusKey, int] = {}
    for key, weight in classes.items():
        outcome = _class_census(seq, key)
        outcome_counts[outcome] = outcome_counts.get(outcome, 0) + weight
    total = sum(outcome_counts.values())
    if total != double_factorial_odd(seq.ell):
        raise RuntimeError(
            f"multigraph weights sum to {total}, not (ell-1)!! = "
            f"{double_factorial_odd(seq.ell)}"
        )

    sums: dict[str, int] = {}
    connected = simple = 0
    for key, cnt in outcome_counts.items():
        for stat, value in key:
            sums[stat] = sums.get(stat, 0) + cnt * value
        values = dict(key)
        if values["complement"] == 0:
            connected += cnt
        if values["S"] == 0 and values["M"] == 0:
            simple += cnt
    return ExactLaw(
        n=seq.n,
        ell=seq.ell,
        total_matchings=total,
        p_connected=Fraction(connected, total),
        p_simple=Fraction(simple, total),
        census_expectations={stat: Fraction(v, total) for stat, v in sums.items()},
        joint_pmf={key: Fraction(cnt, total) for key, cnt in outcome_counts.items()},
    )


def _falling_factorial(x: int, r: int) -> int:
    out = 1
    for i in range(r):
        out *= x - i
    return out


def exact_factorial_moment(
    seq: DegreeSequence,
    orders: dict[str, int],
    law: ExactLaw | None = None,
    cap: int = HALF_EDGE_CAP,
) -> Fraction:
    """Exact E[prod_stat (X_stat)_r] over the enumeration law.

    (X)_r is the falling factorial X(X-1)...(X-r+1); the empty product
    (no orders) is 1. Pass a precomputed `law` to skip re-enumeration.
    """
    for stat, r in orders.items():
        if r < 0:
            raise ValueError(f"order for {stat} must be >= 0, got {r}")
    if law is None:
        law = exact_law(seq, cap=cap)
    total = Fraction(0)
    for key, p in law.joint_pmf.items():
        prod = 1
        for stat, r in orders.items():
            prod *= _falling_factorial(_key_value(key, stat), r)
        total += p * prod
    return total
