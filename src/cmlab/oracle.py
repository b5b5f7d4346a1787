"""Exact laws of tiny sequences by counting every matching.

Every probabilistic claim in the package grounds out here. exact_law
counts the (ell-1)!! half-edge matchings by what their census depends on,
with three exact integer recursions over degree multisets; no graph is
built.

- _matchings counts all matchings of a set of vertices by self-loops S
  and parallel-edge pairs M, the first vertex's half-edges at a time:
  Bollobas's (1980) configuration-model counts.
- _connected counts the connected ones. Every matching splits into the
  component of its first vertex and a matching of the other vertices,
  and that split is inverted: the exponential formula (Flajolet and
  Sedgewick, Analytic Combinatorics, 2009, II.2).
- _summaries builds the components in lowest-vertex order and counts the
  matchings per component structure, the giant's signature (size,
  #degree 1, #degree 2) and the others' signatures, each with a table by
  S and M. A census depends on S and M only through its "S" and "M"
  entries, so the census classifier runs once per distinct structure.

A table keys each count by one integer, S * stride + M, with stride
C(ell/2, 2) + 1: M sums C(m, 2) over the multiplicities m of the vertex
pairs, and as the m sum to at most ell/2, M is at most C(ell/2, 2), all
edges on one pair. So combining two disjoint parts adds their keys with
no carry from M into S, and exact_law splits each key with divmod once.
Each recursion takes its degree tuple and one _Tables object, which
holds the stride and every memo of one exact_law call and no longer.

The order of the vertices matters only through the giant's tie-break,
the lowest vertex among the largest components. Arbitrary-precision
integers keep the results exact. The default cap ell <= 16 bounds the
run time, which grows with the number of vertex sets a state can split
into. Alternating short runs of equal degrees cost the most: 1,2,1,2,...
at ell = 16 takes about 0.03 s on a 2-core machine, while {1:16},
2,027,025 matchings that are each a multigraph of their own, takes
milliseconds. The cap bounds half-edges, not memory: the tables grow
with the number of distinct outcomes, and with a raised cap
{1:4,2:8,3:8} (ell 44, 223,449 outcomes) takes about 5.5 s and 290 MiB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .census import ComponentCensus, _classify
from .degseq import DegreeSequence, is_integer, shown
from .errors import InvalidConfig, TooLarge

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
    if not is_integer(cap):
        raise InvalidConfig(f"cap must be an integer, got {shown(cap, repr)}")
    if seq.ell > cap:
        raise TooLarge(f"ell={seq.ell} exceeds the enumeration cap {shown(cap)}")


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


#: {self-loops * stride + parallel-edge pairs: number of matchings}
Table = dict[int, int]

#: the root pieces of a vertex order (see _root_pieces)
Pieces = list[tuple[int, tuple[int, ...], tuple[int, ...]]]

#: a component's (size, #degree 1, #degree 2)
Signature = tuple[int, int, int]

#: what the census needs of a matching's components, whatever its
#: self-loops and parallel-edge pairs: (the giant's signature, the other
#: signatures sorted)
Structure = tuple[Signature, tuple[Signature, ...]]


class _Tables:
    """The key stride of one exact_law call and each recursion's memo,
    keyed by a degree tuple."""

    __slots__ = ("stride", "matchings", "pieces", "connected", "summaries")

    def __init__(self, ell: int) -> None:
        self.stride = math.comb(ell // 2, 2) + 1
        self.matchings: dict[tuple[int, ...], Table] = {}
        self.pieces: dict[tuple[int, ...], Pieces] = {}
        self.connected: dict[tuple[int, ...], Table] = {}
        self.summaries: dict[tuple[int, ...], dict[Structure, Table]] = {}


def _matchings(free: tuple[int, ...], tables: _Tables) -> Table:
    """The perfect matchings of vertices with `free` half-edges each (a
    sorted tuple of positive counts), counted by (S, M).

    The first vertex's f half-edges form j self-loops and r_v edges to
    each other vertex v, which f!/(2^j j!) * prod_v C(free_v, r_v)
    matchings do. That adds j to S and sum_v C(r_v, 2) to M (loops at one
    vertex are not parallel edges, as in the census), and the counts left
    go on, sorted. The first count is the smallest, so no r_v can exceed
    free_v.
    """
    table = tables.matchings.get(free)
    if table is not None:
        return table
    if not free:
        tables.matchings[free] = table = {0: 1}
        return table
    f, others = free[0], free[1:]
    # (counts left, key of f's edges) -> matchings of f's half-edges
    spreads: dict[tuple[tuple[int, ...], int], int] = {}

    def spread(i: int, t: int, ways: int, key: int, left: list[int]) -> None:
        if t == 0:
            at = (tuple(sorted(left + list(others[i:]))), key)
            spreads[at] = spreads.get(at, 0) + ways
        elif i < len(others):
            g = others[i]
            for r in range(t + 1):
                spread(i + 1, t - r, ways * math.comb(g, r), key + r * (r - 1) // 2,
                       left + [g - r] if g > r else left)

    for j in range(f // 2 + 1):
        spread(0, f - 2 * j, math.factorial(f) // (math.factorial(j) << j),
               j * tables.stride, [])
    table = {}
    for (rest, shift), ways in spreads.items():
        for key, count in _matchings(rest, tables).items():
            key += shift
            table[key] = table.get(key, 0) + ways * count
    tables.matchings[free] = table
    return table


def _root_pieces(order: tuple[int, ...], tables: _Tables) -> Pieces:
    """Every set of the vertices with degrees `order` that holds the first
    and has an even degree sum, as (how many such sets, their sorted
    degrees, the degrees left in order).

    Within a run of equal consecutive degrees any c vertices leave the
    same degrees, so each c stands for C(run, c) sets, C(run - 1, c - 1)
    in the first vertex's run. The sets are built run by run. A set of
    odd degree sum has no matching, so it is left out.
    """
    pieces = tables.pieces.get(order)
    if pieces is not None:
        return pieces
    runs: list[list[int]] = []
    for d in order:
        if runs and runs[-1][0] == d:
            runs[-1][1] += 1
        else:
            runs.append([d, 1])
    first = 1  # the first run gives at least its first vertex
    pieces = [(1, (), ())]
    for d, size in runs:
        pieces = [(ways * math.comb(size - first, c - first), piece + (d,) * c,
                   rest + (d,) * (size - c))
                  for ways, piece, rest in pieces for c in range(first, size + 1)]
        first = 0
    tables.pieces[order] = pieces = [(ways, tuple(sorted(piece)), rest)
                                     for ways, piece, rest in pieces if sum(piece) % 2 == 0]
    return pieces


def _connected(degrees: tuple[int, ...], tables: _Tables) -> Table:
    """The connected matchings of vertices with the sorted `degrees`,
    counted by (S, M).

    The first vertex's component of a matching is on some set T of
    vertices that holds it, and the rest is any matching of the others:

        All(D) = sum_T (sets T) * Conn(T) (*) All(D - T),

    where (*) adds S and M, that is, adds the keys. Conn(D) is the term
    T = D: All(D) less the others.
    """
    table = tables.connected.get(degrees)
    if table is not None:
        return table
    table = dict(_matchings(degrees, tables))
    for ways, piece, rest in _root_pieces(degrees, tables):
        if not rest:  # T = D
            continue
        conn = _connected(piece, tables)
        if not conn:
            continue
        alls = _matchings(rest, tables)
        for k1, a in conn.items():
            a *= ways
            for k2, b in alls.items():
                table[k1 + k2] -= a * b
    table = {key: count for key, count in table.items() if count}
    tables.connected[degrees] = table
    return table


def _summaries(order: tuple[int, ...], tables: _Tables) -> dict[Structure, Table]:
    """The matchings of the vertices with degrees `order`, in vertex
    order, counted by (S, M) per component structure.

    The components are built in lowest-vertex order: the first vertex's
    is on any set T that holds it (see _root_pieces), and the rest's
    structures come from the degrees left, in their order. A component
    placed in front of an as large giant becomes the giant, as the first
    maximum in _classify does. Each structure of the rest is placed once,
    and its (S, M) table is multiplied by the component's.
    """
    out = tables.summaries.get(order)
    if out is not None:
        return out
    out = {}
    for ways, piece, rest in _root_pieces(order, tables):
        conn = _connected(piece, tables)
        if not conn:
            continue
        sig = (len(piece), piece.count(1), piece.count(2))
        if not rest:  # one set of all the vertices, one component
            out[sig, ()] = conn
            continue
        scaled = [(k2, ways * a) for k2, a in conn.items()]
        for (giant, others), later in _summaries(rest, tables).items():
            # place this component in front of the rest's
            if sig[0] >= giant[0]:
                structure = (sig, tuple(sorted(others + (giant,))))
            else:
                structure = (giant, tuple(sorted(others + (sig,))))
            table = out.setdefault(structure, {})
            for k1, b in later.items():
                for k2, a in scaled:
                    key = k1 + k2
                    table[key] = table.get(key, 0) + a * b
    tables.summaries[order] = out
    return out


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
        """The law with rationals as strings; in no set key order, as every
        writer dumps it with sort_keys."""
        return {
            "n": self.n,
            "ell": self.ell,
            "total_matchings": self.total_matchings,
            "p_connected": str(self.p_connected),
            "p_simple": str(self.p_simple),
            "census_expectations": {
                k: str(v) for k, v in self.census_expectations.items()
            },
            "joint_pmf": {
                ",".join([f"{s}={v}" for s, v in key]): str(p)
                for key, p in self.joint_pmf.items()
            },
        }


def exact_law(seq: DegreeSequence, cap: int = HALF_EDGE_CAP) -> ExactLaw:
    """Aggregate the exact census law over every matching.

    Each matching carries weight 1/(ell-1)!!. The matchings are counted
    per component structure and (S, M) by _summaries, and each structure
    is classified once. Raises TooLarge, before any counting, when ell
    exceeds `cap`. The cap bounds half-edges, not memory: a raised cap
    lets {1:4,2:8,3:8} (ell 44) take about 5.5 s and 290 MiB on a 2-core
    machine.
    """
    _check_cap(seq, cap)
    tables = _Tables(seq.ell)
    stride = tables.stride
    structures = _summaries(tuple(seq.degrees.tolist()), tables)
    outcome_counts: dict[CensusKey, int] = {}
    sums: dict[str, int] = {}
    loops_sum = multi_sum = connected = simple = 0
    for (giant, others), table in structures.items():
        # the giant's row first, so _classify picks it; row[0] is then an
        # order position, not a vertex
        rows = [(0, *giant, 1)] + [(i, *sig, 1) for i, sig in enumerate(others, 1)]
        census = _classify(seq, 0, 0, rows)
        key = census_key(census)
        # census_key sorts the C/L counters before ("M", .) and ("S", .),
        # and the lowercase names after: the two slots lie side by side
        at = key.index(("M", 0))
        head, tail = key[:at], key[at + 2:]
        weight = 0
        for packed, count in table.items():
            loops, multi = divmod(packed, stride)
            outcome = head + (("M", multi), ("S", loops)) + tail
            outcome_counts[outcome] = outcome_counts.get(outcome, 0) + count
            loops_sum += count * loops
            multi_sum += count * multi
            weight += count
        for stat, value in head + tail:
            sums[stat] = sums.get(stat, 0) + weight * value
        if census.complement == 0:
            connected += weight
        simple += table.get(0, 0)  # S = M = 0
    sums["S"], sums["M"] = loops_sum, multi_sum
    total = sum(outcome_counts.values())
    if total != double_factorial_odd(seq.ell):
        raise RuntimeError(
            f"matching counts sum to {total}, not (ell-1)!! = "
            f"{double_factorial_odd(seq.ell)}"
        )
    return ExactLaw(
        n=seq.n,
        ell=seq.ell,
        total_matchings=total,
        p_connected=Fraction(connected, total),
        p_simple=Fraction(simple, total),
        census_expectations={stat: Fraction(v, total) for stat, v in sums.items()},
        joint_pmf={key: Fraction(cnt, total) for key, cnt in outcome_counts.items()},
    )
