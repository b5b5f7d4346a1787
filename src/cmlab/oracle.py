"""Exhaustive enumeration over all half-edge pairings of tiny sequences.

Every probabilistic claim in the package grounds out here: the oracle
walks all (ell-1)!! matchings, runs the same component census on each,
and aggregates exact rationals. Arbitrary-precision arithmetic keeps the
results exact; the default cap ell <= 16 (about 2.03 million matchings)
keeps runs fast while covering the structural edge cases.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .census import ComponentCensus, component_census
from .degseq import DegreeSequence
from .errors import TooLarge
from .generator import Multigraph

HALF_EDGE_CAP = 16

#: joint-pmf key: sorted (statistic, value) pairs; per-k counters appear
#: only when nonzero, scalar statistics always.
CensusKey = tuple[tuple[str, int], ...]


def double_factorial_odd(ell: int) -> int:
    """(ell-1)!! for even ell >= 0: the number of perfect matchings."""
    if ell % 2 != 0 or ell < 0:
        raise ValueError(f"ell must be even and >= 0, got {ell}")
    return math.prod(range(ell - 1, 0, -2))


def enumerate_matchings(
    seq: DegreeSequence, cap: int = HALF_EDGE_CAP
) -> Iterator[tuple[tuple[int, int], ...]]:
    """Yield every perfect matching of the half-edges exactly once.

    The recursion always matches the lowest-indexed free half-edge, so
    each matching comes out in canonical form: (min, max) pairs sorted by
    first id. Raises TooLarge when ell exceeds `cap`.
    """
    if seq.ell > cap:
        raise TooLarge(f"ell={seq.ell} exceeds the enumeration cap {cap}")

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

    Each matching carries weight 1/(ell-1)!!. Distinct matchings that
    induce the same multigraph share a cached census, keyed by the sorted
    tuple of their edges' owner pairs.
    """
    owners = seq.half_edge_owners
    # a canonical matching pairs x < y, and owners never decrease with the
    # half-edge id, so (owner[x], owner[y]) is already ordered
    edge_of = [[(u, v) for v in owners.tolist()] for u in owners.tolist()]
    census_cache: dict[tuple[tuple[int, int], ...], CensusKey] = {}
    outcome_counts: Counter[CensusKey] = Counter()
    total = 0
    for matching in enumerate_matchings(seq, cap=cap):
        gkey = tuple(sorted([edge_of[x][y] for x, y in matching]))
        key = census_cache.get(gkey)
        if key is None:
            g = Multigraph(n=seq.n, owners=owners, pairing=np.array(matching))
            key = census_key(component_census(g, seq))
            census_cache[gkey] = key
        outcome_counts[key] += 1
        total += 1

    joint = {key: Fraction(cnt, total) for key, cnt in outcome_counts.items()}
    stats = sorted({s for key in joint for s, _ in key})
    expectations = {
        stat: sum((p * _key_value(key, stat) for key, p in joint.items()), Fraction(0))
        for stat in stats
    }
    p_conn = sum(
        (p for key, p in joint.items() if _key_value(key, "complement") == 0),
        Fraction(0),
    )
    p_simp = sum(
        (
            p
            for key, p in joint.items()
            if _key_value(key, "S") == 0 and _key_value(key, "M") == 0
        ),
        Fraction(0),
    )
    return ExactLaw(
        n=seq.n,
        ell=seq.ell,
        total_matchings=total,
        p_connected=p_conn,
        p_simple=p_simp,
        census_expectations=expectations,
        joint_pmf=joint,
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
