"""Graph walks kept as test-only references for cmlab.oracle.

reference_law walks every one of the (ell-1)!! half-edge matchings, runs
the census on each (cached by the multigraph's sorted owner pairs) and
counts each matching once, the slow and direct way. exact_law must agree
with it exactly on every sequence. enumerate_multigraphs walks each
multigraph once, with its weight. exact_factorial_moment reads joint
factorial moments off an exact law. p_no_line2_fraction is the exact
finite-n chance, as a product, that no two degree-1 vertices are paired:
the reference for the L2 limit and for exact_law's P(L2 = 0).
"""

import math
from collections import Counter
from fractions import Fraction

import numpy as np

from cmlab.census import component_census
from cmlab.generator import Multigraph
from cmlab.oracle import (
    HALF_EDGE_CAP,
    CensusKey,
    ExactLaw,
    _check_cap,
    census_key,
    enumerate_matchings,
    exact_law,
)


def enumerate_multigraphs(seq, cap: int = HALF_EDGE_CAP):
    """Every multigraph with the degrees of `seq` exactly once, as (its
    pairing, the number of matchings that induce it).

    The walk joins a free half-edge of the lowest vertex u that has one
    to a vertex v >= u, no lower than u's previous partner (v = u takes
    two), so the edges come out in lexicographic order of their (lower,
    upper) vertex pair and each multiset of edges once. Each end takes
    the next free half-edge id of its vertex. A run of r equal partners
    multiplies the weight's denominator by r (by 2r for a self-loop),
    which builds up Bollobas's prod m_uv! * prod 2^l_v l_v!. Raises
    TooLarge, on the call itself, when ell exceeds `cap`.
    """
    _check_cap(seq, cap)
    n = seq.n
    degrees = seq.degrees.tolist()
    free = list(degrees)
    end = seq.half_edge_offsets[1:].tolist()  # one past each vertex's last id
    numerator = math.prod(math.factorial(d) for d in degrees)
    pairs = []

    def rec(u, last, run, denom):
        if free[u] == 0:  # u is done: go on to the next vertex with a free half-edge
            while u < n and free[u] == 0:
                u += 1
            if u == n:
                yield np.array(pairs), numerator // denom
                return
            last, run = u, 0
        hu = end[u] - free[u]
        for v in range(last, n):
            r = run + 1 if v == last else 1
            if v == u and free[u] >= 2:
                free[u] -= 2
                pairs.append((hu, hu + 1))
                yield from rec(u, v, r, denom * 2 * r)
                pairs.pop()
                free[u] += 2
            elif v != u and free[v]:
                free[u] -= 1
                pairs.append((hu, end[v] - free[v]))
                free[v] -= 1
                yield from rec(u, v, r, denom * r)
                pairs.pop()
                free[v] += 1
                free[u] += 1

    return rec(0, 0, 0, 1)


def reference_law(seq, cap: int = HALF_EDGE_CAP) -> ExactLaw:
    owners = seq.half_edge_owners
    owner_of = owners.tolist()
    census_cache: dict[tuple[tuple[int, int], ...], CensusKey] = {}
    outcome_counts: Counter[CensusKey] = Counter()
    for matching in enumerate_matchings(seq, cap=cap):
        gkey = tuple(sorted([(owner_of[x], owner_of[y]) for x, y in matching]))
        key = census_cache.get(gkey)
        if key is None:
            g = Multigraph(n=seq.n, owners=owners, pairing=np.array(matching))
            key = census_cache[gkey] = census_key(component_census(g, seq))
        outcome_counts[key] += 1
    total = sum(outcome_counts.values())

    joint = {key: Fraction(cnt, total) for key, cnt in outcome_counts.items()}
    stats = sorted({s for key in joint for s, _ in key})
    return ExactLaw(
        n=seq.n,
        ell=seq.ell,
        total_matchings=total,
        p_connected=sum(
            (p for key, p in joint.items() if dict(key)["complement"] == 0),
            Fraction(0),
        ),
        p_simple=sum(
            (p for key, p in joint.items()
             if dict(key)["S"] == dict(key)["M"] == 0),
            Fraction(0),
        ),
        census_expectations={
            stat: sum((p * dict(key).get(stat, 0) for key, p in joint.items()), Fraction(0))
            for stat in stats
        },
        joint_pmf=joint,
    )


def _falling_factorial(x: int, r: int) -> int:
    out = 1
    for i in range(r):
        out *= x - i
    return out


def exact_factorial_moment(
    seq,
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
            prod *= _falling_factorial(dict(key).get(stat, 0), r)
        total += p * prod
    return total


def p_no_line2_fraction(seq) -> Fraction:
    """Exact rational probability that no two degree-1 vertices are paired.

    prod_{i=1..n1} (ell - n1 - i + 1)/(ell - 2i + 1); raises ValueError
    unless 2*n1 <= ell (otherwise some such pairing is forced).
    """
    n1, ell = seq.n1, seq.ell
    if 2 * n1 > ell:
        raise ValueError(f"need 2*n1 <= ell, got n1={n1}, ell={ell}")
    prod = Fraction(1)
    for i in range(1, n1 + 1):
        prod *= Fraction(ell - n1 - i + 1, ell - 2 * i + 1)
    return prod
