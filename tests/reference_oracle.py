"""Matching-walk oracle kept as a test-only reference for cmlab.oracle.

It walks every one of the (ell-1)!! half-edge matchings, runs the census
on each (cached by the multigraph's sorted owner pairs) and counts each
matching once, the slow and direct way. exact_law must agree with it
exactly on every sequence.
"""

from collections import Counter
from fractions import Fraction

import numpy as np

from cmlab.census import component_census
from cmlab.generator import Multigraph
from cmlab.oracle import (
    HALF_EDGE_CAP,
    CensusKey,
    ExactLaw,
    _key_value,
    census_key,
    enumerate_matchings,
)


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
            (p for key, p in joint.items() if _key_value(key, "complement") == 0),
            Fraction(0),
        ),
        p_simple=sum(
            (p for key, p in joint.items()
             if _key_value(key, "S") == 0 and _key_value(key, "M") == 0),
            Fraction(0),
        ),
        census_expectations={
            stat: sum((p * _key_value(key, stat) for key, p in joint.items()), Fraction(0))
            for stat in stats
        },
        joint_pmf=joint,
    )
