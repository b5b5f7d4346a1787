"""Degree sequences and their critical-window parameters.

A degree sequence assigns a degree d_v >= 1 to each of n vertices. The
connectivity behaviour of the paired multigraph is governed by four ratios:
n1/sqrt(n), n2/n, the mean degree, and the size-biased mean nu. This module
validates sequences, computes those ratios exactly from the degree counts,
and builds parametrized sequences for experiments.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import astuple, dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import (
    InfeasibleTargets,
    InvalidLimitParams,
    MalformedDegreeList,
    OddTotalDegree,
    ZeroOrNegativeDegree,
)

#: nu values above this cap are treated as infinite by limit_params.
NU_CAP_DEFAULT = 1e6
#: largest degree and total degree: degrees and half-edge ids are int32
DEGREE_MAX = 2**31 - 1


@dataclass(frozen=True)
class DegreeSequence:
    """Validated degree sequence with cached counts.

    `degrees` is a read-only int32 array (d_1..d_n); `ell` is the total
    degree (held as a Python int, so it never overflows); `counts` maps
    degree -> multiplicity. Instances are immutable and safe to share.
    """

    degrees: np.ndarray
    n: int
    ell: int
    counts: dict[int, int] = field(repr=False)

    @property
    def n1(self) -> int:
        return self.counts.get(1, 0)

    @property
    def n2(self) -> int:
        return self.counts.get(2, 0)

    @cached_property
    def half_edge_owners(self) -> np.ndarray:
        """Owner vertex of each half-edge id, ids laid out by vertex.

        int32, like `half_edge_offsets`: scipy's graph routines take
        int32 CSR indices without copying them.
        """
        owners = np.repeat(np.arange(self.n, dtype=np.int32), self.degrees)
        owners.flags.writeable = False
        return owners

    @cached_property
    def half_edge_offsets(self) -> np.ndarray:
        """First half-edge id of each vertex, plus ell at the end (n+1
        entries): the row pointer of the multigraph's adjacency matrix."""
        offsets = np.zeros(self.n + 1, dtype=np.int32)
        np.cumsum(self.degrees, out=offsets[1:])
        offsets.flags.writeable = False
        return offsets

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DegreeSequence):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.degrees, other.degrees)


@dataclass(frozen=True)
class LimitParams:
    """Limiting window parameters feeding every closed-form prediction.

    Each field must be a Python or numpy real (not a bool) within the
    float range, and is stored as a float. rho1 and p2 must be finite and
    >= 0, d finite and > 0, and nu >= 0 or math.inf; anything else (NaN
    included) raises InvalidLimitParams naming the field. The formulas
    square rho1, d and nu, so the line-mean scale rho1^2 / (2d) and a
    finite nu's square must be finite floats, and d^2 a finite normal one
    (it divides). Where 2*p2 < d, rho1^2 * 2d and twice the line mass
    rho1^2 (d - p2) / (d - 2*p2)^2, which bounds the complement formulas,
    must be finite too. Series-based formulas additionally require
    2*p2 < d, which is enforced at the evaluation sites in `theory`.
    """

    rho1: float
    p2: float
    d: float
    nu: float

    def __post_init__(self):
        for name in ("rho1", "p2", "d", "nu"):
            value = getattr(self, name)
            if not is_real(value):
                raise InvalidLimitParams(
                    f"{name} must be a real number, got {shown(value, repr)}")
            # the checks and formulas below see a float: a huge int would
            # overflow their arithmetic, and a numpy float32 is no JSON number
            try:
                object.__setattr__(self, name, float(value))
            except OverflowError:
                raise InvalidLimitParams(
                    f"{name} must be within the float range, got {shown(value)}") from None
        for name in ("rho1", "p2"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise InvalidLimitParams(f"{name} must be finite and >= 0, got {value}")
        if not (math.isfinite(self.d) and self.d > 0):
            raise InvalidLimitParams(f"d must be finite and > 0, got {self.d}")
        if not math.isfinite(self.rho1 * self.rho1 / (2 * self.d)):
            raise InvalidLimitParams(
                f"rho1 must be small enough that rho1^2 / (2d) is a finite "
                f"float, got rho1 = {self.rho1} with d = {self.d}"
            )
        if not sys.float_info.min <= self.d * self.d < math.inf:
            raise InvalidLimitParams(
                f"d must be about 1.5e-154 to 1.3e154, so that d^2 is a finite "
                f"normal float, got {self.d}"
            )
        gap = self.d - 2 * self.p2
        if gap > 0:
            line_mass = self.rho1 * self.rho1 * (self.d - self.p2) / gap / gap
            if not math.isfinite(self.rho1 * self.rho1 * 2 * self.d + 2 * line_mass):
                raise InvalidLimitParams(
                    f"rho1 must be small enough that rho1^2 * 2d and twice the "
                    f"line mass rho1^2 (d - p2) / (d - 2*p2)^2 are finite floats, "
                    f"got rho1 = {self.rho1} with d = {self.d}, p2 = {self.p2}"
                )
        if not self.nu >= 0:  # false for NaN too
            raise InvalidLimitParams(f"nu must be >= 0 or inf, got {self.nu}")
        if not (math.isfinite(self.nu * self.nu) or self.nu == math.inf):
            raise InvalidLimitParams(
                f"nu must be inf or have a finite square, got {self.nu}"
            )


def validate(raw_degrees) -> DegreeSequence:
    """Check degrees and build a DegreeSequence.

    Every degree must be an integer in 1..DEGREE_MAX, and the total degree
    at most DEGREE_MAX and even (otherwise the half-edges cannot be
    paired). Raises ZeroOrNegativeDegree, naming the first vertex (0-based)
    whose degree is not a real number (a bool, a string, a complex
    number) or is NaN, or is above the bound, or the total above it; or
    OddTotalDegree.
    """
    raw = np.asarray(raw_degrees)
    if raw.ndim != 1 or raw.size == 0:
        raise ZeroOrNegativeDegree("degree sequence must be a nonempty 1-d array")
    # before any comparison or cast, which fail or warn on a string, NaN or
    # a complex number; and numpy reads a bool among a list's ints as 0 or 1
    listed = isinstance(raw_degrees, (list, tuple))
    if listed or raw.dtype.kind not in "iu":
        for v, value in enumerate(raw_degrees if listed else raw.tolist()):
            if not (is_real(value) and value == value):
                raise ZeroOrNegativeDegree(
                    f"vertex {v} has degree {shown(value, repr)}, not an integer")
    # before any cast: int64 would wrap or refuse a Python int beyond
    # 2**63 either way, and int32 anything beyond the bound
    above = np.flatnonzero(raw > DEGREE_MAX)
    if above.size:
        v = int(above[0])
        raise ZeroOrNegativeDegree(
            f"vertex {v} has degree {shown(raw[v])}, above the bound 2**31 - 1 = {DEGREE_MAX}"
        )
    if (raw < 1).any():
        raise ZeroOrNegativeDegree(f"degrees must all be >= 1, found {shown(raw.min())}")
    degrees = raw.astype(np.int64)
    if raw.dtype.kind not in "iu" and not np.array_equal(degrees, raw):
        raise ZeroOrNegativeDegree("degrees must be integers")
    ell = int(degrees.sum())
    if ell > DEGREE_MAX:
        raise ZeroOrNegativeDegree(f"total degree {ell} is above the bound 2**31 - 1")
    if ell % 2 != 0:
        raise OddTotalDegree(f"total degree {ell} is odd; pairing impossible")
    values, mults = np.unique(degrees, return_counts=True)
    counts = {int(v): int(m) for v, m in zip(values, mults)}
    out = degrees.astype(np.int32)
    out.flags.writeable = False
    return DegreeSequence(degrees=out, n=int(degrees.size), ell=ell, counts=counts)


def is_integer(value) -> bool:
    """Whether `value` is a Python or numpy integer; a bool is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def shown(value, text=str, about=False) -> str:
    """`value` as an error message gives it, by `text` (str or repr); or
    the magnitude of an integer, "about 1e5000", when `about` is set or
    when text refuses it, as str() and repr() refuse over 4300 digits."""
    if not about:
        try:
            return text(value)
        except ValueError:
            pass
    return f"about {'-' if value < 0 else ''}1e{math.floor(math.log10(abs(value)))}"


def is_real(value) -> bool:
    """Whether `value` is a Python or numpy real number; a bool is not,
    nor a string."""
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool))


def from_counts(counts: dict[int, int]) -> DegreeSequence:
    """Build a validated sequence from a degree -> multiplicity map.

    validate's bound on the total degree, and so on the vertex count (a
    valid sequence has n <= ell), is checked first with Python ints, then
    that every degree is an integer in 1..DEGREE_MAX and every
    multiplicity an integer >= 0. Each raises ZeroOrNegativeDegree, naming
    the total, the count or the degree, before any array is asked for.
    """
    ell = sum(deg * m for deg, m in counts.items())
    if ell > DEGREE_MAX:
        raise ZeroOrNegativeDegree(f"total degree {shown(ell)} is above the bound 2**31 - 1")
    n = sum(counts.values())
    if n > DEGREE_MAX:
        raise ZeroOrNegativeDegree(f"vertex count {shown(n)} is above the bound 2**31 - 1")
    for deg, m in counts.items():
        if not (is_integer(deg) and 1 <= deg <= DEGREE_MAX):
            raise ZeroOrNegativeDegree(
                f"degree {shown(deg, repr)} is not an integer in 1..2**31 - 1")
        if not (is_integer(m) and m >= 0):
            raise ZeroOrNegativeDegree(
                f"degree {deg} has multiplicity {shown(m, repr)}, not an integer >= 0")
    parts = [np.full(m, deg, dtype=np.int64) for deg, m in sorted(counts.items())]
    if not parts:
        raise ZeroOrNegativeDegree("counts map is empty")
    return validate(np.concatenate(parts))


def limit_params(seq: DegreeSequence) -> LimitParams:
    """The sequence's own window ratios, read as its limit parameters.

    rho1 = n1/sqrt(n), p2 = n2/n, d = ell/n and nu = E[D(D-1)]/E[D] =
    sum_i n_i*i*(i-1) / ell, computed exactly from the cached counts. nu
    above NU_CAP_DEFAULT is flagged as infinite so the generic formulas
    are never fed an effectively divergent second moment.
    """
    second = sum(m * deg * (deg - 1) for deg, m in seq.counts.items())
    nu = second / seq.ell
    return LimitParams(
        rho1=seq.n1 / math.sqrt(seq.n),
        p2=seq.n2 / seq.n,
        d=seq.ell / seq.n,
        nu=math.inf if nu > NU_CAP_DEFAULT else nu,
    )


@dataclass(frozen=True)
class BuildTargets:
    """build_sequence arguments, checked on construction (build_sequence
    makes one): InfeasibleTargets, naming the field, unless n is an
    integer in 1..sys.float_info.max (sqrt(n) and p2 * n are floats),
    rho1 a finite real >= 0, p2 a real with 0 <= p2 < 1 and bulk_degree
    an integer in 3..2**31 - 1. An integer is a Python or numpy one, a
    real may be either too, and a bool is neither; NaN fails. The fields
    are stored as Python numbers, so no report or limit sees a numpy
    scalar."""

    n: int
    rho1: float
    p2: float
    bulk_degree: int = 3

    def __post_init__(self):
        n, rho1, p2, bulk_degree = self.n, self.rho1, self.p2, self.bulk_degree
        if not (is_integer(n) and n >= 1):
            raise InfeasibleTargets(f"n must be an integer >= 1, got {shown(n)}")
        if n > sys.float_info.max:
            raise InfeasibleTargets(f"n must be within the float range, got "
                                    f"{shown(n, about=True)}")
        real_rho1, real_p2 = _as_float(rho1), _as_float(p2)
        if not 0 <= real_rho1 < math.inf:
            raise InfeasibleTargets(f"rho1 must be finite and >= 0, got {shown(rho1, repr)}")
        if not 0 <= real_p2 < 1:
            raise InfeasibleTargets(f"p2 must be in [0, 1), got {shown(p2, repr)}")
        if not (is_integer(bulk_degree) and bulk_degree >= 3):
            raise InfeasibleTargets(
                f"bulk_degree must be an integer >= 3, got {shown(bulk_degree)}")
        if bulk_degree > DEGREE_MAX:  # no degree is larger (see validate)
            raise InfeasibleTargets(
                f"bulk_degree must be at most 2**31 - 1, got {shown(bulk_degree)}")
        for name, value in (("n", int(n)), ("rho1", real_rho1), ("p2", real_p2),
                            ("bulk_degree", int(bulk_degree))):
            object.__setattr__(self, name, value)

    def limit_params(self) -> LimitParams:
        """The n -> infinity window parameters of the built family.

        Degree-1 mass vanishes (n1 ~ sqrt(n)), so the limit mix is p2 at
        degree 2 and 1-p2 at the bulk degree.
        """
        b = self.bulk_degree
        d = 2 * self.p2 + b * (1 - self.p2)
        nu = (2 * self.p2 + b * (b - 1) * (1 - self.p2)) / d
        return LimitParams(rho1=self.rho1, p2=self.p2, d=d, nu=nu)


def _as_float(value) -> float:
    """A real `value` as a Python float, inf for an int beyond the float
    range, and NaN for anything else. Bounds are checked on the result: a
    numpy float32 compared with the float range would cast that range to
    float32, where it overflows."""
    if not is_real(value):
        return math.nan
    try:
        return float(value)
    except OverflowError:
        return math.inf


def build_sequence(
    n: int, rho1: float, p2: float, bulk_degree: int = 3
) -> DegreeSequence:
    """Construct a window sequence: round(rho1*sqrt(n)) vertices of degree 1,
    round(p2*n) of degree 2, the rest of degree `bulk_degree`.

    If the total degree comes out odd, exactly one bulk vertex gets its
    degree incremented by 1; the repair is visible in the result's counts
    and perturbs every window ratio by o(1). Raises InfeasibleTargets for
    a field out of range (see BuildTargets); when the rounded
    counts exceed n, naming rho1 or p2, whichever gives the larger count;
    and naming n when parity cannot be repaired because no bulk vertex
    exists, which a large enough n always leaves.
    """
    n, rho1, p2, bulk_degree = astuple(BuildTargets(n, rho1, p2, bulk_degree))
    # capped, so that a huge rho1 fails the check below, not round(inf)
    n1 = round(min(rho1 * math.sqrt(n), n + 1))
    n2 = round(p2 * n)
    if n1 + n2 > n:
        field, value, others = (("rho1", rho1, f"p2 = {p2}") if n1 >= n2
                                else ("p2", p2, f"rho1 = {rho1}"))
        raise InfeasibleTargets(
            f"{field} must be small enough that round(rho1 sqrt(n)) + round(p2 n) "
            f"<= n, got {value} with n = {n}, {others}"
        )
    n_bulk = n - n1 - n2
    ell = n1 + 2 * n2 + bulk_degree * n_bulk
    counts = Counter()
    if n1:
        counts[1] = n1
    if n2:
        counts[2] = n2
    if n_bulk:
        counts[bulk_degree] = n_bulk
    if ell % 2 != 0:
        if n_bulk == 0:
            raise InfeasibleTargets(
                f"n must be large enough to leave a bulk vertex to repair the odd "
                f"total degree {ell}, got {n} with rho1 = {rho1}, p2 = {p2}"
            )
        counts[bulk_degree] -= 1
        if counts[bulk_degree] == 0:
            del counts[bulk_degree]
        counts[bulk_degree + 1] += 1
    return from_counts(dict(counts))


# ---------------------------------------------------------------------------
# Degree-sequence file format: one line per entry, either a bare degree
# (one vertex) or a "degree count" pair; '#' starts a comment line. The
# serializer emits the run-length form sorted by degree.
# ---------------------------------------------------------------------------


def parse_degrees(text: str) -> DegreeSequence:
    """Parse the plain-text degree file format.

    Raises MalformedDegreeList, naming the line, for a line that is not
    one integer degree or an integer degree and a count >= 0.
    """
    counts: Counter[int] = Counter()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        try:
            if len(fields) > 2:
                raise ValueError
            deg = int(fields[0])
            mult = int(fields[1]) if len(fields) == 2 else 1
            if mult < 0:
                raise ValueError
        except ValueError:
            raise MalformedDegreeList(
                f"line {lineno}: expected 'degree' or 'degree count' "
                f"(integers, count >= 0), got {line!r}"
            ) from None
        counts[deg] += mult
    return from_counts(dict(counts))


def format_degrees(seq: DegreeSequence) -> str:
    """Serialize to the run-length form, sorted by degree."""
    lines = [f"{deg} {mult}" for deg, mult in sorted(seq.counts.items())]
    return "\n".join(lines) + "\n"


def load_degrees(path: str | Path) -> DegreeSequence:
    return parse_degrees(Path(path).read_text(encoding="utf-8"))


def dump_degrees(seq: DegreeSequence, path: str | Path) -> None:
    Path(path).write_text(format_degrees(seq), encoding="utf-8")
