import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmlab import degseq
from cmlab.errors import (
    InfeasibleTargets,
    InvalidLimitParams,
    MalformedDegreeList,
    OddTotalDegree,
    ZeroOrNegativeDegree,
)


def test_validate_tallies_counts():
    s = degseq.validate([2, 2])
    assert (s.n, s.ell) == (2, 4)
    assert s.counts == {2: 2}

    s = degseq.validate([1, 1, 2])
    assert (s.n, s.ell) == (3, 4)
    assert s.counts == {1: 2, 2: 1}


def test_validate_rejects_odd_total():
    with pytest.raises(OddTotalDegree):
        degseq.validate([1, 2])


@pytest.mark.parametrize(
    "raw,vertex,degree",
    [([2**32 + 1, 1], 0, 2**32 + 1), ([2**31, 2**31], 0, 2**31),
     ([1, 1, 2**64], 2, 2**64), ([2, 1.5e10], 1, 1.5e10),
     ([10**5000, 1], 0, "about 1e5000")],
)
def test_validate_rejects_degree_above_int32(raw, vertex, degree):
    """Degrees are stored as int32: a larger one is an error naming the
    vertex and the bound, not a silently wrapped degree."""
    with pytest.raises(ZeroOrNegativeDegree,
                       match=rf"^vertex {vertex} has degree {degree}, above the bound 2\*\*31 - 1"):
        degseq.validate(raw)


def test_validate_accepts_total_degree_at_int32_bound():
    """The largest even total, 2**31 - 2, still fits the int32 half-edge
    offsets."""
    s = degseq.validate([2**31 - 3, 1])
    assert s.degrees.tolist() == [2**31 - 3, 1]
    assert s.counts == {1: 1, 2**31 - 3: 1}
    assert s.ell == 2**31 - 2
    assert s.half_edge_offsets.tolist() == [0, 2**31 - 3, 2**31 - 2]


@pytest.mark.parametrize("raw", [[2**31 - 1, 1], [2**31 - 1, 2**31 - 1],
                                 [2**30, 2**30, 2]])
def test_validate_rejects_total_degree_above_int32(raw):
    """Half-edge ids and offsets are int32: a larger total is an error
    naming it and the bound, raised before any ell-sized array exists."""
    with pytest.raises(ZeroOrNegativeDegree,
                       match=rf"^total degree {sum(raw)} is above the bound 2\*\*31 - 1"):
        degseq.validate(raw)


@pytest.mark.parametrize(
    "make,message",
    [
        pytest.param(lambda: degseq.from_counts({3: 10**10}),
                     "total degree 30000000000", id="from_counts"),
        pytest.param(lambda: degseq.from_counts({1: 2, 2: 2**30}),
                     "total degree 2147483650", id="from_counts_just_above"),
        pytest.param(lambda: degseq.from_counts({0: 10**10, 2: 1}),
                     "vertex count 10000000001", id="from_counts_zero_degree"),
        pytest.param(lambda: degseq.build_sequence(10**11, 1, 0.3, 3),
                     "total degree 269999367544", id="build_sequence"),
        pytest.param(lambda: degseq.parse_degrees("3 5000000000\n"),
                     "total degree 15000000000", id="parse_degrees"),
        pytest.param(lambda: degseq.from_counts({2: 10**5000}),
                     "total degree about 1e5000", id="from_counts_huge_count"),
        pytest.param(lambda: degseq.from_counts({10**5000: 2}),
                     "total degree about 1e5000", id="from_counts_huge_degree"),
    ],
)
def test_huge_counts_raise_before_any_array(small_np_full, make, message):
    """A multiplicity beyond the total-degree bound is an error raised
    before any array of that length is asked for."""
    with pytest.raises(ZeroOrNegativeDegree,
                       match=rf"^{message} is above the bound 2\*\*31 - 1"):
        make()


@pytest.mark.parametrize(
    "counts,message",
    [
        pytest.param({0: 2_000_000_000}, r"degree 0 is not an integer", id="zero_degree"),
        pytest.param({-1: 10**9, 2: 10**9}, r"degree -1 is not an integer",
                     id="negative_degree"),
        pytest.param({2: -1, 4: 1}, r"degree 2 has multiplicity -1,", id="negative_count"),
        pytest.param({2: 2.5}, r"degree 2 has multiplicity 2\.5,", id="fractional_count"),
        pytest.param({2: True}, r"degree 2 has multiplicity True,", id="bool_count"),
        pytest.param({2: -10**5000, 4: 1}, r"degree 2 has multiplicity about -1e5000,",
                     id="huge_negative_count"),
        pytest.param({-10**5000: 1, 2: 1}, r"degree about -1e5000 is not an integer",
                     id="huge_negative_degree"),
    ],
)
def test_from_counts_rejects_bad_degree_or_count(small_np_full, counts, message):
    """A degree outside 1..2**31 - 1 or a multiplicity that is not an
    integer >= 0 is a ZeroOrNegativeDegree naming the degree, raised
    before any array is asked for, even when the totals are in bound."""
    with pytest.raises(ZeroOrNegativeDegree, match=rf"^{message}"):
        degseq.from_counts(counts)


@pytest.mark.parametrize(
    "raw,vertex,degree",
    [
        pytest.param([True, True], 0, "True", id="bools"),
        pytest.param([2, True, 1], 1, "True", id="bool_among_ints"),
        pytest.param(np.array([True, True]), 0, "True", id="bool_array"),
        pytest.param(["a", "b"], 0, "'a'", id="strings"),
        pytest.param(np.array(["2", "2"]), 0, "'2'", id="string_array"),
        pytest.param([math.nan, 1.0], 0, "nan", id="nan"),
        pytest.param(np.array([1.0, 1.0, math.nan]), 2, "nan", id="nan_array"),
        pytest.param([1 + 0j, 1 + 0j], 0, r"\(1\+0j\)", id="complex"),
        pytest.param([2, None], 1, "None", id="none"),
    ],
)
def test_validate_rejects_non_number_degree(raw, vertex, degree):
    """An entry that is not a real number, or is NaN, is named by its
    vertex before anything compares or casts it: no numpy error, no
    cast warning, no bool read as 0 or 1."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ZeroOrNegativeDegree,
                           match=rf"^vertex {vertex} has degree {degree}, not an integer$"):
            degseq.validate(raw)


def test_validate_rejects_zero_degree():
    with pytest.raises(ZeroOrNegativeDegree):
        degseq.validate([0, 2, 2])
    with pytest.raises(ZeroOrNegativeDegree):
        degseq.validate([-1, 1])
    with pytest.raises(ZeroOrNegativeDegree):
        degseq.validate([])
    with pytest.raises(ZeroOrNegativeDegree):
        degseq.validate([1.5, 2.5])
    # beyond int64: checked before the cast, which would raise OverflowError
    with pytest.raises(ZeroOrNegativeDegree, match=r"found -1000000000000000000000000000000$"):
        degseq.validate([-10**30, 1])
    with pytest.raises(ZeroOrNegativeDegree, match=r"found about -1e5000$"):
        degseq.validate([-10**5000, 1])


def test_window_params_hand_example():
    s = degseq.from_counts({1: 10, 2: 30, 3: 60})
    p = degseq.limit_params(s)
    assert p.rho1 == pytest.approx(1.0)
    assert p.p2 == pytest.approx(0.3)
    assert p.d == pytest.approx(2.5)
    assert p.nu == pytest.approx(1.68)


@pytest.mark.parametrize(
    "raw,expect",
    [
        ([2, 2], (0.0, 1.0, 2.0, 1.0)),
        ([1, 1], (math.sqrt(2), 0.0, 1.0, 0.0)),
    ],
)
def test_window_params_trivial(raw, expect):
    p = degseq.limit_params(degseq.validate(raw))
    assert (p.rho1, p.p2, p.d, p.nu) == pytest.approx(expect)


def test_window_nu_is_exact_rational():
    s = degseq.from_counts({1: 4, 2: 7, 3: 4, 5: 2})
    p = degseq.limit_params(s)
    second = Fraction(4 * 0 + 7 * 2 + 4 * 6 + 2 * 20, s.ell)
    assert p.nu == float(second)


def test_build_sequence_examples():
    s = degseq.build_sequence(100, 1.0, 0.3, 3)
    assert s.counts == {1: 10, 2: 30, 3: 60}
    assert s.ell == 250

    s = degseq.build_sequence(4, 0, 0, 3)
    assert s.counts == {3: 4}
    assert s.ell == 12

    with pytest.raises(InfeasibleTargets):
        degseq.build_sequence(3, 2.0, 0.9, 3)


def test_build_sequence_parity_repair():
    # n1=1, n2=0, bulk 3x3: total 10 even; with n=5 -> 1 + 4*3 = 13 odd
    s = degseq.build_sequence(5, 0.45, 0.0, 3)
    assert s.ell % 2 == 0
    assert s.counts[4] == 1  # exactly one bulk vertex bumped
    assert sum(s.counts.values()) == 5


def test_build_sequence_parity_repair_of_the_only_bulk_vertex():
    # n1 = 0, n2 = 1, one bulk vertex: 2 + 3 = 5 is odd, so the bulk
    # vertex becomes degree 4 and the emptied degree-3 count is dropped
    s = degseq.build_sequence(2, 0.0, 0.5, 3)
    assert s.counts == {2: 1, 4: 1}


def test_build_sequence_parity_unrepairable():
    # all vertices are degree 1 or 2; odd total cannot be fixed by a bulk bump
    with pytest.raises(InfeasibleTargets):
        degseq.build_sequence(9, 3.0, 0.0, 3)  # n1 = 9 = n, ell = 9 odd


def test_build_recovers_targets():
    for n in (100, 1000, 40000):
        s = degseq.build_sequence(n, 1.0, 0.3, 3)
        p = degseq.limit_params(s)
        assert abs(p.rho1 - 1.0) <= 1.0 / math.sqrt(n)
        assert abs(p.p2 - 0.3) <= 1.0 / n


def test_limit_params_copies_ratios_and_caps_nu():
    # the four ratios, bit for bit, as the sequence's own limits
    s = degseq.from_counts({1: 10, 2: 28, 3: 62})
    p = degseq.limit_params(s)
    assert (p.rho1, p.p2, p.d, p.nu) == (10 / math.sqrt(100), 28 / 100, 252 / 100,
                                         (2 * 28 + 6 * 62) / 252)

    p = degseq.limit_params(degseq.validate([3, 3, 3, 3]))
    assert (p.rho1, p.p2, p.d, p.nu) == (0.0, 0.0, 3.0, 2.0)

    # nu = D - 1 for two vertices of degree D: at the cap it stays finite,
    # just above it is infinite
    at_cap = int(degseq.NU_CAP_DEFAULT) + 1
    assert degseq.limit_params(degseq.validate([at_cap, at_cap])).nu == degseq.NU_CAP_DEFAULT
    capped = degseq.limit_params(degseq.validate([at_cap + 1, at_cap + 1]))
    assert math.isinf(capped.nu)


def test_degenerate_params_flagged_at_use_site():
    # 2*p2 >= d passes through; the theory module is the enforcement point
    p = degseq.limit_params(degseq.validate([1, 1, 2, 2]))
    assert (p.p2, p.d) == (0.5, 1.5)
    p = degseq.limit_params(degseq.validate([2, 2]))
    assert 2 * p.p2 >= p.d


def test_parse_degrees_mixed_lines():
    text = "# comment\n3\n3\n1 2\n\n2 4\n"
    s = degseq.parse_degrees(text)
    assert s.counts == {1: 2, 2: 4, 3: 2}


@pytest.mark.parametrize(
    "text,lineno",
    [("3\nx\n", 2), ("# c\n\n2 y\n", 3), ("1 2 3\n", 1), ("2 -2\n", 1), ("1.5\n", 1)],
)
def test_parse_degrees_names_malformed_line(text, lineno):
    with pytest.raises(MalformedDegreeList, match=rf"^line {lineno}: expected"):
        degseq.parse_degrees(text)


@pytest.mark.parametrize(
    "field,kwargs",
    [
        ("rho1", {"rho1": -0.5}),
        ("rho1", {"rho1": math.nan}),
        ("rho1", {"rho1": math.inf}),
        ("p2", {"p2": -1e-9}),
        ("p2", {"p2": math.nan}),
        ("d", {"d": 0.0}),
        ("d", {"d": math.inf}),
        ("d", {"d": math.nan}),
        ("nu", {"nu": -1.0}),
        ("nu", {"nu": -math.inf}),
        ("nu", {"nu": math.nan}),
        ("rho1", {"rho1": 1e200}),
        ("rho1", {"d": 1e-320}),
        ("nu", {"nu": 1e200}),
        # d^2 underflows or overflows; rho1^2 * 2d or the line mass overflows
        ("d", {"d": 1e-200}),
        ("d", {"d": 1e200}),
        ("rho1", {"rho1": 1.3e154}),
        ("rho1", {"rho1": 1e153, "p2": 1.34}),
        # not a real number, or beyond the float range
        ("nu", {"nu": None}),
        ("d", {"d": [2.7]}),
        ("rho1", {"rho1": "1"}),
        ("p2", {"p2": True}),
        ("rho1", {"rho1": np.array(1.0)}),
        ("d", {"d": 10**400}),
    ],
)
def test_limit_params_reject_field(field, kwargs):
    args = {"rho1": 1.0, "p2": 0.3, "d": 2.7, "nu": 2.0, **kwargs}
    with pytest.raises(InvalidLimitParams, match=rf"^{field} must be"):
        degseq.LimitParams(**args)


def test_limit_params_store_floats():
    p = degseq.LimitParams(rho1=1, p2=np.float32(0.5), d=np.int64(3), nu=2**70)
    assert all(type(v) is float for v in (p.rho1, p.p2, p.d, p.nu))
    assert (p.rho1, p.p2, p.d, p.nu) == (1.0, 0.5, 3.0, float(2**70))


def test_is_real():
    for value in (1, 2.5, math.nan, -math.inf, 10**400, np.int8(3), np.uint64(2**64 - 1),
                  np.float32(1.5)):
        assert degseq.is_real(value), value
    for value in (True, np.True_, "1", np.str_("1"), None, [1], np.array(1.0), 1j):
        assert not degseq.is_real(value), value


def test_limit_params_accept_boundaries():
    p = degseq.LimitParams(rho1=0.0, p2=0.0, d=1.5e-154, nu=math.inf)
    assert math.isinf(p.nu)
    assert degseq.LimitParams(0, 0, 3, 0).nu == 0
    assert degseq.LimitParams(rho1=1e150, p2=0.3, d=2.7, nu=1e150).nu == 1e150


def test_file_round_trip(tmp_path):
    s = degseq.from_counts({1: 4, 2: 5, 3: 8, 7: 2})
    path = tmp_path / "degrees.txt"
    degseq.dump_degrees(s, path)
    again = degseq.load_degrees(path)
    assert again == s
    assert again.counts == s.counts


@st.composite
def degree_sequences(draw, max_n=40, max_degree=6):
    degs = draw(
        st.lists(st.integers(1, max_degree), min_size=1, max_size=max_n)
    )
    if sum(degs) % 2 != 0:
        degs.append(1)
    return degs


@settings(max_examples=60, deadline=None)
@given(degree_sequences())
def test_serialize_parse_identity(raw):
    s = degseq.validate(raw)
    again = degseq.parse_degrees(degseq.format_degrees(s))
    # the run-length file format orders vertices by degree, so the
    # round-trip identity is on the counts representation
    assert again.counts == s.counts
    assert (again.n, again.ell) == (s.n, s.ell)


@settings(max_examples=60, deadline=None)
@given(degree_sequences())
def test_validate_invariants(raw):
    s = degseq.validate(raw)
    assert s.ell % 2 == 0
    assert sum(d * m for d, m in s.counts.items()) == s.ell
    assert sum(s.counts.values()) == s.n
    assert int(np.min(s.degrees)) >= 1
