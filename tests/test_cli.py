import contextlib
import csv
import hashlib
import io
import json
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmlab import cli, generator


def _run(argv, capsys):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_theory_flags(capsys):
    code, out, _ = _run(
        ["theory", "--rho1", "1", "--p2", "0.3", "--d", "2.7", "--nu", "1.7778"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["p_connected"] == pytest.approx(0.695065, abs=1e-5)
    assert payload["p_simple"] == pytest.approx(0.186581, abs=1e-4)
    assert payload["paper_closed_form"] == pytest.approx(0.585565, abs=1e-5)


def test_theory_from_degree_file(tmp_path, capsys):
    path = tmp_path / "degs.txt"
    path.write_text("3 4\n", encoding="utf-8")
    code, out, _ = _run(["theory", "--file", str(path)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["params"]["d"] == pytest.approx(3.0)
    assert payload["log_count_connected_simple"] == pytest.approx(0.0820423, abs=1e-6)


def test_enumerate_rationals(capsys):
    code, out, _ = _run(["enumerate", "--degrees", "2,2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["p_connected"] == "2/3"
    assert payload["total_matchings"] == 3


def test_generate_deterministic_dump(capsys):
    argv = ["generate", "--degrees", "3,3", "--seed", "7"]
    code, out1, _ = _run(argv, capsys)
    assert code == 0
    code, out2, _ = _run(argv, capsys)
    assert out1 == out2
    for line in out1.splitlines():
        u, v = map(int, line.split())
        assert 1 <= u <= v <= 2


def test_analyze_sampled_graph(capsys):
    code, out, _ = _run(["analyze", "--degrees", "1,1,2", "--seed", "3"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {
        "n", "cycle_counts", "line_counts", "self_loops", "multi_edges",
        "giant_size", "complement", "other_outside_giant", "deg3_outside_giant",
    }
    assert payload["n"] == 3


def test_analyze_graph_file(tmp_path, capsys):
    graph = tmp_path / "edges.txt"
    graph.write_text("1 2\n3 3\n", encoding="utf-8")
    code, out, _ = _run(
        ["analyze", "--degrees", "1,1,2", "--graph", str(graph)], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["line_counts"] == {"2": 1}
    assert payload["cycle_counts"] == {"1": 1}


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("1 2\n3 9\n", "line 2: vertex id 9 exceeds n = 3"),
        ("1 2\n2 3 3\n", "line 2: expected two integer vertex ids"),
        ("1 x\n", "line 1: expected two integer vertex ids"),
        ("# header\n1 2\n0 3\n", "line 3: vertex ids are 1-indexed"),
    ],
)
def test_analyze_graph_file_rejects_malformed_lines(tmp_path, capsys, text, fragment):
    graph = tmp_path / "edges.txt"
    graph.write_text(text, encoding="utf-8")
    code, out, err = _run(["analyze", "--degrees", "1,2,1", "--graph", str(graph)], capsys)
    assert code == 1
    assert out == ""
    assert fragment in err


def test_analyze_graph_file_with_wrong_degrees(tmp_path, capsys):
    graph = tmp_path / "edges.txt"
    graph.write_text("1 2\n2 3\n", encoding="utf-8")
    code, _, err = _run(["analyze", "--degrees", "1,1,2", "--graph", str(graph)], capsys)
    assert code == 1
    assert "vertex 1: realized degree 2 != prescribed 1" in err


def test_analyze_huge_count_is_an_error(small_np_full, capsys):
    """A count beyond the total-degree bound exits 1 with the bound, before
    any array of that length is asked for."""
    code, out, err = _run(["analyze", "--counts", "3:10000000000"], capsys)
    assert code == 1
    assert out == ""
    assert "total degree 30000000000 is above the bound 2**31 - 1" in err


def test_analyze_zero_degree_count_is_an_error(small_np_full, capsys):
    """A degree-0 count whose totals are in bound exits 1 naming the
    degree, before any array is asked for."""
    code, out, err = _run(["analyze", "--counts", "0:2000000000"], capsys)
    assert code == 1
    assert out == ""
    assert "degree 0 is not an integer in 1..2**31 - 1" in err


def test_analyze_skips_empty_degree_items(capsys):
    code, out, _ = _run(["analyze", "--degrees", "1,,1"], capsys)
    assert code == 0
    assert out == _run(["analyze", "--degrees", "1,1"], capsys)[1]


def test_analyze_comment_only_file_is_an_error(tmp_path, capsys):
    path = tmp_path / "degs.txt"
    path.write_text("# no degrees\n# at all\n", encoding="utf-8")
    code, out, err = _run(["analyze", "--file", str(path)], capsys)
    assert code == 1
    assert out == ""
    assert "counts map is empty" in err


def test_theory_without_params_or_source_is_an_error(capsys):
    code, out, err = _run(["theory", "--rho1", "1"], capsys)
    assert code == 1
    assert out == ""
    assert "--rho1/--p2/--d" in err
    assert "degree-sequence source" in err


def test_generate_negative_seed_gives_the_value(capsys):
    code, out, err = _run(["generate", "--counts", "2:2", "--seed", "-1"], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: master must be a 64-bit unsigned integer, got -1\n"


def test_simulate_reproducible_stdout(capsys):
    argv = [
        "simulate", "--n", "300", "--rho1", "1.0", "--p2", "0.3",
        "--replicates", "40", "--seed", "99",
    ]
    code, out1, _ = _run(argv, capsys)
    assert code == 0
    code, out2, _ = _run(argv + ["--threads", "4"], capsys)
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["replicates"] == 40


def test_simulate_conditioning(capsys):
    argv = [
        "simulate", "--n", "300", "--rho1", "1.0", "--p2", "0.3",
        "--replicates", "60", "--seed", "4", "--condition-on-simple",
    ]
    code, out, _ = _run(argv, capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["conditional_connectivity"]["accepted"] >= 1


def test_sweep_csv(tmp_path, capsys):
    out_csv = tmp_path / "table.csv"
    code, out, _ = _run(
        [
            "sweep", "--rho1", "1.0", "--p2", "0.3", "--n-values", "100,200",
            "--replicates", "20", "--seed", "6", "--csv", str(out_csv),
        ],
        capsys,
    )
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "n,stat,empirical,stderr,theory,z"
    assert any(line.startswith("100,connected,") for line in lines)


def test_sweep_n_values_error_names_flag(capsys):
    code, out, err = _run(
        ["sweep", "--rho1", "1", "--p2", "0.3", "--n-values", "10,x"], capsys
    )
    assert code == 1
    assert out == ""
    assert "--n-values: expected an integer vertex count, got 'x'" in err


@pytest.mark.parametrize("n_values", ["", ","])
def test_sweep_empty_n_values_is_an_error(capsys, n_values):
    code, out, err = _run(
        ["sweep", "--rho1", "1", "--p2", "0.3", "--n-values", n_values], capsys
    )
    assert code == 1
    assert out == ""
    assert err == "error: n_values must not be empty\n"


@pytest.mark.parametrize(
    "flags",
    [["--degrees", "1,1"], ["--counts", "1:2"], ["--file", "degs.txt"], ["--n", "50"],
     ["--x-max", "5"], ["--condition-on-simple"]],
)
def test_sweep_takes_only_build_targets(capsys, flags):
    """sweep builds every sequence from --rho1/--p2/--bulk; a degree source
    or --n is a usage error, not silently ignored, and so are simulate's
    --x-max and --condition-on-simple, which no sweep row reads."""
    with pytest.raises(SystemExit) as exc:
        cli.run(["sweep", "--rho1", "1", "--p2", "0.3", "--n-values", "50",
                 "--replicates", "3", *flags])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_counts_input(capsys):
    code, out, _ = _run(
        ["analyze", "--counts", "1:2,2:1", "--seed", "3"], capsys
    )
    assert code == 0
    assert json.loads(out)["n"] == 3


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def _strict_json(text):
    return json.loads(text, parse_constant=_reject_constant)


@pytest.mark.parametrize(
    "flags,fragment",
    [
        (["--counts", "2:x"], "--counts: expected degree:count (integers, count >= 0), got '2:x'"),
        (["--counts", "2"], "--counts: expected degree:count (integers, count >= 0), got '2'"),
        (["--counts", "2:1:1"], "got '2:1:1'"),
        (["--counts", "2:-1"], "got '2:-1'"),
        (["--degrees", "1,x,1"], "--degrees: expected an integer degree, got 'x'"),
    ],
)
def test_malformed_degree_flags_name_flag_and_item(capsys, flags, fragment):
    code, out, err = _run(["analyze", *flags], capsys)
    assert code == 1
    assert out == ""
    assert fragment in err


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("2 3\nx\n", "line 2: expected 'degree' or 'degree count'"),
        ("# c\n2 x\n", "line 2: expected"),
        ("2 1 1\n", "line 1: expected"),
        ("2 -1\n", "line 1: expected"),
    ],
)
def test_malformed_degree_file_names_line(tmp_path, capsys, text, fragment):
    path = tmp_path / "degs.txt"
    path.write_text(text, encoding="utf-8")
    code, out, err = _run(["theory", "--file", str(path)], capsys)
    assert code == 1
    assert out == ""
    assert fragment in err
    assert "invalid literal" not in err


@pytest.mark.parametrize(
    "flags,field",
    [
        (["--nu", "nan"], "nu"),
        (["--nu", "-1"], "nu"),
        (["--d", "inf"], "d"),
        (["--d", "0"], "d"),
        (["--rho1", "-1"], "rho1"),
        (["--rho1", "nan"], "rho1"),
        (["--p2", "-0.1"], "p2"),
        (["--p2", "inf"], "p2"),
        # finite, but rho1^2 and nu^2 overflow a float
        (["--rho1", "1e200"], "rho1"),
        (["--nu", "1e200"], "nu"),
        (["--d", "1e-320"], "rho1"),
        # d^2 or (d - p2)^2 underflows, d^2 overflows, rho1^2 * 2d overflows
        (["--d", "1e-200"], "d"),
        (["--rho1", "0", "--p2", "0", "--d", "1e-300"], "d"),
        (["--d", "1e200"], "d"),
        (["--rho1", "1.3e154"], "rho1"),
    ],
)
def test_theory_rejects_non_finite_or_negative_params(capsys, flags, field):
    argv = dict(zip(["--rho1", "--p2", "--d", "--nu"], ["1", "0.3", "2.7", "2"]))
    argv.update(zip(flags[::2], flags[1::2]))
    code, out, err = _run(["theory", *[x for kv in argv.items() for x in kv]], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {field} must be")


def test_theory_infinite_nu_is_strict_json(capsys):
    code, out, _ = _run(["theory", "--rho1", "1", "--p2", "0.3", "--d", "2.7"], capsys)
    assert code == 0
    assert _strict_json(out)["p_simple"] is None


@pytest.mark.parametrize("command", ["theory", "simulate"])
def test_underflowing_connectivity_is_strict_json(tmp_path, capsys, command):
    """rho1 = 95 at d = 1.18: P(connected | simple) underflows to 0, while
    its logarithm, and so the connected-simple count, stays finite."""
    path = tmp_path / "degs.txt"
    path.write_text("1 10000\n3 1000\n")
    argv = [command, "--file", str(path)]
    if command == "simulate":
        argv += ["--replicates", "2"]
    code, out, err = _run(argv, capsys)
    assert code == 0, err
    payload = _strict_json(out)
    if command == "theory":
        assert payload["p_connected_given_simple"] == 0.0
        assert payload["log_count_connected_simple"] == pytest.approx(49434.729365, rel=1e-9)
    else:
        assert payload["connectivity"]["theory"] == 0.0


def test_theory_large_poisson_mean_finishes():
    """lambda_line(2) = 70^2 / 5.4 ~ 907, where exp(-lambda) underflows."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "cmlab.cli", "theory", "--rho1", "70", "--p2", "0",
         "--d", "2.7", "--nu", "2"],
        capture_output=True, text=True, timeout=60,
    )
    assert time.monotonic() - start < 10
    assert proc.returncode == 0, proc.stderr
    payload = _strict_json(proc.stdout)
    assert len(payload["complement_pmf"]) == 51
    assert payload["p_connected"] == 0.0


@pytest.mark.parametrize("rho1", ["0", "1"])
def test_theory_near_critical_finishes_with_the_full_law(rho1, capsys):
    """At 2*p2/d = 0.99999 the means fall below 1e-16 only near k = 2e6;
    the pmf on 0..50 takes its k > 50 part in one closed-form factor, and
    its entry 0 is p_connected (0.0 at rho1 = 1)."""
    argv = ["theory", "--rho1", rho1, "--p2", "0.499995", "--d", "1", "--nu", "2"]
    start = time.monotonic()
    code, out, err = _run(argv, capsys)
    assert time.monotonic() - start < 10
    assert code == 0, err
    payload = _strict_json(out)
    assert payload["complement_pmf"][0] == pytest.approx(payload["p_connected"],
                                                          rel=1e-12, abs=0)


@pytest.mark.parametrize("command", [["theory", "--rho1", "1", "--p2", "0.3", "--d", "2.7"],
                                     ["simulate", "--counts", "2:4"],
                                     ["sweep", "--n-values", "50"]])
def test_trunc_k_is_a_usage_error(command, capsys):
    """The pmf is the full limit law: there is no --trunc-k to cut it."""
    with pytest.raises(SystemExit) as exc:
        cli.run([*command, "--trunc-k", "5"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


#: sha256 of stdout, recorded before `limit_params`, the single pairing
#: path and the simulate source resolution replaced the code they run
CLI_SHA256 = {
    # re-recorded when the report dropped expected_complement_truncation_bound
    "theory --counts 1:10,2:30,3:60":
        "a541cd353a1cb2831c6a6369a9bcac9e331c985b28b2614ca04ba0778f3bd22e",
    "simulate --counts 1:10,2:30,3:60 --replicates 50 --seed 3 --condition-on-simple":
        "4603a6a441d8fa423f965c8be7835e74152f8eea83dc8116942825c5dbc568dc",
    "simulate --n 2000 --rho1 1 --p2 0.3 --replicates 20 --seed 3":
        "01bd00dbf7d8adede26d1f741707ab1757813f01bed20222905302bbabe8f7cb",
    "generate --counts 1:10,2:30,3:60 --seed 7":
        "80971146ec95747e1d6b9a579d2c79b4ed6ee4a4e41d38358a674ab1ec06133f",
    "analyze --counts 1:10,2:30,3:60 --seed 7":
        "72357a092e30461b28bfe8f9a657c94249e5b579f3aceff2125c3ba97a65f432",
    # self_loops 3, multi_edges 3, complement 2
    "analyze --counts 2:6,4:6 --seed 5":
        "d250722f78bc1b41fcd387808c33a0f9845a708a039d56604355501156cc9254",
}


@pytest.mark.parametrize("args", sorted(CLI_SHA256))
def test_cli_output_bytes_pinned(args, capsys):
    code, out, err = _run(args.split(), capsys)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == CLI_SHA256[args]


@pytest.mark.parametrize(
    "flags,field",
    [
        (["--counts", "2:4", "--x-max", "-2"], "x_max"),
        (["--counts", "2:4", "--threads", "0"], "threads"),
        (["--counts", "2:4", "--x-max", str(10**30)], "x_max"),
        (["--counts", "2:4", "--replicates", "0"], "replicates"),
        (["--counts", "2:4", "--seed", "-1"], "master_seed"),
        (["--n", "100", "--rho1", "nan", "--p2", "0.3"], "rho1"),
        (["--n", "100", "--rho1", "1", "--p2", "nan"], "p2"),
        (["--n", "0", "--rho1", "1", "--p2", "0.3"], "n"),
        (["--counts", "2:4", "--x-max", "10001"], "x_max"),
    ],
)
def test_simulate_rejects_bad_config_field(capsys, flags, field):
    code, out, err = _run(["simulate", "--replicates", "3", *flags], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {field} must be")


def test_validation_error_exit_code_1(capsys):
    code, _, err = _run(["enumerate", "--degrees", "1,2"], capsys)
    assert code == 1
    assert "error" in err.lower()

    code, _, err = _run(["theory", "--rho1", "1", "--p2", "0.9", "--d", "1.0"], capsys)
    assert code == 1


def test_missing_source_is_validation_error(capsys):
    code, _, err = _run(["enumerate"], capsys)
    assert code == 1
    assert "--degrees" in err


def test_simulate_rejects_n_with_degree_source(capsys):
    code, out, err = _run(["simulate", "--n", "100", "--counts", "2:4",
                           "--replicates", "2"], capsys)
    assert code == 1
    assert out == ""
    assert "specify exactly one of --degrees / --counts / --file / --n" in err


def test_usage_error_exit_code_2():
    with pytest.raises(SystemExit) as exc:
        cli.run(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.run(["enumerate", "--degrees", "2,2", "--bogus-flag"])
    assert exc.value.code == 2


def test_help_exits_zero():
    for argv in (["simulate", "--help"], ["--help"]):
        with pytest.raises(SystemExit) as exc:
            cli.run(argv)
        assert exc.value.code == 0


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cmlab.cli", "enumerate", "--degrees", "1,1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["p_connected"] == "1"


# ---------------------------------------------------------------------------
# Property test over argv drawn from bounded domains, with malformed items
# ---------------------------------------------------------------------------

#: wall-time bound of one cli.run call in the property test below; the
#: slowest of 300 drawn calls took 0.07 s on a 2-core machine, and the
#: slowest enumerate input in the domain, --degrees 2,4,2,3,1,4, 0.02 s,
#: so the bound leaves room for a slow runner and still catches a hang
ARGV_WALL_BOUND_S = 20.0


def _mostly(valid, *bad):
    """Draws from `valid`, or one of the malformed values `bad` about one
    draw in eight."""
    return st.integers(0, 7).flatmap(lambda i: st.sampled_from(bad) if i == 7 else valid)


def _opt(flag, values):
    return values.map(lambda v: [flag, str(v)])


def _flat(options):
    return st.tuples(*options).map(lambda opts: [item for opt in opts for item in opt])


def _joined(items):
    return st.lists(items, min_size=1, max_size=6).map(lambda xs: ",".join(map(str, xs)))


_DEGREE = _mostly(st.integers(1, 4), -1, 0)
_SOURCE = _mostly(
    st.one_of(
        _opt("--degrees", _joined(_DEGREE)),
        _opt("--counts", _joined(st.tuples(_DEGREE, st.integers(0, 4))
                                 .map(lambda t: f"{t[0]}:{t[1]}"))),
    ),
    ["--file", "no/such/degrees.txt"],
)
_TARGETS = _flat([
    _opt("--rho1", _mostly(st.floats(0, 3), "nan", "inf", "-1")),
    _opt("--p2", _mostly(st.floats(0, 0.6), "nan", "-1")),
    _opt("--bulk", _mostly(st.integers(3, 5), 1)),
])
_BUILD = _flat([_opt("--n", _mostly(st.integers(1, 2000), 0, -5)), _TARGETS])
_RUN = _flat([
    _opt("--replicates", _mostly(st.integers(1, 20), 0)),
    _opt("--threads", _mostly(st.integers(1, 4), 0)),
    _opt("--seed", _mostly(st.integers(0, 2**64 - 1), -1, 2**64)),
])
_SIMULATE = _flat([
    _RUN,
    _opt("--x-max", _mostly(st.integers(0, 60), -2)),
    st.sampled_from([[], ["--condition-on-simple"]]),
])
_THEORY = _flat([
    _opt("--rho1", _mostly(st.floats(0, 3), "nan", "inf", "-1")),
    _opt("--p2", _mostly(st.floats(0, 1), "nan")),
    _opt("--d", _mostly(st.floats(1, 5), "0", "nan")),
    _opt("--nu", _mostly(st.floats(0, 5), "inf", "-1")),
    _opt("--x-max", _mostly(st.integers(0, 60), -2)),
])
_N_VALUES = _mostly(st.lists(st.integers(50, 2000), min_size=1, max_size=3)
                    .map(lambda ns: ",".join(map(str, sorted(ns)))), "0", "10,x", "")
_MALFORMED = [["--bogus"], ["x"], ["--n"], ["--degrees", "1,,x"], ["--counts", "2"],
              ["--graph", "no/such/graph.txt"], ["--threads", "nan"]]


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(
        ["generate", "analyze", "theory", "enumerate", "simulate", "sweep"]))
    if command in ("generate", "analyze"):
        options = draw(st.one_of(_SOURCE, _BUILD)) + draw(_opt("--seed", st.integers(0, 99)))
    elif command == "theory":
        options = draw(st.one_of(_SOURCE, _THEORY))
    elif command == "enumerate":
        options = draw(_SOURCE)
    elif command == "simulate":
        options = draw(st.one_of(_SOURCE, _BUILD)) + draw(_SIMULATE)
    else:
        options = draw(_TARGETS) + draw(_RUN) + draw(_opt("--n-values", _N_VALUES))
    argv = [command, *options]
    at = draw(st.integers(1, len(argv)))
    argv[at:at] = draw(_mostly(st.just([]), *_MALFORMED))
    return argv


def _check_stdout(command, out):
    """Strict JSON, a CSV table for sweep, an edge dump for generate."""
    if command == "sweep":
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "stat", "empirical", "stderr", "theory", "z"]
        assert all(len(row) == len(rows[0]) for row in rows)
    elif command == "generate":
        generator.parse_edges(out)
    else:
        _strict_json(out)


@settings(max_examples=150, deadline=None)
@given(_argv())
def test_argv_property(argv):
    """Any argv from these domains exits 0, 1 or 2 within the wall bound,
    and prints either nothing or the command's full output."""
    out, err = io.StringIO(), io.StringIO()
    start = time.monotonic()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
    assert time.monotonic() - start < ARGV_WALL_BOUND_S, argv
    assert code in (0, 1, 2), (argv, err.getvalue())
    if code == 0:
        _check_stdout(argv[0], out.getvalue())
    else:
        assert out.getvalue() == "", argv
        assert err.getvalue(), argv
