import json
import subprocess
import sys

import pytest

from cmlab import cli, degseq


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
    degseq.dump_degrees(degseq.validate([3, 3, 3, 3]), path)
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


def test_counts_input(capsys):
    code, out, _ = _run(
        ["analyze", "--counts", "1:2,2:1", "--seed", "3"], capsys
    )
    assert code == 0
    assert json.loads(out)["n"] == 3


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
