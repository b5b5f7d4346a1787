"""scipy is imported on first use, not with the package.

Only a census above `census._UNION_FIND_MAX_N` vertices loads scipy
(scipy.sparse, for its graph search). `theory` needs none of it: its
log graph counts use math.lgamma, so `predict` with a sequence and
`cmlab theory` with a degree source load no scipy module, and neither
do the oracle or `cmlab simulate` on a small sequence. Importing scipy
costs about as much as the whole exact oracle on its reference
sequences. These checks run in a fresh interpreter: this test session
has scipy loaded already (`reference_census` imports it).
"""

import json
import subprocess
import sys
import textwrap


def _fresh(script: str) -> str:
    """stdout of `script` in a new interpreter that inherits PYTHONPATH."""
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script)],
                          capture_output=True, text=True, check=False, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_oracle_and_small_census_load_no_scipy():
    out = _fresh("""
        import contextlib, io, json, sys

        loaded = {}

        def step(name):
            loaded[name] = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

        import cmlab
        step("import cmlab")
        from cmlab import census, cli, degseq, generator, oracle, theory
        oracle.exact_law(degseq.from_counts({2: 7}))
        step("exact_law")
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.run(["enumerate", "--counts", "2:7"]) == 0
        step("cmlab enumerate")
        theory.predict(degseq.LimitParams(rho1=1.0, p2=0.3, d=2.7, nu=2.0))
        step("predict without a sequence")
        seq = degseq.from_counts({1: 10, 2: 30, 3: 60})
        theory.predict(degseq.limit_params(seq), seq=seq)
        step("predict with a sequence")
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.run(["theory", "--counts", "1:10,2:30,3:60"]) == 0
        step("cmlab theory")
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.run(["simulate", "--counts", "1:10,2:30,3:60",
                            "--replicates", "50", "--seed", "3"]) == 0
        step("cmlab simulate")
        for name, n in (("union-find census", census._UNION_FIND_MAX_N),
                        ("census at n=1000", 1000)):
            seq = degseq.build_sequence(n, 1.0, 0.3, 3)
            census.component_census(generator.sample(seq, generator.Seed(5)), seq)
            step(name)
        print(json.dumps(loaded))
    """)
    loaded = json.loads(out)
    big = loaded.pop("census at n=1000")
    assert loaded == {
        "import cmlab": [],
        "exact_law": [],
        "cmlab enumerate": [],
        "predict without a sequence": [],
        "predict with a sequence": [],
        "cmlab theory": [],
        "cmlab simulate": [],
        "union-find census": [],
    }
    # the search path is what loads scipy; if this fails, the switch moved
    # and the census steps above no longer cover the union-find path alone
    assert "scipy.sparse.csgraph" in big


def test_first_scipy_import_from_two_threads():
    """The first census of the process takes the search path on both pool
    threads at once, so both import scipy together; the report matches a
    one-thread run byte for byte."""
    out = _fresh("""
        import json, sys
        from dataclasses import replace
        from cmlab import ExperimentConfig, build_sequence, run_experiment

        assert "scipy.sparse.csgraph" not in sys.modules
        cfg = ExperimentConfig(seq=build_sequence(1000, 1.0, 0.3, 3), replicates=40,
                               master_seed=3, threads=2)
        two = run_experiment(cfg).to_json()
        print(json.dumps([two, run_experiment(replace(cfg, threads=1)).to_json()]))
    """)
    two, one = json.loads(out)
    assert two == one
