"""Command-line entry point.

Subcommands: generate, analyze, theory, enumerate, simulate, sweep.
Exit codes: 0 success, 1 validation error, 2 usage error. JSON goes to
stdout unless --out is given; sweep emits CSV (--csv to write a file).
Every subcommand taking --seed is byte-reproducible on stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import census, degseq, generator, montecarlo, oracle, theory
from .errors import CmlabError, MalformedDegreeList


def _add_degree_source(parser: argparse.ArgumentParser, with_build: bool = False):
    group = parser.add_argument_group("degree sequence source")
    group.add_argument("--degrees", help="inline degree list, e.g. 1,1,2")
    group.add_argument("--counts", help="run-length form, e.g. 1:10,2:30,3:60")
    group.add_argument("--file", help="degree-sequence file")
    if with_build:
        group.add_argument("--n", type=int, help="build: vertex count")
        _add_build_targets(group)


def _add_build_targets(group) -> None:
    group.add_argument("--rho1", type=float, default=0.0, help="build: n1/sqrt(n) target")
    group.add_argument("--p2", type=float, default=0.0, help="build: n2/n target")
    group.add_argument("--bulk", type=int, default=3, help="build: bulk degree (>= 3)")


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--replicates", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--condition-on-simple", action="store_true")
    parser.add_argument("--x-max", type=int, default=theory.X_MAX)
    parser.add_argument("--threads", type=int, default=1)


def _int_list(text: str, flag: str, what: str, error: type[CmlabError]) -> list[int]:
    """A comma-separated list of integers (empty items skipped); a bad item
    raises `error` naming the flag and the item."""
    values = []
    for item in text.split(","):
        if not item:
            continue
        try:
            values.append(int(item))
        except ValueError:
            raise error(f"{flag}: expected an integer {what}, got {item!r}") from None
    return values


def _degree_counts(text: str) -> dict[int, int]:
    """--counts: comma-separated degree:count items."""
    counts: dict[int, int] = {}
    for item in text.split(","):
        try:
            deg, mult = (int(f) for f in item.split(":"))
            if mult < 0:
                raise ValueError
        except ValueError:
            raise MalformedDegreeList(
                f"--counts: expected degree:count (integers, count >= 0), got {item!r}"
            ) from None
        counts[deg] = counts.get(deg, 0) + mult
    return counts


def _resolve_sequence(args: argparse.Namespace) -> degseq.DegreeSequence:
    sources = [args.degrees, args.counts, args.file, getattr(args, "n", None)]
    if sum(s is not None for s in sources) != 1:
        raise CmlabError(
            "specify exactly one of --degrees / --counts / --file"
            + (" / --n" if hasattr(args, "n") else "")
        )
    if args.degrees is not None:
        return degseq.validate(
            _int_list(args.degrees, "--degrees", "degree", MalformedDegreeList))
    if args.counts is not None:
        return degseq.from_counts(_degree_counts(args.counts))
    if args.file is not None:
        return degseq.load_degrees(args.file)
    return degseq.build_sequence(args.n, args.rho1, args.p2, args.bulk)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _json(obj: dict) -> str:
    """Sorted, indented strict JSON: NaN and infinities raise ValueError."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _cmd_generate(args) -> int:
    seq = _resolve_sequence(args)
    g = generator.sample(seq, generator.Seed(args.seed, args.stream))
    _emit(generator.format_edges(g), args.out)
    return 0


def _cmd_analyze(args) -> int:
    seq = _resolve_sequence(args)
    if args.graph:
        text = Path(args.graph).read_text(encoding="utf-8")
        g = generator.parse_edges(text, n=seq.n)
    else:
        g = generator.sample(seq, generator.Seed(args.seed, args.stream))
    c = census.component_census(g, seq)
    _emit(_json(c.to_json_dict()), args.out)
    return 0


def _cmd_theory(args) -> int:
    seq = None
    if any(v is not None for v in (args.degrees, args.counts, args.file)):
        seq = _resolve_sequence(args)
        params = degseq.limit_params(seq)
    else:
        if None in (args.rho1, args.p2, args.d):
            raise CmlabError("theory needs --rho1/--p2/--d (with optional --nu) "
                             "or a degree-sequence source")
        nu = math.inf if args.nu is None else args.nu
        params = degseq.LimitParams(rho1=args.rho1, p2=args.p2, d=args.d, nu=nu)
    pred = theory.predict(params, seq=seq, x_max=args.x_max)
    _emit(_json(pred.to_json_dict()), args.out)
    return 0


def _cmd_enumerate(args) -> int:
    seq = _resolve_sequence(args)
    law = oracle.exact_law(seq, cap=args.cap)
    _emit(_json(law.to_json_dict()), args.out)
    return 0


def _experiment_config(args, **source) -> montecarlo.ExperimentConfig:
    """The config of simulate and sweep: the run options plus a source
    (seq or targets, and the echoed source label)."""
    return montecarlo.ExperimentConfig(
        replicates=args.replicates, master_seed=args.seed, x_max=args.x_max,
        condition_on_simple=args.condition_on_simple, threads=args.threads, **source)


def _cmd_simulate(args) -> int:
    seq = _resolve_sequence(args)
    if args.n is None:
        source = args.file or "inline"
    else:
        source = f"build(n={args.n}, rho1={args.rho1}, p2={args.p2}, bulk={args.bulk})"
    report = montecarlo.run_experiment(_experiment_config(args, seq=seq, source=source))
    _emit(report.to_json(), args.out)
    return 0


def _cmd_sweep(args) -> int:
    targets = montecarlo.BuildTargets(n=1, rho1=args.rho1, p2=args.p2, bulk_degree=args.bulk)
    template = _experiment_config(args, targets=targets)
    n_values = _int_list(args.n_values, "--n-values", "vertex count", CmlabError)
    table = montecarlo.sweep(template, n_values)
    _emit(table, args.csv)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmlab",
        description="Configuration-model laboratory: sample, census, predict, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sample a multigraph, print its edge list")
    _add_degree_source(p, with_build=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stream", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("analyze", help="component census of a sampled or dumped graph")
    _add_degree_source(p, with_build=True)
    p.add_argument("--graph", help="edge-dump file to census instead of sampling")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stream", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("theory", help="closed-form predictions as JSON")
    _add_degree_source(p)
    p.add_argument("--rho1", type=float)
    p.add_argument("--p2", type=float)
    p.add_argument("--d", type=float)
    p.add_argument("--nu", type=float)
    p.add_argument("--x-max", type=int, default=theory.X_MAX)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_theory)

    p = sub.add_parser("enumerate", help="exact law by exhaustive enumeration")
    _add_degree_source(p)
    p.add_argument("--cap", type=int, default=oracle.HALF_EDGE_CAP,
                   help="half-edge enumeration cap; it bounds half-edges, not "
                        "memory: {1:4,2:8,3:8} (44 half-edges) takes about 5.5 s "
                        "and 290 MiB")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("simulate", help="Monte Carlo experiment report")
    _add_degree_source(p, with_build=True)
    _add_run_options(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_simulate)

    # no abbreviations: --n would otherwise be read as --n-values
    p = sub.add_parser("sweep", help="convergence-in-n CSV table", allow_abbrev=False)
    _add_build_targets(p.add_argument_group("build targets"))
    p.add_argument("--n-values", required=True, help="ascending list, e.g. 100,1000,10000")
    _add_run_options(p)
    p.add_argument("--csv", help="write the table to this path")
    p.set_defaults(func=_cmd_sweep)

    return parser


def run(argv: list[str] | None = None) -> int:
    """Dispatch a command line; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # OSError: a --file, --graph, --out or --csv path that cannot be opened
    except (CmlabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(run())
