"""Command-line harness: generate instances, query the offline oracle, run
the online pipeline, verify logs, and sweep seed grids.

Exit codes: 0 success, 2 invalid input, 3 invariant violation, 4 oracle
infeasible or too large.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .experiment import (
    CHECK_FAMILIES,
    RunConfig,
    oracle_solve,
    run_pipeline,
    run_sweep,
    verify_logdir,
    write_run_logs,
)
from .fractional import GuessTooSmallError, StalledStepError, StepCapError
from .instances import (
    PTIME_MODELS,
    GeneratorConfig,
    InstanceFormatError,
    generate,
    load_instance,
    save_instance,
)
from .oracle import DEFAULT_NODE_BUDGET, InfeasibleInstanceError, OracleTooLargeError

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_VIOLATION = 3
EXIT_ORACLE = 4


def cmd_gen(args) -> int:
    instance = generate(GeneratorConfig(m=args.m, n=args.n, seed=args.seed, ptime_model=args.model))
    save_instance(instance, args.out)
    print(f"wrote {args.out} (m={instance.m}, n={instance.n}, L={instance.makespan_budget})")
    return EXIT_OK


def cmd_oracle(args) -> int:
    instance = load_instance(args.infile)
    result = oracle_solve(instance, node_budget=args.node_budget)
    print(
        json.dumps(
            {
                "B": result.optimal_cost,
                "witness_makespan": result.witness_makespan,
                "nodes_explored": result.nodes_explored,
                "exact": True,  # every OracleResult is a proved optimum
            }
        )
    )
    return EXIT_OK


def _parse_alpha(raw: str) -> tuple[str, float | None]:
    if raw in ("oracle", "double"):
        return raw, None
    try:
        return "fixed", float(raw)
    except ValueError:
        raise ValueError(
            f"--alpha must be 'oracle', 'double', or a number, got {raw!r}"
        ) from None


def cmd_run(args) -> int:
    instance = load_instance(args.infile)
    mode, value = _parse_alpha(args.alpha)
    config = RunConfig(
        alpha_mode=mode,
        alpha_value=value,
        seed=args.seed,
        checks=() if args.no_checks else CHECK_FAMILIES,
    )
    artifacts = run_pipeline(instance, config)
    write_run_logs(artifacts, args.logdir)
    row = artifacts.row
    print(
        f"alpha={artifacts.alpha} frac_cost={row['frac_cost']} int_cost={row['int_cost']} "
        f"int_makespan={row['int_makespan']} violations={row['invariant_violations']}"
    )
    if row["invariant_violations"] > 0:
        for msg in artifacts.violations.messages[:10]:
            print(f"violation: {msg}", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_verify(args) -> int:
    problems = verify_logdir(args.logdir)
    if problems:
        for msg in problems[:50]:
            print(f"violation: {msg}", file=sys.stderr)
        print(f"{len(problems)} violation(s) in {args.logdir}")
        return EXIT_VIOLATION
    print(f"ok: {args.logdir}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    config_path = Path(args.config)
    if not config_path.exists():
        raise InstanceFormatError(f"{config_path}: file not found")
    config_doc = json.loads(config_path.read_text(encoding="utf-8"))
    aggregate = run_sweep(config_doc, args.out)
    violations = aggregate.get("invariant_violations", {}).get("max", 0.0)
    for metric, stats in aggregate.items():
        print(f"{metric}: mean={stats['mean']} max={stats['max']} p95={stats['p95']}")
    return EXIT_VIOLATION if violations > 0 else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="actsched",
        description="Online machine-activation scheduling harness",
    )
    # No prefix matching of options: a removed option such as --a must fail,
    # not be read as --alpha.
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", allow_abbrev=False, help="generate a random instance file")
    p_gen.add_argument("--m", type=int, required=True)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--model", choices=PTIME_MODELS, default="uniform")
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_gen)

    p_oracle = sub.add_parser("oracle", allow_abbrev=False, help="exact offline optimum of an instance")
    p_oracle.add_argument("--in", dest="infile", required=True)
    p_oracle.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET)
    p_oracle.set_defaults(func=cmd_oracle)

    p_run = sub.add_parser("run", allow_abbrev=False, help="run the online pipeline on an instance")
    p_run.add_argument("--in", dest="infile", required=True)
    p_run.add_argument("--alpha", default="oracle", help="'oracle', 'double', or a number")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--no-checks", action="store_true")
    p_run.add_argument("--logdir", required=True)
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", allow_abbrev=False, help="re-check invariants from run logs")
    p_verify.add_argument("--logdir", required=True)
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", allow_abbrev=False, help="run a seed grid from a config file")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags already; normalize other codes
        return EXIT_INVALID if exc.code not in (0,) else EXIT_OK
    try:
        return args.func(args)
    except (InfeasibleInstanceError, OracleTooLargeError) as exc:
        print(f"oracle error: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    except (
        InstanceFormatError,
        GuessTooSmallError,
        StepCapError,
        StalledStepError,
        ValueError,
        OSError,
        json.JSONDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
