"""Command-line front end: run experiments, sweep parameters, generate data.

    covmem run   --config run.cfg
    covmem sweep --config run.cfg --param temperature --values 0,0.01,1
    covmem gen   --scenario rare_patterns --out stream.ndjson

Config files are flat ``key = value`` text; see ``harness.RunConfig``
for the key set.
"""
import argparse
from dataclasses import replace

from .harness import parse_config, run, scenario_stream, sweep
from .samples import SamplePool, write_samples
from .workloads import SCENARIO_KINDS

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="covmem",
                                     description="replay-memory selection experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one configured run")
    p_run.add_argument("--config", required=True, help="flat key-value config file")
    p_run.add_argument("--out-dir", default=None, help="override the config's out_dir")

    p_sweep = sub.add_parser("sweep", help="repeat a run across one parameter's values")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--param", required=True, help="config key to sweep")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--out-dir", default=None)

    p_gen = sub.add_parser("gen", help="write a synthetic stream as sample records")
    p_gen.add_argument("--scenario", required=True, choices=SCENARIO_KINDS)
    p_gen.add_argument("--out", required=True, help="output sample-record file")
    p_gen.add_argument("--iterations", type=int, default=None)
    p_gen.add_argument("--samples-per-iteration", type=int, default=None)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--noise", type=float, default=0.0, help="noise fraction in [0, 1]")
    p_gen.add_argument("--stationary", action="store_true",
                       help="rare_patterns only: same mixture on every iteration")
    return parser


def _cmd_run(args) -> int:
    config = parse_config(args.config)
    if args.out_dir is not None:
        config = replace(config, out_dir=args.out_dir)
    reports = run(config)
    for r in reports:
        print(f"iteration {r.iteration:3d}  retrained={int(r.retrained)}  "
              f"rci={r.rci:.4f}  memory={int(r.mem_class_counts.sum())}")
    if config.out_dir:
        print(f"reports written to {config.out_dir}")
    return 0


def _cmd_sweep(args) -> int:
    config = parse_config(args.config)
    if args.out_dir is not None:
        config = replace(config, out_dir=args.out_dir)
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    results = sweep(config, args.param, values)
    for value, reports in results.items():
        retrains = sum(r.retrained for r in reports)
        print(f"{args.param}={value}: {len(reports)} iterations, {retrains} retrains")
    return 0


def _cmd_gen(args) -> int:
    stream, spec = scenario_stream(
        args.scenario, args.seed, args.noise, iterations=args.iterations,
        samples_per_iteration=args.samples_per_iteration, stationary=args.stationary,
    )
    pool = SamplePool.concat(stream)
    write_samples(args.out, pool)
    print(f"wrote {len(pool)} samples ({spec.iterations} iterations) to {args.out}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {"run": _cmd_run, "sweep": _cmd_sweep, "gen": _cmd_gen}[args.command]
    return handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
