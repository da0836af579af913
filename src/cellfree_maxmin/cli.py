"""Command line entry point.

    cellfree-maxmin <experiment> [--config cfg.json] [--seed N] [--out DIR]
                    [--solver apg|bisection|both] [--trials N] [--emit-config]

The experiment is one of: convergence, cdf, scaling, single-solve,
verify-rate. Values resolve as defaults < config file < CLI flags; the fully
resolved config is always written to <out>/resolved_config.json (and printed
instead of running when --emit-config is given; a reader that closes the
pipe early, as `| head` does, is no failure). On failure a machine
readable JSON error line (message, exception type, experiment) goes to
stderr and the exit code is nonzero.
"""

import argparse
import dataclasses
import json
import os
import sys

from .harness import EXPERIMENT_KINDS, ExperimentConfig, default_config, run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cellfree-maxmin",
        description="Max-min fairness power control experiments for multigroup "
                    "multicast cell-free massive MIMO",
    )
    parser.add_argument("experiment", choices=EXPERIMENT_KINDS)
    parser.add_argument("--config", help="JSON config file mirroring ExperimentConfig")
    parser.add_argument("--seed", type=int, help="master seed override")
    parser.add_argument("--out", help="output directory override")
    parser.add_argument("--solver", choices=("apg", "bisection", "both"))
    parser.add_argument("--trials", type=int, help="trial count override")
    parser.add_argument("--emit-config", action="store_true",
                        help="print the fully resolved config and exit")
    return parser


def resolve_config(args) -> ExperimentConfig:
    cfg = default_config(args.experiment)
    if args.config:
        with open(args.config) as fh:
            doc = json.load(fh)
        doc.setdefault("kind", args.experiment)
        base = cfg.to_json_dict()
        base.update(doc)
        cfg = ExperimentConfig.from_json_dict(base)
    if cfg.kind != args.experiment:
        raise ValueError(
            f"config kind {cfg.kind!r} does not match requested experiment {args.experiment!r}"
        )
    overrides = {}
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if args.out is not None:
        overrides["out_dir"] = args.out
    if args.solver is not None:
        overrides["solver"] = args.solver
    if args.trials is not None:
        overrides["trials"] = args.trials
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        if args.emit_config:
            try:
                print(json.dumps(cfg.to_json_dict(), indent=2, sort_keys=True))
                sys.stdout.flush()
            except BrokenPipeError:
                # the reader closed the pipe early (`| head`), which is no
                # failure; stdout goes to devnull so the flush at exit is quiet
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 0
        run_experiment(cfg)
    except Exception as exc:  # noqa: BLE001 - single reporting point for the CLI
        print(json.dumps({"error": str(exc), "type": type(exc).__name__,
                          "experiment": args.experiment}), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
