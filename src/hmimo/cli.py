"""Command-line entry point for training, sweeps and the position bound.

Exit codes: 0 success, 2 configuration error (a channel evaluated at a
singular geometry among them), 3 numerical failure across an entire sweep
point, a diverged surrogate fit or an unusable pilot matrix, 4 I/O error.
"""

import argparse
import sys

from hmimo.green import SingularityError
from hmimo.estimator import NumericalFailure
from hmimo.signals import PreprocessError
from hmimo.harness import (ConfigError, crlb_rows, load_config, load_nets,
                           run_point, sweep, train_surrogates, write_rows_csv)
from hmimo.surrogate import TrainingError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _parser():
    parser = argparse.ArgumentParser(
        prog="hmimo",
        description="Near-field channel estimation experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (
            ("train", "train the channel surrogates and save their weights"),
            ("sweep", "run the configured Monte-Carlo sweep"),
            ("point", "run a single sweep point at the fixed settings"),
            ("crlb", "tabulate the position error bound over the sweep grid")):
        p = sub.add_parser(name, help=desc)
        p.add_argument("--config", help="YAML config overriding the profile")
        p.add_argument("--profile", choices=("ci", "paper"), default="ci")
        p.add_argument("--seed", type=int, help="master seed override")
        p.add_argument("--out", help="output file override")
    return parser


def _config_from_args(args):
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        if args.command == "train":
            raise ConfigError("--out does not apply to train, which writes "
                              "paths.weights and paths.weights_approx; set "
                              "those keys in the config")
        overrides["paths"] = {"out": args.out}
    return load_config(args.config, profile=args.profile, overrides=overrides)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        out = cfg["paths"]["out"]
        if args.command == "train":
            train_surrogates(cfg, progress=print)
            return EXIT_OK
        nets = load_nets(cfg)
        if args.command == "sweep":
            rows = sweep(cfg, nets, progress=print)
        elif args.command == "point":
            variable = cfg["sweep"]["variable"]
            value = cfg["fixed"].get(variable)
            if value is None:
                value = cfg["sweep"]["values"][0]
            rows = run_point(cfg, nets, variable, value, 0)
        else:
            rows = crlb_rows(cfg, nets["exact"])
        write_rows_csv(out, rows)
        print(f"wrote {out}")
    except (ConfigError, SingularityError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalFailure, TrainingError, PreprocessError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (IOError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
