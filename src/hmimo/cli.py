"""Command-line entry point for training, sweeps and diagnostic dumps.

Exit codes: 0 success, 2 configuration error (a channel evaluated at a
singular geometry among them), 3 numerical failure across an entire sweep
point, a diverged surrogate fit or an unusable pilot matrix, 4 I/O error.
"""

import argparse
import math
import sys

from hmimo.green import (QuadratureRule, SingularityError, WaveConfig, field_dump,
                         write_field_dump_csv)
from hmimo.estimator import NumericalFailure
from hmimo.signals import PreprocessError
from hmimo.harness import (ConfigError, build_geometry, crlb_rows, load_config,
                           load_nets, run_point, sweep, train_surrogates,
                           write_rows_csv)
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
            ("field-dump", "dump a channel component over a plane of positions"),
            ("crlb", "tabulate the position error bound over the sweep grid")):
        p = sub.add_parser(name, help=desc)
        p.add_argument("--config", help="YAML config overriding the profile")
        p.add_argument("--profile", choices=("ci", "paper"), default="ci")
        p.add_argument("--seed", type=int, help="master seed override")
        p.add_argument("--out", help="output file override")
    fd = sub.choices["field-dump"]
    fd.add_argument("--axis", choices=("x", "y", "z"), default="y",
                    help="coordinate held fixed")
    fd.add_argument("--value", type=float, default=0.0,
                    help="value of the fixed coordinate")
    fd.add_argument("--range1", type=float, nargs=2, default=(-1.0, 1.0))
    fd.add_argument("--range2", type=float, nargs=2, default=(20.0, 40.0))
    fd.add_argument("--resolution", type=int, nargs=2, default=(41, 41))
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


def _check_field_dump_args(args):
    if min(args.resolution) < 1:
        raise ConfigError(f"--resolution needs two positive point counts, "
                          f"got {args.resolution[0]} {args.resolution[1]}")
    if not all(map(math.isfinite, (args.value, *args.range1, *args.range2))):
        raise ConfigError("--value, --range1 and --range2 must be finite numbers")


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
        if args.command == "field-dump":
            _check_field_dump_args(args)
            geom = build_geometry(cfg)
            wave = WaveConfig(cfg["wave"]["frequency"])
            quad = QuadratureRule(cfg["quadrature_order"])
            try:
                dump = field_dump(geom, wave, quad, args.axis, args.value,
                                  tuple(args.range1), tuple(args.range2),
                                  tuple(args.resolution))
            except SingularityError as exc:
                raise ConfigError(f"field-dump plane {args.axis} = {args.value} "
                                  f"meets the receive aperture: {exc}") from None
            write_field_dump_csv(out, dump)
        else:
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
