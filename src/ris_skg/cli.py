"""Command-line front end: one subcommand per experiment.

Exit codes: 0 on success, 2 for configuration problems.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import harness
from .channel_model import ConfigError

_HELP = {
    "kgr_vs_power": "key rate versus probing power (dBm sweep)",
    "kgr_vs_n": "key rate versus number of surface elements",
    "kgr_vs_m": "key rate versus number of base-station antennas",
    "kgr_vs_eve_radius": "key rate versus eavesdropper placement radius",
    "bdr_vs_power": "bit disagreement rate and randomness checks vs power",
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ris-skg",
        description="Secret-key-rate experiments for a reflecting-surface "
                    "assisted key-generation link.")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in harness.EXPERIMENTS:
        sp = sub.add_parser(name, help=_HELP.get(name))
        sp.add_argument("--config", metavar="PATH",
                        help="key = value config file layered on the preset")
        sp.add_argument("--out", metavar="DIR",
                        help="output directory (default: runs/<experiment>)")
        sp.add_argument("--trials", type=int,
                        help="override the number of Monte-Carlo trials")
        sp.add_argument("--seed", type=int, help="override the base seed")
        sp.add_argument("--preset", choices=sorted(harness.PRESETS),
                        default="paper",
                        help="base parameter set (default: paper)")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        text = None
        if args.config is not None:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        cfg = harness.build_config(args.preset, text, args.trials, args.seed)
        out_dir = args.out or os.path.join("runs", args.experiment)
        info = harness.run_experiment(args.experiment, cfg, out_dir)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    print(f"{args.experiment}: wrote {info['rows']} rows")
    print(f"  results:  {info['results']}")
    print(f"  timings:  {info['timings']}")
    print(f"  manifest: {info['manifest']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
