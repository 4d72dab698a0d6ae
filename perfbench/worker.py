"""One benchmark workload in one fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --out DIR [--trace] [--setup-only]

Imports the package from ``src/`` of this checkout, resolves the workload's
config through ``harness.build_config`` (the only place the seed enters),
prints the monotonic time at which the first trial could start, and then,
unless ``--setup-only``, repeats ``harness.run_experiment`` for at least
``S`` seconds.  Untraced, every repetition is timed; with ``--trace``,
untraced and traced repetitions alternate so the tracing overhead is
measured on the same work.  The last stdout line is one JSON object that
``run.py`` turns into the benchmark report.
"""

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
if not os.path.isfile(os.path.join(SRC, "ris_skg", "__init__.py")):
    sys.exit(f"no package source at {SRC}; run from a source checkout")
sys.path.insert(0, SRC)

from ris_skg import harness  # noqa: E402

# name -> (experiment, preset, config text layered on the preset, trials).
# Trials are cut from the preset's count so that one repetition takes
# about 0.5-6 s; the array sizes, methods and probing rounds stay the
# preset's.
WORKLOADS = {
    # the paper's main traffic: N = 20/40/60, M = 15, K = 10, default
    # methods; dominated by building the lifted problem
    "paper_design_sweep": ("kgr_vs_n", "paper", None, 10),
    # all seven design methods at desk scale; dominated by per-evaluation
    # objective work inside the subgradient baseline
    "desk_all_methods": (
        "kgr_vs_power", "desk",
        "methods = optimized, statistical, iid_ris, iid_bs, random, "
        "no_ris, subgradient", 4),
    # probing at paper scale (10k rounds) on three of its power points;
    # dominated by simulate_probing, and sets the peak memory
    "paper_probing": ("bdr_vs_power", "paper",
                      "sweep_power_dbm = 10, 25, 40", 1),
}


def workload_config(name, seed):
    experiment, preset, text, trials = WORKLOADS[name]
    return experiment, harness.build_config(preset, text, trials, seed)


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


def main(argv=None):
    args = _parse(argv)
    experiment, cfg = workload_config(args.workload, args.seed)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0
    from measure import measure
    on_paper = WORKLOADS[args.workload][1] == "paper"
    report = measure(args.workload, experiment, cfg, args.seconds, args.out,
                     args.trace, estimate=on_paper)
    report["ready"] = ready
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
