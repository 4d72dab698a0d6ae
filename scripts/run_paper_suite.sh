#!/bin/sh
# Full-averaging reproduction: 1000 trials per sweep point at the largest
# array sizes.  Estimated at 0.07 h on a 2-core box with one BLAS thread
# (0.02-0.03 h of design experiments, 0.04-0.05 h of bdr_vs_power; see
# the estimates printed by perfbench/run.py --workload paper_design_sweep
# and --workload paper_probing).  Run the desk suite first to check the
# setup.
# Artifacts land under runs/paper/<experiment>/.
set -e

out="${1:-runs/paper}"

for exp in kgr_vs_power kgr_vs_n kgr_vs_m kgr_vs_eve_radius bdr_vs_power; do
    ris-skg "$exp" --preset paper --out "$out/$exp"
done
