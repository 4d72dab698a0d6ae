#!/bin/sh
# Full-averaging reproduction: 1000 trials per sweep point at the largest
# array sizes.  On a 2-core box with one BLAS thread, bdr_vs_power took
# 49-53 s (it probes on one thread per CPU in the affinity mask) and each
# key-rate experiment 1.4-2.5 s, so about 1 min in all.  Run the desk
# suite first to check the setup.
# Artifacts land under runs/paper/<experiment>/.
set -e

out="${1:-runs/paper}"

# every experiment the package declares (an assignment, so that set -e
# stops the script if the package does not import)
experiments=$(python -c 'from ris_skg.harness import EXPERIMENTS; print(*EXPERIMENTS)')
for exp in $experiments; do
    ris-skg "$exp" --preset paper --out "$out/$exp"
done
