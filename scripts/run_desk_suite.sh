#!/bin/sh
# Run every experiment at desk scale (reduced trials, capped array sizes).
# Takes 4.3-4.5 s on a 2-core box with one BLAS thread, 2.4-2.6 s of it in
# bdr_vs_power; artifacts land under runs/desk/<experiment>/.
set -e

out="${1:-runs/desk}"

# every experiment the package declares (an assignment, so that set -e
# stops the script if the package does not import)
experiments=$(python -c 'from ris_skg.harness import EXPERIMENTS; print(*EXPERIMENTS)')
for exp in $experiments; do
    ris-skg "$exp" --preset desk --out "$out/$exp"
done
