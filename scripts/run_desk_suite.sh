#!/bin/sh
# Run every experiment at desk scale (reduced trials, capped array sizes).
# Takes about 7-9 s on a 2-core box with one BLAS thread, 3.9-5.4 s of it
# in bdr_vs_power; artifacts land under runs/desk/<experiment>/.
set -e

out="${1:-runs/desk}"

for exp in kgr_vs_power kgr_vs_n kgr_vs_m kgr_vs_eve_radius bdr_vs_power; do
    ris-skg "$exp" --preset desk --out "$out/$exp"
done
