#!/bin/sh
# Run every experiment the package declares at one preset:
#
#     scripts/run_suite.sh PRESET [OUT] [ris-skg options...]
#
# Artifacts land under OUT/<experiment>/ (default runs/PRESET); the options
# go to every run, e.g. --config configs/desk_quick.cfg.  On a 2-core box
# with one BLAS thread, the desk suite takes 3.4-3.6 s, 1.1-1.6 s of it in
# bdr_vs_power.  The paper suite (1000 trials per sweep point at the
# largest array sizes) took 16.6 s in one run.  In separate runs
# bdr_vs_power alone took 13.5-13.7 s (it probes each trial in one call, for
# all its methods and powers, on one thread) and each key-rate experiment
# 0.46-0.86 s; the spread is the host's.  Run the desk suite first to check
# the setup.
set -e

preset="${1:?usage: scripts/run_suite.sh PRESET [OUT] [ris-skg options...]}"
shift
case "${1:-}" in
    "" | -*) out="runs/$preset" ;;
    *) out="$1"; shift ;;
esac

# every experiment the package declares (an assignment, so that set -e
# stops the script if the package does not import)
experiments=$(python -c 'from ris_skg.harness import EXPERIMENTS; print(*EXPERIMENTS)')
for exp in $experiments; do
    ris-skg "$exp" --preset "$preset" --out "$out/$exp" "$@"
done
