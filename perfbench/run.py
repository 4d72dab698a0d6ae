"""Benchmark entry point: one workload, one report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from its
``src/``).  Each run starts fresh worker processes (``worker.py``) with
one BLAS thread: several that only import the package and resolve the
config, to time set-up, and one that repeats the workload's experiment
for ``S`` seconds and checks every result row.  With ``--trace 0`` the
last stdout line carries the end-to-end metrics; with ``--trace 1`` the
per-layer metrics of a traced run.  Earlier lines stamp the environment
and, on the paper preset workloads, extrapolate the paper suite's run
time.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 4        # set-up-only processes; the measuring one adds one
TIME_LIMIT_S = 170.0    # the whole run, set-up probes included
# One BLAS thread: the same on every machine, and on a 2-core box it ran
# 6% faster than the default (2 threads, one of them spinning between
# calls) in 4 of 4 alternated pairs on desk_all_methods.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
END_TO_END_UNITS = {"setup_s": "s", "trials_per_s": "1/s", "peak_rss_mb": "MB",
                    "ok_frac": "frac", "kgr_bits_mean": "bits"}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _spawn(args, deadline):
    """Run one worker; return (monotonic time just before the spawn, its
    JSON report).  Raises on a non-zero exit, bad output or timeout (the
    child is killed and reaped first)."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, WORKER, *args], cwd=ROOT,
                          env=dict(os.environ, **WORKER_ENV),
                          stdout=subprocess.PIPE, text=True, check=True,
                          timeout=max(deadline - t0, 1.0))
    return t0, json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    args = _parse(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    load_start = os.getloadavg()
    out_dir = os.path.join(ROOT, ".perfbench_out",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--out", out_dir]
    try:
        setup = []
        for _ in range(SETUP_PROBES):
            t0, rep = _spawn(common + ["--setup-only"], deadline)
            setup.append(rep["ready"] - t0)
        measure_args = common + ["--seconds", str(args.seconds)]
        if args.trace:
            measure_args.append("--trace")
        t0, rep = _spawn(measure_args, deadline)
        setup.append(rep["ready"] - t0)
    except (subprocess.SubprocessError, OSError, ValueError, KeyError,
            IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    env = dict(rep.pop("env"), loadavg_start=load_start,
               loadavg_end=os.getloadavg())
    print("env " + json.dumps(env, sort_keys=True))
    if rep.get("estimate"):
        print(rep["estimate"])
    for reason in rep["reasons"]:
        print(f"check failed: {reason}")

    walls = rep.get("walls", [])
    if args.trace:
        print(f"traced run: layers by share of traced wall time "
              f"(missing names: {rep.get('missing_layers', [])})")
        for name, calls, incl, self_share in rep.get("layer_table", []):
            print(f"  {name:40s} calls {calls:8d}  inclusive {incl:6.1%}"
                  f"  self {self_share:6.1%}")
        metrics = rep.get("layers", {})
    else:
        rates = [rep["draws"] / w for w in walls]
        print(f"{rep['workload']}: {len(walls)} timed runs of "
              f"{rep['experiment']} x {rep['draws']} draws; trials/s "
              + " ".join(f"{r:.3f}" for r in rates))
        print("setup s " + " ".join(f"{s:.3f}" for s in setup))
        # Outside load only ever slows a repetition down, so the fastest
        # one is the steadiest estimate of the code's own throughput: on a
        # shared 2-core box the run-to-run IQR of the best repetition was
        # 7-12% of its median, that of the median repetition 11-37%.
        values = {
            "setup_s": statistics.median(setup),
            "trials_per_s": max(rates, default=0.0),
            "peak_rss_mb": rep.get("peak_rss_mb", 0.0),
            "ok_frac": 1.0 - rep["failed"] / rep["attempted"],
            "kgr_bits_mean": rep.get("kgr_bits_mean", 0.0),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({"correct": bool(rep["correct"]),
                      "attempted": int(rep["attempted"]),
                      "failed": int(rep["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
