"""Benchmark for the nrp package: end-to-end metrics and per-layer spans.

Run from the root of a checkout:

    python3 perfbench/run.py --workload solve-large --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one after another

Workloads (each is a closed loop, one caller, in its own process):

  solve-large   smooth, nag, mpfp, pnorm through the dynamics engine on an
                exact-margin set, n=10000, d=100, gamma=0.1, T=200
  sweep-small   `nrp sweep` in-process: 6 algos x n {64, 256} x d 8 x 4 seeds,
                T=200, exact mode (48 cells)
  equiv-medium  check_equivalence for prop1, prop2, nag, mpfp at tol 1e-8,
                n=2000, d=50, gamma=0.1, T=400
  gen-io        generate -> write_dataset -> read_dataset, lower-bound mode,
                n=4000, d=40, gamma=0.1, p=3

The workload processes get one BLAS thread (OPENBLAS_NUM_THREADS=1,
OMP_NUM_THREADS=1), so the numbers differ on purpose from runs with the BLAS
default.  `NRP_THREADS` is left unset, so `nrp sweep` uses its default of
os.cpu_count() workers, unless os.cpu_count() exceeds the cores this process
may use; then it is set to that core count.  Which case applied is printed.

`--trace 0` splits the time over PROCESSES workload processes and reports,
over all their ops: op_s (median seconds per op), ok_frac (share of ops that
ran and passed their output check), setup_s (median over the processes of
the time from process start to the first timed op), peak_rss_mb (median
over the processes) and work_per_s (work units per op over op_s).
failed_frac, the tail percentile, the mean throughput and the provenance
block are printed on the lines before the result.
`--trace 1` runs one process, half the time untraced and half traced, and
reports the per-layer metrics of `tracer.py`, plus bench.trace_overhead.

The last line of standard output is one JSON object:
{"correct": bool, "attempted": int, "failed": int, "metrics": {name: {"value", "unit"}}}
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

WORKLOADS = ("solve-large", "sweep-small", "equiv-medium", "gen-io")
DEFAULT_SEED = 0
# later performance claims are re-checked on this seed as well
HELD_OUT_SEED = 7
# On a shared machine the speed of a process differs from the next one's by
# up to 30%, so each run splits its time over several processes and pools
# their ops.
PROCESSES = 10
# every process of one workload must end within this many seconds
DEADLINE_S = 170
HERE = os.path.dirname(os.path.abspath(__file__))


def _thread_env():
    """Child environment: one BLAS thread; NRP_THREADS per the rule above."""
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    env.pop("NRP_THREADS", None)
    cpus = os.cpu_count() or 1
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else cpus
    if cpus <= usable:
        rule = f"NRP_THREADS unset: os.cpu_count() {cpus} <= usable cores {usable}"
    else:
        env["NRP_THREADS"] = str(usable)
        rule = f"NRP_THREADS={usable}: os.cpu_count() {cpus} > usable cores {usable}"
    return env, rule


def _child(args, env, tmpdir, deadline, seconds, first):
    cmd = [sys.executable, os.path.join(HERE, "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace),
           "--tmpdir", tmpdir]
    if first:
        cmd.append("--provenance")
    cmd += ["--t0-ns", str(time.monotonic_ns())]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{args.workload} process exited {proc.returncode}")
    return json.loads(lines[-1])


def _tail(times):
    """Highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    n = len(times)
    best = None
    for q in (50, 90, 99, 99.9):
        if n * (1 - q / 100) >= 10:
            best = (q, statistics.quantiles(times, n=1000, method="inclusive")[
                int(q * 10) - 1])
    return best


def _git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unavailable: not a git checkout"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unavailable: {exc}"
    return out.stdout.strip() or "unavailable"


def run_workload(args, root):
    """Run one workload; print its report lines and return the result dict."""
    env, rule = _thread_env()
    deadline = time.monotonic() + DEADLINE_S
    tmpdir = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    # the traced run is one process: its overhead ratio compares two halves
    # of the same process, which cancels the process-to-process speed spread
    procs = 1 if args.trace else PROCESSES
    try:
        runs = [_child(args, env, tmpdir, deadline, args.seconds / procs, i == 0)
                for i in range(procs)]
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    first = runs[0]
    prov = dict(first["provenance"], git_commit=_git_commit(root), nrp_threads_rule=rule,
                held_out_seed=HELD_OUT_SEED, processes=procs)
    print(f"workload {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    attempted = sum(r["attempted"] for r in runs)
    failed = 0
    for r in runs:
        if r["output_sha256"] == first["output_sha256"]:
            failed += r["failed"]
        else:
            print("error: a process's outputs differ from the first process's",
                  file=sys.stderr)
            failed += r["attempted"]
    times = [t for r in runs for t in r["op_times"]]
    if args.trace:
        metrics = first["per_layer"]
        if first["absent"]:
            print("absent " + " ".join(first["absent"]))
    else:
        setups = [r["setup_s"] for r in runs]
        # throughput from the median op: a mean over ops is dominated by the
        # rare op that a neighbour on the machine slows several-fold
        metrics = {
            "op_s": {"value": statistics.median(times), "unit": "s"},
            "ok_frac": {"value": (attempted - failed) / attempted, "unit": "frac"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mib"] for r in runs),
                            "unit": "MiB"},
            "work_per_s": {"value": first["work_per_op"] / statistics.median(times),
                           "unit": "work/s"},
        }
        tail = _tail(times)
        print(f"work unit {first['units']}, {first['work_per_op']} per op; "
              f"mean throughput {first['work_per_op'] * len(times) / math.fsum(times)} "
              "work/s")
        print(f"failed_frac {failed / attempted} frac ({failed} of {attempted} ops)")
        print("op_s tail " + (f"p{tail[0]:g} {tail[1]} s" if tail else "none")
              + f" (n={len(times)} ops; a percentile needs 10 ops beyond it)")
        print(f"setup_s samples {setups}")
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isdir(os.path.join(root, "src", "nrp")):
        print("error: run from the root of an nrp checkout (no src/nrp here)",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(argparse.Namespace(**{**vars(args),
                                                               "workload": name}), root)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        out = results[names[0]]
    else:
        out = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {f"{w}/{k}": v for w, r in results.items()
                           for k, v in r["metrics"].items()}}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
