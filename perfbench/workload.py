"""One workload process of the nrp benchmark; started by `run.py`.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S \
        --trace 0|1 --t0-ns NS --tmpdir DIR [--provenance]

The process imports `nrp` from `src/` of the current directory, builds its
inputs from the seed, then runs one operation after another (a closed loop,
one caller) until the timed operations add up to `--seconds`.  Every output
is checked outside the timed region, and every op's output must be
bit-identical to the first op's.  With `--trace 1` the first half of the
time runs untraced and the second half traced, so the traced outputs are
compared with untraced ones and the tracing overhead is measured.

The last line of standard output is one JSON object for `run.py`.
`--t0-ns` is `time.monotonic_ns()` taken by the parent just before it
started this process, so set-up time counts interpreter start-up.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

# Engine regrets against the from-arrays oracle in nrp.learners.  The engine
# of nrp 0.1.0 deviates by up to 1.9e-12 relative at n=10000, d=100, T=200
# (ridge regimes), so 1e-12 would fail correct code; 1e-10 leaves 50x
# headroom and still catches any accounting change larger than roundoff.
REGRET_RTOL = 1e-10
EQUIV_TOL = 1e-8


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        if a is not None:
            h.update(memoryview(a).cast("B"))
    return h.hexdigest()


class SolveLarge:
    """smooth, nag, mpfp and pnorm (p=2) through the dynamics engine.

    The n x d matvecs of the engine, learners and margin do nearly all the
    work; no datagen, I/O or CLI sits inside the op.
    """

    units = "rounds"
    n, d, gamma, horizon = 10000, 100, 0.1, 200

    def __init__(self, seed, tmpdir):
        from nrp import algorithms, core, datagen, dynamics, learners
        self.alg, self.core, self.dyn, self.lrn = algorithms, core, dynamics, learners
        t = time.perf_counter()
        self.dataset = datagen.generate(datagen.GenSpec(
            n=self.n, d=self.d, gamma=self.gamma, mode=datagen.GenMode.EXACT_MARGIN,
            seed=seed))
        self.generate_setup_s = time.perf_counter() - t
        self.inputs = [self.dataset]
        self.work = 4 * self.horizon

    def datasets(self):
        return self.inputs

    def op(self):
        alg, ds, T = self.alg, self.dataset, self.horizon
        out = {}
        for algo, config in (("smooth", alg.smooth_config(T)),
                             ("nag", alg.nag_config(T)),
                             ("mpfp", alg.mpfp_config(ds.n, T)),
                             ("pnorm", alg.pnorm_config(ds.n, T, 2.0))):
            trace = self.dyn.run_dynamics(config, ds)
            # the output vector `nrp run` reports for each algorithm
            final = 0.25 * trace.w_sum if algo == "nag" else trace.w_bar
            out[algo] = (trace, self.core.margin(ds, final),
                         self.core.normalized_margin(ds, final))
        return out

    def verify(self, out):
        problems, parts = [], []
        for algo, (trace, m, nm) in out.items():
            if not m > 0:
                problems.append(f"{algo}: final margin {m!r} is not positive")
            rw = self.lrn.weighted_regret_w(trace, self.dataset)
            rw = rw[0] if isinstance(rw, tuple) else rw
            rp = self.lrn.weighted_regret_p(trace, self.dataset)
            for label, engine, oracle in (("regret_w", trace.regret_w, rw),
                                          ("regret_p", trace.regret_p, rp)):
                scale = max(abs(engine), abs(oracle))
                if not abs(engine - oracle) <= REGRET_RTOL * scale:
                    problems.append(f"{algo}: {label} {engine!r} vs oracle {oracle!r}")
            parts.append(_sha(trace.w_bar, trace.p_bar, trace.gap_bound_running,
                              trace.margin_avg) + f"{m.hex()}{nm.hex()}")
        return problems, "".join(parts)


class SweepSmall:
    """`nrp sweep` in-process over 48 small cells.

    Matvecs are tiny, so per-round interpreter overhead, learner dispatch,
    the sweep's thread pool and CSV formatting dominate.
    """

    units = "cells"
    algos = ("smooth", "ji", "nag", "mpfp", "pnorm", "vanilla")
    ns, d, horizon, gamma = (64, 256), 8, 200, 0.3

    def __init__(self, seed, tmpdir):
        from nrp import cli
        self.cli = cli
        self.seeds = [seed + k for k in range(4)]
        self.path = os.path.join(tmpdir, "sweep.csv")
        self.argv = ["sweep", "--algos", *self.algos, "--n", *map(str, self.ns),
                     "--d", str(self.d), "--gamma", str(self.gamma),
                     "--seed", *map(str, self.seeds), "--T", str(self.horizon),
                     "--mode", "exact", "--out", self.path]
        self.work = len(self.algos) * len(self.ns) * len(self.seeds)
        self.generate_setup_s = 0.0
        self.inputs = []    # cli generates each cell's dataset inside the op

    def datasets(self):
        from nrp import datagen
        return [datagen.generate(datagen.GenSpec(
                    n=n, d=self.d, gamma=self.gamma, mode=datagen.GenMode.EXACT_MARGIN,
                    seed=s)) for n in self.ns for s in self.seeds]

    def op(self):
        return self.cli.main(self.argv)

    def verify(self, code):
        if code != 0:
            return [f"nrp sweep exited {code}"], ""
        with open(self.path) as fh:
            lines = fh.read().splitlines()
        problems = []
        if len(lines) != 1 + self.work:
            problems.append(f"{len(lines) - 1} rows, expected {self.work}")
        if not lines or not lines[0].endswith(",wallclock_ms"):
            problems.append("last CSV column is not wallclock_ms")
        return problems, "\n".join(ln.rsplit(",", 1)[0] for ln in lines)


class EquivMedium:
    """check_equivalence for prop1, prop2, nag and mpfp: the library's
    headline job, and the only workload that runs the standalone forms."""

    units = "checks"
    n, d, gamma, horizon = 2000, 50, 0.1, 400
    pairs = ("prop1", "prop2", "nag", "mpfp")

    def __init__(self, seed, tmpdir):
        from nrp import algorithms, datagen
        self.alg = algorithms
        t = time.perf_counter()
        self.dataset = datagen.generate(datagen.GenSpec(
            n=self.n, d=self.d, gamma=self.gamma, mode=datagen.GenMode.EXACT_MARGIN,
            seed=seed))
        self.generate_setup_s = time.perf_counter() - t
        self.inputs = [self.dataset]
        self.work = len(self.pairs)

    def datasets(self):
        return self.inputs

    def op(self):
        return [self.alg.check_equivalence(self.alg.EquivalencePair(p), self.dataset,
                                           self.horizon, tol=EQUIV_TOL)
                for p in self.pairs]

    def verify(self, reports):
        problems = [f"{r.which}: max deviation {r.max_deviation!r} > {r.tol!r}"
                    for r in reports if not r.passed]
        fingerprint = repr([(str(r.which), sorted((k, v.hex()) for k, v in r.deviations.items()))
                            for r in reports])
        return problems, fingerprint


class GenIo:
    """datagen.generate -> core.write_dataset -> core.read_dataset.

    The rejection sampler and the text writer and reader share the time;
    the dynamics engine is idle.
    """

    units = "rows"
    n, d, gamma, p = 4000, 40, 0.1, 3.0

    def __init__(self, seed, tmpdir):
        from nrp import core, datagen
        self.core, self.datagen = core, datagen
        self.spec = datagen.GenSpec(n=self.n, d=self.d, gamma=self.gamma,
                                    norm_exponent=self.p,
                                    mode=datagen.GenMode.LOWER_BOUND, seed=seed)
        self.path = os.path.join(tmpdir, "gen-io.txt")
        self.work = self.n
        self.generate_setup_s = 0.0
        self.inputs = []    # generating the dataset is part of the op

    def datasets(self):
        return [self.datagen.generate(self.spec)]

    def op(self):
        ds = self.datagen.generate(self.spec)
        self.core.write_dataset(ds, self.path)
        return ds, self.core.read_dataset(self.path)

    def verify(self, out):
        ds, back = out
        problems = []
        for field in ("matrix", "labels", "w_star"):
            a, b = getattr(ds, field), getattr(back, field)
            same = (a is None and b is None) or (
                a is not None and b is not None and a.shape == b.shape
                and a.dtype == b.dtype and a.tobytes() == b.tobytes())
            if not same:
                problems.append(f"re-read {field} differs from the generated one")
        for field in ("norm_exponent", "known_margin", "exact_margin"):
            if getattr(ds, field) != getattr(back, field):
                problems.append(f"re-read {field} differs from the generated one")
        return problems, _sha(ds.matrix, ds.labels, ds.w_star)


WORKLOADS = {"solve-large": SolveLarge, "sweep-small": SweepSmall,
             "equiv-medium": EquivMedium, "gen-io": GenIo}


class Loop:
    """Closed loop of ops with untimed output checks."""

    def __init__(self, workload):
        self.wl = workload
        self.reference = None
        self.attempted = 0
        self.failed = 0

    def run(self, budget_s, tracer=None):
        times = []
        # start another op only if it would end nearer the budget than not
        while not times or sum(times) + times[-1] / 2 < budget_s:
            if tracer is not None:
                tracer.begin_op(self.attempted)
            t = time.perf_counter_ns()
            try:
                out = self.wl.op()
                error = None
            except Exception:
                out, error = None, traceback.format_exc()
            dt = time.perf_counter_ns() - t
            if tracer is not None:
                tracer.end_op(dt)
            times.append(dt / 1e9)
            self.attempted += 1
            problems = [error] if error else []
            if not error:
                try:
                    found, fingerprint = self.wl.verify(out)
                except Exception:
                    found, fingerprint = [traceback.format_exc()], None
                problems += found
                if self.reference is None and not found:
                    self.reference = fingerprint
                elif fingerprint != self.reference:
                    kind = "traced" if tracer is not None else "untraced"
                    problems.append(f"{kind} op {self.attempted}: output differs "
                                    "bit-wise from the first op's")
            del out
            if problems:
                self.failed += 1
                for p in problems:
                    print(f"op {self.attempted} failed: {p}", file=sys.stderr)
        return times


def provenance(wl, seed):
    import numpy as np
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: dep.get(k) for k in ("name", "version")}
    except Exception as exc:  # layout differs across numpy versions
        blas = {"error": repr(exc)}
    version = None
    try:
        import tomllib
        with open("pyproject.toml", "rb") as fh:
            version = tomllib.load(fh)["project"]["version"]
    except (OSError, KeyError, ImportError):
        pass
    mats = [d.matrix for d in wl.datasets()]
    caches = {}
    if sys.platform.startswith("linux"):
        # glibc's _SC_LEVEL2_CACHE_SIZE / _SC_LEVEL3_CACHE_SIZE
        for label, num in (("l2_bytes", 191), ("l3_bytes", 194)):
            try:
                caches[label] = os.sysconf(num)
            except (ValueError, OSError):
                caches[label] = None
    return {
        "nrp": version,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "seed": seed,
        "dataset_sha256": [_sha(np.ascontiguousarray(m)) for m in mats],
        "matrix_bytes": sum(int(m.nbytes) for m in mats),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_count": os.cpu_count(),
        "threads_env": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                         "NRP_THREADS")},
        **caches,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0-ns", type=int, required=True)
    ap.add_argument("--tmpdir", required=True)
    ap.add_argument("--provenance", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.abspath("src"))
    wl = WORKLOADS[args.workload](args.seed, args.tmpdir)
    setup_s = (time.monotonic_ns() - args.t0_ns) / 1e9

    loop = Loop(wl)
    result = {"setup_s": setup_s, "work_per_op": wl.work, "units": wl.units}
    if args.trace:
        from tracer import LAYERS, Tracer
        untraced = loop.run(args.seconds / 2)
        modules = {}
        for name in LAYERS:
            try:
                modules[name] = importlib.import_module(f"nrp.{name}")
            except ImportError:
                pass    # the layer's metrics are reported absent
        tracer = Tracer()
        tracer.install(modules)
        for ds in wl.inputs:
            tracer.count_dataset(ds)
        traced = loop.run(args.seconds / 2, tracer)
        overhead = statistics.median(traced) / statistics.median(untraced)
        metrics, absent = tracer.metrics(wl.generate_setup_s, overhead)
        result.update(per_layer=metrics, absent=absent, traced_ops=len(traced))
        times = untraced
    else:
        times = loop.run(args.seconds)
    result.update(
        op_times=times, attempted=loop.attempted, failed=loop.failed,
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        output_sha256=hashlib.sha256(str(loop.reference).encode()).hexdigest())
    if args.provenance:
        result["provenance"] = provenance(wl, args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
