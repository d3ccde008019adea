"""Spans and counters recorded around the calls into each `nrp` layer.

Nothing here edits the package's source.  `Tracer.install` replaces, at the
names their callers look up, every public function of the layer modules and
the `decide` / `absorb` / `step` methods of the learner classes with timing
wrappers.  A dataset's `matrix` is swapped for a view of `CountedMatrix`,
whose `__array_ufunc__` counts products with the data matrix or its
transpose and hands plain ndarrays back, so the numbers the package computes
are bit-identical to an untraced run.

Layer boundaries are found by introspection, so renames inside the package
make a metric absent instead of breaking the benchmark.
"""

from __future__ import annotations

import inspect
import os
import statistics
import threading
import time

import numpy as np

LAYERS = ("cli", "datagen", "core", "learners", "dynamics", "algorithms")
LEARNER_METHODS = {"decide": "decide", "absorb": "absorb", "step": "absorb"}
# the solve-large algorithms, keyed by the config function that builds them
MATVEC_ALGOS = ("smooth", "nag", "mpfp", "pnorm")
MARGIN_FUNCS = ("core.margin", "core.normalized_margin", "core.margin_argmin")
# private helper that draws one rejection-sampling candidate; if it is
# renamed or vectorized away, datagen.accept_ratio is reported absent
DRAW_HELPER = "_uniform_pnorm_ball"

PER_LAYER = {
    **{f"core.matvecs_per_round.{a}": "count" for a in MATVEC_ALGOS},
    "core.matvec_mb_per_round_computed": "MB",
    "core.margin_s": "s",
    "core.write_dataset_s": "s",
    "core.read_dataset_s": "s",
    "core.bytes_written": "bytes",
    "learners.decide_s": "s",
    "learners.absorb_s": "s",
    "learners.softmax_s": "s",
    "learners.calls_per_round": "count",
    "dynamics.run_s": "s",
    "dynamics.us_per_round": "us",
    "dynamics.self_s": "s",
    "algorithms.standalone_s": "s",
    "algorithms.matvecs_per_round": "count",
    "algorithms.check_self_s": "s",
    "datagen.generate_s": "s",
    "datagen.generate_setup_s": "s",
    "datagen.accept_ratio": "ratio",
    "cli.self_s": "s",
    "cli.busy_ratio": "ratio",
    "bench.trace_overhead": "ratio",
}


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "op", "children",
                 "matvecs", "mv_bytes", "draws", "rounds", "tag", "rows",
                 "bytes_out", "sub_mv", "sub_bytes", "sub_draws", "has_dyn",
                 "is_call", "sub_calls", "self_ns")

    def __init__(self, name, layer, start, parent, op):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.children = []
        self.matvecs = 0
        self.mv_bytes = 0
        self.draws = 0
        self.rounds = 0
        self.tag = None
        self.rows = 0
        self.bytes_out = 0


class CountedMatrix(np.ndarray):
    """Read-only view of a data matrix that counts matmuls it takes part in."""

    tracer: "Tracer | None" = None

    def __array_finalize__(self, obj):
        self._full = getattr(obj, "_full", None)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul and method == "__call__" and self.tracer is not None:
            for x in inputs:
                if (isinstance(x, CountedMatrix) and x._full is not None
                        and x.shape in (x._full, x._full[::-1])):
                    self.tracer.count_matvec(x.nbytes)
                    break
        plain = [x.view(np.ndarray) if isinstance(x, CountedMatrix) else x
                 for x in inputs]
        if "out" in kwargs:
            kwargs["out"] = tuple(x.view(np.ndarray) if isinstance(x, CountedMatrix)
                                  else x for x in kwargs["out"])
        return getattr(ufunc, method)(*plain, **kwargs)


def _union_ns(intervals, lo, hi) -> int:
    """Length of the union of [s, e) intervals clipped to [lo, hi)."""
    total = 0
    cur_s = cur_e = None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


class Tracer:
    """Records spans for one workload process; active only during traced ops."""

    def __init__(self):
        self._local = threading.local()
        self.main_stack = []
        self._local.stack = self.main_stack
        self.active = False
        self.op = -1
        self.roots = []
        self.algo_of = {}
        self.dataset_type = None
        self.absent = set()
        self.per_op = []          # one dict of per-op sums per traced op
        self.totals = {}          # sums across traced ops for per-round ratios

    # -- recording ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name, layer):
        stack = self._stack()
        # spans opened on a pool thread hang under the main thread's open span
        parent = stack[-1] if stack else (self.main_stack[-1] if self.main_stack else None)
        span = Span(name, layer, time.perf_counter_ns(), parent, self.op)
        if parent is None:
            self.roots.append(span)
        else:
            parent.children.append(span)
        stack.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter_ns()
        self._stack().pop()

    def count_matvec(self, nbytes):
        if self.active:
            stack = self._stack()
            if stack:
                stack[-1].matvecs += 1
                stack[-1].mv_bytes += nbytes

    def count_dataset(self, dataset):
        """Swap a dataset's matrix for a counting view (same memory)."""
        if self.dataset_type is None or not isinstance(dataset, self.dataset_type):
            return
        a = dataset.matrix
        if isinstance(a, CountedMatrix) or not isinstance(a, np.ndarray) or a.ndim != 2:
            return
        view = a.view(CountedMatrix)
        view._full = a.shape
        object.__setattr__(dataset, "matrix", view)

    def _wrap(self, fn, name, layer):
        tracer = self
        params = set(inspect.signature(fn).parameters)
        needs_args = bool(params & {"horizon", "config", "path"})
        sig = inspect.signature(fn) if needs_args else None
        is_config = name.endswith("_config")

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if needs_args:
                bound = sig.bind(*args, **kwargs).arguments
                horizon = bound.get("horizon")
                config = bound.get("config")
                if isinstance(horizon, int):
                    span.rounds = horizon
                elif config is not None and isinstance(getattr(config, "horizon", None), int):
                    span.rounds = config.horizon
                    span.tag = tracer.algo_of.get(id(config), (None, "other"))[1]
                path = bound.get("path")
                if isinstance(path, (str, os.PathLike)) and name.split(".")[-1].startswith("write"):
                    span.bytes_out = os.path.getsize(path)
            if is_config and hasattr(result, "horizon"):
                # keep the config alive so its id is not reused within the op
                tracer.algo_of[id(result)] = (result, name.split(".")[-1][:-len("_config")])
            if tracer.dataset_type is not None and isinstance(result, tracer.dataset_type):
                span.rows = result.n
                tracer.count_dataset(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_counter(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.active:
                stack = tracer._stack()
                if stack:
                    stack[-1].draws += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, modules):
        """Wrap the layer boundaries of the given `nrp.<layer>` modules and
        note in `absent` the metrics whose boundary no longer exists."""
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                owner = getattr(obj, "__module__", "") or ""
                owner_layer = owner.rsplit(".", 1)[-1]
                if not owner.startswith("nrp.") or owner_layer not in LAYERS:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj, f"{owner_layer}.{obj.__name__}",
                                                   owner_layer)
                setattr(mod, attr, wrappers[id(obj)])
        learners = modules.get("learners")
        kinds = set()
        if learners is not None:
            for cls in vars(learners).values():
                if not inspect.isclass(cls) or cls.__module__ != learners.__name__:
                    continue
                for meth, kind in LEARNER_METHODS.items():
                    fn = cls.__dict__.get(meth)
                    if inspect.isfunction(fn):
                        setattr(cls, meth, self._wrap(fn, f"learners.{cls.__name__}.{meth}",
                                                      "learners"))
                        kinds.add(kind)
        datagen = modules.get("datagen")
        if datagen is not None and inspect.isfunction(getattr(datagen, DRAW_HELPER, None)):
            setattr(datagen, DRAW_HELPER, self._wrap_counter(getattr(datagen, DRAW_HELPER)))
        else:
            self.absent.add("datagen.accept_ratio")
        core = modules.get("core")
        self.dataset_type = getattr(core, "Dataset", None) if core is not None else None
        CountedMatrix.tracer = self

        def need(metric, module, *names):
            if module not in modules or any(not hasattr(modules[module], n) for n in names):
                self.absent.add(metric)

        algos = modules.get("algorithms")
        for a in MATVEC_ALGOS:
            if self.dataset_type is None or algos is None or not hasattr(algos, f"{a}_config"):
                self.absent.add(f"core.matvecs_per_round.{a}")
        if self.dataset_type is None:
            self.absent.update({"core.matvec_mb_per_round_computed",
                                "algorithms.matvecs_per_round"})
        need("core.margin_s", "core", "margin")
        need("core.write_dataset_s", "core", "write_dataset")
        need("core.bytes_written", "core", "write_dataset")
        need("core.read_dataset_s", "core", "read_dataset")
        need("learners.softmax_s", "learners", "softmax_neg")
        if "decide" not in kinds:
            self.absent.add("learners.decide_s")
        if "absorb" not in kinds:
            self.absent.add("learners.absorb_s")
        if not kinds:
            self.absent.add("learners.calls_per_round")
        for m in ("dynamics.run_s", "dynamics.us_per_round", "dynamics.self_s",
                  "learners.calls_per_round"):
            need(m, "dynamics", "run_dynamics")
        need("algorithms.check_self_s", "algorithms", "check_equivalence")
        need("datagen.generate_s", "datagen", "generate")
        need("cli.self_s", "cli", "main")
        need("cli.busy_ratio", "cli", "main")

    # -- one traced op -----------------------------------------------------

    def begin_op(self, op_id):
        self.op = op_id
        self.roots = []
        self.algo_of = {}
        self.active = True

    def end_op(self, op_ns):
        """Stop recording and fold the op's spans into per-op sums."""
        self.active = False
        sums = dict.fromkeys(("margin", "write", "read", "bytes", "decide", "absorb",
                              "softmax", "dyn", "dyn_self", "standalone",
                              "check_self", "generate", "cli_self", "cli_children"), 0)
        tot = self.totals

        def add(key, value):
            tot[key] = tot.get(key, 0) + value

        def total_up(span):
            """Post-order: subtree counts and self time of every span."""
            span.sub_mv, span.sub_bytes, span.sub_draws = span.matvecs, span.mv_bytes, span.draws
            span.has_dyn = span.name == "dynamics.run_dynamics"
            span.is_call = span.layer == "learners" and span.name.count(".") == 2
            span.sub_calls = 0
            for c in span.children:
                total_up(c)
                span.sub_mv += c.sub_mv
                span.sub_bytes += c.sub_bytes
                span.sub_draws += c.sub_draws
                span.has_dyn = span.has_dyn or c.has_dyn
                span.sub_calls += c.sub_calls + c.is_call
            span.self_ns = (span.end - span.start) - _union_ns(
                [(c.start, c.end) for c in span.children], span.start, span.end)

        def visit(span, outer):
            """Pre-order; `outer` holds the metric groups of enclosing spans, so
            nested calls of one group are counted once, at the outermost."""
            name, layer, dur = span.name, span.layer, span.end - span.start
            group = None
            if name in MARGIN_FUNCS:
                group = "margin"
            elif name == "core.write_dataset":
                group = "write"
            elif name == "core.read_dataset":
                group = "read"
            elif span.is_call:
                group = LEARNER_METHODS[name.rsplit(".", 1)[1]]
            elif name == "learners.softmax_neg":
                group = "softmax"
            elif layer == "datagen":
                group = "generate"
            elif (layer == "algorithms" and not span.has_dyn
                  and not name.endswith("_config") and name != "algorithms.check_equivalence"):
                group = "standalone"
            if group is not None and group not in outer:
                sums[group] += dur
                if group == "write":
                    sums["bytes"] += span.bytes_out
                elif group == "standalone" and span.rounds:
                    add("sa_mv", span.sub_mv)
                    add("sa_rounds", span.rounds)
                elif group == "generate" and span.sub_draws:
                    add("draws", span.sub_draws)
                    add("accepted", span.rows)
            if name == "dynamics.run_dynamics":
                sums["dyn"] += dur
                sums["dyn_self"] += span.self_ns
                add("dyn_ns", dur)
                add("dyn_rounds", span.rounds)
                add("dyn_mv_bytes", span.sub_bytes)
                add("learner_calls", span.sub_calls)
                if span.tag in MATVEC_ALGOS:
                    add(f"mv.{span.tag}", span.sub_mv)
                    add(f"rounds.{span.tag}", span.rounds)
            elif name == "algorithms.check_equivalence":
                sums["check_self"] += span.self_ns
            if layer == "cli":
                sums["cli_self"] += span.self_ns
                # pool threads' spans hang here, so this sum can exceed the op
                sums["cli_children"] += sum(c.end - c.start for c in span.children
                                            if c.layer != "cli")
            inner = outer if group is None else outer | {group}
            for c in span.children:
                visit(c, inner)

        for root in self.roots:
            total_up(root)
            visit(root, frozenset())
        sums["op"] = op_ns
        self.per_op.append(sums)
        self.roots = []
        self.algo_of = {}

    # -- results -----------------------------------------------------------

    def metrics(self, generate_setup_s, trace_overhead):
        """Per-layer metrics of the traced ops (at least one); a metric whose
        boundary is absent is left out, and one whose layer did no work in
        this workload reads 0."""
        def med(key):
            return statistics.median(s[key] for s in self.per_op) / 1e9

        def ratio(num, den):
            return self.totals.get(num, 0) / self.totals[den] if self.totals.get(den) else 0.0

        rounds = self.totals.get("dyn_rounds", 0)
        out = {
            **{f"core.matvecs_per_round.{a}": ratio(f"mv.{a}", f"rounds.{a}")
               for a in MATVEC_ALGOS},
            "core.matvec_mb_per_round_computed": ratio("dyn_mv_bytes", "dyn_rounds") / 1e6,
            "core.margin_s": med("margin"),
            "core.write_dataset_s": med("write"),
            "core.read_dataset_s": med("read"),
            "core.bytes_written": statistics.median(s["bytes"] for s in self.per_op),
            "learners.decide_s": med("decide"),
            "learners.absorb_s": med("absorb"),
            "learners.softmax_s": med("softmax"),
            "learners.calls_per_round": ratio("learner_calls", "dyn_rounds"),
            "dynamics.run_s": med("dyn"),
            "dynamics.us_per_round": (self.totals.get("dyn_ns", 0) / rounds / 1e3
                                      if rounds else 0.0),
            "dynamics.self_s": med("dyn_self"),
            "algorithms.standalone_s": med("standalone"),
            "algorithms.matvecs_per_round": ratio("sa_mv", "sa_rounds"),
            "algorithms.check_self_s": med("check_self"),
            "datagen.generate_s": med("generate"),
            "datagen.generate_setup_s": generate_setup_s,
            "datagen.accept_ratio": ratio("accepted", "draws"),
            "cli.self_s": med("cli_self"),
            "cli.busy_ratio": statistics.median(
                s["cli_children"] / s["op"] for s in self.per_op),
            "bench.trace_overhead": trace_overhead,
        }
        return ({k: {"value": v, "unit": PER_LAYER[k]} for k, v in out.items()
                 if k not in self.absent}, sorted(self.absent))
