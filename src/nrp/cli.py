"""Batch experiment front-end: generate data, run algorithms, check
equivalences, and sweep parameter grids into long-format CSV."""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
import time

import numpy as np

from . import algorithms as alg
from .core import Dataset, margin, normalized_margin, read_dataset, write_dataset
from .datagen import GenMode, GenSpec, generate
from .dynamics import Trace
from .errors import BadOutputPath, BadParameter, NrpError, TooFewRows

TRACE_HEADER = ("t,alpha,margin_avg,normalized_margin,l1_delta_p,"
                "regret_w_running,regret_p_running,gap_bound")
SUMMARY_HEADER = ("algo,n,d,gamma,T,final_margin,final_normalized_margin,"
                  "Rw,Rp,wallclock_ms")
ALGOS = tuple(alg.ALGORITHMS)
# `nrp sweep` splits the datasets of one (n, p) into chunks whose stacked
# data matrices stay under this many bytes
SWEEP_BATCH_BYTES = 32 << 20


def _fmt(x) -> str:
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return "nan"
    return format(float(x), ".17g")


def _horizon(text: str):
    """`--T` of `run`: a whole number of rounds, or 'auto'."""
    return text if text == "auto" else int(text)


def _add_gen_flags(sp, with_data):
    """The flags that generate a dataset; with_data adds --data, a dataset
    file that replaces them, so --n and --d are then required only without
    it."""
    if with_data:
        sp.add_argument("--data", help="dataset file (overrides gen flags)")
    sp.add_argument("--n", type=int, required=not with_data)
    sp.add_argument("--d", type=int, required=not with_data)
    sp.add_argument("--gamma", type=float, default=0.3)
    sp.add_argument("--p", type=float, default=2.0, help="row-norm exponent")
    sp.add_argument("--mode", choices=("lower", "exact", "infeasible"),
                    default="exact")
    sp.add_argument("--seed", type=int, default=0)


def _gen_dataset(args) -> Dataset:
    if getattr(args, "data", None):
        return read_dataset(args.data)
    if args.n is None or args.d is None:
        raise BadParameter("--n and --d are required without --data")
    spec = GenSpec(n=args.n, d=args.d, gamma=args.gamma,
                   norm_exponent=args.p, mode=GenMode(args.mode), seed=args.seed)
    return generate(spec)


def auto_horizon(algo: str, dataset: Dataset, p_exp: float) -> int:
    """Theory horizons at which each method is guaranteed a clean margin."""
    gamma = dataset.known_margin
    if gamma is None:
        raise NrpError("--T auto needs known_margin metadata")
    try:
        horizon = alg.ALGORITHMS[algo].horizon_rule(gamma, math.log(dataset.n), p_exp)
    except ArithmeticError as exc:
        raise NrpError(f"--T auto has no horizon for {algo} with known_margin "
                       f"{gamma}: {exc}") from None
    if horizon < 1:
        if dataset.n < 2:
            raise TooFewRows(algo, dataset.n)
        raise NrpError(f"--T auto gives horizon {horizon} for {algo} "
                       f"with known_margin {gamma}")
    return horizon


def _outcome(dataset: Dataset, algo: str, game, ms) -> list[str]:
    """The last five fields of a `run` or `sweep` row: the final margin and
    normalized margin (nan for the zero vector), R^w, R^p and wallclock_ms."""
    final = alg.ALGORITHMS[algo].output(game)
    fm = margin(dataset, final)
    fnm = (normalized_margin(dataset, final)
           if float(np.linalg.norm(final)) > 0 else float("nan"))
    return [_fmt(fm), _fmt(fnm), _fmt(game.regret_w), _fmt(game.regret_p), _fmt(ms)]


def _trace_rows(trace) -> list[str]:
    # each column is read once: gap_bound_running is computed on every read
    columns = (trace.alphas, trace.margin_avg, trace.normalized_margin,
               trace.l1_delta_p, trace.regret_w_running, trace.regret_p_running,
               trace.gap_bound_running)
    return [",".join([str(t), *map(_fmt, row)])
            for t, row in enumerate(zip(*columns), 1)]


def cmd_gen(args) -> int:
    dataset = _gen_dataset(args)
    write_dataset(dataset, args.out)
    print(f"wrote {dataset.n}x{dataset.d} dataset to {args.out}")
    return 0


def cmd_run(args) -> int:
    dataset = _gen_dataset(args)
    p_exp = args.p_exp if args.p_exp is not None else dataset.norm_exponent
    if args.T == "auto":
        horizon = auto_horizon(args.algo, dataset, p_exp)
    else:
        horizon = int(args.T)
        if horizon < 1:
            raise NrpError("T must be >= 1")
    t0 = time.perf_counter()
    game = alg.ALGORITHMS[args.algo].run(dataset, horizon, p_exp)
    ms = (time.perf_counter() - t0) * 1000.0

    if args.out:
        path = os.path.join(args.out, f"trace_{args.algo}.csv")
        try:
            os.makedirs(args.out, exist_ok=True)
            with open(path, "w") as fh:
                fh.write(TRACE_HEADER + "\n")
                if isinstance(game, Trace):     # vanilla plays no rounds of a game
                    fh.write("\n".join(_trace_rows(game)) + "\n")
        except OSError as exc:
            raise BadOutputPath(path, exc) from None
    print(SUMMARY_HEADER)
    print(",".join([args.algo, str(dataset.n), str(dataset.d), _fmt(dataset.known_margin),
                    str(horizon), *_outcome(dataset, args.algo, game, ms)]))
    return 0


def cmd_equiv(args) -> int:
    dataset = _gen_dataset(args)
    which = alg.EquivalencePair(args.which)
    report = alg.check_equivalence(which, dataset, args.T, tol=args.tol,
                                   perturb=args.perturb)
    for name, dev in report.deviations.items():
        print(f"{name}: {dev:.3e}")
    print(f"{'PASS' if report.passed else 'FAIL'} "
          f"(max deviation {report.max_deviation:.3e}, tol {report.tol:g})")
    return 0 if report.passed else 1


def cmd_sweep(args) -> int:
    if any(horizon < 1 for horizon in args.T):
        raise NrpError("T must be >= 1")
    grid = list(itertools.product(args.algos, args.n, args.gamma, args.p,
                                  args.seed, args.T))
    header = ("algo,n,d,gamma,p,seed,T,final_margin,final_normalized_margin,"
              "Rw,Rp,wallclock_ms")

    # a dataset is (n, p, gamma, seed) and a game is an algorithm's config
    # builder and T, so smooth, ji and dynamics share one.  Each (n, p)
    # family is generated a chunk at a time, every game plays a chunk as one
    # batch, and a cell's row does not depend on the batch it ran in
    games: dict[tuple, list[str]] = {}
    for algo, horizon in dict.fromkeys(itertools.product(args.algos, args.T)):
        games.setdefault((alg.ALGORITHMS[algo].config or algo, horizon), []).append(algo)
    keys = list(dict.fromkeys(itertools.product(args.gamma, args.seed)))
    rows: dict[tuple, str] = {}
    for n, p in dict.fromkeys(itertools.product(args.n, args.p)) if games else ():
        per_batch = max(1, SWEEP_BATCH_BYTES // max(1, 8 * n * args.d))
        for start in range(0, len(keys), per_batch):
            rows.update(_sweep_chunk(args, n, p, keys[start:start + per_batch], games))

    try:
        with open(args.out, "w") as fh:
            fh.write(header + "\n")
            for cell in grid:
                fh.write(rows[cell] + "\n")
    except OSError as exc:
        raise BadOutputPath(args.out, exc) from None
    print(f"wrote {len(grid)} rows to {args.out}")
    return 0


def _sweep_chunk(args, n, p, chunk, games) -> dict[tuple, str]:
    """The rows of every cell on the (gamma, seed) datasets of one chunk:
    each dataset is generated once and each game plays them as one batch.
    A row's wallclock_ms is the batch's time over the rows it feeds."""
    # exact margins exist only at p = 2: other cells use lower-bound data
    mode = GenMode(args.mode if p == 2.0 else "lower")
    datasets = []
    for gamma, seed in chunk:
        try:
            datasets.append(generate(GenSpec(n=n, d=args.d, gamma=gamma, norm_exponent=p,
                                             mode=mode, seed=seed)))
        except NrpError as exc:
            raise NrpError(f"cell n={n}, gamma={gamma!r}, p={p!r}, seed={seed}, "
                           f"mode={mode.value}: {exc}") from None
    rows = {}
    for (_, horizon), members in games.items():
        t0 = time.perf_counter()
        results = alg.ALGORITHMS[members[0]].play_batch(datasets, horizon, p)
        ms = (time.perf_counter() - t0) * 1000.0 / (len(chunk) * len(members))
        for algo in members:
            for (gamma, seed), dataset, totals in zip(chunk, datasets, results):
                rows[algo, n, gamma, p, seed, horizon] = ",".join([
                    algo, str(n), str(args.d), _fmt(gamma), _fmt(p), str(seed),
                    str(horizon), *_outcome(dataset, algo, totals, ms)])
    return rows


class _Parser(argparse.ArgumentParser):
    """argparse's parser, except that a failed write of a message to stdout
    (--help's) raises, where argparse drops the error, so `main` reports a
    closed stdout for --help as for any command."""

    def _print_message(self, message, file=None):
        if file is sys.stdout and message:
            file.write(message)
        else:
            super()._print_message(message, file)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nrp",
        description="accelerated Perceptrons as two-player no-regret dynamics")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gen", help="generate a synthetic dataset file")
    _add_gen_flags(sp, with_data=False)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_gen)

    sp = sub.add_parser("run", help="run one algorithm, emit trace + summary")
    sp.add_argument("--algo", choices=ALGOS, required=True)
    _add_gen_flags(sp, with_data=True)
    sp.add_argument("--T", default="auto", type=_horizon,
                    help="horizon, integer or 'auto'")
    sp.add_argument("--p-exp", dest="p_exp", type=float, default=None)
    sp.add_argument("--out", default=None, help="directory for the trace CSV")
    sp.set_defaults(func=cmd_run)

    sp = sub.add_parser("equiv", help="original form vs dynamics form check")
    sp.add_argument("--which", choices=[e.value for e in alg.EquivalencePair],
                    required=True)
    _add_gen_flags(sp, with_data=True)
    sp.add_argument("--T", type=int, required=True)
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.add_argument("--perturb", type=float, default=0.0,
                    help="negative control: scale the p step by 1 + this; "
                         "meaningful only for n >= 5, as with n <= 4 rows the "
                         "perturbed game can match the original")
    sp.set_defaults(func=cmd_equiv)

    sp = sub.add_parser("sweep", help="cartesian grid of runs into one CSV")
    sp.add_argument("--algos", nargs="*", default=[], choices=ALGOS)
    sp.add_argument("--n", nargs="*", type=int, default=[])
    sp.add_argument("--d", type=int, default=4)
    sp.add_argument("--gamma", nargs="*", type=float, default=[0.3])
    sp.add_argument("--p", nargs="*", type=float, default=[2.0])
    sp.add_argument("--seed", nargs="*", type=int, default=[0])
    sp.add_argument("--T", nargs="*", type=int, default=[])
    sp.add_argument("--mode", choices=("lower", "exact"), default="exact",
                    help="data mode of the p = 2 cells; exact margins exist only "
                         "at p = 2, so every p != 2 cell uses lower-bound data")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit:      # argparse's exit: flush --help's text in this try
            sys.stdout.flush()
            raise
        code = args.func(args)
        sys.stdout.flush()          # a closed stdout raises here, not at exit
        return code
    except NrpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError as exc:
        # stdout's reader has gone; stdout is pointed at devnull so that the
        # flush at exit of what is still buffered prints nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write stdout: {exc.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
