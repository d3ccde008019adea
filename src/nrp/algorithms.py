"""Original pseudocode forms of the smooth, momentum, NAG and mirror-prox
Perceptrons, the vanilla baseline, and the checkers tying each to its game."""

from __future__ import annotations

import dataclasses
import enum
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .core import Dataset
from .dynamics import (DynamicsConfig, Totals, Trace, _play, _running, _weights,
                       check_horizon, run_dynamics, run_dynamics_totals)
from .errors import BadParameter, NonFinite, NrpError, TooFewRows
from .learners import (Oftl, OftrlEntropy, OftrlQNorm, OmdBall, OmdEntropy,
                       project_ball, softmax_neg)


# ---------------------------------------------------------------------------
# dynamics configurations paired with each original form

def smooth_config(horizon: int) -> DynamicsConfig:
    return DynamicsConfig(
        w_learner=Oftl(), p_learner=OftrlEntropy(eta=0.25), horizon=horizon)


def nag_config(horizon: int) -> DynamicsConfig:
    # the smooth Perceptron's two learners, played in the opposite order
    return dataclasses.replace(smooth_config(horizon), p_first=True)


def mpfp_config(n: int, horizon: int) -> DynamicsConfig:
    root = math.sqrt(_log_rows("mpfp", n))
    return DynamicsConfig(
        w_learner=OmdBall(eta=1.0 / root), p_learner=OmdEntropy(eta=root),
        horizon=horizon)


def pnorm_config(n: int, horizon: int, p_exp: float) -> DynamicsConfig:
    log_n = _log_rows("pnorm", n)
    q = _dual_exponent(p_exp)
    eta_w = math.sqrt(1.0 / (2.0 * (q - 1.0) * log_n))
    return DynamicsConfig(
        w_learner=OftrlQNorm(eta=eta_w, q=q),
        p_learner=OftrlEntropy(eta=1.0 / eta_w), horizon=horizon)


def _log_rows(algo: str, n: int) -> float:
    """log n of a method whose step has a log n factor, which is 0 at n = 1."""
    if n < 2:
        raise TooFewRows(algo, n)
    return math.log(n)


def _dual_exponent(p_exp: float) -> float:
    """q = p / (p - 1) of the p-norm Perceptron's exponent p in [2, inf).
    Past p = 1e16 or so, q rounds to 1, where the w-step would divide by 0."""
    if not 2.0 <= p_exp < math.inf:
        raise BadParameter(f"pnorm needs p_exp in [2, inf), got {p_exp}")
    q = p_exp / (p_exp - 1.0)
    if not q > 1.0:
        raise BadParameter(f"pnorm needs p_exp whose dual exponent p/(p-1) "
                           f"exceeds 1, got p_exp = {p_exp}")
    return q


# ---------------------------------------------------------------------------
# the algorithms `nrp run` and `nrp sweep` accept by name

@dataclass(frozen=True)
class Algorithm:
    """How `nrp run` and `nrp sweep` run one named algorithm."""

    # (n, horizon, p_exp) -> game configuration; None runs the vanilla baseline
    config: Callable[[int, int, float], DynamicsConfig] | None
    # the original form outputs w_sum / 4 rather than the average w_bar
    quarter_sum: bool
    # (gamma, log n, p_exp) -> the theory horizon `--T auto` picks
    horizon_rule: Callable[[float, float, float], int]

    def output(self, game: Trace | Totals) -> np.ndarray:
        return self.output_of(game.w_sum, game.sum_alpha)

    def output_of(self, w_sum: np.ndarray, sum_alpha: float) -> np.ndarray:
        """The output from the weighted sum of the w_t and of the weights."""
        return 0.25 * w_sum if self.quarter_sum else w_sum / sum_alpha

    def run(self, dataset: Dataset, horizon: int, p_exp: float) -> Trace | Totals:
        """The game of one dataset: its light trace, which holds no iterates.
        The vanilla baseline plays no game: its `Totals` hold its classifier
        as w_sum, with sum_alpha 1 and NaN regrets."""
        if self.config is None:
            return Totals(vanilla_perceptron(dataset, horizon)[0], 1.0, math.nan, math.nan)
        config = dataclasses.replace(self.config(dataset.n, horizon, p_exp),
                                     record_full_trace=False)
        return run_dynamics(config, dataset)

    def play_batch(self, datasets: list[Dataset], horizon: int, p_exp: float) -> list[Totals]:
        """The `Totals` of each dataset of one shape, played as one batch
        that builds no trace.  Each has the bits of the fields of the same
        names of `run` of its dataset alone."""
        if self.config is None:
            return [self.run(ds, horizon, p_exp) for ds in datasets]
        return run_dynamics_totals(self.config(datasets[0].n, horizon, p_exp), datasets)


# --T auto: the theory horizons at which each method is guaranteed a clean margin

def _accelerated_horizon(gamma, logn, p_exp):
    return int(math.ceil(4.0 * math.sqrt(logn) / gamma))


def _pnorm_horizon(gamma, logn, p_exp):
    _dual_exponent(p_exp)
    return int(math.ceil(math.sqrt(2.0 * (p_exp - 1.0) * logn) / gamma)) + 1


def _perceptron_horizon(gamma, logn, p_exp):
    return int(math.ceil(1.0 / gamma ** 2))


def _smooth(n, horizon, p_exp):
    # the momentum form and the plain dynamics share the smooth Perceptron's
    # game; only the output differs
    return smooth_config(horizon)


ALGORITHMS = {
    "smooth": Algorithm(_smooth, False, _accelerated_horizon),
    "ji": Algorithm(_smooth, True, _accelerated_horizon),
    "nag": Algorithm(lambda n, horizon, p_exp: nag_config(horizon), True,
                     _accelerated_horizon),
    "mpfp": Algorithm(lambda n, horizon, p_exp: mpfp_config(n, horizon), False,
                      _accelerated_horizon),
    "pnorm": Algorithm(lambda n, horizon, p_exp: pnorm_config(n, horizon, p_exp),
                       False, _pnorm_horizon),
    "vanilla": Algorithm(None, False, _perceptron_horizon),
    "dynamics": Algorithm(_smooth, False, _accelerated_horizon),
}


# ---------------------------------------------------------------------------
# original forms, each a generator of its per-round iterates

def _smooth_rounds(dataset: Dataset, horizon: int):
    """(v_{t-1}, q_{t-1}) of the smooth Perceptron, the excessive-gap
    recursion over the smoothed responder, for t = 1 .. horizon.

    The responder q_mu(v) is the softmax of -A v / mu relative to the
    uniform prior.  The printed recursion's "A q" is dimensionally "A' q";
    the transpose is used throughout.
    """
    a = dataset.matrix
    n = dataset.n
    mu = 4.0
    v = a.sum(axis=0) / n                       # A' 1 / n
    q_mu_v = softmax_neg((a @ v) / mu)          # q_mu(v) of the current v and mu
    q = q_mu_v
    yield v, q
    for t in range(1, horizon):
        theta = 2.0 / (t + 2)                   # theta_{t-1}, theta_0 = 2/3
        v = (1.0 - theta) * (v + theta * (a.T @ q)) + theta * theta * (a.T @ q_mu_v)
        mu = (1.0 - theta) * mu
        q_mu_v = softmax_neg((a @ v) / mu)
        q = (1.0 - theta) * q + theta * q_mu_v
        yield v, q


def _ji_rounds(dataset: Dataset, horizon: int):
    """(v_t, g_t, q_t) of the momentum recursion in the dual space, with the
    corrected step schedule theta_{t-1} = t / (2(t+1)), for t = 1 .. horizon."""
    a = dataset.matrix
    n, d = a.shape
    q = np.ones(n) / n
    v = np.zeros(d)
    g = np.zeros(d)
    aq = a.T @ q                                # A' q of the current q
    for t in range(1, horizon + 1):
        theta = t / (2.0 * (t + 1))
        v = v - theta * (g - aq)
        q = softmax_neg(a @ v)
        aq = a.T @ q
        g = (t / (t + 1.0)) * (g - aq)
        yield v, g, q


def _nag_rounds(dataset: Dataset, horizon: int):
    """(v_t, s_t, u_t, q_t) of accelerated descent on the exponential
    empirical risk for t = 1 .. horizon.

    The step eta_t grad R(u_t) with eta_t = t / R(u_t) equals -t A' q_t
    where q_t is the softmax of -A u_t; that identity is used directly so
    R(u_t) never overflows.  At t = 1 the 1/(2(t-1)) coefficient multiplies
    v_0 = 0 and contributes nothing.
    """
    a = dataset.matrix
    v = np.zeros(dataset.d)
    s = np.zeros(dataset.d)
    for t in range(1, horizon + 1):
        u = s + (v / (2.0 * (t - 1)) if t > 1 else 0.0)
        q = softmax_neg(a @ u)
        v = v + t * (a.T @ q)
        s = s + v / (2.0 * (t + 1))
        yield v, s, u, q


def _mpfp_rounds(dataset: Dataset, horizon: int):
    """(u_t ball component, u_t simplex component) of mirror-prox on the
    product space (unit ball) x (simplex) for t = 1 .. horizon; n >= 2.

    The prox over the product factorizes into a Euclidean ball prox and an
    entropic simplex prox, whose components are yielded separately.  The
    step is the constant 1 / (sqrt(log n) + 1/sqrt(2)), which cancels out
    of the uniform average.
    """
    a = dataset.matrix
    n, d = a.shape
    eta_w = 1.0 / math.sqrt(math.log(n))
    eta_p = math.sqrt(math.log(n))
    x_hat = np.zeros(d)
    y_hat_cum = np.zeros(n)      # cumulative entropic-prox scores from 1/n
    y_hat = softmax_neg(y_hat_cum)
    for _ in range(horizon):
        x = project_ball(x_hat + eta_w * (a.T @ y_hat))
        y = softmax_neg(y_hat_cum + eta_p * (a @ x_hat))
        x_hat = project_ball(x_hat + eta_w * (a.T @ y))
        y_hat_cum = y_hat_cum + eta_p * (a @ x)
        y_hat = softmax_neg(y_hat_cum)
        yield x, y


def vanilla_perceptron(dataset: Dataset, max_updates: int):
    """Classical additive baseline: from w = 0, cycle the rows, add any row
    the current classifier does not separate, stop after a clean pass.
    Returns (w, updates, budget_exhausted)."""
    check_horizon(max_updates, "max_updates")
    a = dataset.matrix
    w = np.zeros(dataset.d)
    updates = 0
    while updates < max_updates:
        clean = True
        for i in range(dataset.n):
            if float(a[i] @ w) <= 0.0:
                w = w + a[i]
                updates += 1
                clean = False
                if updates >= max_updates:
                    break
        if clean:
            return w, updates, False
    return w, updates, True


# ---------------------------------------------------------------------------
# equivalence checking

class EquivalencePair(enum.Enum):
    PROP1 = "prop1"      # smooth Perceptron vs its dynamics
    PROP2 = "prop2"      # momentum form vs the same dynamics
    NAG = "nag"
    MPFP = "mpfp"


# each check: the named algorithm whose game it plays, its original form's
# name and generator, and per compared quantity the deviation's name, the
# index of the form's iterate in each yielded tuple, and the game quantity
# it must equal: the play "w_t" or "p_t" at every round, or after the last
# round the algorithm's "output", the average "p_bar" or the last "p_final"
_CHECKS = {
    EquivalencePair.PROP1: ("smooth", "smooth_perceptron", _smooth_rounds, (
        ("v_vs_w_bar", 0, "output"), ("q_vs_p_bar", 1, "p_bar"))),
    EquivalencePair.PROP2: ("ji", "accel_perceptron_ji", _ji_rounds, (
        ("v_vs_quarter_w_sum", 0, "output"), ("q_vs_p_final", 2, "p_final"))),
    EquivalencePair.NAG: ("nag", "nag_margin", _nag_rounds, (
        ("s_vs_quarter_w_sum", 1, "output"),)),
    EquivalencePair.MPFP: ("mpfp", "mpfp", _mpfp_rounds, (
        ("u_w_vs_w", 0, "w_t"), ("u_p_vs_p", 1, "p_t"))),
}


@dataclass
class EquivalenceReport:
    which: EquivalencePair
    deviations: dict[str, float]   # relative l-inf deviation per quantity
    max_deviation: float
    tol: float
    passed: bool


def _peaks(x: np.ndarray, y: np.ndarray, buffer: np.ndarray, out: np.ndarray) -> None:
    """max |x - y|, max |x| and max |y| into out, through a (3, len) buffer."""
    diff, x_abs, y_abs = buffer
    np.abs(np.subtract(x, y, out=diff), out=diff)
    np.abs(x, out=x_abs)
    np.abs(y, out=y_abs)
    np.maximum.reduce(buffer, axis=1, out=out)


def check_equivalence(which: EquivalencePair, dataset: Dataset, horizon: int,
                      tol: float = 1e-8, perturb: float = 0.0) -> EquivalenceReport:
    """Run an original form and its dynamics side by side and compare the
    quantities the theory claims are equal.

    The original form advances one round in each of the game's rounds, and
    the game's hook keeps only what the comparisons read, so a check holds
    O(n + T d) floats and builds no trace: a comparison after the last
    round reads the last iterates, the running sum of the alpha_t p_t or
    the sum of the alpha_t w_t over the loop's w record, each added in
    round order as the trace's sums are, and one at every round keeps
    running maxima.
    A non-finite step of the original form is an `NrpError` naming the
    form and round.

    perturb != 0 scales the p-learner's step by (1 + perturb); a negative
    control that must break the match.  With n <= 4 rows it may not: p can
    stay uniform or settle on one row, and the perturbed game then plays
    as the original does.
    """
    if not 0.0 < tol < math.inf:
        raise BadParameter(f"tol must lie in (0, inf), got {tol}")
    algo_name, form_name, rounds, compared = _CHECKS[which]
    algo = ALGORITHMS[algo_name]
    config = algo.config(dataset.n, horizon, 2.0)   # p_exp matters to pnorm only
    if perturb != 0.0:
        pl = config.p_learner
        config = dataclasses.replace(
            config, p_learner=dataclasses.replace(pl, eta=pl.eta * (1.0 + perturb)))

    n, d = dataset.n, dataset.d
    games = {game for _, _, game in compared}
    # the running sum from 0.0 of the alpha_t p_t, if an after-loop comparison reads it
    p_sum = np.zeros(n) if "p_bar" in games else None
    p_term = np.empty(n)
    # each comparison's peaks; a history's maxima are its rounds' maxima
    peaks = np.zeros((len(compared), 3))
    every_round = [(index, game == "p_t", peaks[row], np.empty((3, n if game == "p_t" else d)),
                    np.empty(3))
                   for row, (_, index, game) in enumerate(compared) if game in ("w_t", "p_t")]
    form = rounds(dataset, horizon)
    iterates = p_last = None

    def observe(t, alpha, w_t, p_t, g_t, loss, cum):
        nonlocal iterates, p_last
        try:
            iterates = next(form)
        except NonFinite as exc:
            # the engine would read a NonFinite as its own players'
            raise NrpError(f"non-finite {exc.quantity} at round {t} of the "
                           f"original form {form_name}") from exc
        w_t, p_last = w_t[0], p_t[0]
        if p_sum is not None:
            np.add(p_sum, np.multiply(p_last, alpha, out=p_term), out=p_sum)
        for index, of_p, row, buffer, round_peaks in every_round:
            _peaks(iterates[index], p_last if of_p else w_t, buffer, round_peaks)
            np.maximum(row, round_peaks, out=row)

    ws = _play(config, dataset.matrix, observe)
    # sum alpha_t and sum alpha_t w_t in round order, with a trace's bits
    alphas = _weights(config)
    sum_alpha = float(np.cumsum(alphas)[-1])
    w_sum = _running(np.multiply(ws, alphas[:, None], out=ws))[0, -1]
    final = {"output": algo.output_of(w_sum, sum_alpha),
             "p_bar": None if p_sum is None else p_sum / sum_alpha, "p_final": p_last}
    for row, (_, index, game) in enumerate(compared):
        if game in final:
            _peaks(iterates[index], final[game], np.empty((3, final[game].size)), peaks[row])
    # below 1e-10 in absolute terms a deviation always passes
    devs = {name: float(diff) / max(float(x_max), float(y_max), 1e-10 / tol)
            for (name, _, _), (diff, x_max, y_max) in zip(compared, peaks)}
    max_dev = max(devs.values())
    return EquivalenceReport(which=which, deviations=devs, max_deviation=max_dev,
                             tol=tol, passed=max_dev <= tol)


def infeasibility_certificate(dataset: Dataset, horizon: int):
    """Average distribution from a mirror-prox run and its certificate norm
    ||p_bar' A||_2; small norm witnesses approximate infeasibility."""
    config = dataclasses.replace(mpfp_config(dataset.n, horizon), record_full_trace=False)
    p_bar = run_dynamics(config, dataset).p_bar
    return p_bar, float(np.linalg.norm(dataset.matrix.T @ p_bar))
