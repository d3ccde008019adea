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
from .dynamics import (DynamicsConfig, Trace, _play, check_horizon, run_dynamics,
                       run_dynamics_batch)
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

    def output(self, trace: Trace) -> np.ndarray:
        return 0.25 * trace.w_sum if self.quarter_sum else trace.w_bar

    def run_batch(self, datasets: list[Dataset], horizon: int, p_exp: float):
        """(trace or None, final vector, R^w, R^p) of each dataset of one
        shape, played as one batch; a trace holds no iterates.  Each result
        is bit-identical to that of its dataset alone."""
        if self.config is None:
            return [(None, vanilla_perceptron(ds, horizon)[0], float("nan"), float("nan"))
                    for ds in datasets]
        config = dataclasses.replace(self.config(datasets[0].n, horizon, p_exp),
                                     record_full_trace=False)
        return [(trace, self.output(trace), trace.regret_w, trace.regret_p)
                for trace in run_dynamics_batch(config, datasets)]


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
# original forms

@dataclass
class SmoothPerceptronResult:
    v: np.ndarray                # v_{T-1}
    q: np.ndarray                # q_{T-1}
    vs: np.ndarray               # v_0 .. v_{T-1}


def smooth_perceptron(dataset: Dataset, horizon: int) -> SmoothPerceptronResult:
    """Excessive-gap recursion over the smoothed responder.

    The responder q_mu(v) is the softmax of -A v / mu relative to the
    uniform prior.  The printed recursion's "A q" is dimensionally "A' q";
    the transpose is used throughout.
    """
    check_horizon(horizon)
    vs = np.empty((horizon, dataset.d))
    for t, (v, q) in enumerate(_smooth_rounds(dataset, horizon)):
        vs[t] = v
    return SmoothPerceptronResult(v=v, q=q, vs=vs)


def _smooth_rounds(dataset: Dataset, horizon: int):
    """(v_{t-1}, q_{t-1}) of `smooth_perceptron` for t = 1 .. horizon."""
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


@dataclass
class JiResult:
    v: np.ndarray                # v_T
    q: np.ndarray                # q_T
    vs: np.ndarray               # v_1 .. v_T
    gs: np.ndarray               # g_1 .. g_T
    qs: np.ndarray               # q_1 .. q_T


def accel_perceptron_ji(dataset: Dataset, horizon: int) -> JiResult:
    """Momentum recursion in the dual space with the corrected step schedule
    theta_{t-1} = t / (2(t+1))."""
    check_horizon(horizon)
    vs = np.empty((horizon, dataset.d))
    gs = np.empty((horizon, dataset.d))
    qs = np.empty((horizon, dataset.n))
    for t, (v, g, q) in enumerate(_ji_rounds(dataset, horizon)):
        vs[t], gs[t], qs[t] = v, g, q
    return JiResult(v=v, q=q, vs=vs, gs=gs, qs=qs)


def _ji_rounds(dataset: Dataset, horizon: int):
    """(v_t, g_t, q_t) of `accel_perceptron_ji` for t = 1 .. horizon."""
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


@dataclass
class NagResult:
    s: np.ndarray                # s_T
    vs: np.ndarray
    ss: np.ndarray
    us: np.ndarray
    qs: np.ndarray


def nag_margin(dataset: Dataset, horizon: int) -> NagResult:
    """Accelerated descent on the exponential empirical risk.

    The step eta_t grad R(u_t) with eta_t = t / R(u_t) equals -t A' q_t
    where q_t is the softmax of -A u_t; that identity is used directly so
    R(u_t) never overflows.  At t = 1 the 1/(2(t-1)) coefficient multiplies
    v_0 = 0 and contributes nothing.
    """
    check_horizon(horizon)
    vs, ss, us = (np.empty((horizon, dataset.d)) for _ in range(3))
    qs = np.empty((horizon, dataset.n))
    for t, (v, s, u, q) in enumerate(_nag_rounds(dataset, horizon)):
        vs[t], ss[t], us[t], qs[t] = v, s, u, q
    return NagResult(s=s, vs=vs, ss=ss, us=us, qs=qs)


def _nag_rounds(dataset: Dataset, horizon: int):
    """(v_t, s_t, u_t, q_t) of `nag_margin` for t = 1 .. horizon."""
    a = dataset.matrix
    v = np.zeros(dataset.d)
    s = np.zeros(dataset.d)
    for t in range(1, horizon + 1):
        u = s + (v / (2.0 * (t - 1)) if t > 1 else 0.0)
        q = softmax_neg(a @ u)
        v = v + t * (a.T @ q)
        s = s + v / (2.0 * (t + 1))
        yield v, s, u, q


@dataclass
class MpfpResult:
    us_w: np.ndarray             # u_t ball components, t = 1..T
    us_p: np.ndarray             # u_t simplex components


def mpfp(dataset: Dataset, horizon: int) -> MpfpResult:
    """Mirror-prox on the product space (unit ball) x (simplex).

    The prox over the product factorizes into a Euclidean ball prox and an
    entropic simplex prox; the two components are stored separately.  The
    step is the constant 1 / (sqrt(log n) + 1/sqrt(2)), which cancels out
    of the uniform average.
    """
    _log_rows("mpfp", dataset.n)
    check_horizon(horizon)
    us_w = np.empty((horizon, dataset.d))
    us_p = np.empty((horizon, dataset.n))
    for t, (x, y) in enumerate(_mpfp_rounds(dataset, horizon)):
        us_w[t], us_p[t] = x, y
    return MpfpResult(us_w=us_w, us_p=us_p)


def _mpfp_rounds(dataset: Dataset, horizon: int):
    """(u_t ball component, u_t simplex component) of `mpfp` for
    t = 1 .. horizon; n >= 2."""
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


# each check's named algorithm, whose game and output it compares against,
# and its original form: the public function and the generator of the
# per-round iterates that the function collects
_PAIRS = {EquivalencePair.PROP1: ("smooth", "smooth_perceptron", _smooth_rounds),
          EquivalencePair.PROP2: ("ji", "accel_perceptron_ji", _ji_rounds),
          EquivalencePair.NAG: ("nag", "nag_margin", _nag_rounds),
          EquivalencePair.MPFP: ("mpfp", "mpfp", _mpfp_rounds)}


@dataclass
class EquivalenceReport:
    which: EquivalencePair
    deviations: dict[str, float]   # relative l-inf deviation per quantity
    max_deviation: float
    tol: float
    passed: bool


def _peaks(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """max |x - y|, max |x| and max |y|."""
    return np.array([np.max(np.abs(x - y)), np.max(np.abs(x)), np.max(np.abs(y))])


def _scaled(peaks: np.ndarray, tol: float) -> float:
    """The relative deviation of `_peaks`; the maxima of whole histories are
    the maxima of their rounds' maxima, so a running `peaks` has their bits."""
    diff, x_max, y_max = (float(v) for v in peaks)
    # below 1e-10 in absolute terms a deviation always passes
    return diff / max(x_max, y_max, 1e-10 / tol)


def _rel_dev(x: np.ndarray, y: np.ndarray, tol: float) -> float:
    return _scaled(_peaks(x, y), tol)


def check_equivalence(which: EquivalencePair, dataset: Dataset, horizon: int,
                      tol: float = 1e-8, perturb: float = 0.0) -> EquivalenceReport:
    """Run an original form and its dynamics side by side and compare the
    quantities the theory claims are equal.

    The game plays without recording its iterates, and the original form
    advances one round in each of the game's rounds, so a check holds
    O(n + T d) floats: the final comparisons read the last iterates, and
    mpfp's at every round keep running maxima.  A non-finite step of the
    original form raises an `NrpError` naming the form and the round.

    perturb != 0 scales the p-learner's step by (1 + perturb); a negative
    control that must break the match.  With n <= 4 rows it may not: p can
    stay uniform or settle on one row, and the perturbed game then plays
    as the original does.
    """
    if not 0.0 < tol < math.inf:
        raise BadParameter(f"tol must lie in (0, inf), got {tol}")
    algo_name, form_name, rounds = _PAIRS[which]
    algo = ALGORITHMS[algo_name]
    config = algo.config(dataset.n, horizon, 2.0)   # p_exp matters to pnorm only
    config = dataclasses.replace(config, record_full_trace=False)
    if perturb != 0.0:
        pl = config.p_learner
        config = dataclasses.replace(
            config, p_learner=dataclasses.replace(pl, eta=pl.eta * (1.0 + perturb)))

    form = rounds(dataset, horizon)
    iterates = p_last = None
    peaks = np.zeros((2, 3))        # mpfp's running _peaks of (u_w, w) and (u_p, p)

    def observe(t, w_t, p_t):
        nonlocal iterates, p_last
        try:
            iterates = next(form)
        except NonFinite as exc:
            # the engine would read a NonFinite as its own players'
            raise NrpError(f"non-finite {exc.quantity} at round {t} of the "
                           f"original form {form_name}") from exc
        p_last = p_t[0]
        if which is EquivalencePair.MPFP:
            for row, (u, game) in enumerate(zip(iterates, (w_t[0], p_t[0]))):
                np.maximum(peaks[row], _peaks(u, game), out=peaks[row])

    trace = _play(config, [dataset], observe)[0]
    if which is EquivalencePair.PROP1:
        v, q = iterates
        devs = {"v_vs_w_bar": _rel_dev(v, algo.output(trace), tol),
                "q_vs_p_bar": _rel_dev(q, trace.p_bar, tol)}
    elif which is EquivalencePair.PROP2:
        v, _, q = iterates
        devs = {"v_vs_quarter_w_sum": _rel_dev(v, algo.output(trace), tol),
                "q_vs_p_final": _rel_dev(q, p_last, tol)}
    elif which is EquivalencePair.NAG:
        devs = {"s_vs_quarter_w_sum": _rel_dev(iterates[1], algo.output(trace), tol)}
    else:
        devs = {"u_w_vs_w": _scaled(peaks[0], tol), "u_p_vs_p": _scaled(peaks[1], tol)}

    max_dev = max(devs.values())
    return EquivalenceReport(which=which, deviations=devs,
                             max_deviation=max_dev, tol=tol,
                             passed=max_dev <= tol)


def infeasibility_certificate(dataset: Dataset, horizon: int):
    """Average distribution from a mirror-prox run and its certificate norm
    ||p_bar' A||_2; small norm witnesses approximate infeasibility."""
    config = dataclasses.replace(mpfp_config(dataset.n, horizon), record_full_trace=False)
    p_bar = run_dynamics(config, dataset).p_bar
    return p_bar, float(np.linalg.norm(dataset.matrix.T @ p_bar))
