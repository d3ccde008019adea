"""Two-player no-regret dynamics engine.

Each round the two learners exchange a classifier w_t and a distribution
p_t over rows; the weighted average of the w_t's approaches the max-min
point of the configured payoff at the rate set by the players' regrets.

The w-player sees p_t only through g_t = A'p_t, so a round passes over the
data matrix twice, once for A'p_t and once for A w_t, plus once for each
secondary iterate an OMD player shows.  The regret comparator reads the
running sum of the g_t, and the margin of the running average w_bar is the
minimum of the running sum of the A w_t over the sum of the weights.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import Dataset, GameObjective, best_response_value
from .errors import BadParameter, IncompatibleConfig, NonFiniteIterate
from .learners import (FtrlPlusEntropy, FtrlPlusUnregularized, LearnerSpec,
                       OftlPrevLoss, OftrlEntropyPrev, OftrlQNorm, OmdBall,
                       OmdEntropy)


class PlayOrder(enum.Enum):
    W_FIRST = "w_first"
    P_FIRST = "p_first"


class WeightSchedule(enum.Enum):
    LINEAR = "linear"     # alpha_t = t
    UNIFORM = "uniform"   # alpha_t = 1


@dataclass(frozen=True)
class DynamicsConfig:
    objective: GameObjective
    order: PlayOrder
    weight_schedule: WeightSchedule
    w_learner: LearnerSpec
    p_learner: LearnerSpec
    horizon: int
    record_full_trace: bool = True

    def __post_init__(self):
        if self.horizon < 1:
            raise BadParameter("horizon must be >= 1")
        _validate(self)


@dataclass
class Trace:
    """Per-round records plus exact regret accounting for one run."""

    config: DynamicsConfig
    alphas: np.ndarray
    ws: np.ndarray | None            # T x d (None when trace not recorded)
    ps: np.ndarray | None            # T x n
    l1_delta_p: np.ndarray
    margin_avg: np.ndarray           # margin of the running weighted average
    normalized_margin: np.ndarray    # of the running weighted sum
    regret_w_running: np.ndarray
    regret_p_running: np.ndarray
    gap_bound_running: np.ndarray
    w_bar: np.ndarray                # weighted average of the w_t
    p_bar: np.ndarray                # weighted average of the p_t
    w_sum: np.ndarray                # weighted sum of the w_t
    sum_alpha: float
    regret_w: float
    regret_p: float
    gap_bound: float
    w_geometry: str
    sum_sq_l1_delta: float

    @property
    def horizon(self) -> int:
        return self.alphas.shape[0]


def _alphas(schedule: WeightSchedule, horizon: int) -> np.ndarray:
    if schedule is WeightSchedule.LINEAR:
        return np.arange(1, horizon + 1, dtype=np.float64)
    return np.ones(horizon, dtype=np.float64)


# (w-learner, p-learner) -> (play order, payoff) of the game the pair plays.
# The OMD pair decides from hints alone, so it plays in either order.
_GAMES = {
    (OftlPrevLoss, FtrlPlusEntropy): (PlayOrder.W_FIRST, GameObjective.L2_REGULARIZED),
    (OftrlQNorm, FtrlPlusEntropy): (PlayOrder.W_FIRST, GameObjective.BILINEAR),
    (FtrlPlusUnregularized, OftrlEntropyPrev): (PlayOrder.P_FIRST,
                                                GameObjective.L2_REGULARIZED),
    (OmdBall, OmdEntropy): (None, GameObjective.BILINEAR),
}


def _validate(config: DynamicsConfig) -> None:
    """Raise IncompatibleConfig unless the learner pair, play order and payoff
    form one of the supported games."""
    pair = (type(config.w_learner), type(config.p_learner))
    names = " / ".join(cls.__name__ for cls in pair)
    if pair not in _GAMES:
        raise IncompatibleConfig(f"unsupported learner pair {names}")
    order, objective = _GAMES[pair]
    if order is not None and config.order is not order:
        raise IncompatibleConfig(f"{names} plays {order.value}")
    if config.objective is not objective:
        raise IncompatibleConfig(f"{names} requires {objective}")


def run_dynamics(config: DynamicsConfig, dataset: Dataset) -> Trace:
    """Execute the dynamics; deterministic given config and dataset."""
    a = dataset.matrix
    n, d = a.shape
    horizon = config.horizon
    alphas = _alphas(config.weight_schedule, horizon)
    ridge = config.objective is GameObjective.L2_REGULARIZED
    w_first = config.order is PlayOrder.W_FIRST
    wl = config.w_learner.start(a)
    pl = config.p_learner.start(a)

    record = config.record_full_trace
    ws = np.empty((horizon, d)) if record else None
    ps = np.empty((horizon, n)) if record else None
    l1_delta = np.empty(horizon)
    margin_avg = np.empty(horizon)
    norm_margin = np.empty(horizon)
    rw_running = np.empty(horizon)
    rp_running = np.empty(horizon)
    gap_running = np.empty(horizon)

    prev_p = np.ones(n) / n        # p_0
    w_hint = a.T @ prev_p          # what a first-moving w-player sees of p_0
    p_hint = np.zeros(n)           # A w_0 with w_0 = 0, for a first-moving p-player
    w_sum = np.zeros(d)
    p_sum = np.zeros(n)
    g_sum = np.zeros(d)            # sum alpha_t A' p_t
    cum_alpha = 0.0
    played_w = 0.0                 # sum alpha_t h_t(w_t)
    played_p = 0.0                 # sum alpha_t p_t' A w_t (constants dropped)
    cum_lossvec = np.zeros(n)      # sum alpha_t A w_t
    sum_sq_delta = 0.0

    def dual(shown, p_t, g_t):
        # A' of what the p-player shows, reusing g_t when it shows its play
        return g_t if shown is p_t else a.T @ shown

    for t in range(1, horizon + 1):
        alpha = alphas[t - 1]
        # the second mover's hint is what the first shows of this round's play
        if w_first:
            w_t = wl.decide(alpha, w_hint)
            loss = a @ w_t
            p_t = pl.decide(alpha, wl.shown(loss))
            g_t = a.T @ p_t
        else:
            p_t = pl.decide(alpha, p_hint)
            g_t = a.T @ p_t
            w_t = wl.decide(alpha, dual(pl.shown(p_t), p_t, g_t))
            loss = a @ w_t
        wl.absorb(alpha, g_t)
        pl.absorb(alpha, loss)

        if not (np.all(np.isfinite(w_t)) and np.all(np.isfinite(p_t))):
            raise NonFiniteIterate(t)

        # accounting
        bilinear = float(p_t @ loss)
        played_w += alpha * (-bilinear + (0.5 * float(w_t @ w_t) if ridge else 0.0))
        played_p += alpha * bilinear
        cum_lossvec += alpha * loss
        w_sum += alpha * w_t
        p_sum += alpha * p_t
        g_sum += alpha * g_t
        cum_alpha += alpha
        delta = float(np.abs(p_t - prev_p).sum())
        sum_sq_delta += delta * delta

        worst = float(np.min(cum_lossvec))   # min_i (A w_sum)_i
        rw = played_w - wl.comparator_value(g_sum, cum_alpha)
        rp = played_p - worst

        l1_delta[t - 1] = delta
        margin_avg[t - 1] = worst / cum_alpha
        wnorm = float(np.linalg.norm(w_sum))
        norm_margin[t - 1] = worst / wnorm if wnorm > 0.0 else np.nan
        rw_running[t - 1] = rw
        rp_running[t - 1] = rp
        gap_running[t - 1] = (rw + rp) / cum_alpha
        if record:
            ws[t - 1] = w_t
            ps[t - 1] = p_t

        prev_p = p_t
        if w_first:
            w_hint = dual(pl.shown(p_t), p_t, g_t)
        else:
            p_hint = wl.shown(loss)

    return Trace(
        config=config, alphas=alphas, ws=ws, ps=ps,
        l1_delta_p=l1_delta, margin_avg=margin_avg,
        normalized_margin=norm_margin,
        regret_w_running=rw_running, regret_p_running=rp_running,
        gap_bound_running=gap_running,
        w_bar=w_sum / cum_alpha, p_bar=p_sum / cum_alpha, w_sum=w_sum.copy(),
        sum_alpha=cum_alpha,
        regret_w=float(rw_running[-1]), regret_p=float(rp_running[-1]),
        gap_bound=float(gap_running[-1]),
        w_geometry=config.w_learner.geometry,
        sum_sq_l1_delta=sum_sq_delta,
    )


def weighted_average(trace: Trace) -> np.ndarray:
    """Post-hoc weighted average from the recorded iterates."""
    if trace.ws is None:
        return trace.w_bar.copy()
    return trace.alphas @ trace.ws / trace.alphas.sum()


def gap_bound_check(trace: Trace, dataset: Dataset, objective: GameObjective,
                    comparator_w: np.ndarray, slack: float = 1e-9):
    """Duality-gap guarantee: m(w) - m(w_bar) <= (R^p + R^w) / sum(alpha).

    The comparator must lie in the w-player's decision set.
    """
    lhs = (best_response_value(objective, dataset, comparator_w)
           - best_response_value(objective, dataset, trace.w_bar))
    rhs = (trace.regret_w + trace.regret_p) / trace.sum_alpha
    return lhs, rhs, lhs <= rhs + slack
