"""Two-player no-regret dynamics engine.

Each round the two learners exchange a classifier w_t and a distribution
p_t over rows; the weighted average of the w_t's approaches the max-min
point of the configured payoff at the rate set by the players' regrets.

The w-player sees p_t only through g_t = A'p_t, so a round passes over the
data matrix twice, once for A'p_t and once for A w_t, plus once for each
secondary iterate an OMD player shows.  The regret comparator reads the
running sum of the g_t, and the margin of the running average w_bar is the
minimum of the running sum of the A w_t over the sum of the weights.

`run_dynamics_batch` plays one configuration on B datasets of one shape in
the same loop, over their stacked (B, n, d) matrices; each of its traces is
bit-identical to the trace `run_dynamics` gives for that dataset alone.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import Dataset, GameObjective, best_response_value
from .errors import BadParameter, IncompatibleConfig, NonFiniteIterate
from .learners import (FtrlPlusEntropy, FtrlPlusUnregularized, LearnerSpec,
                       OftlPrevLoss, OftrlEntropyPrev, OftrlQNorm, OmdBall,
                       OmdEntropy, comparator_value)


class PlayOrder(enum.Enum):
    W_FIRST = "w_first"
    P_FIRST = "p_first"


class WeightSchedule(enum.Enum):
    LINEAR = "linear"     # alpha_t = t
    UNIFORM = "uniform"   # alpha_t = 1


# (w-learner, p-learner) -> (play order, payoff, weights) of the game the
# pair plays: the pair alone names the accelerated Perceptron
_GAMES = {
    (OftlPrevLoss, FtrlPlusEntropy): (PlayOrder.W_FIRST, GameObjective.L2_REGULARIZED,
                                      WeightSchedule.LINEAR),
    (OftrlQNorm, FtrlPlusEntropy): (PlayOrder.W_FIRST, GameObjective.BILINEAR,
                                    WeightSchedule.UNIFORM),
    (FtrlPlusUnregularized, OftrlEntropyPrev): (PlayOrder.P_FIRST,
                                                GameObjective.L2_REGULARIZED,
                                                WeightSchedule.LINEAR),
    (OmdBall, OmdEntropy): (PlayOrder.W_FIRST, GameObjective.BILINEAR,
                            WeightSchedule.UNIFORM),
}


@dataclass(frozen=True)
class DynamicsConfig:
    """T rounds of the game a pair of learners plays; the pair's types fix
    the play order, the payoff and the weights (`_GAMES`)."""

    w_learner: LearnerSpec
    p_learner: LearnerSpec
    horizon: int
    record_full_trace: bool = True

    def __post_init__(self):
        if self.horizon < 1:
            raise BadParameter("horizon must be >= 1")
        pair = _pair(self)
        if pair not in _GAMES:
            names = " / ".join(cls.__name__ for cls in pair)
            raise IncompatibleConfig(f"unsupported learner pair {names}")

    @property
    def objective(self) -> GameObjective:
        return _GAMES[_pair(self)][1]


def _pair(config: DynamicsConfig) -> tuple[type, type]:
    return type(config.w_learner), type(config.p_learner)


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
    sum_sq_l1_delta: float

    @property
    def horizon(self) -> int:
        return self.alphas.shape[0]


def _alphas(schedule: WeightSchedule, horizon: int) -> np.ndarray:
    if schedule is WeightSchedule.LINEAR:
        return np.arange(1, horizon + 1, dtype=np.float64)
    return np.ones(horizon, dtype=np.float64)


def run_dynamics(config: DynamicsConfig, dataset: Dataset) -> Trace:
    """Execute the dynamics; deterministic given config and dataset."""
    return _play(config, [dataset])[0]


def run_dynamics_batch(config: DynamicsConfig, datasets: list[Dataset]) -> list[Trace]:
    """Play one game on several datasets of one shape at once; each trace
    is bit-identical to ``run_dynamics(config, dataset)`` of its dataset."""
    return _play(config, datasets)


def _times(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x per instance: a is (n, d) or (B, n, d), x is (d,) or (B, d)."""
    return np.matmul(a, x[..., None])[..., 0]


def _play(config: DynamicsConfig, datasets: list[Dataset]) -> list[Trace]:
    # The one engine loop.  Both entry points call it directly, so a profile
    # of either public function sees the loop as its own time.  A single
    # game keeps its vectors as (n,) or (d,) and its scalars as numpy
    # scalars; a batch of B holds them as (B, n), (B, d) and (B,) arrays.
    # Round 1 of a p-first game starts from a play shared by the batch.
    if not datasets:
        raise BadParameter("no datasets to play")
    shape = datasets[0].matrix.shape
    if any(ds.matrix.shape != shape for ds in datasets):
        raise BadParameter("a batch needs datasets of one shape, got "
                           + ", ".join(sorted({str(ds.matrix.shape) for ds in datasets})))
    batch = len(datasets)
    # one dataset multiplies by its own matrix, a batch by a stacked copy
    a = datasets[0].matrix if batch == 1 else np.stack([ds.matrix for ds in datasets])
    at = a.swapaxes(-1, -2)
    lead = a.shape[:-2]            # () or (B,)
    n, d = shape
    horizon = config.horizon
    order, objective, schedule = _GAMES[_pair(config)]
    ridge = objective is GameObjective.L2_REGULARIZED
    w_first = order is PlayOrder.W_FIRST
    wl = config.w_learner.start(a)
    pl = config.p_learner.start(a)
    ball_norm = config.w_learner.ball_norm

    record = config.record_full_trace
    try:
        alphas = _alphas(schedule, horizon)
        ws = np.empty((batch, horizon, d)) if record else None
        ps = np.empty((batch, horizon, n)) if record else None
        # per-round records, one row per instance
        l1_delta, worst_rec, wsq_rec, rw_rec, rp_rec = (np.empty((batch, horizon))
                                                        for _ in range(5))
    except (ValueError, MemoryError):
        # numpy refuses a size past its index range or past the memory
        raise BadParameter(f"horizon T = {horizon} is too large: the trace "
                           "records cannot be allocated") from None

    prev_p = np.ones(n) / n        # p_0
    # what a first-moving w-player sees of p_0; a first-moving p-player sees
    # A w_0 with w_0 = 0
    w_hint = _times(at, prev_p) if w_first else None
    p_hint = np.zeros(n)
    w_sum = np.zeros(lead + (d,))
    p_sum = np.zeros(lead + (n,))
    g_sum = np.zeros(lead + (d,))            # sum alpha_t A' p_t
    cum_lossvec = np.zeros(lead + (n,))      # sum alpha_t A w_t
    cum_alpha = 0.0
    played_w = 0.0                 # sum alpha_t h_t(w_t)
    played_p = 0.0                 # sum alpha_t p_t' A w_t (constants dropped)

    def dual(shown, p_t, g_t):
        # A' of what the p-player shows, reusing g_t when it shows its play
        return g_t if shown is p_t else _times(at, shown)

    for t in range(1, horizon + 1):
        alpha = alphas[t - 1]
        # the second mover's hint is what the first shows of this round's play
        if w_first:
            w_t = wl.decide(alpha, w_hint)
            loss = _times(a, w_t)
            p_t = pl.decide(alpha, wl.shown(loss))
            g_t = _times(at, p_t)
        else:
            p_t = pl.decide(alpha, p_hint)
            g_t = _times(at, p_t)
            w_t = wl.decide(alpha, dual(pl.shown(p_t), p_t, g_t))
            loss = _times(a, w_t)
        wl.absorb(alpha, g_t)
        pl.absorb(alpha, loss)

        # p_t is a softmax of checked scores, finite by construction
        if not np.isfinite(w_t).all():
            raise NonFiniteIterate(t)

        # accounting
        bilinear = np.vecdot(p_t, loss)
        if ridge:
            played_w = played_w + alpha * (-bilinear + 0.5 * np.vecdot(w_t, w_t))
        else:
            played_w = played_w - alpha * bilinear
        played_p = played_p + alpha * bilinear
        cum_lossvec += alpha * loss
        w_sum += alpha * w_t
        p_sum += alpha * p_t
        g_sum += alpha * g_t
        cum_alpha += alpha

        worst = cum_lossvec.min(axis=-1)      # min_i (A w_sum)_i
        l1_delta[:, t - 1] = np.abs(p_t - prev_p).sum(axis=-1)
        worst_rec[:, t - 1] = worst
        wsq_rec[:, t - 1] = np.vecdot(w_sum, w_sum)
        rw_rec[:, t - 1] = played_w - comparator_value(ball_norm, g_sum, cum_alpha)
        rp_rec[:, t - 1] = played_p - worst
        if record:
            ws[:, t - 1] = w_t
            ps[:, t - 1] = p_t

        prev_p = p_t
        if t < horizon:            # the next hint is read only by a next round
            if w_first:
                w_hint = dual(pl.shown(p_t), p_t, g_t)
            else:
                p_hint = wl.shown(loss)

    cum_alphas = np.cumsum(alphas)           # sum of the alphas after each round
    wnorm = np.sqrt(wsq_rec)
    norm_margin = np.full((batch, horizon), np.nan)
    np.divide(worst_rec, wnorm, out=norm_margin, where=wnorm > 0.0)
    margin_avg = worst_rec / cum_alphas
    gap_running = (rw_rec + rp_rec) / cum_alphas
    # summed in round order, as a running total would; np.sum pairs terms
    sum_sq_delta = np.cumsum(l1_delta * l1_delta, axis=-1)[:, -1]
    w_sum = w_sum.reshape(batch, d)
    p_sum = p_sum.reshape(batch, n)
    return [Trace(
        config=config, alphas=alphas.copy(),
        ws=ws[b] if record else None, ps=ps[b] if record else None,
        l1_delta_p=l1_delta[b], margin_avg=margin_avg[b],
        normalized_margin=norm_margin[b],
        regret_w_running=rw_rec[b], regret_p_running=rp_rec[b],
        gap_bound_running=gap_running[b],
        w_bar=w_sum[b] / cum_alpha, p_bar=p_sum[b] / cum_alpha, w_sum=w_sum[b].copy(),
        sum_alpha=cum_alpha,
        regret_w=float(rw_rec[b, -1]), regret_p=float(rp_rec[b, -1]),
        sum_sq_l1_delta=float(sum_sq_delta[b]),
    ) for b in range(batch)]


def gap_bound_check(trace: Trace, dataset: Dataset, comparator_w: np.ndarray,
                    slack: float = 1e-9):
    """Duality-gap guarantee: m(w) - m(w_bar) <= (R^p + R^w) / sum(alpha),
    with m the best response to w under the payoff of the trace's game.

    The comparator must lie in the w-player's decision set.
    """
    objective = trace.config.objective
    lhs = (best_response_value(objective, dataset, comparator_w)
           - best_response_value(objective, dataset, trace.w_bar))
    rhs = (trace.regret_w + trace.regret_p) / trace.sum_alpha
    return lhs, rhs, lhs <= rhs + slack
