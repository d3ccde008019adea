"""Two-player no-regret dynamics engine.

Each round the two learners exchange a classifier w_t and a distribution
p_t over rows; the weighted average of the w_t's approaches the max-min
point of the configured payoff at the rate set by the players' regrets.

The w-player sees p_t only through g_t = A'p_t, so a round passes over the
data matrix twice, once for A'p_t and once for A w_t, plus once for each
secondary iterate an OMD player shows; the engine forms them all.  The
margin of the running average w_bar is the minimum of the running sum of
the A w_t over the sum of the weights.

The loop keeps only the work on n-vectors.  It records each round's w_t,
g_t and p_t'A w_t; after it, the sums of the alpha_t w_t and alpha_t g_t,
the played losses and the regret comparator, which reads the sums of the
g_t, come from in-order cumulative sums of those records, so they carry
the bits of running totals.  A step that goes non-finite raises
`NonFiniteIterate` naming the round, the player and the quantity.

`run_dynamics_batch` plays one configuration on B datasets of one shape in
the same loop, over their stacked (B, n, d) matrices; each of its traces is
bit-identical to the trace `run_dynamics` gives for that dataset alone.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .core import Dataset, margin
from .errors import BadParameter, NonFinite, NonFiniteIterate
from .learners import PSpec, WSpec, comparator_value


@dataclass(frozen=True)
class DynamicsConfig:
    """T rounds of the game a w-learner and a p-learner play, the w-player
    moving first unless ``p_first``.  The w-learner's ``ball_norm`` fixes
    the payoff and the weights: over R^d the game is ridge-regularized with
    alpha_t = t, over a unit ball it is bilinear with alpha_t = 1."""

    w_learner: WSpec
    p_learner: PSpec
    horizon: int
    record_full_trace: bool = True
    p_first: bool = False

    def __post_init__(self):
        check_horizon(self.horizon)
        if not (isinstance(self.w_learner, WSpec) and isinstance(self.p_learner, PSpec)):
            raise BadParameter(
                f"unsupported learner pair {type(self.w_learner).__name__} / "
                f"{type(self.p_learner).__name__}: the w-learner is one of "
                f"{_names(WSpec)}, the p-learner one of {_names(PSpec)}")


def check_horizon(horizon, name: str = "horizon") -> None:
    """BadParameter unless ``horizon`` is an integer >= 1: a Python or numpy
    integer, not a bool."""
    integral = isinstance(horizon, (int, np.integer)) and not isinstance(horizon, bool)
    if not integral or horizon < 1:
        raise BadParameter(f"{name} must be an integer >= 1, got {horizon!r}")


def _names(specs) -> str:
    return ", ".join(cls.__name__ for cls in specs.__args__)


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
    w_sum: np.ndarray                # weighted sum of the w_t
    p_sum: np.ndarray                # weighted sum of the p_t

    @property
    def sum_alpha(self) -> float:
        # in round order, as a running total adds; np.sum would pair terms
        return float(np.cumsum(self.alphas)[-1])

    @property
    def w_bar(self) -> np.ndarray:
        return self.w_sum / self.sum_alpha

    @property
    def p_bar(self) -> np.ndarray:
        return self.p_sum / self.sum_alpha

    @property
    def gap_bound_running(self) -> np.ndarray:
        # the duality-gap bound (R^w + R^p) / sum(alpha) after each round
        return (self.regret_w_running + self.regret_p_running) / np.cumsum(self.alphas)

    @property
    def regret_w(self) -> float:
        return float(self.regret_w_running[-1])

    @property
    def regret_p(self) -> float:
        return float(self.regret_p_running[-1])

    @property
    def sum_sq_l1_delta(self) -> float:       # in round order too
        return float(np.cumsum(self.l1_delta_p * self.l1_delta_p)[-1])


def run_dynamics(config: DynamicsConfig, dataset: Dataset) -> Trace:
    """Execute the dynamics; deterministic given config and dataset."""
    return _play(config, [dataset])[0]


def run_dynamics_batch(config: DynamicsConfig, datasets: list[Dataset]) -> list[Trace]:
    """Play one game on several datasets of one shape at once; each trace
    is bit-identical to ``run_dynamics(config, dataset)`` of its dataset."""
    return _play(config, datasets)


def _times(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x per instance: a is (n, d) or (B, n, d), x is (B, d)."""
    return np.matmul(a, x[..., None])[..., 0]


def _hint(m: np.ndarray, shown: np.ndarray, play: np.ndarray,
          product: np.ndarray) -> np.ndarray:
    """m times what a player shows, or the round's product = m play."""
    return product if shown is play else _times(m, shown)


def _running(terms: np.ndarray) -> np.ndarray:
    """Running totals of per-round terms along axis 1, in place and in round
    order, with the bits of ``total = total + term`` from ``total = 0.0``:
    adding 0.0 first turns a -0.0 first term into +0.0, as the sum does."""
    terms[:, 0] += 0.0
    return np.cumsum(terms, axis=1, out=terms)


def _first_bad_round(ws: np.ndarray) -> int | None:
    """The first round, 1-based, of a (B, rounds, d) w record in which some
    instance's w_t is not finite; None if there is none."""
    bad = ~np.isfinite(ws).all(axis=(0, 2))
    return int(bad.argmax()) + 1 if bad.any() else None


def _play(config: DynamicsConfig, datasets: list[Dataset],
          observe: Callable[[int, np.ndarray, np.ndarray], None] | None = None
          ) -> list[Trace]:
    # The one engine loop.  Both entry points call it directly, so a profile
    # of either public function sees the loop as its own time.  B games keep
    # (B, n), (B, d) and (B,) arrays, B = 1 included.  `observe(t, w_t, p_t)`,
    # if given, sees each round's plays after they are recorded; an error it
    # raises ends the run, and one of type NonFinite is read as the game's.
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
    n, d = shape
    horizon = config.horizon
    w_first = not config.p_first
    ridge = config.w_learner.ball_norm is None
    # the states size their vectors (B, .) from a (B, n, d) view, B = 1 included
    stacked = a.reshape(batch, n, d)
    wl, pl = config.w_learner.start(stacked), config.p_learner.start(stacked)

    record = config.record_full_trace
    try:
        alphas = (np.arange(1, horizon + 1, dtype=np.float64) if ridge
                  else np.ones(horizon, dtype=np.float64))
        cum_alphas = np.cumsum(alphas)       # sum of the alphas after each round
        # the w_t and g_t = A'p_t of every round; ws is also the trace's
        ws, gs = np.empty((batch, horizon, d)), np.empty((batch, horizon, d))
        ps = np.empty((batch, horizon, n)) if record else None
        # per-round records, one row per instance
        l1_delta, worst_rec, bilinear = (np.empty((batch, horizon)) for _ in range(3))
    except (ValueError, MemoryError):
        # numpy refuses a size past its index range or past the memory
        raise BadParameter(f"horizon T = {horizon} is too large: the trace "
                           "records cannot be allocated") from None

    prev_p = np.full((batch, n), 1.0 / n)    # p_0
    w_t = np.zeros((batch, d))               # w_0
    # the first mover's hint: a first-moving w-player sees A'p_0, a
    # first-moving p-player A w_0 with w_0 = 0
    hint = _times(at, prev_p) if w_first else np.zeros((batch, n))
    p_sum = np.zeros((batch, n))
    buffer = np.empty((batch, n))            # the loop's one n-vector temporary

    try:
        for t in range(1, horizon + 1):
            alpha = alphas[t - 1]
            # the second mover's hint is what the first shows of this round's play
            if w_first:
                w_t = wl.decide(alpha, hint)
                loss = _times(a, w_t)
                p_t = pl.decide(alpha, _hint(a, wl.shown(w_t), w_t, loss))
                g_t = _times(at, p_t)
            else:
                p_t = pl.decide(alpha, hint)
                g_t = _times(at, p_t)
                w_t = wl.decide(alpha, _hint(at, pl.shown(p_t), p_t, g_t))
                loss = _times(a, w_t)
            wl.absorb(alpha, g_t)
            pl.absorb(alpha, loss)

            ws[:, t - 1] = w_t
            gs[:, t - 1] = g_t
            np.vecdot(p_t, loss, out=bilinear[:, t - 1])
            p_sum += np.multiply(p_t, alpha, out=buffer)
            # every PSpec starts an EntropySimplex, whose cum is sum alpha_t A w_t
            np.minimum.reduce(pl.cum, axis=-1, out=worst_rec[:, t - 1])  # min_i (A w_sum)_i
            np.abs(np.subtract(p_t, prev_p, out=buffer), out=buffer)
            np.add.reduce(buffer, axis=-1, out=l1_delta[:, t - 1])
            if record:
                ps[:, t - 1] = p_t
            if observe is not None:
                observe(t, w_t, p_t)

            prev_p = p_t
            if t < horizon:            # the next hint is read only by a next round
                hint = (_hint(at, pl.shown(p_t), p_t, g_t) if w_first
                        else _hint(a, wl.shown(w_t), w_t, loss))
    except NonFinite as exc:
        # A non-finite w_t first shows where the p-player's softmax raises,
        # in w_t's round or the next.  The rows before round t are stored,
        # and w_t is round t's play or the last stored one.
        bad = _first_bad_round(ws[:, :t - 1])
        if bad is None and not np.isfinite(w_t).all():
            bad = t
        if bad is not None:
            raise NonFiniteIterate(bad, "w", "w_t") from exc
        # else the step that raised names its quantity, and of the learners
        # only the p-player's EntropySimplex takes a softmax
        player = "p" if exc.quantity == "softmax scores" else "w"
        raise NonFiniteIterate(t, player, exc.quantity) from exc
    # a bad w_T of a p-first game reaches no softmax
    bad = _first_bad_round(ws)
    if bad is not None:
        raise NonFiniteIterate(bad, "w", "w_t")

    # the w-player's and the p-player's weighted played losses
    played_p = alphas * bilinear              # alpha_t p_t' A w_t (constants dropped)
    if ridge:
        played_w = alphas * (-bilinear + 0.5 * np.vecdot(ws, ws))
    else:
        played_w = -played_p
    played_w, played_p = _running(played_w), _running(played_p)
    # sum alpha_t w_t after each round: in place unless ws is the trace's
    w_sums = _running(np.multiply(ws, alphas[:, None], out=None if record else ws))
    g_sums = _running(np.multiply(gs, alphas[:, None], out=gs))  # sum alpha_t A'p_t
    rw_rec = played_w - comparator_value(config.w_learner.ball_norm, g_sums, cum_alphas)
    rp_rec = played_p - worst_rec

    wnorm = np.sqrt(np.vecdot(w_sums, w_sums))
    norm_margin = np.full((batch, horizon), np.nan)
    np.divide(worst_rec, wnorm, out=norm_margin, where=wnorm > 0.0)
    margin_avg = worst_rec / cum_alphas
    w_sum = w_sums[:, -1].copy()              # frees a light trace's records
    return [Trace(
        config=config, alphas=alphas.copy(),
        ws=ws[b] if record else None, ps=ps[b] if record else None,
        l1_delta_p=l1_delta[b], margin_avg=margin_avg[b],
        normalized_margin=norm_margin[b],
        regret_w_running=rw_rec[b], regret_p_running=rp_rec[b],
        w_sum=w_sum[b], p_sum=p_sum[b],
    ) for b in range(batch)]


def best_response_value(ball_norm: float | None, dataset: Dataset,
                        w: np.ndarray) -> float:
    """m(w) = min over the simplex of the payoff at w, attained at a vertex:
    the margin of w, less ||w||^2 / 2 in the ridge games (ball_norm None)."""
    value = margin(dataset, w)
    if ball_norm is None:
        value -= 0.5 * float(np.dot(w, w))
    return value


def gap_bound_check(trace: Trace, dataset: Dataset, comparator_w: np.ndarray):
    """Duality-gap guarantee: m(w) - m(w_bar) <= (R^p + R^w) / sum(alpha)
    + 1e-9, with m the best response to w under the payoff of the trace's game.

    The comparator must lie in the w-player's decision set.
    """
    ball_norm = trace.config.w_learner.ball_norm
    lhs = (best_response_value(ball_norm, dataset, comparator_w)
           - best_response_value(ball_norm, dataset, trace.w_bar))
    rhs = (trace.regret_w + trace.regret_p) / trace.sum_alpha
    return lhs, rhs, lhs <= rhs + 1e-9
