"""Two-player no-regret dynamics engine.

Each round the two learners exchange a classifier w_t and a distribution
p_t over rows; the weighted average of the w_t's approaches the max-min
point of the configured payoff at the rate set by the players' regrets.

The w-player sees p_t only through g_t = A'p_t, so a round forms two
products with the data matrix, A'p_t and A w_t, plus one for each
secondary iterate an OMD player shows; the engine forms them all.  The
margin of the running average w_bar is the minimum of the running sum of
the A w_t over the sum of the weights.

The p-player's distribution tends to the dual solution, which sits on the
rows at the least margin, so most p_t,i soon fall below eps/n (eps the
float64 epsilon).  In a game with at least `SUPPORT_MIN_ENTRIES` entries
per instance, each product of A' with a distribution (A'p_t, and an OMD
p-player's shown A'p_hat_t) reads only the rows with p_i >= eps/n when
they are at most `SUPPORT_MAX_SHARE` of n, and every row otherwise.  The
rows left out weigh under eps in all and |a_ij| <= 1, so each entry of
the product moves by under eps, inside the dense product's own rounding;
such a game matches the dense one to within roundoff, not bit for bit.
Each instance of a stack takes this rule on its own, so it keeps the bits
of its game alone.  The A w_t stay dense: the p-player's softmax and
running sum read every row.

The loop, `_play`, keeps only the play: the players' steps, the products
with A and the record of the w_t, which it reads to report a step that
went non-finite as `NonFiniteIterate`, naming the round, the player and
the quantity.  One round, by mover, plays both move orders.  It hands
each round to one hook.  The regret books are the lean hook: they record
each round's g_t and p_t'A w_t; after the loop, the sums of the alpha_t
w_t and alpha_t g_t, the played losses and the regret comparator, which
reads the sums of the g_t, come from in-order cumulative sums of those
records, so they carry the bits of running totals.
`run_dynamics_totals` keeps only these books and returns each game's
`Totals`, playing B datasets of one shape in the same loop over their
stacked (B, n, d) matrices; a trace's books add the per-round records of
the `Trace` of one game.
"""

from __future__ import annotations

from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import Dataset, margin
from .errors import BadParameter, NonFinite, NonFiniteIterate
from .learners import PSpec, WSpec, comparator_value

# the fewest entries per instance at which a game's products of A' with a
# distribution read only the rows it weighs (`_support_times`): with one
# BLAS thread and a 2 MiB L2, every game of T = 400 gained from 250 000
# entries on (at 5000 x 50, smooth 77 -> 71 ms, mpfp 153 -> 131, pnorm
# 83 -> 70), where the matrix no longer fits in L2; at 150 000 entries
# and below the gains were within the host's spread (1500 x 100: 28 -> 29,
# 52 -> 50, 32 -> 31), and at 256 x 8 smooth slowed from 16 to 20 ms
SUPPORT_MIN_ENTRIES = 250_000
# the largest share of the n rows such a product gathers: a gathered row
# costs about 85 ns against 30 ns a row of the dense product, so at
# 10000 x 100 one product of scattered rows took 278 us at a share of 0.2,
# 348 us at 0.25 and 409 us at 0.3, against 301-316 us dense; the four
# games of T = 200 at that shape, whose p_t mostly weigh far fewer rows,
# took 649 ms at 0.25, 643-659 ms at 0.1-0.2 and 785 ms dense (best of 5)
SUPPORT_MAX_SHARE = 0.25


@dataclass(frozen=True)
class DynamicsConfig:
    """T rounds of the game a w-learner and a p-learner play, the w-player
    moving first unless ``p_first``.  The w-learner's ``ball_norm`` fixes
    the payoff and the weights: over R^d the game is ridge-regularized with
    alpha_t = t, over a unit ball it is bilinear with alpha_t = 1.  Only
    `run_dynamics` reads ``record_full_trace``, whether its trace keeps the
    w_t and p_t; `run_dynamics_totals` and `check_equivalence` ignore it."""

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


@dataclass(frozen=True)
class Totals:
    """What the last round of a game leaves, with the bits of the fields of
    the same names of its `run_dynamics` trace: sum alpha_t w_t, sum alpha_t
    and the regrets R^w_T and R^p_T."""

    w_sum: np.ndarray
    sum_alpha: float
    regret_w: float
    regret_p: float


def run_dynamics(config: DynamicsConfig, dataset: Dataset) -> Trace:
    """Execute the dynamics; deterministic given config and dataset.  The
    trace comes from the engine loop with the trace's books as its hook."""
    books = _Books(config, dataset.matrix)
    return books.trace(_play(config, dataset.matrix, books.keep))


def run_dynamics_totals(config: DynamicsConfig, datasets: list[Dataset]) -> list[Totals]:
    """Play one game on several datasets of one shape at once, keeping only
    the regret books: each dataset's totals carry the bits of the fields of
    ``run_dynamics(config, dataset)``'s trace, and no trace is built."""
    a = _stacked(datasets)
    books = _RegretBooks(config, a)
    return books.totals(_play(config, a, books.keep))


def _stacked(datasets: list[Dataset]) -> np.ndarray:
    """The matrix a game plays on: one dataset's own, or for several of one
    shape a stacked (B, n, d) copy."""
    if not datasets:
        raise BadParameter("no datasets to play")
    shape = datasets[0].matrix.shape
    if any(ds.matrix.shape != shape for ds in datasets):
        raise BadParameter("a batch needs datasets of one shape, got "
                           + ", ".join(sorted({str(ds.matrix.shape) for ds in datasets})))
    return datasets[0].matrix if len(datasets) == 1 else np.stack([ds.matrix for ds in datasets])


def _times(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x per instance: a is (n, d) or (B, n, d), x is (B, d)."""
    return np.matmul(a, x[..., None])[..., 0]


def _support_times(a: np.ndarray, p: np.ndarray) -> np.ndarray:
    """A'p per instance, a (n, d) or (B, n, d) and p (B, n) distributions,
    from the rows with p_i >= eps/n alone when they are at most
    SUPPORT_MAX_SHARE of n, else from every row.  Each instance is formed
    with the np.dot call of its game alone, so an instance of a stack keeps
    the bits of its own game, and a dense product those of `_times`."""
    n = a.shape[-2]
    least = np.finfo(np.float64).eps / n
    g = np.empty(p.shape[:-1] + a.shape[-1:])
    for b in range(len(p)):
        weights, rows = p[b:b + 1], (a if a.ndim == 2 else a[b])
        weighed = np.flatnonzero(weights[0] >= least)
        if weighed.size <= SUPPORT_MAX_SHARE * n:
            weights, rows = weights[:, weighed], rows[weighed]
        g[b:b + 1] = np.dot(weights, rows)
    return g


def _products(a: np.ndarray):
    """The two products of a game on a, x -> A x and p -> A'p.  A game
    with at least SUPPORT_MIN_ENTRIES entries per instance forms the second
    with `_support_times`."""
    at = a.swapaxes(-1, -2)
    dual = (partial(_support_times, a) if a.shape[-2] * a.shape[-1] >= SUPPORT_MIN_ENTRIES
            else partial(_times, at))
    return partial(_times, a), dual


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


def _weights(config: DynamicsConfig) -> np.ndarray:
    """alpha_t of rounds 1 .. T: t in the ridge games over R^d, 1 over a ball."""
    if config.w_learner.ball_norm is None:
        return np.arange(1, config.horizon + 1, dtype=np.float64)
    return np.ones(config.horizon, dtype=np.float64)


@contextmanager
def _records(horizon: int):
    """Allocation of per-round records; numpy refuses a size past its index
    range or past the memory, which is a horizon too large."""
    try:
        yield
    except (ValueError, MemoryError):
        raise BadParameter(f"horizon T = {horizon} is too large: the trace "
                           "records cannot be allocated") from None


def _play(config: DynamicsConfig, a: np.ndarray,
          hook: Callable[..., None]) -> np.ndarray:
    """The one engine loop: the game on the data matrix a, (n, d) for one
    game or a (B, n, d) stack for B; returns the (B, T, d) record of the w_t.

    It keeps only the play: the two players' steps, the products with A
    and the w record that its report of a non-finite step reads.  Each
    round goes to ``hook(t, alpha, w_t, p_t, g_t, loss, cum)`` after w_t is
    recorded, with g_t = A'p_t, loss = A w_t and cum the p-player's running
    sum of the alpha_t A w_t, each (B, .), B = 1 included, and for the hook
    to read only.  An error the hook raises ends the run, and one of type
    NonFinite is read as the game's.

    A round is played by mover: the second decides from what the first
    shows and absorbs the first's product as soon as it has decided, so
    each shown iterate is ready where its play is; the plays and products
    go to the record and the hook by role, and each mover's plays are
    multiplied by its role's product from `_products`.  Each hint is the
    product of the play, or of the secondary iterate a mover shows,
    ``state.hat``, formed where the hint is read (A w_hat_{t-1} and
    A'p_hat_t in mpfp), so an error of the hat's step is raised there.
    """
    batch, n, d = (1, *a.shape) if a.ndim == 2 else a.shape
    horizon = config.horizon
    w_first = not config.p_first
    # the states size their vectors (B, .) from a (B, n, d) view, B = 1 included
    stacked = a.reshape(batch, n, d)
    wl, pl = config.w_learner.start(stacked), config.p_learner.start(stacked)
    with _records(horizon):
        alphas, ws = _weights(config), np.empty((batch, horizon, d))

    # roles turns a (w, p) pair into (first, second) and back: the movers,
    # each with the product its play is multiplied by, and a round's plays
    roles = slice(None, None, 1 if w_first else -1)
    loss_of, dual_of = _products(a)
    (first, times1), (second, times2) = ((wl, loss_of), (pl, dual_of))[roles]
    x1 = np.zeros((batch, d))                # w_0
    # the first mover's hint: a first-moving w-player sees A'p_0 with p_0
    # uniform, a first-moving p-player A w_0 with w_0 = 0
    hint = dual_of(np.full((batch, n), 1.0 / n)) if w_first else np.zeros((batch, n))
    try:
        for t in range(1, horizon + 1):
            alpha = alphas[t - 1]
            x1 = first.decide(alpha, hint)
            y1 = times1(x1)
            # the second mover's hint is what the first shows of this round's play
            x2 = second.decide(alpha, times1(first.hat) if first.shows_hat else y1)
            second.absorb(alpha, y1)
            y2 = times2(x2)
            first.absorb(alpha, y2)
            (w_t, p_t), (loss, g_t) = (x1, x2)[roles], (y1, y2)[roles]
            ws[:, t - 1] = w_t
            # every PSpec starts an EntropySimplex, whose cum is sum alpha_t A w_t
            hook(t, alpha, w_t, p_t, g_t, loss, pl.cum)
            if t < horizon:            # the next hint is read only by a next round
                hint = times2(second.hat) if second.shows_hat else y2
    except NonFinite as exc:
        # A non-finite w_t first shows where the p-player's softmax raises,
        # in w_t's round or the next.  The rows before round t are stored,
        # as is a second-moving w-player's w_t before any step can raise; a
        # first-moving one's x1 is round t's play or the last stored one.
        bad = _first_bad_round(ws[:, :t - 1])
        if bad is None and w_first and not np.isfinite(x1).all():
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
    return ws


class _RegretBooks:
    """The regret books, kept as the hook of `_play`: per round the A'p_t
    and p_t'A w_t, and the p-player's running sum of the alpha_t A w_t,
    whose minimum after the last round is that of the running average's
    margin.  `totals` reads what the last round leaves; `_Books` adds a
    trace's per-round records."""

    def __init__(self, config: DynamicsConfig, a: np.ndarray):
        batch, d = (1 if a.ndim == 2 else a.shape[0]), a.shape[-1]
        horizon = config.horizon
        self.config = config
        with _records(horizon):
            self.alphas = _weights(config)
            self.gs = np.empty((batch, horizon, d))      # the g_t = A'p_t
            self.bilinear = np.empty((batch, horizon))
        self.cum = None

    def keep(self, t, alpha, w_t, p_t, g_t, loss, cum) -> None:
        self.gs[:, t - 1] = g_t
        np.vecdot(p_t, loss, out=self.bilinear[:, t - 1])
        self.cum = cum

    def _accounts(self, ws: np.ndarray):
        """After each round: the sum of the alphas, the sums of the alpha_t
        w_t, the p-player's weighted played loss and the w-player's regret,
        from in-order cumulative sums of the records, so they carry the bits
        of running totals.  The sums of the alpha_t w_t are formed in ws."""
        config, alphas, bilinear = self.config, self.alphas, self.bilinear
        cum_alphas = np.cumsum(alphas)       # sum of the alphas after each round
        # the w-player's and the p-player's weighted played losses
        played_p = alphas * bilinear              # alpha_t p_t' A w_t (constants dropped)
        if config.w_learner.ball_norm is None:
            played_w = alphas * (-bilinear + 0.5 * np.vecdot(ws, ws))
        else:
            played_w = -played_p
        played_w, played_p = _running(played_w), _running(played_p)
        w_sums = _running(np.multiply(ws, alphas[:, None], out=ws))
        g_sums = _running(np.multiply(self.gs, alphas[:, None], out=self.gs))
        regret_w = played_w - comparator_value(config.w_learner.ball_norm, g_sums, cum_alphas)
        return cum_alphas, w_sums, played_p, regret_w

    def totals(self, ws: np.ndarray) -> list[Totals]:
        """The totals of each game from the loop's (B, T, d) w record."""
        cum_alphas, w_sums, played_p, regret_w = self._accounts(ws)
        regret_p = played_p[:, -1] - np.minimum.reduce(self.cum, axis=-1)
        sum_alpha = float(cum_alphas[-1])
        w_sum = w_sums[:, -1].copy()              # frees the records
        return [Totals(w_sum=w_sum[b], sum_alpha=sum_alpha,
                       regret_w=float(regret_w[b, -1]), regret_p=float(regret_p[b]))
                for b in range(len(ws))]


class _Books(_RegretBooks):
    """A trace's books, for one game: the regret books plus, per round, the
    minimum of the running sum of the alpha_t A w_t, ||p_t - p_{t-1}||_1,
    the weighted sum of the p_t and, in a full trace, the p_t; after the
    loop, `trace` does the margin accounting.  The weighted sum of the p_t
    and the l1 step form their n-vector terms in one preallocated buffer.
    Its records keep the loop's instance axis, of length 1."""

    def __init__(self, config: DynamicsConfig, a: np.ndarray):
        super().__init__(config, a)
        batch, n = self.gs.shape[0], a.shape[-2]
        horizon = config.horizon
        with _records(horizon):
            self.ps = np.empty((batch, horizon, n)) if config.record_full_trace else None
            self.l1_delta, self.worst = np.empty((batch, horizon)), np.empty((batch, horizon))
        self.prev_p = np.full((batch, n), 1.0 / n)      # p_0
        self.p_sum = np.zeros((batch, n))
        self.buffer = np.empty((batch, n))

    def keep(self, t, alpha, w_t, p_t, g_t, loss, cum) -> None:
        super().keep(t, alpha, w_t, p_t, g_t, loss, cum)
        r = t - 1
        buffer = self.buffer
        self.p_sum += np.multiply(p_t, alpha, out=buffer)
        np.minimum.reduce(cum, axis=-1, out=self.worst[:, r])   # min_i (A w_sum)_i
        np.abs(np.subtract(p_t, self.prev_p, out=buffer), out=buffer)
        np.add.reduce(buffer, axis=-1, out=self.l1_delta[:, r])
        if self.ps is not None:
            self.ps[:, r] = p_t
        self.prev_p = p_t

    def trace(self, ws: np.ndarray) -> Trace:
        """The game's trace from the loop's (1, T, d) w record."""
        record = self.ps is not None
        # a full trace keeps ws, a light one lets the sums overwrite it
        cum_alphas, w_sums, played_p, rw_rec = self._accounts(ws.copy() if record else ws)
        worst = self.worst[0]
        wnorm = np.sqrt(np.vecdot(w_sums[0], w_sums[0]))
        norm_margin = np.full(worst.shape, np.nan)
        np.divide(worst, wnorm, out=norm_margin, where=wnorm > 0.0)
        return Trace(
            config=self.config, alphas=self.alphas.copy(),
            ws=ws[0] if record else None, ps=self.ps[0] if record else None,
            l1_delta_p=self.l1_delta[0], margin_avg=worst / cum_alphas,
            normalized_margin=norm_margin,
            regret_w_running=rw_rec[0], regret_p_running=played_p[0] - worst,
            w_sum=w_sums[0, -1].copy(),           # frees a light trace's records
            p_sum=self.p_sum[0])


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
