"""Closed-form online learners over the three geometries the dynamics use.

Each spec makes its learner state with ``spec.start(a)``, which reads only
the shape of a, so no state holds the matrix; every state speaks one protocol:

- ``decide(alpha, hint)`` returns the round's play from the absorbed
  history plus the optimistic term ``alpha * hint``;
- ``absorb(alpha, realized)`` adds the opponent's realized play;
- ``shows_hat`` tells what the engine forms the opponent's hint from: if
  true, the secondary iterate ``hat`` of an OMD learner, else the play.

The w-player's loss at a distribution p over rows is -p'Aw, plus ||w||^2/2
in the ridge games, so it sees p only through the d-vector g = A'p: its
hints and realized plays are such dual vectors.  The p-player's are loss
vectors A w.  Every spec is an optimistic learner; the one that moves
second is given the first's realized play as its hint, which makes it a
"plus" learner (FTRL that includes the current round).  A w-spec
(``WSpec``) has a ``ball_norm`` that names its decision set, None for R^d
and b for the unit b-norm ball, and ``comparator_value`` gives the minimum
over that set that the w-player's regret is measured against.  A p-spec
(``PSpec``) plays on the simplex.

Simplex learners (entropy regularizer) keep the cumulative weighted loss
vector and output a max-subtracted softmax; nothing multiplicative is
stored, so underflow cannot compound.  The w-side learners keep the
weighted sum of the dual vectors they absorbed and apply the appropriate
mirror/dual map.

The kernels and states act on the last axis, so one state plays B games of
one shape at once.  A state started from a (B, n, d) stack holds (B, n) or
(B, d) vectors from the start, and from an (n, d) matrix 1-D ones; the hints
and plays it is given have that shape, so its sums are updated in place.
The comparator values are one per game.  Each game gets the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, NonFinite

UNDERFLOW_FLOOR = 1e-300    # least softmax weight: no probability underflows to 0
# least exp argument of the softmax: exp(-700) ~ 9.9e-305 is below the floor,
# so a clamped entry ends at the floor as it would unclamped, and numpy's exp
# is several times slower on arguments below about -708
EXP_ARG_MIN = -700.0


# ---------------------------------------------------------------------------
# learner specs (configuration values, no state)

@dataclass(frozen=True)
class _Stepped:
    """A spec with a step size eta, which must be positive and finite (NaN
    is neither)."""
    eta: float

    def __post_init__(self):
        if not 0.0 < self.eta < math.inf:
            raise BadParameter(f"eta must be positive and finite, got {self.eta}")


@dataclass(frozen=True)
class Oftl:
    """Optimistic FTL over R^d; ridge-regularized losses make it well posed
    without an explicit regularizer."""
    ball_norm = None

    def start(self, a: np.ndarray) -> DualAveragingW:
        return DualAveragingW(_w_shape(a))


@dataclass(frozen=True)
class OftrlEntropy(_Stepped):
    """Optimistic FTRL over the simplex with the entropy regularizer."""

    def start(self, a: np.ndarray) -> EntropySimplex:
        return EntropySimplex(a.shape[:-1], self.eta)


@dataclass(frozen=True)
class OftrlQNorm(_Stepped):
    """Optimistic FTRL over R^d with the q-norm-squared regularizer."""
    q: float

    def __post_init__(self):
        super().__post_init__()
        if not 1.0 < self.q <= 2.0:
            raise BadParameter("q must lie in (1, 2]")

    @property
    def ball_norm(self) -> float:
        return self.q

    def start(self, a: np.ndarray) -> DualAveragingW:
        return DualAveragingW(_w_shape(a), self.eta, self.q)


@dataclass(frozen=True)
class OmdBall(_Stepped):
    """Optimistic mirror descent on the unit l2 ball."""
    ball_norm = 2.0

    def start(self, a: np.ndarray) -> OmdBallState:
        return OmdBallState(_w_shape(a), self.eta)


@dataclass(frozen=True)
class OmdEntropy(_Stepped):
    """Optimistic mirror descent (multiplicative weights) on the simplex."""

    def start(self, a: np.ndarray) -> EntropySimplex:
        return EntropySimplex(a.shape[:-1], self.eta, shows_hat=True)


def _w_shape(a: np.ndarray) -> tuple[int, ...]:
    """The shape of a w-side state's vectors: a's batch axes and d."""
    return a.shape[:-2] + a.shape[-1:]


# the specs of each role: a w-learner plays in R^d, a p-learner on the simplex
WSpec = Oftl | OftrlQNorm | OmdBall
PSpec = OftrlEntropy | OmdEntropy


# ---------------------------------------------------------------------------
# shared numeric kernels

def softmax_neg(scores: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Normalized exp(-scores) along the last axis, max-subtracted.  Single
    implementation shared by every learner and every original-form algorithm
    so the equivalence checks compare identical roundoff paths; each row of
    a stack is normalized on its own.  The result goes to out if given,
    which may be scores itself, with the same bits."""
    s = np.asarray(scores, dtype=np.float64)
    # the ufuncs' reductions, which the ndarray methods wrap in a Python
    # call each: at small n a round makes several softmaxes
    if not np.logical_and.reduce(np.isfinite(s), axis=None):
        raise NonFinite("softmax scores")
    z = np.subtract(np.minimum.reduce(s, axis=-1, keepdims=True), s, out=out)
    np.maximum(z, EXP_ARG_MIN, out=z)
    np.exp(z, out=z)
    np.maximum(z, UNDERFLOW_FLOOR, out=z)
    z /= np.add.reduce(z, axis=-1, keepdims=True)
    return z


def _row_norm(x: np.ndarray, ord: float = 2.0) -> np.ndarray:
    """||x||_ord along the last axis, which is kept with length 1, with the
    same bits for a row of a stack as for the row on its own.  The l2 norm
    goes through the dot product, as np.linalg.norm computes it for a single
    vector.  Any other norm is taken of the row over its largest |entry|
    and multiplied back, so no |entry|^ord overflows, and takes its root of
    an array, never of a scalar, whose power can round differently."""
    if ord == 2.0:
        return np.sqrt(np.vecdot(x, x))[..., None]
    scale = np.abs(x).max(axis=-1, keepdims=True)
    scale[scale == 0.0] = 1.0            # a zero row has norm 0 either way
    return np.linalg.norm(x / scale, ord=ord, axis=-1, keepdims=True) * scale


def project_ball(v: np.ndarray) -> np.ndarray:
    """Projection of each row onto the unit l2 ball; a row already inside
    is divided by 1, which leaves it unchanged.  sqrt(max(|v|^2, 1)) is
    max(|v|, 1) exactly, since sqrt is monotone and correctly rounded."""
    return v / np.sqrt(np.maximum(np.vecdot(v, v), 1.0))[..., None]


def qnorm_dual_map(theta: np.ndarray, q: float) -> np.ndarray:
    """Gradient of the conjugate of ||.||_q^2 / (2(q-1)), row by row.

    With 1/p + 1/q = 1 the map is
        w_i = (q-1) sign(theta_i) |theta_i|^(p-1) ||theta||_p^(2-p),
    the identity when q = 2, and 0 at theta = 0.  It is formed as
    (q-1) sign(u_i) |u_i|^(p-1) ||theta||_p with u = theta / ||theta||_p,
    whose powers of |u_i| <= 1 do not overflow at a large p.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if not np.isfinite(theta).all():
        raise NonFinite("dual map input")
    if q == 2.0:
        return theta.copy()
    p = q / (q - 1.0)
    norm = _row_norm(theta, p)
    # a zero row maps to 0 through u = 0; the 1 only avoids 0 / 0
    norm[norm == 0.0] = 1.0
    u = theta / norm
    return (q - 1.0) * np.sign(u) * np.abs(u) ** (p - 1.0) * norm


# ---------------------------------------------------------------------------
# learner states: decide(alpha, hint), absorb(alpha, realized), shows_hat

class EntropySimplex:
    """p proportional to exp(-eta * (cum + alpha * hint)), where cum is the
    weighted sum of the absorbed loss vectors.

    One closed form serves FTRL-plus (the hint is the realized loss),
    optimistic FTRL (the previous loss) and two-step mirror descent on the
    simplex: without a projection step, entropic OMD's secondary iterate is
    the softmax of the cumulative vector, ``hat``, and that is what an OMD
    learner shows its opponent.
    """

    def __init__(self, shape: tuple[int, ...], eta: float, shows_hat: bool = False):
        self.eta = eta
        self.cum = np.zeros(shape)
        self.shows_hat = shows_hat

    @property
    def hat(self) -> np.ndarray:
        scores = np.multiply(self.cum, self.eta)
        return softmax_neg(scores, out=scores)

    def decide(self, alpha: float, hint: np.ndarray) -> np.ndarray:
        # eta * (cum + alpha * hint), formed in the array that becomes the play
        scores = np.multiply(hint, alpha)
        scores += self.cum
        scores *= self.eta
        return softmax_neg(scores, out=scores)

    def absorb(self, alpha: float, realized: np.ndarray) -> None:
        np.add(self.cum, alpha * realized, out=self.cum)


class DualAveragingW:
    """w from theta = cum_g + alpha * hint, where cum_g is the weighted sum
    of the absorbed dual vectors A'p.

    Without eta the losses are ridge-regularized, their own ||w||^2 / 2 is
    the regularizer, and w = theta / (sum of alphas including this round):
    optimistic FTL with the previous A'p as the hint, FTL-plus with the
    realized one.  With eta and q it is optimistic FTRL with the q-norm
    regularizer anchored at 0 against bilinear losses, solved through the
    explicit dual map.
    """

    shows_hat = False

    def __init__(self, shape: tuple[int, ...], eta: float | None = None, q: float = 2.0):
        self.eta = eta
        self.q = q
        self.cum_g = np.zeros(shape)
        self.cum_alpha = 0.0

    def decide(self, alpha: float, hint: np.ndarray) -> np.ndarray:
        theta = self.cum_g + alpha * hint
        if self.eta is None:
            return theta / (self.cum_alpha + alpha)
        return qnorm_dual_map(self.eta * theta, self.q)

    def absorb(self, alpha: float, realized: np.ndarray) -> None:
        np.add(self.cum_g, alpha * realized, out=self.cum_g)
        self.cum_alpha += alpha


class OmdBallState:
    """Two-step Euclidean mirror descent on the unit ball against bilinear
    losses, whose gradient at the dual vector g = A'p is -g.  It shows its
    secondary iterate, ``hat``."""

    shows_hat = True

    def __init__(self, shape: tuple[int, ...], eta: float):
        self.eta = eta
        self.hat = np.zeros(shape)

    def _step(self, alpha: float, g: np.ndarray) -> np.ndarray:
        return project_ball(self.hat + self.eta * alpha * g)

    def decide(self, alpha: float, hint: np.ndarray) -> np.ndarray:
        return self._step(alpha, hint)

    def absorb(self, alpha: float, realized: np.ndarray) -> None:
        self.hat = self._step(alpha, realized)


# ---------------------------------------------------------------------------
# the comparator the engine measures the w-player's running regret against

def comparator_value(ball_norm: float | None, g_sum: np.ndarray, cum_alpha):
    """Minimum of the w-player's weighted cumulative loss over its decision
    set, given g_sum = A' (sum of alpha_t p_t): over R^d for the ridge losses
    (ball_norm None), else, for bilinear losses, whose unconstrained minimum
    is -inf, over the unit ball_norm-ball, where it is minus the dual norm of
    g_sum; one value per row of g_sum.  cum_alpha, the sum of the alpha_t,
    is a number or an array that broadcasts against those values."""
    if ball_norm is None:
        return -0.5 * np.vecdot(g_sum, g_sum) / cum_alpha
    return -_row_norm(g_sum, ball_norm / (ball_norm - 1.0))[..., 0]


# ---------------------------------------------------------------------------
# exact weighted regrets from closed-form comparators

def _played_bilinear(a: np.ndarray, alphas: np.ndarray, ws, ps) -> float:
    """sum_t alpha_t (A'p_t).w_t, where the engine forms p_t.(A w_t).  With
    the comparators, which sum the plays before the product with A, no
    oracle term forms a (T, n) array."""
    return float(np.einsum("t,td,td->", alphas, ps @ a, ws))


def regret_w_from_arrays(a: np.ndarray, alphas, ws, ps, ball_norm: float | None) -> float:
    """Weighted regret of the w-player against the exact comparator.

    ball_norm None: ridge losses over R^d.  A number b: bilinear losses over
    the unit b-norm ball, where the comparator's loss is minus the dual norm
    ||A' sum_t alpha_t p_t||_{b/(b-1)}, taken of the vector over its largest
    |entry| so that no power overflows at a large dual exponent.
    """
    alphas = np.asarray(alphas, dtype=np.float64)
    bilinear_played = -_played_bilinear(a, alphas, ws, ps)
    g = a.T @ (alphas @ ps)
    if ball_norm is None:
        played = bilinear_played + 0.5 * float(alphas @ np.sum(ws * ws, axis=1))
        best = -0.5 * float(np.dot(g, g)) / float(alphas.sum())
        return played - best
    scale = float(np.max(np.abs(g))) or 1.0     # a zero g has norm 0 either way
    best = -scale * float(np.linalg.norm(g / scale, ord=ball_norm / (ball_norm - 1.0)))
    return bilinear_played - best


def regret_p_from_arrays(a: np.ndarray, alphas, ws, ps) -> float:
    """Weighted regret of the p-player; the comparator minimum over the
    simplex sits at a vertex, so the enumeration is exact.  Any objective
    term constant in p cancels between the two sides and is dropped."""
    alphas = np.asarray(alphas, dtype=np.float64)
    return _played_bilinear(a, alphas, ws, ps) - float(np.min(a @ (alphas @ ws)))


def weighted_regret_w(trace, dataset) -> float:
    """Regret of the w-player on a completed trace (full trace required)."""
    if trace.ws is None or trace.ps is None:
        raise BadParameter("full trace required")
    return regret_w_from_arrays(dataset.matrix, trace.alphas, trace.ws,
                                trace.ps, trace.config.w_learner.ball_norm)


def weighted_regret_p(trace, dataset) -> float:
    if trace.ws is None or trace.ps is None:
        raise BadParameter("full trace required")
    return regret_p_from_arrays(dataset.matrix, trace.alphas, trace.ws, trace.ps)
