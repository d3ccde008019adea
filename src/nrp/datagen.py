"""Deterministic synthetic instances: separable data with a margin
certificate, an exactly-known-margin construction, and infeasible
(origin-in-hull) data."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import Dataset, build_dataset
from .errors import BadParameter, RejectionBudget


class GenMode(enum.Enum):
    LOWER_BOUND = "lower"
    EXACT_MARGIN = "exact"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class GenSpec:
    n: int
    d: int
    gamma: float
    norm_exponent: float = 2.0
    mode: GenMode = GenMode.LOWER_BOUND
    seed: int = 0

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise BadParameter(f"n and d must be positive, got n = {self.n}, d = {self.d}")
        if self.seed < 0:
            raise BadParameter(f"seed must be non-negative, got {self.seed}")
        if self.mode is not GenMode.INFEASIBLE and not 0.0 < self.gamma < 1.0:
            raise BadParameter("gamma must lie in (0, 1)")
        if self.mode in (GenMode.EXACT_MARGIN, GenMode.INFEASIBLE) and self.d < 2:
            raise BadParameter(f"{self.mode.value} mode needs d >= 2")
        if not 2.0 <= self.norm_exponent < math.inf:
            raise BadParameter("norm_exponent must lie in [2, inf), "
                               f"got {self.norm_exponent}")
        if self.mode is GenMode.EXACT_MARGIN:
            # the construction's symmetric pair of rows is Euclidean
            if self.n < 2:
                raise BadParameter("exact mode needs n >= 2")
            if self.norm_exponent != 2.0:
                raise BadParameter("exact mode is Euclidean only (p = 2)")


def _unit_pnorm_vector(rng: np.random.Generator, d: int, p: float) -> np.ndarray:
    """Random direction on the unit p-norm sphere (generalized-normal trick).

    The calls are those of ``rng.choice([-1.0, 1.0], size=d)`` and
    ``np.linalg.norm(v, ord=p)`` without their argument handling: choice
    draws its indices with ``rng.integers(0, 2, size=d)``, and norm takes
    these steps for a 1-D vector.  A seed keeps its stream and its bits.
    """
    g = rng.gamma(1.0 / p, 1.0, size=d) ** (1.0 / p)
    v = (rng.integers(0, 2, size=d) * 2.0 - 1.0) * g
    if p == 2.0:
        norm = math.sqrt(v.dot(v))
    else:
        powers = abs(v)
        powers **= p
        norm = np.add.reduce(powers) ** (1.0 / p)
    # at a large p a Gamma(1/p) draw underflows to 0, and so can the norm
    if not norm > 0.0:
        raise BadParameter(f"norm exponent p = {p} is too large to sample: a "
                           "random direction's p-norm underflows to 0")
    return v / norm


def _uniform_pnorm_ball(rng: np.random.Generator, d: int, p: float) -> np.ndarray:
    # rng.random() is rng.uniform() without the 0 + 1 * u it computes
    direction = _unit_pnorm_vector(rng, d, p)
    return direction * rng.random() ** (1.0 / d)


def gen_separable(spec: GenSpec) -> Dataset:
    """Separable instance; deterministic in the seed.

    LOWER_BOUND: rejection-sample points in the p-norm unit ball keeping
    only those at distance >= gamma from a random dual-unit hyperplane, so
    gamma is a certified lower bound on the true margin.

    EXACT_MARGIN (l2 only): a symmetric pair (gamma, +-beta) with
    beta = sqrt(1 - gamma^2) caps the maximal margin at exactly gamma,
    attained at the first basis vector; fillers project strictly further
    onto that axis and cannot move the optimum.
    """
    rng = np.random.default_rng(spec.seed)
    if spec.mode is GenMode.EXACT_MARGIN:
        gamma = spec.gamma
        beta = math.sqrt(1.0 - gamma * gamma)
        feats = np.zeros((spec.n, spec.d))
        feats[0, :2] = (gamma, beta)
        feats[1, :2] = (gamma, -beta)
        # per row: rng.uniform(lo, hi) as its own formula lo + (hi - lo) *
        # rng.random(), and np.linalg.norm of a vector as its own
        # sqrt(x.dot(x)), without the calls' argument handling; the stream
        # and the bits are those of the calls
        for i in range(2, spec.n):
            c = gamma + (1.0 - gamma) * (0.1 + (0.9 - 0.1) * rng.random())
            rest = rng.standard_normal(spec.d - 1)
            norm = math.sqrt(rest.dot(rest))
            rest *= (0.2 + (0.95 - 0.2) * rng.random()) * math.sqrt(1.0 - c * c) / norm
            feats[i, 0] = c
            feats[i, 1:] = rest
        w_star = np.zeros(spec.d)
        w_star[0] = 1.0
        labels = np.ones(spec.n)
        return build_dataset(feats, labels, norm_exponent=2.0,
                             known_margin=gamma, exact_margin=True,
                             w_star=w_star)

    if spec.mode is not GenMode.LOWER_BOUND:
        raise ValueError("gen_separable handles separable modes only")
    p = spec.norm_exponent
    q = p / (p - 1.0)
    w_star = _unit_pnorm_vector(rng, spec.d, q)
    feats = np.empty((spec.n, spec.d))
    labels = np.empty(spec.n)
    budget = 10000 * spec.n
    accepted = 0
    while accepted < spec.n:
        if budget <= 0:
            raise RejectionBudget(f"could not place {spec.n} points at margin {spec.gamma}")
        budget -= 1
        x = _uniform_pnorm_ball(rng, spec.d, p)
        proj = float(w_star @ x)
        if abs(proj) < spec.gamma:
            continue
        feats[accepted] = x
        labels[accepted] = 1.0 if proj > 0 else -1.0
        accepted += 1
    return build_dataset(feats, labels, norm_exponent=p,
                         known_margin=spec.gamma, exact_margin=False,
                         w_star=w_star)


def gen_infeasible(spec: GenSpec) -> Dataset:
    """Rows at 0/120/240 degrees in a random 2-plane, plus jittered extras;
    the three base directions sum to zero, so no classifier attains a
    positive margin."""
    if spec.mode is not GenMode.INFEASIBLE:
        raise ValueError("gen_infeasible requires the infeasible mode")
    rng = np.random.default_rng(spec.seed)
    basis, _ = np.linalg.qr(rng.standard_normal((spec.d, 2)))
    u, v = basis[:, 0], basis[:, 1]
    angles = [0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0]
    rows = []
    for k in range(spec.n):
        theta = angles[k % 3]
        if k >= 3:
            theta += rng.uniform(-0.3, 0.3)
        rows.append(math.cos(theta) * u + math.sin(theta) * v)
    feats = np.array(rows)
    labels = np.ones(spec.n)
    return build_dataset(feats, labels, norm_exponent=2.0)


def generate(spec: GenSpec) -> Dataset:
    if spec.mode is GenMode.INFEASIBLE:
        return gen_infeasible(spec)
    return gen_separable(spec)
