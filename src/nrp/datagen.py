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
        if self.mode is GenMode.EXACT_MARGIN and self.n < 2:
            # the construction's symmetric pair of rows
            raise BadParameter("exact mode needs n >= 2")
        if self.mode is not GenMode.LOWER_BOUND and self.norm_exponent != 2.0:
            # both constructions place their rows by Euclidean geometry
            raise BadParameter(f"{self.mode.value} mode is Euclidean only (p = 2)")


# the lower-bound sampler draws its candidates in blocks of at most this many
# Gamma draws, 64 KiB of float64, and at least one candidate, so a block's
# buffers stay small at any d
SAMPLER_BLOCK_DRAWS = 8192


def _data_matrix(spec: GenSpec) -> np.ndarray:
    """The zeroed n x d matrix a generator fills, allocated before any draw."""
    try:
        return np.zeros((spec.n, spec.d))
    except (ValueError, MemoryError):
        # numpy refuses a size past its index range or past the memory
        raise BadParameter(f"n x d = {spec.n} x {spec.d} is too large: the data "
                           "matrix cannot be allocated") from None


def _unit_pnorm_rows(gammas: np.ndarray, signs: np.ndarray, p: float) -> np.ndarray:
    """Directions on the unit p-norm sphere (generalized-normal trick), one
    per row of Gamma(1/p) draws ``gammas`` and 0/1 sign draws ``signs``.

    Each row has the bits of ``rng.choice([-1.0, 1.0], size=d) * g`` over
    its ``np.linalg.norm(v, ord=p)`` on the same draws: choice maps its
    indices to signs as here, norm takes these steps for one row,
    ``np.vecdot`` makes the BLAS dot of ``v.dot(v)``, and the p-th root
    stays a scalar power, which an array power may round differently.
    """
    v = (signs * 2.0 - 1.0) * gammas ** (1.0 / p)
    if p == 2.0:
        norms = np.sqrt(np.vecdot(v, v))
    else:
        powers = abs(v)
        powers **= p
        norms = np.array([s ** (1.0 / p) for s in np.add.reduce(powers, axis=1).tolist()])
    # at a large p a Gamma(1/p) draw underflows to 0, and so can the norm
    if not np.all(norms > 0.0):
        raise BadParameter(f"norm exponent p = {p} is too large to sample: a "
                           "random direction's p-norm underflows to 0")
    v /= norms[:, None]
    return v


def _uniform_pnorm_ball(rng: np.random.Generator, p: float, gammas: np.ndarray,
                        words: int) -> np.ndarray:
    """Draw one candidate of the p-norm ball sampler: its Gamma(1/p) draws
    into ``gammas``, then ``words`` raw generator words, which it returns:
    the words of its sign draws and, last, its radius word.
    ``rng.standard_gamma(a)`` is ``rng.gamma(a, 1.0)``, with the same stream
    and bits, and reads no half word that a sign draw keeps."""
    rng.standard_gamma(1.0 / p, out=gammas)
    return rng.bit_generator.random_raw(words)


def _sign_bits(words: np.ndarray, carry: np.ndarray, k: int, d: int):
    """The k x d 0/1 draws of k calls ``rng.integers(0, 2, size=d)``, made
    from their raw generator words, and the half word left over.

    ``integers(0, 2)`` is the top bit of one 32-bit half from PCG64's
    ``next_uint32``, which for a range of 2 never rejects.  That call hands
    out a fresh word's low half and keeps its high half for the next call,
    a later ``integers`` call's too: ``carry`` holds the kept half's bit
    (size 0 or 1), and ``carry.size + 2 * words.size`` is k d, or k d + 1
    when a half is kept after them.
    """
    bits = np.empty(carry.size + 2 * words.size, dtype=np.uint64)
    bits[:carry.size] = carry
    bits[carry.size::2] = (words >> 31) & 1
    bits[carry.size + 1::2] = words >> 63
    return bits[:k * d].reshape(k, d), bits[k * d:]


def _draw_candidates(rng: np.random.Generator, p: float, gammas: np.ndarray,
                     carry: np.ndarray):
    """Draw one candidate per row of ``gammas``, in stream order, and return
    their 0/1 sign draws, their radius uniforms and the half word kept after
    them (see `_sign_bits`).

    A candidate's raw words are the sign words that the kept half leaves to
    draw, then its radius word; ``rng.random()`` is ``(word >> 11) * 2**-53``.
    """
    k, d = gammas.shape
    # a candidate's word count, by the size of the half kept before it
    words = ((d + 1) // 2 + 1, d // 2 + 1)
    counts = [words[(carry.size + j * d) % 2] for j in range(k)]
    drawn = np.concatenate([_uniform_pnorm_ball(rng, p, gammas[j], counts[j])
                            for j in range(k)])
    radius = np.zeros(drawn.size, dtype=bool)
    radius[np.cumsum(counts) - 1] = True
    signs, carry = _sign_bits(drawn[~radius], carry, k, d)
    return signs, (drawn[radius] >> 11) * 2.0 ** -53, carry


def gen_separable(spec: GenSpec) -> Dataset:
    """Separable instance; deterministic in the seed.

    LOWER_BOUND: rejection-sample points in the p-norm unit ball keeping
    only those at distance >= gamma from a random dual-unit hyperplane, so
    gamma is a certified lower bound on the true margin.

    EXACT_MARGIN (l2 only): a symmetric pair (gamma, +-beta) with
    beta = sqrt(1 - gamma^2) caps the maximal margin at exactly gamma,
    attained at the first basis vector; fillers project strictly further
    onto that axis and cannot move the optimum.

    A seed's stream is fixed by the order of its generator calls alone, so
    each loop makes only the calls, row by row, and the arithmetic runs over
    the drawn rows at once with each row's bits.
    """
    feats = _data_matrix(spec)
    rng = np.random.default_rng(spec.seed)
    if spec.mode is GenMode.EXACT_MARGIN:
        gamma = spec.gamma
        beta = math.sqrt(1.0 - gamma * gamma)
        feats[0, :2] = (gamma, beta)
        feats[1, :2] = (gamma, -beta)
        rest = feats[2:, 1:]
        heights, lengths = np.empty(spec.n - 2), np.empty(spec.n - 2)
        for i in range(spec.n - 2):
            heights[i] = rng.random()
            rng.standard_normal(out=rest[i])
            lengths[i] = rng.random()
        # rng.uniform(lo, hi) is lo + (hi - lo) * rng.random(), and
        # np.linalg.norm of a row is sqrt(row . row): a row's bits are those
        # of the calls
        c = gamma + (1.0 - gamma) * (0.1 + (0.9 - 0.1) * heights)
        rest *= ((0.2 + (0.95 - 0.2) * lengths) * np.sqrt(1.0 - c * c)
                 / np.sqrt(np.vecdot(rest, rest)))[:, None]
        feats[2:, 0] = c
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
    gammas = rng.standard_gamma(1.0 / q, size=(1, spec.d))
    # w_star's sign draws come first, so the half they keep is the first carry
    signs, carry = _sign_bits(rng.bit_generator.random_raw((spec.d + 1) // 2),
                              np.empty(0, dtype=np.uint64), 1, spec.d)
    w_star = _unit_pnorm_rows(gammas, signs, q)[0]
    labels = np.empty(spec.n)
    block = min(spec.n, max(1, SAMPLER_BLOCK_DRAWS // spec.d))
    gammas = np.empty((block, spec.d))
    budget = 10000 * spec.n
    accepted = 0
    while accepted < spec.n:
        if budget <= 0:
            raise RejectionBudget(f"could not place {spec.n} points at margin {spec.gamma}")
        # at most n - accepted of the k candidates can be accepted, so the
        # one-at-a-time sampler draws each of them too, within its budget
        k = min(spec.n - accepted, budget, block)
        budget -= k
        signs, radii, carry = _draw_candidates(rng, p, gammas[:k], carry)
        x = _unit_pnorm_rows(gammas[:k], signs, p)
        # the radius root stays a scalar power, as the p-th root does
        x *= np.array([u ** (1.0 / spec.d) for u in radii.tolist()])[:, None]
        proj = np.vecdot(x, w_star)
        keep = ~(abs(proj) < spec.gamma)
        taken = int(np.count_nonzero(keep))
        feats[accepted:accepted + taken] = x[keep]
        labels[accepted:accepted + taken] = np.where(proj[keep] > 0, 1.0, -1.0)
        accepted += taken
    return build_dataset(feats, labels, norm_exponent=p,
                         known_margin=spec.gamma, exact_margin=False,
                         w_star=w_star)


def gen_infeasible(spec: GenSpec) -> Dataset:
    """Rows at 0/120/240 degrees in a random 2-plane, plus jittered extras;
    the three base directions sum to zero, so no classifier attains a
    positive margin."""
    if spec.mode is not GenMode.INFEASIBLE:
        raise ValueError("gen_infeasible requires the infeasible mode")
    feats = _data_matrix(spec)
    rng = np.random.default_rng(spec.seed)
    basis, _ = np.linalg.qr(rng.standard_normal((spec.d, 2)))
    u, v = basis[:, 0], basis[:, 1]
    angles = [0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0]
    for k in range(spec.n):
        theta = angles[k % 3]
        if k >= 3:
            theta += rng.uniform(-0.3, 0.3)
        feats[k] = math.cos(theta) * u + math.sin(theta) * v
    labels = np.ones(spec.n)
    return build_dataset(feats, labels, norm_exponent=2.0)


def generate(spec: GenSpec) -> Dataset:
    if spec.mode is GenMode.INFEASIBLE:
        return gen_infeasible(spec)
    return gen_separable(spec)
