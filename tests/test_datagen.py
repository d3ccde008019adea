import math

import numpy as np
import pytest

from nrp import datagen
from nrp.core import margin
from nrp.datagen import (GenMode, GenSpec, _draw_candidates, _sign_bits,
                         _unit_pnorm_rows, gen_infeasible, gen_separable,
                         generate)
from nrp.errors import BadParameter, RejectionBudget


def sweep_max_margin(dataset, basis=None, steps=3600):
    """Max over unit directions (within a 2-plane) of the dataset margin."""
    if basis is None:
        basis = np.eye(dataset.d)[:2]
    angles = np.linspace(0.0, 2.0 * math.pi, steps, endpoint=False)
    best = -np.inf
    for theta in angles:
        w = math.cos(theta) * basis[0] + math.sin(theta) * basis[1]
        best = max(best, margin(dataset, w))
    return best


def test_spec_validation():
    with pytest.raises(ValueError):
        GenSpec(n=0, d=2, gamma=0.3)
    with pytest.raises(ValueError):
        GenSpec(n=4, d=2, gamma=1.5)
    with pytest.raises(ValueError):
        GenSpec(n=4, d=1, gamma=0.3, mode=GenMode.EXACT_MARGIN)
    with pytest.raises(ValueError):
        GenSpec(n=4, d=2, gamma=0.3, norm_exponent=1.5)
    for mode in (GenMode.EXACT_MARGIN, GenMode.INFEASIBLE):
        with pytest.raises(BadParameter, match=f"{mode.value} mode is Euclidean"):
            GenSpec(n=4, d=2, gamma=0.3, norm_exponent=3.0, mode=mode)


def test_determinism_bit_identical():
    for mode in GenMode:
        s = GenSpec(n=10, d=4, gamma=0.3, mode=mode, seed=5)
        a = generate(s)
        b = generate(s)
        assert np.array_equal(a.matrix, b.matrix)


def test_seeds_differ():
    a = generate(GenSpec(n=10, d=4, gamma=0.3, seed=0))
    b = generate(GenSpec(n=10, d=4, gamma=0.3, seed=1))
    assert not np.array_equal(a.matrix, b.matrix)


def test_separable_certificate_and_norms():
    for p in (2.0, 4.0):
        for seed in range(5):
            ds = generate(GenSpec(n=20, d=5, gamma=0.25, norm_exponent=p,
                                  seed=seed))
            assert margin(ds, ds.w_star) >= 0.25 - 1e-12
            assert np.all(np.linalg.norm(ds.matrix, ord=p, axis=1) <= 1 + 1e-12)
            q = p / (p - 1.0)
            assert np.linalg.norm(ds.w_star, ord=q) <= 1 + 1e-12


def test_exact_margin_two_point_construction():
    ds = generate(GenSpec(n=2, d=2, gamma=0.5, mode=GenMode.EXACT_MARGIN,
                          seed=0))
    beta = math.sqrt(0.75)
    assert np.allclose(ds.matrix, [[0.5, beta], [0.5, -beta]])
    assert margin(ds, np.array([1.0, 0.0])) == pytest.approx(0.5)
    assert sweep_max_margin(ds) <= 0.5 + 1e-6


def test_exact_margin_sweep_finds_nothing_better():
    for seed in range(5):
        ds = generate(GenSpec(n=12, d=2, gamma=0.3,
                              mode=GenMode.EXACT_MARGIN, seed=seed))
        assert margin(ds, ds.w_star) == pytest.approx(0.3, abs=1e-12)
        assert ds.exact_margin
        assert sweep_max_margin(ds) <= 0.3 + 1e-6


def exact_margin_reference(spec):
    """The exact-margin construction with a np.linalg.norm call per row:
    the generator must keep its random stream and bits."""
    rng = np.random.default_rng(spec.seed)
    gamma = spec.gamma
    beta = math.sqrt(1.0 - gamma * gamma)
    feats = np.zeros((spec.n, spec.d))
    feats[0, :2] = (gamma, beta)
    feats[1, :2] = (gamma, -beta)
    for i in range(2, spec.n):
        c = gamma + (1.0 - gamma) * rng.uniform(0.1, 0.9)
        rest = rng.standard_normal(spec.d - 1)
        rest *= rng.uniform(0.2, 0.95) * math.sqrt(1.0 - c * c) / np.linalg.norm(rest)
        feats[i, 0] = c
        feats[i, 1:] = rest
    return feats


@pytest.mark.parametrize("n,d", [(2, 2), (16, 2), (64, 8), (300, 50), (2000, 50)])
def test_exact_margin_rows_match_reference(n, d):
    for seed in range(50):
        spec = GenSpec(n=n, d=d, gamma=0.1 + 0.01 * seed, mode=GenMode.EXACT_MARGIN,
                       seed=seed)
        assert generate(spec).matrix.tobytes() == exact_margin_reference(spec).tobytes()


def lower_bound_reference(spec):
    """The lower-bound sampler with rng.choice, np.linalg.norm and
    rng.uniform calls per candidate: the generator must keep its random
    stream and bits."""
    def direction(rng, d, p):
        g = rng.gamma(1.0 / p, 1.0, size=d) ** (1.0 / p)
        v = rng.choice([-1.0, 1.0], size=d) * g
        return v / np.linalg.norm(v, ord=p)

    rng = np.random.default_rng(spec.seed)
    p = spec.norm_exponent
    w_star = direction(rng, spec.d, p / (p - 1.0))
    feats, labels = np.empty((spec.n, spec.d)), np.empty(spec.n)
    budget, accepted = 10000 * spec.n, 0
    while accepted < spec.n:
        if budget <= 0:
            raise RejectionBudget("budget spent")
        budget -= 1
        x = direction(rng, spec.d, p) * rng.uniform() ** (1.0 / spec.d)
        proj = float(w_star @ x)
        if abs(proj) < spec.gamma:
            continue
        feats[accepted] = x
        labels[accepted] = 1.0 if proj > 0 else -1.0
        accepted += 1
    return labels[:, None] * feats, labels.astype(np.int64), w_star


# the last five shapes need more candidates than one block holds; at an odd
# d, as in the last three, a sign draw's kept half word carries from
# candidate to candidate and from block to block
@pytest.mark.parametrize("n,d,gamma,p", [(3, 1, 0.2, 2.0), (6, 1, 0.1, 5.5),
                                         (10, 2, 0.05, 2.0), (12, 5, 0.1, 3.0),
                                         (20, 7, 0.02, 5.5), (8, 40, 0.05, 3.0),
                                         (700, 30, 0.1, 3.0), (1000, 40, 0.05, 2.0),
                                         (500, 41, 0.1, 3.0), (300, 3, 0.3, 4.0),
                                         (400, 1, 0.5, 2.0)])
def test_lower_bound_rows_match_reference(n, d, gamma, p):
    for seed in range(50):
        spec = GenSpec(n=n, d=d, gamma=gamma, norm_exponent=p, seed=seed)
        ds = generate(spec)
        matrix, labels, w_star = lower_bound_reference(spec)
        assert ds.matrix.tobytes() == matrix.tobytes()
        assert ds.labels.tobytes() == labels.tobytes()
        assert ds.w_star.tobytes() == w_star.tobytes()


def test_exact_margin_rejects_non_euclidean():
    with pytest.raises(ValueError):
        gen_separable(GenSpec(n=4, d=3, gamma=0.3, norm_exponent=4.0,
                              mode=GenMode.EXACT_MARGIN))


def test_lower_bound_single_point():
    ds = generate(GenSpec(n=1, d=3, gamma=0.2, seed=3))
    row = ds.matrix[0]
    assert margin(ds, row / np.linalg.norm(row)) == pytest.approx(
        np.linalg.norm(row))


def test_rejection_budget_error(monkeypatch):
    # the old sampler spends its budget on these specs too.  At n = 3 seed 1
    # accepts one row, so later blocks hold 2 candidates and the budget's
    # last candidate is a block of 1: the budget runs out inside a block
    draws = []
    helper = datagen._uniform_pnorm_ball
    monkeypatch.setattr(datagen, "_uniform_pnorm_ball",
                        lambda *args: draws.append(1) or helper(*args))
    for spec in (GenSpec(n=4, d=2, gamma=0.999999, seed=0),
                 GenSpec(n=3, d=1, gamma=0.9999, seed=1)):
        draws.clear()
        with pytest.raises(RejectionBudget):
            gen_separable(spec)
        assert len(draws) == 10000 * spec.n
        with pytest.raises(RejectionBudget):
            lower_bound_reference(spec)


def test_norm_underflow_matches_reference():
    # at p = 1000 a direction's p-norm can underflow to 0; seed 0 accepts a
    # row and then draws such a direction in the same block.  The reference
    # divides by the 0, a RuntimeWarning and so an error in this suite
    outcomes = set()
    for seed in range(12):
        spec = GenSpec(n=5, d=2, gamma=0.01, norm_exponent=1000.0, seed=seed)
        try:
            matrix = lower_bound_reference(spec)[0]
        except RuntimeWarning:
            with pytest.raises(BadParameter, match="underflows"):
                generate(spec)
            outcomes.add("underflow")
        else:
            assert generate(spec).matrix.tobytes() == matrix.tobytes()
            outcomes.add("rows")
    assert outcomes == {"underflow", "rows"}


def test_infeasible_canonical_triangle_sweep():
    ds = generate(GenSpec(n=3, d=2, gamma=0.3, mode=GenMode.INFEASIBLE, seed=2))
    assert abs(np.ones(3) / 3 @ ds.matrix).max() <= 1e-12
    assert sweep_max_margin(ds) <= 1e-9


def test_infeasible_embedded_plane_sweep():
    ds = generate(GenSpec(n=30, d=6, gamma=0.3, mode=GenMode.INFEASIBLE,
                          seed=7))
    # rows live in a 2-plane; recover it from the first two rows
    u = ds.matrix[0] / np.linalg.norm(ds.matrix[0])
    v = ds.matrix[1] - (ds.matrix[1] @ u) * u
    v /= np.linalg.norm(v)
    assert sweep_max_margin(ds, basis=np.stack([u, v])) <= 1e-9


def test_infeasible_mode_dispatch():
    with pytest.raises(ValueError):
        gen_infeasible(GenSpec(n=4, d=2, gamma=0.3))


def test_pnorm_sampling_helpers():
    # the helpers only draw candidates; the rows map turns draws into points
    rng = np.random.default_rng(0)
    for p in (2.0, 4.0, 8.0):
        gammas = np.empty((50, 5))
        signs, radii, _ = _draw_candidates(rng, p, gammas, np.empty(0, dtype=np.uint64))
        assert np.all(gammas >= 0.0) and np.all((signs == 0) | (signs == 1))
        assert np.all((0.0 <= radii) & (radii < 1.0))
        u = _unit_pnorm_rows(gammas, signs, p)
        assert np.linalg.norm(u, ord=p, axis=1) == pytest.approx(np.ones(50))
        x = u * radii[:, None] ** (1.0 / 5)
        assert np.all(np.linalg.norm(x, ord=p, axis=1) <= 1.0 + 1e-12)


@pytest.mark.parametrize("d", [1, 2, 3, 6, 7])
def test_sign_bits_match_integers_calls(d):
    # one call rng.integers(0, 2, size=d), then two, then a 32-bit draw,
    # which takes the half word the sign draws keep, if they keep one
    for seed in range(20):
        rng = np.random.default_rng(seed)
        first = rng.integers(0, 2, size=d)
        rest = np.array([rng.integers(0, 2, size=d) for _ in range(2)])
        after = int(rng.integers(0, 2**32, dtype=np.uint32))
        raw = np.random.default_rng(seed).bit_generator
        bits, carry = _sign_bits(raw.random_raw((d + 1) // 2),
                                 np.empty(0, dtype=np.uint64), 1, d)
        assert bits[0].tolist() == first.tolist()
        bits, carry = _sign_bits(raw.random_raw((2 * d - carry.size + 1) // 2), carry, 2, d)
        assert bits.tolist() == rest.tolist()
        assert carry.size == (3 * d) % 2
        if carry.size:
            assert carry.tolist() == [after >> 31]
        else:
            assert after == int(raw.random_raw(1)[0]) & 0xFFFFFFFF
