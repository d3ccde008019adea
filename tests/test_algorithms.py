import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nrp import algorithms as alg
from nrp.core import Dataset, margin
from nrp.datagen import GenMode, GenSpec, generate
from nrp.dynamics import run_dynamics
from nrp.learners import softmax_neg
from conftest import (count_matvecs, empirical_risk, empirical_risk_grad,
                      exact_margin_dataset, random_dataset)


def rel_linf(x, y):
    scale = max(np.max(np.abs(x)), np.max(np.abs(y)), 1e-10)
    return np.max(np.abs(x - y)) / scale


@pytest.mark.parametrize("form,expected", [
    (alg.smooth_perceptron, lambda T: 1 + 3 * (T - 1)),   # A v_0, then T-1 rounds
    (alg.accel_perceptron_ji, lambda T: 1 + 2 * T),       # A' q_0, then T rounds
    (alg.nag_margin, lambda T: 2 * T),
    (alg.mpfp, lambda T: 4 * T)], ids=["smooth", "ji", "nag", "mpfp"])
def test_standalone_matvecs_per_round(rng, form, expected):
    T = 12
    ds = random_dataset(rng, 9, 4)
    counter = count_matvecs(ds)
    form(ds, T)
    assert counter[0] == expected(T)


# ---------------------------------------------------------------------------
# smooth form

def test_smooth_initialization(rng):
    ds = random_dataset(rng, 6, 3)
    res = alg.smooth_perceptron(ds, 1)
    assert np.allclose(res.v, ds.matrix.sum(axis=0) / 6, atol=1e-15)
    assert np.allclose(res.q, softmax_neg((ds.matrix @ res.v) / 4.0))


def test_smooth_step_size_recurrence_vs_closed_form():
    mu = 4.0
    for t in range(1, 10001):
        mu = (1.0 - 2.0 / (t + 2)) * mu
        closed = 8.0 / ((t + 1) * (t + 2))
        assert abs(mu - closed) <= 1e-14 * closed


def test_smooth_nonneg_margin_at_theory_horizon():
    ds = exact_margin_dataset(16, 4, 0.4, seed=0)
    T = int(math.ceil(4.0 * math.sqrt(math.log(16)) / 0.4))
    res = alg.smooth_perceptron(ds, T)
    assert margin(ds, res.v) >= 0.0


# ---------------------------------------------------------------------------
# momentum form

def test_momentum_first_step(rng):
    ds = random_dataset(rng, 6, 3)
    res = alg.accel_perceptron_ji(ds, 1)
    assert np.allclose(res.vs[0], 0.25 * ds.matrix.sum(axis=0) / 6, atol=1e-15)


def test_momentum_g_identity(rng):
    # g_t = -(1/(t+1)) A' sum_{s<=t} s q_s, by telescoping the update
    ds = random_dataset(rng, 7, 4)
    res = alg.accel_perceptron_ji(ds, 30)
    acc = np.zeros(4)
    for t in range(1, 31):
        acc += t * (ds.matrix.T @ res.qs[t - 1])
        assert rel_linf(res.gs[t - 1], -acc / (t + 1)) <= 1e-12


# ---------------------------------------------------------------------------
# the four equivalence pairs on drawn data

@settings(deadline=None, max_examples=30, derandomize=True)
@given(n=st.integers(2, 300), d=st.integers(2, 30), horizon=st.integers(2, 400),
       gamma=st.floats(0.05, 0.3), exact=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_equivalence_pairs_on_drawn_data(n, d, horizon, gamma, exact, seed):
    # lower-bound rows are drawn with p = 2; T >= 2, since at T = 1 the
    # perturbed step has not yet acted on nag's and mpfp's compared outputs
    mode = GenMode.EXACT_MARGIN if exact else GenMode.LOWER_BOUND
    ds = generate(GenSpec(n=n, d=d, gamma=gamma, mode=mode, seed=seed))
    for which in alg.EquivalencePair:
        report = alg.check_equivalence(which, ds, horizon, tol=1e-8)
        assert report.passed, (which, report.deviations)
        # the negative control needs a step the plays respond to: with n <= 4
        # rows, p can stay uniform (exact mode's mirrored pair at n = 2) or
        # settle on one row, so the perturbed game matches the original too
        if n >= 5:
            perturbed = alg.check_equivalence(which, ds, horizon, tol=1e-8, perturb=1e-3)
            assert not perturbed.passed, (which, perturbed.deviations)


# ---------------------------------------------------------------------------
# accelerated descent on the exponential risk

def test_risk_and_gradient_hand_values():
    ds = Dataset(matrix=np.array([[1.0, 0.0]]))
    v = np.array([2.0, 0.0])
    assert empirical_risk(ds, v) == pytest.approx(math.exp(-2.0))
    assert np.allclose(empirical_risk_grad(ds, v),
                       [-math.exp(-2.0), 0.0])


def test_risk_gradient_vs_central_differences(rng):
    ds = random_dataset(rng, 6, 4)
    for _ in range(10):
        u = rng.standard_normal(4)
        u *= min(1.0, 2.0 / np.linalg.norm(u))
        grad = empirical_risk_grad(ds, u)
        h = 1e-6
        for i in range(4):
            e = np.zeros(4)
            e[i] = h
            fd = (empirical_risk(ds, u + e)
                  - empirical_risk(ds, u - e)) / (2 * h)
            assert abs(fd - grad[i]) <= 1e-6 * max(1.0, abs(grad[i]))


def test_nag_normalized_gradient_identity(rng):
    # t * A' softmax(-A u) equals -eta_t grad R(u) with eta_t = t / R(u)
    ds = random_dataset(rng, 6, 4)
    res = alg.nag_margin(ds, 30)
    for t in range(1, 31):
        u = res.us[t - 1]
        risk = empirical_risk(ds, u)
        direct = -(t / risk) * empirical_risk_grad(ds, u)
        stable = t * (ds.matrix.T @ res.qs[t - 1])
        assert rel_linf(direct, stable) <= 1e-9


def test_nag_first_round(rng):
    ds = random_dataset(rng, 6, 3)
    res = alg.nag_margin(ds, 1)
    assert np.allclose(res.us[0], 0.0, atol=1e-15)
    assert np.allclose(res.vs[0], ds.matrix.sum(axis=0) / 6, atol=1e-15)


# ---------------------------------------------------------------------------
# mirror-prox

def test_infeasibility_antipodal_pair():
    a = np.array([0.7, 0.2])
    ds = Dataset(matrix=np.stack([a, -a]))
    _, cert = alg.infeasibility_certificate(ds, 400)
    assert cert <= 3.0 * math.sqrt(math.log(2)) / (2 * 400) + 1e-9


def test_infeasibility_canonical_triangle():
    ds = generate(GenSpec(n=3, d=2, gamma=0.3, mode=GenMode.INFEASIBLE, seed=0))
    for T in (10, 200):
        _, cert = alg.infeasibility_certificate(ds, T)
        assert cert <= 3.0 * math.sqrt(math.log(3)) / (2 * T) + 1e-9


def test_no_false_infeasibility_on_separable():
    ds = exact_margin_dataset(12, 4, 0.3, seed=4)
    p_bar, cert = alg.infeasibility_certificate(ds, 200)
    trace = run_dynamics(alg.mpfp_config(ds.n, 200), ds)
    w_bar = trace.w_bar
    lower = float(p_bar @ (ds.matrix @ w_bar)) / np.linalg.norm(w_bar)
    assert cert >= lower - 1e-12
    assert cert > 0.1


# ---------------------------------------------------------------------------
# p-norm form

def test_pnorm_reduces_to_euclidean_bound():
    ds = generate(GenSpec(n=16, d=6, gamma=0.25, norm_exponent=2.0,
                          mode=GenMode.LOWER_BOUND, seed=1))
    gcert = margin(ds, ds.w_star)
    T = 150
    w_bar = run_dynamics(alg.pnorm_config(ds.n, T, 2.0), ds).w_bar
    assert margin(ds, w_bar) >= gcert - math.sqrt(2 * math.log(16)) / T - 1e-9


def test_pnorm_positive_margin_past_threshold():
    p = 4.0
    ds = generate(GenSpec(n=16, d=6, gamma=0.25, norm_exponent=p,
                          mode=GenMode.LOWER_BOUND, seed=2))
    gcert = margin(ds, ds.w_star)
    T = int(math.ceil(math.sqrt(2 * (p - 1) * math.log(16)) / gcert)) + 1
    w_bar = run_dynamics(alg.pnorm_config(ds.n, T, p), ds).w_bar
    assert margin(ds, w_bar) >= 0.0


# ---------------------------------------------------------------------------
# vanilla baseline

def test_vanilla_single_point():
    ds = Dataset(matrix=np.array([[1.0, 0.0]]))
    w, updates, exhausted = alg.vanilla_perceptron(ds, 10)
    assert updates == 1 and not exhausted
    assert np.array_equal(w, [1.0, 0.0])


def test_vanilla_budget_flag():
    a = np.array([0.7, 0.2])
    ds = Dataset(matrix=np.stack([a, -a]))   # unseparable: never terminates
    _, updates, exhausted = alg.vanilla_perceptron(ds, 25)
    assert updates == 25 and exhausted


# ---------------------------------------------------------------------------
# equivalence checking

@pytest.mark.parametrize("which", list(alg.EquivalencePair))
def test_equivalence_base_case(which):
    ds = exact_margin_dataset(8, 4, 0.3, seed=1)
    report = alg.check_equivalence(which, ds, 1)
    assert report.passed, report.deviations


@pytest.mark.parametrize("which", list(alg.EquivalencePair))
def test_equivalence_random_instance(which, rng):
    ds = random_dataset(rng, 16, 4)
    report = alg.check_equivalence(which, ds, 50)
    assert report.passed, report.deviations


@pytest.mark.parametrize("which", list(alg.EquivalencePair))
def test_equivalence_negative_control(which):
    ds = exact_margin_dataset(8, 4, 0.3, seed=1)
    report = alg.check_equivalence(which, ds, 30, perturb=1e-3)
    assert not report.passed
