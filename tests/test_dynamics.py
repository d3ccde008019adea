import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nrp.core import GameObjective, best_response_value, margin
from nrp.datagen import GenMode, GenSpec, generate
from nrp.dynamics import (DynamicsConfig, gap_bound_check, run_dynamics,
                          run_dynamics_batch)
from nrp.errors import BadParameter, IncompatibleConfig
from nrp.learners import (FtrlPlusEntropy, OftlPrevLoss, OftrlEntropyPrev,
                          OmdBall, regret_p_from_arrays, regret_w_from_arrays,
                          weighted_regret_p, weighted_regret_w)
from nrp.algorithms import mpfp_config, nag_config, pnorm_config, smooth_config
from conftest import count_matvecs, exact_margin_dataset, random_dataset


def test_horizon_validation():
    with pytest.raises(ValueError):
        smooth_config(0)


def test_incompatible_pairs_rejected():
    for w_learner, p_learner in ((OftlPrevLoss(), OftrlEntropyPrev(eta=0.25)),
                                 (OmdBall(eta=1.0), FtrlPlusEntropy(eta=0.25)),
                                 (FtrlPlusEntropy(eta=0.25), FtrlPlusEntropy(eta=0.25))):
        with pytest.raises(IncompatibleConfig):
            DynamicsConfig(w_learner=w_learner, p_learner=p_learner, horizon=5)


def test_pair_fixes_the_game():
    assert [f.name for f in dataclasses.fields(DynamicsConfig)] == [
        "w_learner", "p_learner", "horizon", "record_full_trace"]
    assert smooth_config(3).objective is GameObjective.L2_REGULARIZED
    assert nag_config(3).objective is GameObjective.L2_REGULARIZED
    assert mpfp_config(4, 3).objective is GameObjective.BILINEAR
    assert pnorm_config(4, 3, 3.0).objective is GameObjective.BILINEAR


def test_w_first_initial_play_is_row_mean(rng):
    ds = random_dataset(rng, 6, 3)
    trace = run_dynamics(smooth_config(1), ds)
    assert np.allclose(trace.ws[0], ds.matrix.sum(axis=0) / 6, atol=1e-15)
    assert np.allclose(trace.w_bar, trace.ws[0])


def test_p_first_initial_play_is_uniform(rng):
    ds = random_dataset(rng, 6, 3)
    trace = run_dynamics(nag_config(1), ds)
    assert np.allclose(trace.ps[0], 1.0 / 6, atol=1e-15)


def test_determinism_bit_identical(rng):
    ds = random_dataset(rng, 8, 4)
    for config in (smooth_config(20), nag_config(20), mpfp_config(8, 20),
                   pnorm_config(8, 20, 4.0)):
        t1 = run_dynamics(config, ds)
        t2 = run_dynamics(config, ds)
        assert np.array_equal(t1.ws, t2.ws)
        assert np.array_equal(t1.ps, t2.ps)
        assert t1.regret_w == t2.regret_w and t1.regret_p == t2.regret_p


def weighted_average(trace):
    """Post-hoc weighted average of the recorded iterates: the reference for
    the engine's running w_bar."""
    return trace.alphas @ trace.ws / trace.alphas.sum()


def test_weighted_average_examples():
    ws = np.array([[1.0, 0.0], [2.0, 0.0]])

    class FakeTrace:
        alphas = np.array([1.0, 2.0])
        w_bar = None
    ft = FakeTrace()
    ft.ws = ws
    assert np.allclose(weighted_average(ft), [5.0 / 3.0, 0.0])
    ft.ws = np.tile([3.0, 1.0], (2, 1))
    assert np.allclose(weighted_average(ft), [3.0, 1.0])


def test_incremental_average_matches_posthoc(rng):
    ds = random_dataset(rng, 8, 4)
    for config in (smooth_config(30), nag_config(30), mpfp_config(8, 30)):
        trace = run_dynamics(config, ds)
        post = weighted_average(trace)
        scale = max(1.0, float(np.max(np.abs(post))))
        assert np.max(np.abs(trace.w_bar - post)) <= 1e-12 * scale


def test_running_regrets_match_closed_forms(rng):
    ds = random_dataset(rng, 7, 4)
    for config in (smooth_config(25), nag_config(25), mpfp_config(7, 25),
                   pnorm_config(7, 25, 4.0)):
        trace = run_dynamics(config, ds)
        rw = weighted_regret_w(trace, ds)
        rp = weighted_regret_p(trace, ds)
        assert trace.regret_w == pytest.approx(rw, abs=1e-9)
        assert trace.regret_p == pytest.approx(rp, abs=1e-9)


def test_running_regrets_match_oracle_every_round(rng):
    # scaled by sum(alpha), not by the regret itself: nag's w-regret
    # crosses zero
    T = 30
    for _ in range(20):
        n, d = int(rng.integers(2, 40)), int(rng.integers(1, 8))
        ds = random_dataset(rng, n, d)
        a = ds.matrix
        for config in (smooth_config(T), nag_config(T), mpfp_config(n, T),
                       pnorm_config(n, T, 4.0)):
            trace = run_dynamics(config, ds)
            for t in range(1, T + 1):
                alphas, ws, ps = trace.alphas[:t], trace.ws[:t], trace.ps[:t]
                rw = regret_w_from_arrays(a, alphas, ws, ps,
                                          config.w_learner.ball_norm)
                rp = regret_p_from_arrays(a, alphas, ws, ps)
                bound = 1e-12 * float(alphas.sum())
                assert abs(trace.regret_w_running[t - 1] - rw) <= bound
                assert abs(trace.regret_p_running[t - 1] - rp) <= bound


@pytest.mark.parametrize("p", [2.0, 3.0])
@settings(deadline=None)
@given(n=st.integers(2, 12), d=st.integers(1, 5), gamma=st.floats(0.05, 0.4),
       seed=st.integers(0, 2**16), horizon=st.integers(1, 20))
def test_running_regrets_match_oracle_on_drawn_data(p, n, d, gamma, seed, horizon):
    # separable data with rows in the unit p-norm ball; pnorm plays the
    # q-norm game of that p
    ds = generate(GenSpec(n=n, d=d, gamma=gamma, norm_exponent=p,
                          mode=GenMode.LOWER_BOUND, seed=seed))
    a = ds.matrix
    for config in (smooth_config(horizon), nag_config(horizon),
                   mpfp_config(n, horizon), pnorm_config(n, horizon, p)):
        trace = run_dynamics(config, ds)
        for t in range(1, horizon + 1):
            alphas, ws, ps = trace.alphas[:t], trace.ws[:t], trace.ps[:t]
            rw = regret_w_from_arrays(a, alphas, ws, ps, config.w_learner.ball_norm)
            rp = regret_p_from_arrays(a, alphas, ws, ps)
            bound = 1e-12 * float(alphas.sum())
            assert abs(trace.regret_w_running[t - 1] - rw) <= bound
            assert abs(trace.regret_p_running[t - 1] - rp) <= bound


@pytest.mark.parametrize("name,per_round", [("smooth", 2), ("nag", 2),
                                            ("mpfp", 4), ("pnorm", 2)])
def test_engine_matvecs_per_round(rng, name, per_round):
    # one A'p and one A w per round, one more for each secondary iterate an
    # OMD player shows, and A'(1/n) once for the first hint of a w-player
    # that moves first (all but nag); no hint is formed after the last
    # round, which saves mpfp the A' of its last secondary iterate
    n, T = 30, 25
    ds = random_dataset(rng, n, 5)
    config = {"smooth": smooth_config(T), "nag": nag_config(T),
              "mpfp": mpfp_config(n, T), "pnorm": pnorm_config(n, T, 2.0)}[name]
    once = {"smooth": 1, "nag": 0, "mpfp": 0, "pnorm": 1}[name]
    counter = count_matvecs(ds)
    run_dynamics(config, ds)
    assert counter[0] == per_round * T + once


@pytest.mark.parametrize("name", ["smooth", "nag", "mpfp", "pnorm2", "pnorm3"])
def test_batch_instances_match_single_runs(name):
    # mixed margins and seeds; lower-bound data, the only mode with p = 3 rows
    n, d, T = 40, 6, 30
    p_exp = 3.0 if name == "pnorm3" else 2.0
    datasets = [generate(GenSpec(n=n, d=d, gamma=gamma, norm_exponent=p_exp,
                                 mode=GenMode.LOWER_BOUND, seed=seed))
                for gamma, seed in ((0.2, 0), (0.35, 1), (0.2, 5), (0.1, 2))]
    config = {"smooth": smooth_config(T), "nag": nag_config(T),
              "mpfp": mpfp_config(n, T),
              "pnorm2": pnorm_config(n, T, 2.0),
              "pnorm3": pnorm_config(n, T, 3.0)}[name]
    batch = run_dynamics_batch(config, datasets)
    assert len(batch) == len(datasets)
    for ds, got in zip(datasets, batch):
        want = run_dynamics(config, ds)
        for field in dataclasses.fields(want):
            x, y = getattr(got, field.name), getattr(want, field.name)
            if isinstance(y, np.ndarray):
                assert np.array_equal(x, y, equal_nan=True), field.name
            else:
                assert x == y or (x != x and y != y), field.name


def test_batch_rejects_mixed_shapes(rng):
    with pytest.raises(BadParameter):
        run_dynamics_batch(smooth_config(5), [random_dataset(rng, 6, 3),
                                              random_dataset(rng, 7, 3)])
    with pytest.raises(BadParameter):
        run_dynamics_batch(smooth_config(5), [])


def test_margin_avg_is_margin_of_running_average(rng):
    T = 30
    for _ in range(5):
        n, d = int(rng.integers(2, 40)), int(rng.integers(1, 8))
        ds = random_dataset(rng, n, d)
        for config in (smooth_config(T), nag_config(T), mpfp_config(n, T),
                       pnorm_config(n, T, 4.0)):
            trace = run_dynamics(config, ds)
            cum_alpha = np.cumsum(trace.alphas)
            w_bars = np.cumsum(trace.alphas[:, None] * trace.ws, axis=0)
            w_bars /= cum_alpha[:, None]
            for t in range(T):
                expect = margin(ds, w_bars[t])
                bound = 1e-12 * max(1.0, float(np.linalg.norm(w_bars[t])))
                assert abs(trace.margin_avg[t] - expect) <= bound


def test_gap_bound_random_comparators(rng):
    ds = random_dataset(rng, 8, 4)
    for config in (smooth_config(30), nag_config(30), mpfp_config(8, 30)):
        trace = run_dynamics(config, ds)
        ball = config.objective is GameObjective.BILINEAR
        for _ in range(100):
            w = rng.standard_normal(4)
            if ball:
                w /= max(1.0, float(np.linalg.norm(w)))
            lhs, rhs, ok = gap_bound_check(trace, ds, w)
            assert ok, (lhs, rhs)


def test_gap_bound_self_comparator(rng):
    ds = random_dataset(rng, 6, 3)
    trace = run_dynamics(smooth_config(15), ds)
    lhs, rhs, ok = gap_bound_check(trace, ds, trace.w_bar)
    assert lhs == 0.0 and ok


def test_gap_bound_scaled_certificate():
    ds = exact_margin_dataset(16, 4, 0.3, seed=2)
    T = 40
    trace = run_dynamics(smooth_config(T), ds)
    comparator = ds.known_margin * ds.w_star
    lhs, rhs, ok = gap_bound_check(trace, ds, comparator)
    assert ok
    assert lhs <= 8.0 * math.log(ds.n) / (T * (T + 1)) + 1e-9


def test_entropy_regret_split(rng):
    # ridge-game traces: R^w within the stability budget, R^p within what
    # remains of the 4 log n entropy budget
    for seed in range(5):
        ds = exact_margin_dataset(12, 5, 0.25, seed=seed)
        for config in (smooth_config(40), nag_config(40)):
            trace = run_dynamics(config, ds)
            s = trace.sum_sq_l1_delta
            assert trace.regret_w <= 2.0 * s + 1e-9
            assert trace.regret_p <= 4.0 * math.log(ds.n) - 2.0 * s + 1e-9


def test_trace_csv_quantities_finite(rng):
    ds = random_dataset(rng, 6, 3)
    trace = run_dynamics(smooth_config(10), ds)
    assert np.all(np.isfinite(trace.margin_avg))
    assert np.all(np.isfinite(trace.l1_delta_p))
    assert np.all(np.isfinite(trace.gap_bound_running))
    assert trace.alphas.tolist() == list(range(1, 11))


def test_uniform_schedule_alphas(rng):
    ds = random_dataset(rng, 6, 3)
    trace = run_dynamics(mpfp_config(6, 7), ds)
    assert np.array_equal(trace.alphas, np.ones(7))


def test_light_trace_matches_full(rng):
    ds = random_dataset(rng, 6, 3)
    full = run_dynamics(smooth_config(20), ds)
    light = run_dynamics(smooth_config(20, record_full_trace=False), ds)
    assert light.ws is None and light.ps is None
    assert np.array_equal(light.w_bar, full.w_bar)
    assert light.regret_w == full.regret_w
    assert light.regret_p == full.regret_p


def test_best_response_consistency(rng):
    ds = random_dataset(rng, 6, 3)
    trace = run_dynamics(smooth_config(12), ds)
    m = best_response_value(GameObjective.L2_REGULARIZED, ds, trace.w_bar)
    assert np.isfinite(m)
