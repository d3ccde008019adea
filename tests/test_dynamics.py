import dataclasses
import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nrp.core import build_dataset, margin
from nrp.datagen import GenMode, GenSpec, generate
from nrp.dynamics import (DynamicsConfig, Trace, _play, best_response_value,
                          gap_bound_check, run_dynamics, run_dynamics_totals)
from nrp import dynamics, learners
from nrp.errors import BadParameter, NonFinite, NonFiniteIterate
from nrp.learners import (DualAveragingW, Oftl, OftrlEntropy, OftrlQNorm, OmdBall,
                          OmdEntropy, regret_p_from_arrays, regret_w_from_arrays,
                          weighted_regret_p, weighted_regret_w)
from nrp.algorithms import (EquivalencePair, check_equivalence, infeasibility_certificate,
                            mpfp_config, nag_config, pnorm_config, smooth_config)
from conftest import (count_matvecs, exact_margin_dataset, nan_dual_map_from,
                      random_dataset, softmax_failing_at)


def test_horizon_validation(rng):
    with pytest.raises(ValueError):
        smooth_config(0)
    # a horizon is an integer >= 1, a Python or numpy one but not a bool
    ds = random_dataset(rng, 6, 3)
    for horizon in (2.5, "3", True):
        with pytest.raises(BadParameter, match="horizon"):
            run_dynamics(dataclasses.replace(smooth_config(3), horizon=horizon), ds)
        with pytest.raises(BadParameter, match="horizon"):
            check_equivalence(EquivalencePair.PROP1, ds, horizon)
    trace = run_dynamics(smooth_config(np.int64(3)), ds)
    assert trace.ws.shape == (3, 3)


def test_incompatible_pairs_rejected():
    # a learner in the wrong role: a simplex learner as the w-player, an
    # R^d one as the p-player
    for w_learner, p_learner in ((OftrlEntropy(eta=0.25), OftrlEntropy(eta=0.25)),
                                 (Oftl(), Oftl())):
        with pytest.raises(BadParameter, match="unsupported learner pair"):
            DynamicsConfig(w_learner=w_learner, p_learner=p_learner, horizon=5)


def test_pair_fixes_the_game(rng):
    assert [f.name for f in dataclasses.fields(DynamicsConfig)] == [
        "w_learner", "p_learner", "horizon", "record_full_trace", "p_first"]
    # nag plays the smooth Perceptron's learners with the p-player first
    assert nag_config(3) == dataclasses.replace(smooth_config(3), p_first=True)
    # the ridge games over R^d weigh round t by t, the ball games by 1
    ds = random_dataset(rng, 4, 3)
    for config, alphas in ((smooth_config(3), [1.0, 2.0, 3.0]),
                           (nag_config(3), [1.0, 2.0, 3.0]),
                           (mpfp_config(4, 3), [1.0, 1.0, 1.0]),
                           (pnorm_config(4, 3, 3.0), [1.0, 1.0, 1.0])):
        assert run_dynamics(config, ds).alphas.tolist() == alphas


def test_trace_stores_records_only():
    # sum_alpha, w_bar, p_bar, gap_bound_running, regret_w, regret_p and
    # sum_sq_l1_delta are derived from these
    assert [f.name for f in dataclasses.fields(Trace)] == [
        "config", "alphas", "ws", "ps", "l1_delta_p", "margin_avg",
        "normalized_margin", "regret_w_running", "regret_p_running",
        "w_sum", "p_sum"]


@pytest.mark.parametrize("name", ["smooth", "nag", "mpfp", "pnorm"])
def test_trace_totals_add_in_round_order(rng, name):
    # a running total adds in round order, and bit-identity with one rests
    # on that order; np.sum pairs terms and can round differently
    ds = random_dataset(rng, 9, 4)
    T = 300
    config = {"smooth": smooth_config(T), "nag": nag_config(T),
              "mpfp": mpfp_config(9, T), "pnorm": pnorm_config(9, T, 3.0)}[name]
    trace = run_dynamics(config, ds)
    sum_sq = sum_alpha = 0.0
    for delta, alpha in zip(trace.l1_delta_p.tolist(), trace.alphas.tolist()):
        sum_sq += delta * delta
        sum_alpha += alpha
    assert trace.sum_sq_l1_delta == sum_sq
    assert trace.sum_alpha == sum_alpha
    # the engine forms w_sum after its loop from a cumulative sum of the
    # recorded alpha_t w_t; it must carry the running total's bits
    w_sum = np.zeros(4)
    for alpha, w in zip(trace.alphas, trace.ws):
        w_sum = w_sum + alpha * w
    assert trace.w_sum.tobytes() == w_sum.tobytes()


def test_non_finite_w_names_round_and_player(monkeypatch):
    # a NaN w_19 surfaces in the p-player's softmax of the same round
    ds = generate(GenSpec(n=16, d=4, gamma=0.1, mode=GenMode.LOWER_BOUND, seed=0))
    calls = nan_dual_map_from(monkeypatch, 19)
    with pytest.raises(NonFiniteIterate) as exc:
        run_dynamics(pnorm_config(16, 20, 200.0), ds)
    assert (exc.value.round_index, exc.value.player, exc.value.quantity) == (
        19, "w", "w_t")
    assert "round 19" in str(exc.value) and "w-player" in str(exc.value)
    calls.clear()
    run_dynamics(pnorm_config(16, 18, 200.0), ds)


def test_non_finite_step_names_the_player_that_raised():
    # a huge p step overflows the softmax scores while every w_t is finite;
    # the round named is the first that fails
    ds = generate(GenSpec(n=16, d=4, gamma=0.1, mode=GenMode.LOWER_BOUND, seed=0))
    config = dataclasses.replace(smooth_config(40), p_learner=OftrlEntropy(eta=1e308))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteIterate) as exc:
            run_dynamics(config, ds)
        failed = exc.value.round_index
        assert (exc.value.player, exc.value.quantity) == ("p", "softmax scores")
        run_dynamics(dataclasses.replace(config, horizon=failed - 1), ds)


@pytest.mark.parametrize("bad_round", [1, 6])
def test_non_finite_w_step_names_the_w_player(monkeypatch, bad_round):
    # the q-norm dual map is the w-player's: a step of it that raises in
    # round k names round k, the w-player and the map's input
    dual_map = learners.qnorm_dual_map
    calls = []

    def raise_at_bad_round(theta, q):
        calls.append(q)
        if len(calls) == bad_round:
            raise NonFinite("dual map input")
        return dual_map(theta, q)

    monkeypatch.setattr(learners, "qnorm_dual_map", raise_at_bad_round)
    ds = generate(GenSpec(n=16, d=4, gamma=0.1, mode=GenMode.LOWER_BOUND, seed=0))
    with pytest.raises(NonFiniteIterate) as exc:
        run_dynamics(pnorm_config(16, 10, 3.0), ds)
    assert (exc.value.round_index, exc.value.player, exc.value.quantity) == (
        bad_round, "w", "dual map input")


@pytest.mark.parametrize("bad_round", [3, 8])
def test_non_finite_w_of_p_first_game(monkeypatch, rng, bad_round):
    # nag moves p first: a NaN w_3 surfaces in round 4's softmax, and a NaN
    # w_T, which reaches no softmax, in the check after the loop
    decide = DualAveragingW.decide
    calls = []

    def nan_at_bad_round(self, alpha, hint):
        calls.append(alpha)
        w = decide(self, alpha, hint)
        return w * np.nan if len(calls) == bad_round else w

    monkeypatch.setattr(DualAveragingW, "decide", nan_at_bad_round)
    datasets = [random_dataset(rng, 6, 3) for _ in range(2)]
    with np.errstate(invalid="ignore"):
        with pytest.raises(NonFiniteIterate) as exc:
            run_dynamics_totals(nag_config(8), datasets)
    assert (exc.value.round_index, exc.value.player, exc.value.quantity) == (
        bad_round, "w", "w_t")


def test_learner_states_hold_no_matrix(rng):
    # the engine forms every product with A; a state sees only A's shape
    ds = random_dataset(rng, 7, 3)
    for config in (smooth_config(3), nag_config(3), mpfp_config(7, 3),
                   pnorm_config(7, 3, 3.0)):
        for spec in (config.w_learner, config.p_learner):
            state = spec.start(ds.matrix)
            assert not any(isinstance(v, np.ndarray) and np.shares_memory(v, ds.matrix)
                           for v in vars(state).values()), type(state).__name__


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


def test_oracle_allocates_no_history_of_the_rows():
    n, d, horizon = 1000, 20, 300
    ds = exact_margin_dataset(n, d, 0.1, seed=0)
    trace = run_dynamics(smooth_config(horizon), ds)
    tracemalloc.start()
    try:
        for regret in (weighted_regret_w, weighted_regret_p):
            tracemalloc.reset_peak()
            current = tracemalloc.get_traced_memory()[0]
            value = regret(trace, ds)
            peak = tracemalloc.get_traced_memory()[1] - current
            # half of one (T, n) float64 record
            assert peak < horizon * n * 8 / 2, (regret.__name__, peak)
            assert math.isfinite(value)
    finally:
        tracemalloc.stop()


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


@st.composite
def games(draw):
    """(w-spec, p-spec, p_first) of any game: each spec that has a step
    draws it log-uniform from [0.01, 100], and a q-norm learner its q from
    (1, 2]."""
    eta = st.floats(math.log(0.01), math.log(100.0)).map(math.exp)
    w_learner = draw(st.one_of(
        st.just(Oftl()), st.builds(OmdBall, eta=eta),
        st.builds(OftrlQNorm, eta=eta, q=st.floats(1.0, 2.0, exclude_min=True))))
    p_learner = draw(st.one_of(st.builds(OftrlEntropy, eta=eta),
                               st.builds(OmdEntropy, eta=eta)))
    return w_learner, p_learner, draw(st.booleans())


@pytest.mark.parametrize("p", [2.0, 3.0])
@settings(deadline=None)
@given(n=st.integers(2, 12), d=st.integers(1, 5), gamma=st.floats(0.05, 0.4),
       seed=st.integers(0, 2**16), horizon=st.integers(1, 20),
       log_p_exp=st.floats(math.log(2.0), math.log(1e6)), game=games())
def test_running_regrets_match_oracle_on_drawn_data(p, n, d, gamma, seed, horizon,
                                                     log_p_exp, game):
    # separable data with rows in the unit p-norm ball; pnorm plays the
    # q-norm game of an exponent drawn log-uniform from [2, 1e6], where an
    # unscaled dual norm of the comparator overflows; the drawn game is any
    # pair of learners in either order
    ds = generate(GenSpec(n=n, d=d, gamma=gamma, norm_exponent=p,
                          mode=GenMode.LOWER_BOUND, seed=seed))
    a = ds.matrix
    p_exp = math.exp(log_p_exp)
    w_learner, p_learner, p_first = game
    drawn = DynamicsConfig(w_learner=w_learner, p_learner=p_learner,
                           horizon=horizon, p_first=p_first)
    for config in (smooth_config(horizon), nag_config(horizon),
                   mpfp_config(n, horizon), pnorm_config(n, horizon, p_exp), drawn):
        trace = run_dynamics(config, ds)
        for t in range(1, horizon + 1):
            alphas, ws, ps = trace.alphas[:t], trace.ws[:t], trace.ps[:t]
            rw = regret_w_from_arrays(a, alphas, ws, ps, config.w_learner.ball_norm)
            rp = regret_p_from_arrays(a, alphas, ws, ps)
            bound = 1e-12 * float(alphas.sum())
            assert abs(trace.regret_w_running[t - 1] - rw) <= bound
            assert abs(trace.regret_p_running[t - 1] - rp) <= bound
    # the duality-gap bound holds for any sequence of plays, so for every
    # game; trace is the drawn game's, checked at comparators in the
    # w-player's decision set
    rng = np.random.default_rng(seed)
    ball_norm = w_learner.ball_norm
    for _ in range(3):
        w = rng.standard_normal(d)
        if ball_norm is not None:
            w /= max(1.0, float(np.linalg.norm(w, ord=ball_norm)))
        lhs, rhs, ok = gap_bound_check(trace, ds, w)
        assert ok, (lhs, rhs)


@pytest.mark.parametrize("name,per_round,above_floor", [
    pytest.param(name, per_round, above_floor,
                 id=f"{name}-{per_round}" + ("-above_floor" if above_floor else ""))
    for above_floor in (False, True)
    for name, per_round in (("smooth", 2), ("nag", 2), ("mpfp", 4), ("pnorm", 2))])
def test_engine_matvecs_per_round(rng, monkeypatch, name, per_round, above_floor):
    # one A'p and one A w per round, one more for each secondary iterate an
    # OMD player shows, and A'(1/n) once for the first hint of a w-player
    # that moves first (all but nag); no hint is formed after the last
    # round, which saves mpfp the A' of its last secondary iterate.  Above
    # the support product's floor, a product of A' that gathers the rows p
    # weighs is one product too
    if above_floor:
        n, T = SUPPORT_N, SUPPORT_T
        ds = exact_margin_dataset(n, SUPPORT_D, 0.1, 0)
        weighed = weighed_rows(monkeypatch)
    else:
        n, T = 30, 25
        ds = random_dataset(rng, n, 5)
    config = {"smooth": smooth_config(T), "nag": nag_config(T),
              "mpfp": mpfp_config(n, T), "pnorm": pnorm_config(n, T, 2.0)}[name]
    once = {"smooth": 1, "nag": 0, "mpfp": 0, "pnorm": 1}[name]
    counter = count_matvecs(ds)
    run_dynamics(config, ds)
    assert counter[0] == per_round * T + once
    if above_floor:
        assert min(weighed) <= dynamics.SUPPORT_MAX_SHARE * n


@pytest.mark.parametrize("name", ["smooth", "nag", "mpfp", "pnorm2", "pnorm3",
                                  "pnorm2_T200"])
def test_batch_instances_match_single_runs(name, monkeypatch):
    # mixed margins and seeds; lower-bound data, the only mode with p = 3 rows
    n, d = 40, 6
    T = 200 if name == "pnorm2_T200" else 30
    p_exp = 3.0 if name == "pnorm3" else 2.0
    datasets = [generate(GenSpec(n=n, d=d, gamma=gamma, norm_exponent=p_exp,
                                 mode=GenMode.LOWER_BOUND, seed=seed))
                for gamma, seed in ((0.2, 0), (0.35, 1), (0.2, 5), (0.1, 2))]
    config = {"smooth": smooth_config(T), "nag": nag_config(T),
              "mpfp": mpfp_config(n, T),
              "pnorm2": pnorm_config(n, T, 2.0),
              "pnorm3": pnorm_config(n, T, 3.0),
              "pnorm2_T200": pnorm_config(n, T, 2.0)}[name]
    # the deepest exp argument of any softmax: pnorm2_T200 reaches below
    # -708, where the clamp at learners.EXP_ARG_MIN acts
    deepest = [0.0]
    softmax = learners.softmax_neg

    def spy(scores, out=None):
        deepest[0] = min(deepest[0], np.min(np.min(scores, axis=-1, keepdims=True) - scores))
        return softmax(scores, out=out)

    monkeypatch.setattr(learners, "softmax_neg", spy)
    batch = run_dynamics_totals(config, datasets)
    if name == "pnorm2_T200":
        assert deepest[0] < -708.0
    assert len(batch) == len(datasets)
    for ds, got in zip(datasets, batch):
        want = run_dynamics(config, ds)
        assert got.w_sum.tobytes() == want.w_sum.tobytes()
        for field in ("sum_alpha", "regret_w", "regret_p"):
            assert getattr(got, field).hex() == getattr(want, field).hex(), field

    def played(a):
        # the loop's (B, T, d) w record and the p_t it hands the hook
        ps = []
        ws = _play(config, a, lambda t, alpha, w_t, p_t, *rest: ps.append(p_t.copy()))
        return ws, np.stack(ps, axis=1)

    stack_ws, stack_ps = played(np.stack([ds.matrix for ds in datasets]))
    for b, ds in enumerate(datasets):
        ws, ps = played(ds.matrix)
        assert stack_ws[b].tobytes() == ws[0].tobytes()
        assert stack_ps[b].tobytes() == ps[0].tobytes()


@pytest.mark.parametrize("w_learner", [Oftl(), OmdBall(eta=0.7), OftrlQNorm(eta=0.4, q=1.5)],
                         ids=["ridge", "ball", "qnorm_ball"])
@pytest.mark.parametrize("p_learner", [OftrlEntropy(eta=0.9), OmdEntropy(eta=1.3)],
                         ids=["oftrl", "omd"])
@pytest.mark.parametrize("p_first", [False, True])
@pytest.mark.parametrize("n,horizon", [(2, 1), (2, 9), (11, 1), (11, 40)])
def test_totals_have_the_bits_of_the_traces(w_learner, p_learner, p_first, n, horizon):
    # the regret books alone give each game's w_sum, sum_alpha, R^w and R^p
    # with the bits of the light traces, in a batch and alone
    config = DynamicsConfig(w_learner=w_learner, p_learner=p_learner, horizon=horizon,
                            p_first=p_first, record_full_trace=False)
    datasets = [generate(GenSpec(n=n, d=3, gamma=0.2, mode=GenMode.LOWER_BOUND, seed=seed))
                for seed in range(3)]
    traces = [run_dynamics(config, ds) for ds in datasets]
    singles = [run_dynamics_totals(config, [ds])[0] for ds in datasets]
    for got in (run_dynamics_totals(config, datasets), singles):
        assert len(got) == len(traces)
        for totals, trace in zip(got, traces):
            assert totals.w_sum.tobytes() == trace.w_sum.tobytes()
            for name in ("sum_alpha", "regret_w", "regret_p"):
                assert getattr(totals, name).hex() == getattr(trace, name).hex(), name


def test_batch_rejects_mixed_shapes(rng):
    with pytest.raises(BadParameter):
        run_dynamics_totals(smooth_config(5), [random_dataset(rng, 6, 3),
                                               random_dataset(rng, 7, 3)])
    with pytest.raises(BadParameter):
        run_dynamics_totals(smooth_config(5), [])


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
        ball = config.w_learner.ball_norm is not None
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
    light = run_dynamics(dataclasses.replace(smooth_config(20), record_full_trace=False),
                         ds)
    assert light.ws is None and light.ps is None
    assert np.array_equal(light.w_bar, full.w_bar)
    assert light.regret_w == full.regret_w
    assert light.regret_p == full.regret_p
    # the closed-form regrets read the iterates a light trace does not keep
    for regret in (weighted_regret_w, weighted_regret_p):
        with pytest.raises(BadParameter, match="full trace required"):
            regret(light, ds)


def test_best_response_consistency(rng):
    ds = random_dataset(rng, 6, 3)
    trace = run_dynamics(smooth_config(12), ds)
    m = best_response_value(None, ds, trace.w_bar)
    assert np.isfinite(m)


def totals_bytes(totals):
    return (totals.w_sum.tobytes(), totals.sum_alpha.hex(), totals.regret_w.hex(),
            totals.regret_p.hex())


GAMES = [DynamicsConfig(w_learner=w_learner, p_learner=p_learner, horizon=1, p_first=p_first)
         for w_learner in (Oftl(), OmdBall(eta=0.7), OftrlQNorm(eta=0.4, q=1.5))
         for p_learner in (OftrlEntropy(eta=0.9), OmdEntropy(eta=1.3))
         for p_first in (False, True)]


@pytest.mark.parametrize("two_threads", [False, True], ids=["one_thread", "two_threads"])
@pytest.mark.parametrize("game", GAMES, ids=[
    f"{type(g.w_learner).__name__}-{type(g.p_learner).__name__}-{'p' if g.p_first else 'w'}_first"
    for g in GAMES])
def test_hook_gets_each_player_by_role(game, two_threads):
    # whichever player moves first, the hook gets the w-player's play as
    # w_t with loss = A w_t, and the p-player's, on the simplex, as p_t with
    # g_t = A'p_t, each with the bits of np.dot.  A caller may play games
    # on threads of its own: two at once, each with its own hook, share no
    # state, so each holds the same and records the same bits
    a = generate(GenSpec(n=11, d=3, gamma=0.2, mode=GenMode.LOWER_BOUND, seed=4)).matrix

    def play():
        rounds = []

        def check(t, alpha, w_t, p_t, g_t, loss, cum):
            assert loss.tobytes() == np.dot(w_t, a.T).tobytes()
            assert g_t.tobytes() == np.dot(p_t, a).tobytes()
            assert (p_t >= 0.0).all() and np.allclose(p_t.sum(axis=-1), 1.0, rtol=0.0,
                                                      atol=1e-12)
            rounds.append((t, w_t.tobytes(), p_t.tobytes()))

        _play(dataclasses.replace(game, horizon=9), a, check)
        return rounds

    if two_threads:
        with ThreadPoolExecutor(max_workers=2) as pool:
            runs = [pool.submit(play) for _ in range(2)]
            got = [run.result(timeout=60.0) for run in runs]
    else:
        got = [play()]
    for rounds in got:
        assert [t for t, _, _ in rounds] == list(range(1, 10))
        assert rounds == got[0]


def nan_omd_ball_from(monkeypatch, bad_round):
    """Make the OMD ball learner play NaN from its bad_round-th step on."""
    decide = learners.OmdBallState.decide
    calls = []

    def nan_from_bad_round(self, alpha, hint):
        calls.append(alpha)
        w = decide(self, alpha, hint)
        return w * np.nan if len(calls) >= bad_round else w

    monkeypatch.setattr(learners.OmdBallState, "decide", nan_from_bad_round)
    return calls


# games with a secondary iterate that go non-finite: mpfp's p-player's
# shown iterate, whose softmax is the 2k-th of a run (each round decides,
# then shows), so its step raises in round k; the same with the p-player
# moving first; mpfp's w-player playing NaN from round k on; a p step so
# large that the scores overflow; each with the report the game gives
NON_FINITE_GAMES = {
    "shown_p_of_w_first": (
        lambda monkeypatch: softmax_failing_at(monkeypatch, learners, 2 * 6),
        mpfp_config(16, 20), (6, "p", "softmax scores")),
    "shown_p_of_p_first": (
        lambda monkeypatch: softmax_failing_at(monkeypatch, learners, 2 * 6),
        DynamicsConfig(w_learner=Oftl(), p_learner=OmdEntropy(eta=1.3), horizon=20,
                       p_first=True),
        (6, "p", "softmax scores")),
    "nan_w": (lambda monkeypatch: nan_omd_ball_from(monkeypatch, 6),
              mpfp_config(16, 20), (6, "w", "w_t")),
    "huge_p_step": (lambda monkeypatch: None,
                    dataclasses.replace(mpfp_config(16, 40), p_learner=OmdEntropy(eta=1e308)),
                    (5, "p", "softmax scores")),
}


@pytest.mark.parametrize("case", list(NON_FINITE_GAMES))
def test_non_finite_report_of_a_game_with_a_shown_iterate(monkeypatch, case):
    # a step of a shown iterate that goes non-finite is raised where its
    # product is read, and the report names the round, the player and the
    # quantity
    patch, config, expected = NON_FINITE_GAMES[case]
    ds = generate(GenSpec(n=16, d=4, gamma=0.1, mode=GenMode.LOWER_BOUND, seed=0))
    patch(monkeypatch)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteIterate) as exc:
            run_dynamics(config, ds)
    assert (exc.value.round_index, exc.value.player, exc.value.quantity) == expected
    assert str(exc.value) == str(NonFiniteIterate(*expected))


# the least exact-margin game at the support product's floor: by round 100
# every one of the four games has products that read at most a quarter of
# the rows
SUPPORT_N, SUPPORT_D, SUPPORT_T = dynamics.SUPPORT_MIN_ENTRIES // 50, 50, 100


def support_games(n, horizon):
    return {"smooth": smooth_config(horizon), "nag": nag_config(horizon),
            "mpfp": mpfp_config(n, horizon), "pnorm": pnorm_config(n, horizon, 2.0)}


def weighed_rows(monkeypatch):
    """Spy on the support product: the list, one entry per instance of
    each product it forms, of the number of rows with p_i >= eps/n."""
    weighed, support_times = [], dynamics._support_times

    def spy(a, p):
        least = np.finfo(np.float64).eps / a.shape[-2]
        weighed.extend(np.count_nonzero(p >= least, axis=-1).tolist())
        return support_times(a, p)

    monkeypatch.setattr(dynamics, "_support_times", spy)
    return weighed


def relative(x, y) -> float:
    """max |x - y| over the larger of max |x| and max |y|."""
    x, y = np.asarray(x), np.asarray(y)
    return float(np.max(np.abs(x - y)) / max(np.max(np.abs(x)), np.max(np.abs(y))))


@pytest.fixture(scope="module")
def above_floor():
    return [exact_margin_dataset(SUPPORT_N, SUPPORT_D, 0.1, seed) for seed in (0, 7)]


@pytest.mark.parametrize("name", ["smooth", "nag", "mpfp", "pnorm"])
def test_support_product_is_the_dense_game_within_roundoff(monkeypatch, above_floor, name):
    # the rows left out weigh under eps, so every quantity stays within
    # roundoff of the game whose products read every row, and the regrets
    # within the oracle's tolerance of the from-arrays oracle
    ds = above_floor[0]
    config = support_games(SUPPORT_N, SUPPORT_T)[name]
    weighed = weighed_rows(monkeypatch)
    support = run_dynamics(config, ds)
    assert min(weighed) <= dynamics.SUPPORT_MAX_SHARE * SUPPORT_N
    monkeypatch.setattr(dynamics, "SUPPORT_MIN_ENTRIES", ds.matrix.size + 1)
    count = len(weighed)
    dense = run_dynamics(config, ds)
    assert len(weighed) == count
    for quantity in ("w_bar", "p_bar", "margin_avg", "normalized_margin", "gap_bound_running"):
        assert relative(getattr(support, quantity), getattr(dense, quantity)) <= 1e-12, quantity
    for engine, oracle in ((support.regret_w, weighted_regret_w(support, ds)),
                           (support.regret_p, weighted_regret_p(support, ds))):
        assert abs(engine - oracle) <= 1e-10 * max(abs(engine), abs(oracle))


@pytest.mark.parametrize("name", ["smooth", "nag", "mpfp", "pnorm"])
def test_support_product_keeps_the_bits_of_each_game_in_a_batch(monkeypatch, above_floor,
                                                                  name):
    # each instance of a stack reads its own weighed rows, with the np.dot
    # call of its game alone
    config = support_games(SUPPORT_N, SUPPORT_T)[name]
    weighed = weighed_rows(monkeypatch)
    batch = run_dynamics_totals(config, above_floor)
    assert min(weighed) <= dynamics.SUPPORT_MAX_SHARE * SUPPORT_N
    for ds, got in zip(above_floor, batch):
        assert totals_bytes(got) == totals_bytes(run_dynamics(config, ds))


def test_a_game_below_the_floor_reads_every_row(monkeypatch):
    # the floor counts the entries of one instance: below it no product,
    # in a game alone or in a stack of any size, takes the support product
    weighed = weighed_rows(monkeypatch)
    datasets = [generate(GenSpec(n=20, d=3, gamma=0.2, mode=GenMode.LOWER_BOUND, seed=seed))
                for seed in range(3)]
    monkeypatch.setattr(dynamics, "SUPPORT_MIN_ENTRIES", 20 * 3 + 1)
    for config in support_games(20, 5).values():
        run_dynamics(config, datasets[0])
        run_dynamics_totals(config, datasets)
    assert weighed == []
    monkeypatch.setattr(dynamics, "SUPPORT_MIN_ENTRIES", 20 * 3)
    run_dynamics(smooth_config(5), datasets[0])
    assert len(weighed) == 5 + 1


def test_infeasibility_certificate_above_the_floor(monkeypatch, above_floor):
    # row 1 is minus row 0, so the rows admit no separator and mpfp's p
    # settles on that pair; its certificate stays within roundoff
    a = above_floor[0].matrix.copy()
    a[1] = -a[0]
    ds = build_dataset(a, np.ones(SUPPORT_N))
    weighed = weighed_rows(monkeypatch)
    p_bar, norm = infeasibility_certificate(ds, SUPPORT_T)
    assert min(weighed) <= dynamics.SUPPORT_MAX_SHARE * SUPPORT_N
    monkeypatch.setattr(dynamics, "SUPPORT_MIN_ENTRIES", ds.matrix.size + 1)
    dense_p_bar, dense_norm = infeasibility_certificate(ds, SUPPORT_T)
    assert relative(p_bar, dense_p_bar) <= 1e-12
    assert relative(norm, dense_norm) <= 1e-12
