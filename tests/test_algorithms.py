import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nrp import algorithms as alg, cli, dynamics, learners
from nrp.core import Dataset, margin
from nrp.datagen import GenMode, GenSpec, generate
from nrp.dynamics import run_dynamics
from nrp.errors import BadParameter, NonFinite, NonFiniteIterate, NrpError, TooFewRows
from nrp.learners import DualAveragingW, softmax_neg
from conftest import (collect_rounds, count_matvecs, empirical_risk, empirical_risk_grad,
                      exact_margin_dataset, random_dataset, softmax_failing_at)


def rel_linf(x, y):
    scale = max(np.max(np.abs(x)), np.max(np.abs(y)), 1e-10)
    return np.max(np.abs(x - y)) / scale


@pytest.mark.parametrize("rounds,expected", [
    (alg._smooth_rounds, lambda T: 1 + 3 * (T - 1)),   # A v_0, then T-1 rounds
    (alg._ji_rounds, lambda T: 1 + 2 * T),             # A' q_0, then T rounds
    (alg._nag_rounds, lambda T: 2 * T),
    (alg._mpfp_rounds, lambda T: 4 * T)], ids=["smooth", "ji", "nag", "mpfp"])
def test_standalone_matvecs_per_round(rng, rounds, expected):
    T = 12
    ds = random_dataset(rng, 9, 4)
    counter = count_matvecs(ds)
    collect_rounds(rounds, ds, T)
    assert counter[0] == expected(T)


def equiv_exit_code(*argv):
    """`nrp equiv`'s exit code, a usage error's included."""
    try:
        return cli.main(["equiv", *argv])
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("horizon", [0, -1, 2.5, "3", True])
@pytest.mark.parametrize("which", list(alg.EquivalencePair), ids=[
    "smooth_perceptron", "accel_perceptron_ji", "nag_margin", "mpfp"])
def test_standalone_forms_reject_horizon_below_one(rng, which, horizon):
    # the forms run only in a check, whose horizon is an integer >= 1: a
    # float, a string or a bool is none
    with pytest.raises(BadParameter, match="horizon"):
        alg.check_equivalence(which, random_dataset(rng, 6, 3), horizon)
    # on the command line "3" is the integer 3
    if horizon != "3":
        args = ["--which", which.value, "--n", "6", "--d", "3", "--T", str(horizon)]
        assert equiv_exit_code(*args) == 2


def test_mpfp_rejects_one_row(tmp_path):
    ds = Dataset(matrix=np.array([[0.6, 0.8]]))
    with pytest.raises(TooFewRows) as info:
        alg.check_equivalence(alg.EquivalencePair.MPFP, ds, 5)
    assert (info.value.algo, info.value.n) == ("mpfp", 1)
    data = tmp_path / "one_row.txt"
    data.write_text("1 2 2\n1 0.6 0.8\n")
    assert equiv_exit_code("--which", "mpfp", "--data", str(data), "--T", "5") == 2


# ---------------------------------------------------------------------------
# smooth form

def test_smooth_initialization(rng):
    ds = random_dataset(rng, 6, 3)
    res = collect_rounds(alg._smooth_rounds, ds, 1)
    assert np.allclose(res.vs[-1], ds.matrix.sum(axis=0) / 6, atol=1e-15)
    assert np.allclose(res.qs[-1], softmax_neg((ds.matrix @ res.vs[-1]) / 4.0))


def test_smooth_step_size_recurrence_vs_closed_form():
    mu = 4.0
    for t in range(1, 10001):
        mu = (1.0 - 2.0 / (t + 2)) * mu
        closed = 8.0 / ((t + 1) * (t + 2))
        assert abs(mu - closed) <= 1e-14 * closed


def test_smooth_nonneg_margin_at_theory_horizon():
    ds = exact_margin_dataset(16, 4, 0.4, seed=0)
    T = int(math.ceil(4.0 * math.sqrt(math.log(16)) / 0.4))
    res = collect_rounds(alg._smooth_rounds, ds, T)
    assert margin(ds, res.vs[-1]) >= 0.0


# ---------------------------------------------------------------------------
# momentum form

def test_momentum_first_step(rng):
    ds = random_dataset(rng, 6, 3)
    res = collect_rounds(alg._ji_rounds, ds, 1)
    assert np.allclose(res.vs[0], 0.25 * ds.matrix.sum(axis=0) / 6, atol=1e-15)


def test_momentum_g_identity(rng):
    # g_t = -(1/(t+1)) A' sum_{s<=t} s q_s, by telescoping the update
    ds = random_dataset(rng, 7, 4)
    res = collect_rounds(alg._ji_rounds, ds, 30)
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
    res = collect_rounds(alg._nag_rounds, ds, 30)
    for t in range(1, 31):
        u = res.us[t - 1]
        risk = empirical_risk(ds, u)
        direct = -(t / risk) * empirical_risk_grad(ds, u)
        stable = t * (ds.matrix.T @ res.qs[t - 1])
        assert rel_linf(direct, stable) <= 1e-9


def test_nag_first_round(rng):
    ds = random_dataset(rng, 6, 3)
    res = collect_rounds(alg._nag_rounds, ds, 1)
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


@pytest.mark.parametrize("mode", [GenMode.INFEASIBLE, GenMode.EXACT_MARGIN])
def test_infeasibility_certificate_has_the_full_trace_bits(mode):
    ds = generate(GenSpec(n=12, d=4, gamma=0.3, mode=mode, seed=3))
    p_bar, cert = alg.infeasibility_certificate(ds, 150)
    full = run_dynamics(alg.mpfp_config(ds.n, 150), ds)
    assert full.ps is not None
    assert p_bar.tobytes() == full.p_bar.tobytes()
    assert cert.hex() == float(np.linalg.norm(ds.matrix.T @ full.p_bar)).hex()


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


@pytest.mark.parametrize("max_updates", [0, -1, 2.5, "3", True])
def test_vanilla_rejects_a_budget_that_is_no_positive_integer(max_updates):
    ds = Dataset(matrix=np.array([[1.0, 0.0]]))
    with pytest.raises(BadParameter, match="max_updates"):
        alg.vanilla_perceptron(ds, max_updates)
    assert alg.vanilla_perceptron(ds, np.int64(3))[1] == 1


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


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_equivalence_tol_must_lie_in_open_range(tol):
    # tol = 0 would divide by zero in the deviation's floor, and tol = inf
    # would pass any deviation
    ds = exact_margin_dataset(8, 4, 0.3, seed=1)
    with pytest.raises(BadParameter, match="tol must lie in"):
        alg.check_equivalence(alg.EquivalencePair.PROP1, ds, 5, tol=tol)


# ---------------------------------------------------------------------------
# the check plays the game and the original form in step

def reference_rel_dev(x, y, tol):
    scale = max(float(np.max(np.abs(x))), float(np.max(np.abs(y))), 1e-10 / tol)
    return float(np.max(np.abs(x - y))) / scale


def reference_deviations(which, dataset, horizon, tol, perturb):
    """The deviations of a check from whole recorded histories: the original
    form's collected rounds against a full trace."""
    P = alg.EquivalencePair
    algo = alg.ALGORITHMS[{P.PROP1: "smooth", P.PROP2: "ji", P.NAG: "nag",
                           P.MPFP: "mpfp"}[which]]
    config = algo.config(dataset.n, horizon, 2.0)
    if perturb != 0.0:
        pl = config.p_learner
        config = dataclasses.replace(
            config, p_learner=dataclasses.replace(pl, eta=pl.eta * (1.0 + perturb)))
    trace = run_dynamics(config, dataset)
    if which is P.PROP1:
        res = collect_rounds(alg._smooth_rounds, dataset, horizon)
        return {"v_vs_w_bar": reference_rel_dev(res.vs[-1], algo.output(trace), tol),
                "q_vs_p_bar": reference_rel_dev(res.qs[-1], trace.p_bar, tol)}
    if which is P.PROP2:
        res = collect_rounds(alg._ji_rounds, dataset, horizon)
        return {"v_vs_quarter_w_sum": reference_rel_dev(res.vs[-1], algo.output(trace), tol),
                "q_vs_p_final": reference_rel_dev(res.qs[-1], trace.ps[-1], tol)}
    if which is P.NAG:
        res = collect_rounds(alg._nag_rounds, dataset, horizon)
        return {"s_vs_quarter_w_sum": reference_rel_dev(res.ss[-1], algo.output(trace), tol)}
    res = collect_rounds(alg._mpfp_rounds, dataset, horizon)
    return {"u_w_vs_w": reference_rel_dev(res.us_w, trace.ws, tol),
            "u_p_vs_p": reference_rel_dev(res.us_p, trace.ps, tol)}


@settings(deadline=None, max_examples=25, derandomize=True)
@given(n=st.integers(2, 120), d=st.integers(2, 12), horizon=st.integers(1, 150),
       gamma=st.floats(0.05, 0.3), exact=st.booleans(), seed=st.integers(0, 2**32 - 1),
       perturb=st.sampled_from([0.0, 1e-3]), tol=st.sampled_from([1e-8, 1e-4]))
@example(n=9, d=3, horizon=1, gamma=0.2, exact=True, seed=0, perturb=0.0, tol=1e-8)
@example(n=9, d=3, horizon=1, gamma=0.2, exact=False, seed=1, perturb=1e-3, tol=1e-8)
def test_streamed_check_has_the_recorded_deviation_bits(n, d, horizon, gamma, exact,
                                                        seed, perturb, tol):
    mode = GenMode.EXACT_MARGIN if exact else GenMode.LOWER_BOUND
    ds = generate(GenSpec(n=n, d=d, gamma=gamma, mode=mode, seed=seed))
    for which in alg.EquivalencePair:
        report = alg.check_equivalence(which, ds, horizon, tol=tol, perturb=perturb)
        expected = reference_deviations(which, ds, horizon, tol, perturb)
        assert list(report.deviations) == list(expected)
        got = {name: dev.hex() for name, dev in report.deviations.items()}
        assert got == {name: dev.hex() for name, dev in expected.items()}, which


def test_check_builds_no_trace(monkeypatch):
    # the check's hook keeps only what it compares; the trace's books stay
    # out of it, and its reports keep the bits of the full-trace reference
    ds = exact_margin_dataset(40, 5, 0.2, seed=3)
    expected = {which: reference_deviations(which, ds, 60, 1e-8, 0.0)
                for which in alg.EquivalencePair}

    def no_trace(*args, **kwargs):
        raise AssertionError("a check built a Trace")

    monkeypatch.setattr(dynamics, "Trace", no_trace)
    for which, want in expected.items():
        report = alg.check_equivalence(which, ds, 60)
        got = {name: dev.hex() for name, dev in report.deviations.items()}
        assert got == {name: dev.hex() for name, dev in want.items()}, which


@pytest.mark.parametrize("which", list(alg.EquivalencePair))
def test_check_allocates_no_history_of_the_rows(which):
    n, d, horizon = 1000, 20, 300
    ds = exact_margin_dataset(n, d, 0.1, seed=0)
    tracemalloc.start()
    try:
        report = alg.check_equivalence(which, ds, horizon)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed, report.deviations
    # half of one (T, n) float64 record
    assert peak < horizon * n * 8 / 2, peak


# the original form's name, and which of its softmax calls falls in round k:
# smooth_perceptron's first call opens its round 1, and mpfp calls twice a
# round after one call before its loop
FAILING_FORM = {alg.EquivalencePair.PROP1: ("smooth_perceptron", lambda k: k),
                alg.EquivalencePair.PROP2: ("accel_perceptron_ji", lambda k: k),
                alg.EquivalencePair.NAG: ("nag_margin", lambda k: k),
                alg.EquivalencePair.MPFP: ("mpfp", lambda k: 2 * k)}


@pytest.mark.parametrize("which", list(alg.EquivalencePair))
def test_non_finite_original_form_names_form_and_round(which, monkeypatch, capsys):
    # the engine's p-player calls the softmax through its own binding in
    # nrp.learners, so only the original form's step fails
    k = 7
    form_name, call_of_round = FAILING_FORM[which]
    calls = []

    def failing_softmax(scores, out=None):
        calls.append(None)
        if len(calls) == call_of_round(k):
            raise NonFinite("softmax scores")
        return softmax_neg(scores, out=out)

    monkeypatch.setattr(alg, "softmax_neg", failing_softmax)
    ds = exact_margin_dataset(8, 4, 0.3, seed=1)
    with pytest.raises(NrpError) as info:
        alg.check_equivalence(which, ds, 20)
    assert not isinstance(info.value, (NonFinite, NonFiniteIterate))
    message = str(info.value)
    assert f"at round {k} of the original form {form_name}" in message, message

    calls.clear()
    code = cli.main(["equiv", "--which", which.value, "--n", "8", "--d", "4", "--T", "20"])
    err = capsys.readouterr().err
    assert code == 2
    assert f"at round {k} of the original form {form_name}" in err, err


@pytest.mark.parametrize("which,bad_round", [(alg.EquivalencePair.PROP1, 7),
                                             (alg.EquivalencePair.NAG, 7),
                                             (alg.EquivalencePair.NAG, 20)])
def test_non_finite_game_in_a_check_is_the_games_error(which, bad_round, monkeypatch,
                                                       capsys):
    # the w-learner returns NaN from round k on: prop1 moves w first, so
    # the softmax of round k meets it, and nag p first, so that of round
    # k + 1, or none after the last round; the check reports what
    # run_dynamics reports for the game
    decide = DualAveragingW.decide
    calls = []

    def nan_from_bad_round(self, alpha, hint):
        calls.append(alpha)
        w = decide(self, alpha, hint)
        return w * np.nan if len(calls) >= bad_round else w

    monkeypatch.setattr(DualAveragingW, "decide", nan_from_bad_round)
    ds = exact_margin_dataset(8, 4, 0.3, seed=0)
    algo = alg.ALGORITHMS[alg._CHECKS[which][0]]
    with pytest.raises(NonFiniteIterate) as game:
        run_dynamics(algo.config(ds.n, 20, 2.0), ds)
    calls.clear()
    with pytest.raises(NonFiniteIterate) as check:
        alg.check_equivalence(which, ds, 20)
    found = [(e.value.round_index, e.value.player, e.value.quantity) for e in (game, check)]
    assert found[0] == found[1] == (bad_round, "w", "w_t")

    calls.clear()
    code = cli.main(["equiv", "--which", which.value, "--n", "8", "--d", "4", "--T", "20"])
    assert code == 2
    assert capsys.readouterr().err == f"error: {check.value}\n"


@pytest.mark.parametrize("form_fails", [False, True])
def test_mpfp_check_reports_a_shown_p_that_fails(monkeypatch, form_fails):
    # the step of the game's shown p fails in round k, alone or with the
    # original form's step of the same round: the check reports the game's
    # error, or the form's first, as its hook runs before the next hint is
    # read
    k = 6
    ds = exact_margin_dataset(16, 4, 0.3, seed=1)
    # each round the game's p-player decides, then shows; the form calls
    # its softmax twice a round after one call before its loop
    softmax_failing_at(monkeypatch, learners, 2 * k)
    if form_fails:
        softmax_failing_at(monkeypatch, alg, 2 * k)
    with pytest.raises(NrpError) as info:
        alg.check_equivalence(alg.EquivalencePair.MPFP, ds, 20)
    if form_fails:
        assert str(info.value).endswith(f"at round {k} of the original form mpfp"), info.value
    else:
        assert type(info.value) is NonFiniteIterate
        assert str(info.value) == str(NonFiniteIterate(k, "p", "softmax scores"))
