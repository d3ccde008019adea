"""Acceptance suite: one test per headline guarantee, each ending with an
explicit pass line.  Tolerances are fixed here and never loosened."""

import math

import numpy as np

from nrp import algorithms as alg
from nrp.core import margin, normalized_margin
from nrp.datagen import GenMode, GenSpec, generate
from nrp.dynamics import run_dynamics
from nrp.learners import (Oftl, OftrlEntropy, OftrlQNorm, OmdBall, OmdEntropy,
                          qnorm_dual_map)
from conftest import (collect_rounds, empirical_risk, empirical_risk_grad,
                      exact_margin_dataset, qnorm_primal_grad)
from test_learners import (plus_step, quadratic_argmin, rel_linf,
                           simplex_argmin)
from scipy.optimize import minimize

EQUIV_TOL = 1e-8
BOUND_TOL = 1e-9

# 20 seeded cases cycling over the full (n, d, T) grid
GRID = [(n, d, T) for n in (8, 64) for d in (4, 16) for T in (10, 100)]
CASES = [(seed, *GRID[seed % len(GRID)]) for seed in range(20)]


def grid_report(which):
    worst = 0.0
    for seed, n, d, T in CASES:
        ds = exact_margin_dataset(n, d, 0.3, seed=seed)
        report = alg.check_equivalence(which, ds, T, tol=EQUIV_TOL)
        assert report.passed, (seed, n, d, T, report.deviations)
        worst = max(worst, report.max_deviation)
    return worst


def test_criterion_01_smooth_form_matches_dynamics_average():
    worst = grid_report(alg.EquivalencePair.PROP1)
    print(f"criterion 01 (smooth form == weighted-average dynamics, "
          f"max dev {worst:.2e} <= 1e-8): PASS")


def test_criterion_02_momentum_form_matches_quarter_weighted_sum():
    worst_q = 0.0
    for seed, n, d, T in CASES:
        ds = exact_margin_dataset(n, d, 0.3, seed=seed)
        report = alg.check_equivalence(alg.EquivalencePair.PROP2, ds, T,
                                       tol=EQUIV_TOL)
        assert report.passed, (seed, n, d, T, report.deviations)
        worst_q = max(worst_q, report.deviations["q_vs_p_final"])
    # report, never mask, whatever systematic q-side deviation exists
    print(f"criterion 02 (momentum form == quarter weighted sum; observed "
          f"q-side deviation {worst_q:.2e}): PASS")


def test_criterion_03_nag_form_matches_scaled_dynamics_average():
    worst = grid_report(alg.EquivalencePair.NAG)
    print(f"criterion 03 (accelerated-descent form == scaled dynamics "
          f"average, max dev {worst:.2e} <= 1e-8): PASS")


def test_criterion_04_mirror_prox_matches_dynamics_every_round():
    worst = grid_report(alg.EquivalencePair.MPFP)
    print(f"criterion 04 (mirror-prox iterates == dynamics iterates at every "
          f"round, max dev {worst:.2e} <= 1e-8): PASS")


def test_criterion_05_nonnegative_margin_at_theory_horizon():
    for gamma in (0.2, 0.4):
        for n in (8, 64):
            T = int(math.ceil(4.0 * math.sqrt(math.log(n)) / gamma))
            for seed in range(10):
                ds = exact_margin_dataset(n, 8, gamma, seed=seed)
                res = collect_rounds(alg._smooth_rounds, ds, T)
                assert margin(ds, res.vs[-1]) >= 0.0, (gamma, n, seed)
    print("criterion 05 (smooth output separates at T = ceil(4 sqrt(log n)/"
          "gamma), 40 runs): PASS")


def momentum_runs():
    for n, gamma, seed in ((8, 0.2, 0), (64, 0.4, 1)):
        ds = exact_margin_dataset(n, 8, gamma, seed=seed)
        yield n, gamma, ds, collect_rounds(alg._ji_rounds, ds, 640)


def test_criterion_06_momentum_margin_rate_and_slope():
    slopes = []
    for n, gamma, ds, res in momentum_runs():
        gaps = {}
        for t in range(2, 641):
            gap = gamma - normalized_margin(ds, res.vs[t - 1])
            bound = 8.0 * math.log(n) / (gamma * t * (t + 1))
            assert gap <= bound + BOUND_TOL, (n, gamma, t, gap, bound)
            gaps[t] = gap
        ts = [20, 40, 80, 160, 320, 640]
        slope = np.polyfit(np.log(ts), np.log([gaps[t] for t in ts]), 1)[0]
        assert slope <= -1.8, (n, gamma, slope)
        slopes.append(slope)
    print(f"criterion 06 (momentum normalized-margin gap rate, log-log "
          f"slopes {[f'{s:.2f}' for s in slopes]} <= -1.8): PASS")


def test_criterion_07_accelerated_descent_margin_rate():
    for n, gamma, seed in ((8, 0.2, 0), (64, 0.4, 1)):
        ds = exact_margin_dataset(n, 8, gamma, seed=seed)
        res = collect_rounds(alg._nag_rounds, ds, 200)
        for t in range(1, 201):
            bound = gamma - (8.0 * math.log(n) + 2.0) / (t * (t + 1) * gamma)
            assert normalized_margin(ds, res.ss[t - 1]) >= bound - BOUND_TOL
    print("criterion 07 (accelerated-descent normalized margin >= gamma - "
          "(8 log n + 2)/(T(T+1) gamma)): PASS")


def test_criterion_08_momentum_iterate_norm_growth():
    for n, gamma, ds, res in momentum_runs():
        for t in range(1, 641):
            assert (np.linalg.norm(res.vs[t - 1])
                    >= t * (t + 1) * gamma / 8.0 - BOUND_TOL), (n, gamma, t)
    print("criterion 08 (momentum iterate norm >= T(T+1) gamma / 8): PASS")


def test_criterion_09_pnorm_margin_rate():
    for p in (2.0, 4.0, 8.0):
        for seed in range(3):
            ds = generate(GenSpec(n=16, d=8, gamma=0.2, norm_exponent=p,
                                  mode=GenMode.LOWER_BOUND, seed=seed))
            gamma_cert = margin(ds, ds.w_star)
            slack = math.sqrt(2.0 * (p - 1.0) * math.log(ds.n))
            trace = run_dynamics(alg.pnorm_config(ds.n, 200, p), ds)
            for t in range(1, 201):
                bound = gamma_cert - slack / t
                assert trace.margin_avg[t - 1] >= bound - BOUND_TOL, (p, seed, t)
            threshold = int(math.ceil(slack / gamma_cert)) + 1
            assert trace.margin_avg[threshold - 1] >= 0.0
    print("criterion 09 (p-norm averaged margin >= cert - sqrt(2(p-1)log n)/T"
          " for p in {2,4,8}, nonnegative past threshold): PASS")


def test_criterion_10_ridge_game_regret_split():
    for seed in range(6):
        n = (8, 64)[seed % 2]
        ds = exact_margin_dataset(n, 6, 0.25, seed=seed)
        for T in (10, 100):
            trace = run_dynamics(alg.smooth_config(T), ds)
            s = trace.sum_sq_l1_delta
            assert trace.regret_w <= 2.0 * s + BOUND_TOL, (seed, T)
            assert (trace.regret_p
                    <= 4.0 * math.log(n) - 2.0 * s + BOUND_TOL), (seed, T)
    print("criterion 10 (ridge-game regret split: R_w <= 2 sum ||dp||_1^2 and"
          " R_p <= 4 log n - 2 sum ||dp||_1^2): PASS")


def test_criterion_11_mirror_prox_total_regret():
    specs = [GenSpec(n=8, d=4, gamma=0.3, mode=GenMode.EXACT_MARGIN, seed=0),
             GenSpec(n=64, d=16, gamma=0.2, mode=GenMode.LOWER_BOUND, seed=1),
             GenSpec(n=30, d=5, gamma=0.3, mode=GenMode.INFEASIBLE, seed=2)]
    for spec in specs:
        ds = generate(spec)
        for T in (10, 100):
            trace = run_dynamics(alg.mpfp_config(ds.n, T), ds)
            total = trace.regret_w + trace.regret_p
            bound = 1.5 * math.sqrt(math.log(ds.n))
            assert total <= bound + BOUND_TOL, (spec.mode, T, total, bound)
    print("criterion 11 (mirror-prox total regret <= (3/2) sqrt(log n) on "
          "every run): PASS")


def test_criterion_12_infeasibility_certificate():
    for n in (3, 30):
        for seed in range(3):
            ds = generate(GenSpec(n=n, d=4, gamma=0.3,
                                  mode=GenMode.INFEASIBLE, seed=seed))
            for T in (10, 100, 1000):
                _, cert = alg.infeasibility_certificate(ds, T)
                bound = 3.0 * math.sqrt(math.log(n)) / (2.0 * T)
                assert cert <= bound + BOUND_TOL, (n, seed, T, cert, bound)
    print("criterion 12 (infeasibility certificate norm <= 3 sqrt(log n)/(2T)"
          " on hull-contains-origin data): PASS")


def test_criterion_13_duality_gap_guarantee():
    rng = np.random.default_rng(99)
    ds = exact_margin_dataset(16, 6, 0.25, seed=3)
    configs = [alg.smooth_config(40), alg.nag_config(40),
               alg.mpfp_config(16, 40), alg.pnorm_config(16, 40, 4.0)]
    checked = 0
    for config in configs:
        trace = run_dynamics(config, ds)
        rhs = (trace.regret_w + trace.regret_p) / trace.sum_alpha
        ball_norm = config.w_learner.ball_norm

        def m(w):
            return margin(ds, w) - (0.5 * float(w @ w) if ball_norm is None else 0.0)

        for _ in range(100):
            w = rng.standard_normal(6)
            if ball_norm is not None:
                w /= max(1.0, float(np.linalg.norm(w, ord=ball_norm)))
            assert m(w) - m(trace.w_bar) <= rhs + BOUND_TOL
            checked += 1
    print(f"criterion 13 (duality gap m(w) - m(w_bar) <= (R_w + R_p)/"
          f"sum(alpha), {checked} comparators over 4 configs): PASS")


def test_criterion_14_closed_forms_match_numeric_oracles():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((4, 3))
    x /= np.linalg.norm(x, axis=1)[:, None] / rng.uniform(0.4, 0.9, size=4)[:, None]
    a = rng.choice([-1.0, 1.0], size=4)[:, None] * x

    # simplex learners
    eta = 0.25
    st = OftrlEntropy(eta=eta).start(a)
    cum = np.zeros(4)
    for t in (1.0, 2.0):
        loss = rng.standard_normal(4)
        p = plus_step(st, t, loss)
        cum += t * loss
        assert rel_linf(p, simplex_argmin(cum, eta)) <= 1e-7
    st2 = OftrlEntropy(eta=eta).start(a)
    hint = rng.standard_normal(4)
    assert rel_linf(st2.decide(1.0, hint), simplex_argmin(hint, eta)) <= 1e-7
    st3 = OmdEntropy(eta=0.7).start(a)
    st3.absorb(1.0, rng.standard_normal(4))
    prior = st3.hat.copy()
    g = rng.standard_normal(4)
    assert rel_linf(st3.decide(1.0, g),
                    simplex_argmin(g, 0.7, prior=prior)) <= 1e-7

    # classifier-side learners
    st4 = Oftl().start(a)
    p0 = rng.dirichlet(np.ones(4))
    st4.absorb(1.0, a.T @ p0)
    p1 = rng.dirichlet(np.ones(4))
    assert rel_linf(st4.decide(2.0, a.T @ p1),
                    quadratic_argmin(a, p0 + 2.0 * p1, 3.0)) <= 1e-7
    st5 = Oftl().start(a)
    w = plus_step(st5, 1.0, a.T @ p0)
    assert rel_linf(w, quadratic_argmin(a, p0, 1.0)) <= 1e-7

    q, eta_w = 1.5, 0.6
    st6 = OftrlQNorm(eta=eta_w, q=q).start(a)
    theta = a.T @ p0

    def objective(v):
        return float(-theta @ v
                     + np.linalg.norm(v, ord=q) ** 2 / (2 * (q - 1) * eta_w))

    res = minimize(objective, np.full(3, 0.1),
                   jac=lambda v: -theta + qnorm_primal_grad(v, q) / eta_w,
                   method="BFGS", options={"gtol": 1e-13})
    assert rel_linf(st6.decide(1.0, theta), res.x) <= 1e-7

    g = rng.standard_normal(3) * 2.0
    # one row, -g: the gradient -(A' p) at p = (1,) is g
    a7 = -g[None, :]
    st7 = OmdBall(eta=0.8).start(a7)
    prox = minimize(lambda z: float(0.8 * g @ z + 0.5 * z @ z),
                    np.zeros(3), method="SLSQP",
                    constraints=[{"type": "ineq",
                                  "fun": lambda z: 1.0 - z @ z}],
                    options={"ftol": 1e-14})
    assert rel_linf(st7.decide(1.0, a7.T @ np.ones(1)), prox.x) <= 1e-6

    # dual-map round trip and risk gradient
    for qq in (1.1, 1.5, 2.0):
        for _ in range(10):
            th = rng.standard_normal(4)
            assert rel_linf(qnorm_primal_grad(qnorm_dual_map(th, qq), qq),
                            th) <= 1e-8
    ds = exact_margin_dataset(8, 4, 0.3, seed=0)
    u = rng.standard_normal(4)
    u *= min(1.0, 2.0 / np.linalg.norm(u))
    grad = empirical_risk_grad(ds, u)
    for i in range(4):
        e = np.zeros(4)
        e[i] = 1e-6
        fd = (empirical_risk(ds, u + e)
              - empirical_risk(ds, u - e)) / 2e-6
        assert abs(fd - grad[i]) <= 1e-6 * max(1.0, abs(grad[i]))
    print("criterion 14 (closed-form learner steps == numeric minimizers; "
          "dual-map round trip; risk gradient vs differences): PASS")


def test_criterion_15_vanilla_bound_and_separation():
    # classical additive-update mistake bound
    for gamma in (0.2, 0.3):
        cap = int(math.ceil(1.0 / gamma ** 2))
        for seed in range(5):
            ds = exact_margin_dataset(64, 8, gamma, seed=seed)
            _, updates, exhausted = alg.vanilla_perceptron(ds, 10 * cap)
            assert not exhausted and updates <= cap, (gamma, seed, updates)

    # accelerated methods separate in strictly fewer iterations
    def first_separating_round(vectors, ds):
        for t, v in enumerate(vectors):
            if margin(ds, v) >= 0.0:
                return t + 1
        return None

    specs = ([GenSpec(n=64, d=16, gamma=0.2, mode=GenMode.EXACT_MARGIN,
                      seed=s) for s in range(5)]
             + [GenSpec(n=64, d=16, gamma=0.1, mode=GenMode.LOWER_BOUND,
                        seed=s) for s in range(5)])
    for spec in specs:
        ds = generate(spec)
        cap = 10 * int(math.ceil(1.0 / spec.gamma ** 2))
        _, updates, exhausted = alg.vanilla_perceptron(ds, cap)
        assert not exhausted
        t_max = 4 * int(math.ceil(4.0 * math.sqrt(math.log(64)) / spec.gamma))
        smooth_t = first_separating_round(
            collect_rounds(alg._smooth_rounds, ds, t_max).vs, ds)
        momentum_t = first_separating_round(
            collect_rounds(alg._ji_rounds, ds, t_max).vs, ds)
        for label, t in (("smooth", smooth_t), ("momentum", momentum_t)):
            assert t is not None and t < updates, (spec.mode, spec.seed,
                                                   label, t, updates)
    print("criterion 15 (vanilla mistakes <= ceil(1/gamma^2); accelerated "
          "methods separate in strictly fewer iterations): PASS")
