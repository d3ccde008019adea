import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import minimize

from nrp.errors import BadParameter, NonFinite
from nrp.learners import (UNDERFLOW_FLOOR, Oftl, OftrlEntropy, OftrlQNorm, OmdBall,
                          OmdEntropy, project_ball, qnorm_dual_map,
                          regret_p_from_arrays, regret_w_from_arrays,
                          softmax_neg)
from conftest import qnorm_primal_grad, random_dataset


def rows(n):
    """A matrix with n rows: all a simplex learner's start reads of it."""
    return np.zeros((n, 1))


def plus_step(state, alpha, realized):
    """FTRL-plus: decide with the realized play as the hint, then absorb it."""
    play = state.decide(alpha, realized)
    state.absorb(alpha, realized)
    return play


def rel_linf(x, y):
    scale = max(np.max(np.abs(x)), np.max(np.abs(y)), 1e-10)
    return np.max(np.abs(x - y)) / scale


def simplex_argmin(linear, eta, prior=None, n_starts=3):
    """Numeric minimizer of <linear, p> + (1/eta) KL(p, prior) over the
    simplex, via a softmax parametrization; independent of the closed forms."""
    n = linear.shape[0]
    log_prior = np.zeros(n) if prior is None else np.log(prior)

    def to_p(z):
        z = z - z.max()
        e = np.exp(z)
        return e / e.sum()

    def objective(z):
        p = to_p(z)
        return float(p @ linear + (1.0 / eta) * p @ (np.log(p) - log_prior))

    def gradient(z):
        p = to_p(z)
        v = linear + (np.log(p) - log_prior + 1.0) / eta
        return p * (v - float(p @ v))     # softmax Jacobian applied to v

    best = None
    rng = np.random.default_rng(7)
    for k in range(n_starts):
        z0 = np.zeros(n) if k == 0 else rng.standard_normal(n)
        res = minimize(objective, z0, jac=gradient, method="BFGS",
                       options={"gtol": 1e-12, "maxiter": 10000})
        if best is None or res.fun < best.fun:
            best = res
    return to_p(best.x)


# ---------------------------------------------------------------------------
# softmax kernel

def test_softmax_uniform_at_zero():
    assert np.allclose(softmax_neg(np.zeros(5)), 0.2)


def test_softmax_hand_value():
    p = softmax_neg(0.25 * np.array([0.0, 4.0]))
    z = 1.0 + math.exp(-1.0)
    assert np.allclose(p, [1.0 / z, math.exp(-1.0) / z], atol=1e-15)


def test_softmax_shift_invariance(rng):
    for _ in range(50):
        s = rng.standard_normal(6) * rng.uniform(0.1, 20)
        c = float(rng.standard_normal())
        assert np.allclose(softmax_neg(s), softmax_neg(s + c),
                           rtol=1e-12, atol=1e-15)
    # exactly representable shifts of exactly representable scores:
    # bitwise identical output
    s = np.array([1.0, -2.5, 0.25, 8.0])
    assert np.array_equal(softmax_neg(s), softmax_neg(s + 4.0))


def test_softmax_simplex_valid(rng):
    for _ in range(50):
        p = softmax_neg(rng.standard_normal(8) * 100)
        assert np.all(p >= 0) and abs(p.sum() - 1.0) <= 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_kernel_input_names_the_quantity(bad):
    # one bad entry in one row of a stack is enough, also in a row whose
    # other scores lie far apart: there the -inf of min - inf would pass the
    # softmax's clamp as a floor weight, so its finiteness check runs first
    for other in (0.0, 800.0):
        s = np.zeros((3, 4))
        s[1] = [0.0, other, bad, 0.0]
        for kernel, quantity in ((softmax_neg, "softmax scores"),
                                 (lambda x: qnorm_dual_map(x, 1.5), "dual map input")):
            for x in (s, s[1]):
                with pytest.raises(NonFinite) as exc:
                    kernel(x)
                assert exc.value.quantity == quantity


def stacks(bound):
    """(B, n) float64 stacks with finite entries in [-bound, bound], zeros
    included."""
    return st.tuples(st.integers(1, 5), st.integers(1, 9)).flatmap(
        lambda shape: arrays(np.float64, shape, elements=st.one_of(
            st.just(0.0), st.floats(-bound, bound, allow_nan=False))))


@settings(deadline=None)
@given(stacks(1e300))
def test_softmax_rows_match_single_calls(s):
    batched = softmax_neg(s)
    for row, out in zip(s, batched):
        assert np.array_equal(out, softmax_neg(row))


@settings(deadline=None)
@given(stacks(1e300))
def test_softmax_rows_on_simplex_at_extreme_scores(s):
    p = softmax_neg(s)
    assert np.all(np.isfinite(p)) and np.all(p > 0.0)
    assert np.all(np.abs(p.sum(axis=-1) - 1.0) <= 1e-12)


def unclamped_softmax_neg(scores):
    """softmax_neg as written before its exp argument was clamped."""
    s = np.asarray(scores, dtype=np.float64)
    z = np.exp(np.min(s, axis=-1, keepdims=True) - s)
    z = np.maximum(z, UNDERFLOW_FLOOR)
    return z / np.sum(z, axis=-1, keepdims=True)


def same_bits(x, y):
    """Equal shapes and bytes, so +0.0 and -0.0 differ too."""
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def near_clamp_stacks():
    """(B, n) stacks with a row minimum of 0 and the other scores 640 to
    760 above it, so exp's arguments span [-760, -640]: across the clamp at
    EXP_ARG_MIN and the slow path of exp below about -708; each stack is
    shifted by one drawn constant."""
    return st.tuples(st.integers(1, 5), st.integers(1, 8)).flatmap(
        lambda shape: st.tuples(
            arrays(np.float64, shape, elements=st.floats(640.0, 760.0)),
            st.floats(-1e3, 1e3))).map(
        lambda drawn: np.concatenate([np.zeros((drawn[0].shape[0], 1)), drawn[0]],
                                     axis=-1) + drawn[1])


@settings(deadline=None)
@given(st.one_of(near_clamp_stacks(), stacks(1e300)))
@example(np.array([[0.0, 640.0, 700.0, 708.5, 745.2, 746.5, 760.0]]))
def test_softmax_clamp_keeps_the_unclamped_bits(s):
    want = unclamped_softmax_neg(s)
    assert same_bits(softmax_neg(s), want)
    assert same_bits(softmax_neg(s[0]), want[0])
    scores = s.copy()
    assert same_bits(softmax_neg(scores, out=scores), want)


@settings(deadline=None)
@given(stacks(1e100))
def test_project_ball_rows_match_single_calls(v):
    batched = project_ball(v)
    for row, out in zip(v, batched):
        assert np.array_equal(out, project_ball(row))
    assert np.all(np.linalg.norm(batched, axis=-1) <= 1.0 + 1e-15)


@settings(deadline=None)
@given(stacks(1e6), st.floats(1.05, 2.0))
def test_qnorm_dual_map_rows_match_single_calls(theta, q):
    batched = qnorm_dual_map(theta, q)
    for row, out in zip(theta, batched):
        assert np.array_equal(out, qnorm_dual_map(row, q))
    assert not batched[~theta.any(axis=-1)].any()     # zero rows map to 0


# ---------------------------------------------------------------------------
# dual map

# q is drawn from the band [low, q_max] that ends at each parameter, so
# every run covers [1.05, 2] and each band gets its own draws.  Nearer 1
# the dual exponent q / (q - 1) passes 21: the closed form's power
# |theta_i|^(p-1) soon leaves the double range, and finite differences of
# ||w||_q^2 can no longer resolve the small coordinates of w.
Q_BANDS = {1.1: 1.05, 1.5: 1.1, 2.0: 1.5}


@pytest.mark.parametrize("q_max", list(Q_BANDS))
@settings(deadline=None)
@given(data=st.data())
def test_qnorm_dual_map_roundtrip(q_max, data):
    q = data.draw(st.floats(Q_BANDS[q_max], q_max), label="q")
    theta = data.draw(arrays(np.float64, 4, elements=st.floats(-10.0, 10.0)),
                      label="theta")
    assume(np.abs(theta).max() >= 0.1)
    back = qnorm_primal_grad(qnorm_dual_map(theta, q), q)
    assert rel_linf(back, theta) <= 1e-8


def test_qnorm_dual_map_identity_at_two(rng):
    theta = rng.standard_normal(5)
    assert np.array_equal(qnorm_dual_map(theta, 2.0), theta)


def test_qnorm_dual_map_zero():
    assert np.array_equal(qnorm_dual_map(np.zeros(3), 1.5), np.zeros(3))


@pytest.mark.parametrize("q_max", list(Q_BANDS))
@settings(deadline=None)
@given(data=st.data())
def test_qnorm_dual_map_finite_differences(q_max, data):
    # gradient of ||.||_q^2/(2(q-1)) at w = dual_map(theta) recovers theta;
    # magnitudes bounded away from 0, where the curvature blows up as q
    # nears 1, and steps relative to |w_i|, which can be far below 1
    q = data.draw(st.floats(Q_BANDS[q_max], q_max), label="q")
    theta = data.draw(arrays(np.float64, 4, elements=st.one_of(
        st.floats(-1.5, -0.8), st.floats(0.8, 1.5))), label="theta")
    w = qnorm_dual_map(theta, q)
    for i in range(4):
        h = 1e-4 * abs(w[i])
        e = np.zeros(4)
        e[i] = h
        rp = np.linalg.norm(w + e, ord=q) ** 2 / (2 * (q - 1))
        rm = np.linalg.norm(w - e, ord=q) ** 2 / (2 * (q - 1))
        assert abs((rp - rm) / (2 * h) - theta[i]) <= 1e-4 * max(1.0, abs(theta[i]))


# ---------------------------------------------------------------------------
# the states' in-place updates against out-of-place formulas

class OutOfPlace:
    """The three learner states' updates, each forming a new array."""

    def __init__(self, spec, shape):
        self.spec, self.cum, self.cum_alpha = spec, np.zeros(shape), 0.0

    def decide(self, alpha, hint):
        spec = self.spec
        if isinstance(spec, (OftrlEntropy, OmdEntropy)):
            return unclamped_softmax_neg(spec.eta * (self.cum + alpha * hint))
        if isinstance(spec, OmdBall):
            return project_ball(self.cum + spec.eta * alpha * hint)
        theta = self.cum + alpha * hint
        if isinstance(spec, OftrlQNorm):
            return qnorm_dual_map(spec.eta * theta, spec.q)
        return theta / (self.cum_alpha + alpha)

    def absorb(self, alpha, realized):
        if isinstance(self.spec, OmdBall):
            self.cum = project_ball(self.cum + self.spec.eta * alpha * realized)
        else:
            self.cum = self.cum + alpha * realized
        self.cum_alpha += alpha

    def shown(self, play):
        if isinstance(self.spec, OmdEntropy):
            return unclamped_softmax_neg(self.spec.eta * self.cum)
        return self.cum if isinstance(self.spec, OmdBall) else play


@st.composite
def state_runs(draw):
    """(lead, m, rounds): a state's vectors are lead + (m,), with lead ()
    or (B,), and each round is (alpha, hint, realized) of that shape."""
    lead = draw(st.sampled_from([(), (1,), (3,)]))
    m = draw(st.integers(1, 6))
    vectors = arrays(np.float64, lead + (m,), elements=st.floats(-1e3, 1e3))
    rounds = draw(st.lists(st.tuples(st.floats(0.5, 50.0), vectors, vectors),
                           min_size=1, max_size=6))
    return lead, m, rounds


@pytest.mark.parametrize("spec", [
    OftrlEntropy(eta=0.25), OftrlEntropy(eta=3.0), OmdEntropy(eta=20.0),
    Oftl(), OftrlQNorm(eta=0.5, q=1.5),
    OftrlQNorm(eta=0.5, q=2.0), OmdBall(eta=0.8)], ids=repr)
@settings(deadline=None)
@given(state_runs())
def test_in_place_states_match_out_of_place_formulas(spec, run):
    lead, m, rounds = run
    # a square a, so the simplex and the w-side states both have length m
    state, ref = spec.start(np.zeros(lead + (m, m))), OutOfPlace(spec, lead + (m,))
    returned = []
    for alpha, hint, realized in rounds:
        play = state.decide(alpha, hint)
        shown = state.hat if state.shows_hat else play
        assert same_bits(play, ref.decide(alpha, hint))
        assert same_bits(shown, ref.shown(play))
        buffers = [v for v in vars(state).values() if isinstance(v, np.ndarray)]
        assert not any(np.shares_memory(play, v) for v in buffers)
        returned += [(play, play.copy()), (shown, shown.copy())]
        state.absorb(alpha, realized)
        ref.absorb(alpha, realized)
        # no later call writes into an array that an earlier one returned
        assert all(same_bits(x, saved) for x, saved in returned)


# ---------------------------------------------------------------------------
# simplex learners vs numeric oracle

def test_entropy_ftrl_plus_uniform_start():
    state = OftrlEntropy(eta=0.25).start(rows(4))
    p = plus_step(state, 1.0, np.zeros(4))
    assert np.allclose(p, 0.25)


def test_entropy_ftrl_plus_hand_value():
    state = OftrlEntropy(eta=0.25).start(rows(2))
    p = plus_step(state, 1.0, np.array([0.0, 4.0]))
    assert np.allclose(p, [0.73105857863000490, 0.26894142136999512], atol=1e-12)


def test_entropy_ftrl_plus_vs_oracle(rng):
    n, eta = 3, 0.25
    state = OftrlEntropy(eta=eta).start(rows(n))
    cum = np.zeros(n)
    for t in range(1, 4):
        loss = rng.standard_normal(n)
        p = plus_step(state, float(t), loss)
        cum += t * loss
        oracle = simplex_argmin(cum, eta)
        assert rel_linf(p, oracle) <= 1e-7


def test_entropy_oftrl_vs_oracle(rng):
    n, eta = 3, 0.25
    state = OftrlEntropy(eta=eta).start(rows(n))
    cum = np.zeros(n)
    hint = np.zeros(n)
    for t in range(1, 4):
        p = state.decide(float(t), hint)
        oracle = simplex_argmin(cum + t * hint, eta)
        assert rel_linf(p, oracle) <= 1e-7
        loss = rng.standard_normal(n)
        state.absorb(float(t), loss)
        cum += t * loss
        hint = loss


def test_entropy_oftrl_uniform_at_start():
    state = OftrlEntropy(eta=0.25).start(rows(5))
    assert np.allclose(state.decide(1.0, np.zeros(5)), 0.2)


def test_oftrl_hint_equals_realized_matches_ftrl_plus(rng):
    n, eta = 4, 0.25
    a_state = OftrlEntropy(eta=eta).start(rows(n))
    b_state = OftrlEntropy(eta=eta).start(rows(n))
    for t in range(1, 5):
        loss = rng.standard_normal(n)
        pa = plus_step(a_state, float(t), loss)
        pb = b_state.decide(float(t), loss)
        b_state.absorb(float(t), loss)
        assert np.array_equal(pa, pb)


def test_omd_entropy_vs_oracle(rng):
    n, eta = 3, 0.7
    state = OmdEntropy(eta=eta).start(rows(n))
    for t in range(1, 4):
        hint = rng.standard_normal(n)
        realized = rng.standard_normal(n)
        prior = state.hat.copy()
        p = state.decide(1.0, hint)
        oracle = simplex_argmin(hint, eta, prior=prior)
        assert rel_linf(p, oracle) <= 1e-7
        state.absorb(1.0, realized)
        oracle_hat = simplex_argmin(realized, eta, prior=prior)
        assert rel_linf(state.hat, oracle_hat) <= 1e-7


def test_omd_entropy_zero_gradients_fixed_point(rng):
    state = OmdEntropy(eta=0.5).start(rows(4))
    state.absorb(1.0, rng.standard_normal(4))
    before = state.hat.copy()
    p = state.decide(1.0, np.zeros(4))
    assert np.allclose(p, before, atol=1e-15)


# ---------------------------------------------------------------------------
# w-side learners vs numeric oracle

def quadratic_argmin(a, weighted_ps, total_alpha):
    """Numeric minimizer of sum_s alpha_s (-p_s'Aw + ||w||^2/2)."""
    d = a.shape[1]
    target = a.T @ weighted_ps

    def objective(w):
        return float(-target @ w + 0.5 * total_alpha * w @ w)

    res = minimize(objective, np.zeros(d), method="BFGS",
                   options={"gtol": 1e-14})
    return res.x


def test_oftl_w_start_is_row_mean(rng):
    ds = random_dataset(rng, 5, 3)
    state = Oftl().start(ds.matrix)
    w1 = state.decide(1.0, ds.matrix.T @ (np.ones(5) / 5))
    assert np.allclose(w1, ds.matrix.sum(axis=0) / 5, atol=1e-15)


def test_oftl_w_constant_p_fixed_point(rng):
    ds = random_dataset(rng, 5, 3)
    p = rng.dirichlet(np.ones(5))
    state = Oftl().start(ds.matrix)
    for t in range(1, 5):
        w = state.decide(float(t), ds.matrix.T @ p)
        assert np.allclose(w, ds.matrix.T @ p, atol=1e-14)
        state.absorb(float(t), ds.matrix.T @ p)


def test_oftl_w_vs_oracle(rng):
    ds = random_dataset(rng, 4, 3)
    state = Oftl().start(ds.matrix)
    hist = []
    hint = np.ones(4) / 4
    for t in range(1, 4):
        w = state.decide(float(t), ds.matrix.T @ hint)
        weighted = sum(al * p for al, p in hist) + t * hint
        total = sum(al for al, _ in hist) + t
        oracle = quadratic_argmin(ds.matrix, weighted, total)
        assert rel_linf(w, oracle) <= 1e-7
        p = rng.dirichlet(np.ones(4))
        state.absorb(float(t), ds.matrix.T @ p)
        hist.append((float(t), p))
        hint = p


def test_unregularized_ftrl_w_vs_oracle(rng):
    ds = random_dataset(rng, 4, 3)
    state = Oftl().start(ds.matrix)
    hist = []
    for t in range(1, 4):
        p = rng.dirichlet(np.ones(4))
        hist.append((float(t), p))
        w = plus_step(state, float(t), ds.matrix.T @ p)
        weighted = sum(al * pp for al, pp in hist)
        total = sum(al for al, _ in hist)
        oracle = quadratic_argmin(ds.matrix, weighted, total)
        assert rel_linf(w, oracle) <= 1e-7


def test_qnorm_oftrl_vs_oracle(rng):
    q = 1.5
    ds = random_dataset(rng, 4, 3, norm_exponent=q / (q - 1.0))
    eta = 0.6
    state = OftrlQNorm(eta=eta, q=q).start(ds.matrix)
    hist = []
    hint = np.ones(4) / 4
    for t in range(1, 4):
        w = state.decide(1.0, ds.matrix.T @ hint)
        weighted = sum(p for p in hist) + hint
        theta = ds.matrix.T @ weighted

        def objective(v):
            return float(-theta @ v
                         + np.linalg.norm(v, ord=q) ** 2 / (2 * (q - 1) * eta))

        def gradient(v):
            return -theta + qnorm_primal_grad(v, q) / eta

        res = minimize(objective, np.full(3, 0.1), jac=gradient,
                       method="BFGS", options={"gtol": 1e-13, "maxiter": 5000})
        assert rel_linf(w, res.x) <= 1e-7
        p = rng.dirichlet(np.ones(4))
        state.absorb(1.0, ds.matrix.T @ p)
        hist.append(p)
        hint = p


def test_omd_ball_vs_oracle(rng):
    d, eta = 3, 0.8
    grads = rng.standard_normal((8, d))     # hint, realized for 4 rounds
    # the gradient -(A' p) at the distribution on row k alone is grads[k]
    a = -grads
    state = OmdBall(eta=eta).start(a)
    on_row = np.eye(8)
    for k in range(0, 8, 2):
        hint, realized = grads[k], grads[k + 1]
        anchor = state.hat.copy()
        w = state.decide(1.0, a.T @ on_row[k])

        def prox(g):
            def objective(z):
                return float(eta * g @ z + 0.5 * (z - anchor) @ (z - anchor))

            res = minimize(objective, anchor, method="SLSQP",
                           constraints=[{"type": "ineq",
                                         "fun": lambda z: 1.0 - z @ z}],
                           options={"ftol": 1e-14, "maxiter": 1000})
            return res.x

        assert rel_linf(w, prox(hint)) <= 1e-6
        state.absorb(1.0, a.T @ on_row[k + 1])
        assert rel_linf(state.hat, prox(realized)) <= 1e-6


def test_omd_ball_interior_and_boundary(rng):
    # row k of A is -g_k, so the distribution on row k has gradient g_k
    a = np.array([[-0.3, 0.0], [-2.0, 0.0]])
    state = OmdBall(eta=1.0).start(a)
    p = np.array([1.0, 0.0])
    assert np.allclose(state.decide(1.0, a.T @ p), [-0.3, 0.0], atol=1e-15)
    p2 = np.array([0.0, 1.0])
    w = state.decide(1.0, a.T @ p2)
    assert np.allclose(w, [-1.0, 0.0], atol=1e-15)


def test_project_ball():
    assert np.array_equal(project_ball(np.array([0.3, 0.4])), [0.3, 0.4])
    assert np.allclose(np.linalg.norm(project_ball(np.array([3.0, 4.0]))), 1.0)


# ---------------------------------------------------------------------------
# regrets

def test_regret_w_single_round_example(rng):
    # w_1 = 0 against uniform p_1 under ridge losses loses ||A'1/n||^2/2
    ds = random_dataset(rng, 5, 3)
    a = ds.matrix
    ws = np.zeros((1, 3))
    ps = np.ones((1, 5)) / 5
    reg = regret_w_from_arrays(a, [1.0], ws, ps, None)
    expect = 0.5 * float(np.dot(a.T @ ps[0], a.T @ ps[0]))
    assert reg == pytest.approx(expect, abs=1e-12)


def test_regret_w_optimal_play_zero(rng):
    ds = random_dataset(rng, 5, 3)
    p = rng.dirichlet(np.ones(5))
    w = ds.matrix.T @ p
    reg = regret_w_from_arrays(ds.matrix, [1.0], w[None, :], p[None, :], None)
    assert abs(reg) <= 1e-12


def test_regret_nonnegative_constant_play(rng):
    # with constant plays the comparator minimum cannot beat the played sum
    ds = random_dataset(rng, 5, 3)
    T = 4
    alphas = np.arange(1.0, T + 1)
    for ball_norm in (None, 2.0, 1.5):
        for _ in range(20):
            p = rng.dirichlet(np.ones(5))
            w = rng.standard_normal(3) * 0.5
            if ball_norm is not None:
                w /= max(1.0, np.linalg.norm(w))
            ws = np.tile(w, (T, 1))
            ps = np.tile(p, (T, 1))
            reg = regret_w_from_arrays(ds.matrix, alphas, ws, ps, ball_norm)
            assert reg >= -1e-12
            assert regret_p_from_arrays(ds.matrix, alphas, ws, ps) >= -1e-12


def test_regret_p_vertex_play_zero(rng):
    ds = random_dataset(rng, 5, 3)
    w = rng.standard_normal(3)
    i = int(np.argmin(ds.matrix @ w))
    p = np.eye(5)[i]
    assert abs(regret_p_from_arrays(ds.matrix, [1.0, 2.0],
                                    np.stack([w, w]), np.stack([p, p]))) <= 1e-12


def test_regret_p_uniform_positive_on_asymmetric():
    a = np.array([[1.0, 0.0], [0.0, 0.2]])
    w = np.array([1.0, 1.0])
    p = np.ones(2) / 2
    reg = regret_p_from_arrays(a, [1.0], w[None, :], p[None, :])
    assert reg == pytest.approx(0.6 - 0.2)


def test_norm_inequalities_l2_rows(rng):
    # ||p'A||_2 <= ||p||_1 and ||Aw||_inf <= ||w||_2 when rows are unit-bounded
    ds = random_dataset(rng, 6, 4)
    a = ds.matrix
    for _ in range(50):
        p = rng.standard_normal(6)
        w = rng.standard_normal(4)
        assert np.linalg.norm(a.T @ p) <= np.abs(p).sum() + 1e-12
        assert np.max(np.abs(a @ w)) <= np.linalg.norm(w) + 1e-12


@pytest.mark.parametrize("eta", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("spec", [OftrlEntropy, OmdEntropy, OmdBall,
                                  lambda eta: OftrlQNorm(eta=eta, q=1.5)],
                         ids=["OftrlEntropy", "OmdEntropy", "OmdBall", "OftrlQNorm"])
def test_step_size_must_be_positive(spec, eta):
    # NaN fails `eta <= 0` too, so only `not 0 < eta < inf` rejects it and inf
    with pytest.raises(BadParameter, match="eta must be positive"):
        spec(eta=eta)


def test_learner_spec_validation():
    with pytest.raises(ValueError):
        OftrlEntropy(eta=0.0)
    with pytest.raises(ValueError):
        OftrlQNorm(eta=1.0, q=1.0)
    with pytest.raises(ValueError):
        OftrlQNorm(eta=1.0, q=2.5)
