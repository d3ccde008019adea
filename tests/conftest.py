import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from nrp import algorithms as alg, cli, learners
from nrp.core import build_dataset
from nrp.datagen import GenMode, GenSpec, generate
from nrp.errors import NonFinite


# a child that runs the CLI and then prints its own peak RSS, in KiB
PEAK_CHILD = ("import resource, sys\nfrom nrp import cli\ncode = cli.main(sys.argv[1:])\n"
              "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\nsys.exit(code)")


def nrp_process(*argv, peak=False, stdout=subprocess.PIPE, **env):
    """``python -m nrp.cli argv`` in a fresh interpreter that imports the
    nrp these tests import, with this environment plus env; the completed
    process, with its text output (its stdout only if stdout is left a
    pipe).  With peak, the child prints its own peak RSS in KiB as the last
    line of its output."""
    source = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (source, os.environ.get("PYTHONPATH"))))
    program = ["-c", PEAK_CHILD] if peak else ["-m", "nrp.cli"]
    return subprocess.run([sys.executable, *program, *argv], stdout=stdout,
                          stderr=subprocess.PIPE, text=True,
                          env={**os.environ, **env, "PYTHONPATH": path}, timeout=300)


def random_dataset(rng, n, d, norm_exponent=2.0):
    """Small random dataset with rows shrunk inside the unit p-norm ball."""
    x = rng.standard_normal((n, d))
    x /= np.linalg.norm(x, ord=norm_exponent, axis=1)[:, None]
    x *= rng.uniform(0.3, 0.95, size=n)[:, None]
    y = rng.choice([-1.0, 1.0], size=n)
    return build_dataset(x, y, norm_exponent=norm_exponent)


class CountedMatrix(np.ndarray):
    """View of a data matrix that counts the products taking a 2-D view of
    it as an operand, np.matmul and np.dot: the matrix, its transpose or a
    block of its rows, such as the support product's gathered rows, each
    count as one product; 1-D row slices do not count."""

    def __array_finalize__(self, obj):
        self.counter = getattr(obj, "counter", None)

    def _count(self, operands):
        if any(isinstance(x, CountedMatrix) and x.ndim == 2 for x in operands):
            self.counter[0] += 1

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul and method == "__call__":
            self._count(inputs)
        plain = [x.view(np.ndarray) if isinstance(x, CountedMatrix) else x
                 for x in inputs]
        return getattr(ufunc, method)(*plain, **kwargs)

    def __array_function__(self, func, types, args, kwargs):
        if func is np.dot:
            self._count(args)
        return super().__array_function__(func, types, args, kwargs)


def softmax_failing_at(monkeypatch, module, call):
    """Make the softmax that module calls raise NonFinite at its call-th
    call; the engine's players call nrp.learners', an original form
    nrp.algorithms'."""
    softmax = module.softmax_neg
    calls = []

    def failing(scores, out=None):
        calls.append(None)
        if len(calls) == call:
            raise NonFinite("softmax scores")
        return softmax(scores, out=out)

    monkeypatch.setattr(module, "softmax_neg", failing)
    return calls


def count_matvecs(dataset):
    """Swap the dataset's matrix for a counting view of the same memory and
    return the one-element list that accumulates the count."""
    view = dataset.matrix.view(CountedMatrix)
    view.counter = [0]
    object.__setattr__(dataset, "matrix", view)
    return view.counter


# the names under which `collect_rounds` stacks each original form's iterates
ROUND_NAMES = {alg._smooth_rounds: ("vs", "qs"), alg._ji_rounds: ("vs", "gs", "qs"),
               alg._nag_rounds: ("vs", "ss", "us", "qs"),
               alg._mpfp_rounds: ("us_w", "us_p")}


def collect_rounds(rounds, dataset, horizon):
    """Run an original form's generator for `horizon` rounds and stack each
    iterate it yields into a (T, .) array, read by its name in ROUND_NAMES."""
    columns = zip(*rounds(dataset, horizon))
    return SimpleNamespace(**{name: np.array(column)
                              for name, column in zip(ROUND_NAMES[rounds], columns)})


def qnorm_primal_grad(w, q):
    """Gradient of ||w||_q^2 / (2(q-1)); inverse of qnorm_dual_map."""
    w = np.asarray(w, dtype=np.float64)
    norm = float(np.linalg.norm(w, ord=q))
    if norm == 0.0:
        return np.zeros_like(w)
    return np.sign(w) * np.abs(w) ** (q - 1.0) * norm ** (2.0 - q) / (q - 1.0)


def nan_dual_map_from(monkeypatch, bad_round):
    """Make the q-norm dual map return NaN from its bad_round-th call on,
    as a map that overflows would; returns the list of calls so far."""
    dual_map = learners.qnorm_dual_map
    calls = []

    def nan_from_bad_round(theta, q):
        calls.append(q)
        w = dual_map(theta, q)
        return w * np.nan if len(calls) >= bad_round else w

    monkeypatch.setattr(learners, "qnorm_dual_map", nan_from_bad_round)
    return calls


def empirical_risk(dataset, v):
    """Mean exponential loss (1/n) sum_i exp(-(A v)_i)."""
    return float(np.mean(np.exp(-(dataset.matrix @ v))))


def empirical_risk_grad(dataset, v):
    a = dataset.matrix
    return -(a.T @ np.exp(-(a @ v))) / dataset.n


def exact_margin_dataset(n, d, gamma, seed):
    return generate(GenSpec(n=n, d=d, gamma=gamma,
                            mode=GenMode.EXACT_MARGIN, seed=seed))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
