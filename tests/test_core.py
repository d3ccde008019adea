import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from nrp.core import (Dataset, GameObjective, best_response_value,
                      build_dataset, margin, normalized_margin, read_dataset,
                      write_dataset)
from nrp.datagen import GenMode, GenSpec, generate
from nrp.errors import (BadDatasetFile, BadLabel, BadParameter, NonFinite,
                        RowNormViolation, ZeroVector)
from conftest import random_dataset


def test_build_identity_row():
    ds = build_dataset(np.array([[1.0, 0.0]]), np.array([1.0]))
    assert np.array_equal(ds.matrix, [[1.0, 0.0]])


def test_build_sign_flip():
    ds = build_dataset(np.array([[1.0, 0.0]]), np.array([-1.0]))
    assert np.array_equal(ds.matrix, [[-1.0, 0.0]])


def test_build_rejects_row_norm():
    with pytest.raises(RowNormViolation) as exc:
        build_dataset(np.array([[0.8, 0.8]]), np.array([1.0]))
    assert exc.value.index == 0


def test_build_rejects_bad_label():
    with pytest.raises(BadLabel):
        build_dataset(np.array([[0.5, 0.0]]), np.array([2.0]))


def test_build_rejects_nonfinite():
    with pytest.raises(NonFinite):
        build_dataset(np.array([[np.nan, 0.0]]), np.array([1.0]))


def test_margin_identity_matrix():
    ds = Dataset(matrix=np.eye(2))
    assert margin(ds, np.array([1.0, 1.0])) == 1.0


def test_margin_zero_vector_is_zero(rng):
    ds = random_dataset(rng, 6, 3)
    assert margin(ds, np.zeros(3)) == 0.0


def test_normalized_margin_hand_value():
    ds = Dataset(matrix=np.array([[1.0, 0.0]]))
    assert normalized_margin(ds, np.array([3.0, 4.0])) == pytest.approx(3.0 / 5.0)


def test_normalized_margin_scale_invariant(rng):
    ds = random_dataset(rng, 5, 4)
    for _ in range(20):
        w = rng.standard_normal(4)
        c = float(rng.uniform(0.01, 100.0))
        a, b = normalized_margin(ds, w), normalized_margin(ds, c * w)
        assert abs(a - b) <= 1e-14 * max(1.0, abs(a))


def test_normalized_margin_zero_vector():
    ds = Dataset(matrix=np.eye(2))
    with pytest.raises(ZeroVector):
        normalized_margin(ds, np.zeros(2))


def game_value(objective, dataset, w, p):
    """The payoff g(w, p) of each objective: the reference the best
    response is checked against."""
    value = float(p @ (dataset.matrix @ w))
    if objective is GameObjective.L2_REGULARIZED:
        value -= 0.5 * float(np.dot(w, w))
    return value


def test_game_value_examples():
    ds = Dataset(matrix=np.array([[1.0, 0.0]]))
    w = np.array([0.5, 0.0])
    p = np.array([1.0])
    assert game_value(GameObjective.L2_REGULARIZED, ds, w, p) == pytest.approx(0.375)
    assert game_value(GameObjective.L2_REGULARIZED, ds, np.zeros(2), p) == 0.0


def test_game_value_bilinear_uniform_is_mean(rng):
    ds = random_dataset(rng, 7, 3)
    w = rng.standard_normal(3)
    p = np.ones(7) / 7
    assert game_value(GameObjective.BILINEAR, ds, w, p) == pytest.approx(
        float(np.mean(ds.matrix @ w)))


def test_objectives_differ_by_ridge(rng):
    ds = random_dataset(rng, 5, 3)
    for _ in range(10):
        w = rng.standard_normal(3)
        p = rng.dirichlet(np.ones(5))
        lhs = game_value(GameObjective.L2_REGULARIZED, ds, w, p)
        rhs = game_value(GameObjective.BILINEAR, ds, w, p) - 0.5 * float(w @ w)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_best_response_vertex_enumeration(rng):
    ds = random_dataset(rng, 6, 3)
    for obj in GameObjective:
        for _ in range(10):
            w = rng.standard_normal(3)
            vals = [game_value(obj, ds, w, np.eye(6)[i]) for i in range(6)]
            assert best_response_value(obj, ds, w) == pytest.approx(min(vals))


def test_best_response_bilinear_equals_margin(rng):
    ds = random_dataset(rng, 6, 3)
    w = rng.standard_normal(3)
    assert best_response_value(GameObjective.BILINEAR, ds, w) == margin(ds, w)


def test_certificate_invariants_checked():
    feats = np.array([[0.6, 0.0], [0.5, 0.5]])
    ds = build_dataset(feats, np.array([1.0, 1.0]), known_margin=0.5,
                       w_star=np.array([1.0, 0.0]))
    assert margin(ds, ds.w_star) >= ds.known_margin - 1e-12
    with pytest.raises(ValueError):
        build_dataset(feats, np.array([1.0, 1.0]), known_margin=0.7,
                      w_star=np.array([1.0, 0.0]))


def test_dataset_rejects_non_finite_exponent_and_certificate():
    for p in (math.inf, math.nan):
        with pytest.raises(BadParameter):
            Dataset(matrix=np.eye(2), norm_exponent=p)
    with pytest.raises(BadParameter):
        Dataset(matrix=np.eye(2), known_margin=0.5, w_star=np.array([np.nan, 0.0]))


@st.composite
def generated_datasets(draw):
    """Both separable generator modes, with every metadata line."""
    mode = draw(st.sampled_from([GenMode.LOWER_BOUND, GenMode.EXACT_MARGIN]))
    p = 2.0 if mode is GenMode.EXACT_MARGIN else draw(st.sampled_from([2.0, 3.0]))
    return generate(GenSpec(n=draw(st.integers(2, 10)), d=draw(st.integers(2, 5)),
                            gamma=draw(st.floats(0.05, 0.5)), norm_exponent=p,
                            mode=mode, seed=draw(st.integers(0, 2**16))))


@st.composite
def drawn_datasets(draw):
    """Entries include +-0.0 and subnormals; rows stay inside the unit ball."""
    n, d = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    x = draw(arrays(np.float64, (n, d), elements=st.one_of(
        st.sampled_from([0.0, -0.0]), st.floats(-1.0, 1.0))))
    y = draw(arrays(np.float64, n, elements=st.sampled_from([-1.0, 1.0])))
    return build_dataset(x / d, y)


@settings(deadline=None)
@given(st.one_of(generated_datasets(), drawn_datasets()))
def test_dataset_file_roundtrip_byte_identical(ds):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.txt", Path(tmp) / "b.txt"
        write_dataset(ds, first)
        back = read_dataset(first)
        write_dataset(back, second)
        assert first.read_bytes() == second.read_bytes()
    # and nothing is lost on the way, not even the sign of a zero
    assert np.array_equal(back.matrix, ds.matrix)
    assert np.array_equal(np.signbit(back.matrix), np.signbit(ds.matrix))
    assert back.known_margin == ds.known_margin
    assert back.exact_margin == ds.exact_margin
    assert (back.w_star is None) == (ds.w_star is None)
    if ds.w_star is not None:
        assert np.array_equal(back.w_star, ds.w_star)


def test_dataset_roundtrip(tmp_path, rng):
    ds = random_dataset(rng, 9, 5)
    path = tmp_path / "ds.txt"
    write_dataset(ds, path)
    back = read_dataset(path)
    assert np.array_equal(back.matrix, ds.matrix)
    assert back.norm_exponent == ds.norm_exponent


def test_dataset_roundtrip_metadata(tmp_path):
    feats = np.array([[0.6, 0.0], [0.5, 0.5]])
    ds = build_dataset(feats, np.array([1.0, 1.0]), known_margin=0.5,
                       exact_margin=True, w_star=np.array([1.0, 0.0]))
    path = tmp_path / "ds.txt"
    write_dataset(ds, path)
    back = read_dataset(path)
    assert np.array_equal(back.matrix, ds.matrix)
    assert back.known_margin == 0.5 and back.exact_margin
    assert np.array_equal(back.w_star, ds.w_star)


def test_serialization_exact_for_doubles(tmp_path, rng):
    ds = random_dataset(rng, 4, 3)
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    write_dataset(ds, p1)
    write_dataset(read_dataset(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("text,line", [
    ("4 2\n1 0.5 0.5\n", 1),                            # header lacks p
    ("4 two 2\n1 0.5 0.5\n", 1),                        # d is not an integer
    ("4 2 2\n1 0.5 0.5\n", 1),                          # fewer rows than n
    ("1 2 2\n1 0.5 0.5\n\n-1 0.1 0.1\n", 4),            # more rows than n
    ("2 2 2\n1 0.5 0.5\n1 0.5\n", 3),                  # row lacks a feature
    ("2 2 2\n1 0.5 0.5\n1 0.5 x\n", 3),                # row field not a number
    ("1 2 2\n1 0.5 0.5\n# known_margin=-0.3\n", 3),     # margin not positive
    ("1 2 2\n1 0.5 0.5\n# known_margin=0\n", 3),
    ("1 2 2\n1 0.5 0.5\n# known_margin=abc\n", 3),
    ("1 2 2\n1 0.5 0.5\n# known_margin=0.5\n# w_star=1\n", 4),
    ("1 2 inf\n1 0.5 0.5\n", 1),                        # exponent not finite
    ("1 2 nan\n1 0.5 0.5\n", 1),
    ("1 2 2\n1 0.5 0.5\n# known_margin=inf\n", 3),
    ("1 2 2\n1 0.5 0.5\n# known_margin=0.5\n# w_star=nan 0\n", 4),
    ("1 2 2\n1 0.5 0.5\n# known_margin=0.5\n# w_star=1 -inf\n", 4),
])
def test_read_dataset_rejects_malformed_file(tmp_path, text, line):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(BadDatasetFile) as exc:
        read_dataset(path)
    assert exc.value.line == line
    assert f"line {line}" in str(exc.value)


def test_read_dataset_missing_or_empty_file(tmp_path):
    with pytest.raises(BadDatasetFile) as exc:
        read_dataset(tmp_path / "missing.txt")
    assert exc.value.line is None
    empty = tmp_path / "empty.txt"
    empty.write_text("\n")
    with pytest.raises(BadDatasetFile):
        read_dataset(empty)
