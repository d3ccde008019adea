import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from nrp.core import (Dataset, build_dataset, margin, normalized_margin,
                      read_dataset, write_dataset)
from nrp.datagen import GenMode, GenSpec, generate
from nrp.dynamics import best_response_value
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


def test_dataset_rejects_a_label_other_than_plus_or_minus_one():
    # written, the label 2 would double its row's features in the file: `2 1 0.5`
    with pytest.raises(BadLabel, match=r"^label at row 0 is 2\.0, expected \+1 or -1$"):
        Dataset(matrix=np.array([[0.5, 0.25]]), labels=np.array([2]))


def test_dataset_rejects_labels_of_another_length():
    with pytest.raises(BadParameter, match="labels must have length n = 2"):
        Dataset(matrix=np.array([[0.5, 0.25], [0.25, 0.5]]), labels=np.array([1]))


def test_dataset_keeps_its_own_arrays_and_leaves_the_callers_writable():
    x, w = np.array([[0.5, 0.25]]), np.array([1.0, 0.0])
    ds = Dataset(matrix=x, known_margin=0.5, w_star=w)
    x[0, 0], w[0] = 0.1, 0.3
    assert ds.matrix.tolist() == [[0.5, 0.25]] and ds.w_star.tolist() == [1.0, 0.0]
    assert not ds.matrix.flags.writeable and not ds.w_star.flags.writeable


def test_build_dataset_copies_no_matrix(rng):
    # the signed rows are a new array, which the dataset keeps as it is; the
    # norm check holds one matrix-sized temporary beside it, and a copy of
    # the rows would be a third
    import tracemalloc
    x = rng.uniform(-0.1, 0.1, size=(2000, 40))
    y = rng.choice([-1.0, 1.0], size=2000)
    tracemalloc.start()
    try:
        ds = build_dataset(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.matrix.tobytes() == (y[:, None] * x).tobytes()
    assert peak < 2.5 * x.nbytes, peak / x.nbytes


def test_build_rejects_nonfinite():
    with pytest.raises(NonFinite):
        build_dataset(np.array([[np.nan, 0.0]]), np.array([1.0]))


@pytest.mark.parametrize("matrix", [np.ones(2) / 2, np.ones((1, 2, 2)) / 2,
                                    np.empty((0, 2)), np.empty((2, 0))],
                         ids=["1d", "3d", "no_rows", "no_columns"])
def test_dataset_rejects_non_matrix(matrix):
    with pytest.raises(BadParameter):
        Dataset(matrix=matrix)


def test_margin_identity_matrix():
    ds = Dataset(matrix=np.eye(2))
    assert margin(ds, np.array([1.0, 1.0])) == 1.0


def test_margin_zero_vector_is_zero(rng):
    ds = random_dataset(rng, 6, 3)
    assert margin(ds, np.zeros(3)) == 0.0


def test_margin_rejects_non_finite_classifier(rng):
    ds = random_dataset(rng, 6, 3)
    with pytest.raises(NonFinite) as exc:
        margin(ds, np.array([0.5, np.nan, 0.0]))
    assert exc.value.quantity == "classifier"


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


def game_value(ball_norm, dataset, w, p):
    """The payoff g(w, p) of the game whose w-player plays over R^d
    (ball_norm None, ridge-regularized) or a unit ball (bilinear): the
    reference the best response is checked against."""
    value = float(p @ (dataset.matrix @ w))
    if ball_norm is None:
        value -= 0.5 * float(np.dot(w, w))
    return value


def test_game_value_examples():
    ds = Dataset(matrix=np.array([[1.0, 0.0]]))
    w = np.array([0.5, 0.0])
    p = np.array([1.0])
    assert game_value(None, ds, w, p) == pytest.approx(0.375)
    assert game_value(None, ds, np.zeros(2), p) == 0.0


def test_game_value_bilinear_uniform_is_mean(rng):
    ds = random_dataset(rng, 7, 3)
    w = rng.standard_normal(3)
    p = np.ones(7) / 7
    assert game_value(2.0, ds, w, p) == pytest.approx(
        float(np.mean(ds.matrix @ w)))


def test_objectives_differ_by_ridge(rng):
    ds = random_dataset(rng, 5, 3)
    for _ in range(10):
        w = rng.standard_normal(3)
        p = rng.dirichlet(np.ones(5))
        lhs = game_value(None, ds, w, p)
        rhs = game_value(2.0, ds, w, p) - 0.5 * float(w @ w)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_best_response_vertex_enumeration(rng):
    ds = random_dataset(rng, 6, 3)
    for ball_norm in (None, 2.0):
        for _ in range(10):
            w = rng.standard_normal(3)
            vals = [game_value(ball_norm, ds, w, np.eye(6)[i]) for i in range(6)]
            assert best_response_value(ball_norm, ds, w) == pytest.approx(min(vals))


def test_best_response_bilinear_equals_margin(rng):
    ds = random_dataset(rng, 6, 3)
    w = rng.standard_normal(3)
    assert best_response_value(2.0, ds, w) == margin(ds, w)


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


def reference_write(dataset) -> str:
    """The text format written one format(v, ".17g") call per value."""
    def fmt(x):
        return format(float(x), ".17g")

    labels = dataset.labels
    if labels is None:
        labels = np.ones(dataset.n, dtype=np.int64)
    text = f"{dataset.n} {dataset.d} {fmt(dataset.norm_exponent)}\n"
    for i in range(dataset.n):
        x = dataset.matrix[i] * labels[i]
        text += f"{int(labels[i])} " + " ".join(fmt(v) for v in x) + "\n"
    if dataset.known_margin is not None:
        text += f"# known_margin={fmt(dataset.known_margin)}\n"
        text += f"# exact={'true' if dataset.exact_margin else 'false'}\n"
    if dataset.w_star is not None:
        text += "# w_star=" + " ".join(fmt(v) for v in dataset.w_star) + "\n"
    return text


def test_write_dataset_matches_reference_writer(tmp_path, rng):
    edge = np.array([[0.0, -0.0, 5e-324], [-5e-324, 0.25, -0.0],
                     [1.0 / 3.0, -2.0 / 3.0, 1e-300], [0.0, 0.0, 0.0]])
    datasets = [
        build_dataset(edge, np.array([1.0, -1.0, -1.0, 1.0]), norm_exponent=3.0),
        build_dataset(edge[:1], np.array([-1.0]), known_margin=5e-324,
                      exact_margin=True, w_star=np.array([-0.0, 1.0, 5e-324])),
        Dataset(matrix=edge / 2.0),                 # no labels
        random_dataset(rng, 9, 5),
    ]
    datasets += [generate(GenSpec(n=12, d=d, gamma=0.05, norm_exponent=p, seed=seed))
                 for seed in range(5) for d, p in ((1, 2.0), (4, 3.0), (7, 5.5))]
    datasets += [generate(GenSpec(n=6, d=3, gamma=0.2, mode=mode, seed=1))
                 for mode in (GenMode.EXACT_MARGIN, GenMode.INFEASIBLE)]
    path = tmp_path / "ds.txt"
    for ds in datasets:
        write_dataset(ds, path)
        assert path.read_bytes() == reference_write(ds).encode()


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
    ("2 2 2\n1 0.5 0.5\n0 0.1 0.1\n", 3),                # label not +-1
    ("2 2 2\n\n# exact=true\n1 0.5 0.5\n\n2 0.1 0.1\n", 6),
    ("1 2 2\n1 0.5 0.5\n# known_margin=1.5\n", 3),      # margin above 1
    ("1 2 2\n1 0.5 0.5\n# known_margin=1e200\n", 3),
    ("1000000000000 100000000 2\n1 0.5 0.5\n", 1),   # n x d cannot be allocated
    ("1 2 1.5\n1 0.5 0.5\n", 1),                        # exponent below 2
    # found once the rows are read: the line is that of the row or of w_star
    ("2 2 2\n1 0.5 0.5\n# exact=false\n\n1 0.9 0.9\n", 5),  # row norm above 1
    ("2 2 3\n1 1e308 1e308\n1 0.9 0.9\n", 2),          # norm would overflow
    ("2 2 2\n1 inf 0.5\n1 0.5 0.5\n", 2),
    ("2 2 2\n1 0.5 0.5\nnan 0.1 0.1\n", 3),             # label not +-1
    ("1 2 2\n1 0.5 0.5\n# known_margin=0.5\n# w_star=1 1\n", 4),   # dual norm
    ("1 2 2\n1 0.5 0.5\n# w_star=-1 0\n# known_margin=0.5\n", 3),  # no certificate
])
def test_read_dataset_rejects_malformed_file(tmp_path, text, line):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(BadDatasetFile) as exc:
        read_dataset(path)
    assert exc.value.line == line
    assert f"line {line}" in str(exc.value)
    assert "np." not in str(exc.value)


@pytest.mark.parametrize("text,message", [
    ("2 2 2\n1 0.5 0.5\n1 0.9 0.9\n", "line 3: row has norm 1.27279 > 1"),
    ("1 2 2\n1 1e308 0\n", "line 2: row has norm 1e+308 > 1"),
    ("2 2 2\n1 0.5 0.5\n1 nan 0\n", "line 3: row has a non-finite feature"),
    ("2 2 2\n1 0.5 0.5\n0 0.1 0.1\n", "line 3: label is 0.0, expected +1 or -1"),
    ("1 2 2\n1 0.5 0.5\n# known_margin=0.5\n# w_star=1 1e308\n",
     "line 4: w_star dual norm exceeds 1"),
    ("1 2 2\n1 0.5 0.5\n# known_margin=0.5\n# w_star=nan 0\n",
     "line 4: w_star has non-finite entries"),
])
def test_read_dataset_names_the_line_of_what_the_dataset_rejects(tmp_path, text, message):
    # no numpy warning on the way, and the row's line rather than its index
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BadDatasetFile) as exc:
            read_dataset(path)
    assert str(exc.value) == f"{path}, {message}"


def test_overflowing_entries_are_rejected_without_a_warning():
    # |x_i| <= ||x||_p: an entry past 1 rejects its row before a norm overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RowNormViolation) as exc:
            Dataset(matrix=np.array([[0.5, 0.5], [1e308, 1e308]]), norm_exponent=3.0)
        # the norm is taken over the row's largest entry, so it stays finite
        assert exc.value.index == 1
        assert exc.value.norm == pytest.approx(2.0 ** (1.0 / 3.0) * 1e308, rel=1e-15)
        with pytest.raises(BadParameter, match="dual norm"):
            build_dataset(np.array([[0.5, 0.5]]), np.array([1.0]), known_margin=0.5,
                          w_star=np.array([1.0, 1e308]))
        # the largest entries the slack admits still pass, with their norms
        ds = Dataset(matrix=np.array([[1.0 + 1e-12, 0.0], [-1.0, 0.0]]))
        assert ds.n == 2


def test_read_dataset_missing_or_empty_file(tmp_path):
    with pytest.raises(BadDatasetFile) as exc:
        read_dataset(tmp_path / "missing.txt")
    assert exc.value.line is None
    empty = tmp_path / "empty.txt"
    empty.write_text("\n")
    with pytest.raises(BadDatasetFile):
        read_dataset(empty)


@pytest.mark.parametrize("line", ["# known_margin = 0.5", "#known_margin =0.5 ",
                                  "#\tknown_margin\t=\t0.5"])
def test_read_dataset_strips_the_known_margin_key(tmp_path, line):
    # the spaced key keeps its margin claim, and so its w_star check
    path = tmp_path / "ds.txt"
    path.write_text(f"1 2 2\n1 0.5 0.25\n{line}\n# w_star=1 0\n")
    assert read_dataset(path).known_margin == 0.5
    path.write_text(f"1 2 2\n1 0.5 0.25\n{line}\n# w_star=0 1\n")
    with pytest.raises(BadDatasetFile, match="line 4: w_star does not certify"):
        read_dataset(path)


@pytest.mark.parametrize("line", ["# exact = true", "#exact= true", "# exact =true\t"])
def test_read_dataset_strips_the_exact_key(tmp_path, line):
    path = tmp_path / "ds.txt"
    path.write_text(f"1 2 2\n1 0.5 0.5\n# known_margin=0.5\n{line}\n")
    assert read_dataset(path).exact_margin is True


@pytest.mark.parametrize("line", ["# w_star = 1 0", "#w_star =1 0 ", "# w_star\t=\t1\t0"])
def test_read_dataset_strips_the_w_star_key(tmp_path, line):
    path = tmp_path / "ds.txt"
    path.write_text(f"1 2 2\n1 0.5 0.5\n# known_margin=0.5\n{line}\n")
    assert read_dataset(path).w_star.tolist() == [1.0, 0.0]
    path.write_text(f"1 2 2\n1 0.5 0.5\n# known_margin=0.5\n{line} 0\n")
    with pytest.raises(BadDatasetFile, match="line 4: w_star has 3 entries"):
        read_dataset(path)


def reference_read(path):
    """A line-by-line reader of a file with a good header and good metadata
    lines: the dataset, or the (line, problem) of the file's first fault."""
    with open(path) as fh:
        lines = [(no, ln.strip()) for no, ln in enumerate(fh, 1) if ln.strip()]
    (header_no, header), body = lines[0], lines[1:]
    n, d, p = header.split()
    n, d, p = int(n), int(d), float(p)
    rows, row_lines, meta, w_star_no = [], [], {}, None
    for no, ln in body:
        if ln.startswith("#"):
            key, _, value = ln[1:].partition("=")
            meta[key.strip()] = value.strip()
            w_star_no = no if key.strip() == "w_star" else w_star_no
        elif len(rows) == n:
            return no, f"header gives n = {n} rows, this is one more"
        elif len(ln.split()) != d + 1:
            return no, (f"row has {len(ln.split())} fields, expected a label "
                        f"and d = {d} features")
        else:
            try:
                rows.append([float(v) for v in ln.split()])
            except ValueError:
                return no, "row has a field that is not a number"
            row_lines.append(no)
    if len(rows) < n:
        return header_no, f"header gives n = {n} rows, the file has {len(rows)}"
    table = np.array(rows)
    try:
        return build_dataset(
            table[:, 1:], table[:, 0], norm_exponent=p,
            known_margin=float(meta["known_margin"]) if "known_margin" in meta else None,
            exact_margin=meta.get("exact") == "true",
            w_star=np.array([float(v) for v in meta["w_star"].split()])
            if "w_star" in meta else None)
    except BadLabel as exc:
        return row_lines[exc.index], f"label is {exc.value!r}, expected +1 or -1"
    except NonFinite:
        i = int(np.argmin(np.all(np.isfinite(table[:, 1:]), axis=1)))
        return row_lines[i], "row has a non-finite feature"
    except RowNormViolation as exc:
        return row_lines[exc.index], f"row has norm {exc.norm:.6g} > 1"
    except BadParameter as exc:
        return w_star_no, str(exc)


JUNK = ["x", "1_0", "0_1", "0x1", "١", "1e", "--1", "1,0", "_1", ".", "infinit"]


@st.composite
def respelled_files(draw):
    """write_dataset's text with each token respelled (a `+` sign, an upper
    `E`, `_` between digits, `-0` or a feature of its own), separators of
    spaces and tabs, padded '#' keys, and blank and '#' lines anywhere
    after the header; then, in half the files, one mutation of the rows."""
    ds = draw(st.one_of(generated_datasets(), drawn_datasets()))
    with tempfile.TemporaryDirectory() as tmp:
        write_dataset(ds, Path(tmp) / "ds.txt")
        header, *rest = (Path(tmp) / "ds.txt").read_text().splitlines()

    def spell(token):
        how = draw(st.sampled_from(["same", "plus", "upper", "underscore", "zero", "value"]))
        if how == "plus" and not token.startswith("-"):
            return "+" + token
        if how == "upper":
            return token.upper()
        if how == "underscore":
            spots = [i for i in range(1, len(token)) if (token[i - 1] + token[i]).isdigit()]
            if spots:
                i = draw(st.sampled_from(spots))
                return token[:i] + "_" + token[i:]
        if how == "zero":
            return draw(st.sampled_from(["-0", "0", "+0", "0.0", "-0E0"]))
        if how == "value":
            return repr(draw(st.floats(-0.3, 0.3)))
        return token

    def sep():
        return draw(st.sampled_from([" ", "\t", "  ", " \t "]))

    def label(token):
        return draw(st.sampled_from([token, token + ".0", token + "E0", token + ".0_0"]
                                    + ["+" + token] * (token == "1")))

    rows = [[label(t) for t in ln.split()[:1]] + [spell(t) for t in ln.split()[1:]]
            for ln in rest if not ln.startswith("#")]
    meta = [ln[1:].split("=", 1) for ln in rest if ln.startswith("#")]
    mutation = draw(st.sampled_from(["none"] * 7 + ["add field", "drop field", "add row",
                                                    "drop row", "junk", "nan", "no rows"]))
    i = draw(st.integers(0, len(rows) - 1))
    if mutation == "add field":
        rows[i].insert(draw(st.integers(0, len(rows[i]))), "0.25")
    elif mutation == "drop field":
        del rows[i][draw(st.integers(0, len(rows[i]) - 1))]
    elif mutation == "add row":
        rows.insert(i, list(rows[i]))
    elif mutation in ("drop row", "no rows"):
        del rows[i:i + 1 if mutation == "drop row" else len(rows)]
    elif mutation in ("junk", "nan"):
        token = draw(st.sampled_from(JUNK)) if mutation == "junk" else "nan"
        rows[i][draw(st.integers(0, len(rows[i]) - 1))] = token
    lines = [sep().join(r) for r in rows]
    lines += [f"#{sep()}{key}{sep()}={sep()}{value}" for key, value in meta]
    for _ in range(draw(st.integers(0, 4))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["", "\t", "# a note", "#", "# note=1 2"])))
    lines = [draw(st.sampled_from(["", " ", "\t"])) + ln for ln in lines]
    return "\n" * draw(st.integers(0, 2)) + header + "\n" + "\n".join(lines) + "\n"


@settings(deadline=None, max_examples=300)
@given(respelled_files())
def test_read_dataset_matches_a_line_by_line_reference(text):
    # the same bits as the reference, or the same message at the same line,
    # and no warning on the way
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ds.txt"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            expected = reference_read(path)
            if isinstance(expected, Dataset):
                got = read_dataset(path)
            else:
                with pytest.raises(BadDatasetFile) as exc:
                    read_dataset(path)
    if isinstance(expected, Dataset):
        for field in ("matrix", "labels", "w_star"):
            a, b = getattr(got, field), getattr(expected, field)
            assert (a is None and b is None) or a.tobytes() == b.tobytes()
        for field in ("norm_exponent", "known_margin", "exact_margin"):
            assert getattr(got, field) == getattr(expected, field)
    else:
        line, problem = expected
        assert exc.value.line == line
        assert str(exc.value) == f"{path}, line {line}: {problem}"


def test_read_dataset_parses_a_good_file_in_one_pass(tmp_path, monkeypatch):
    # the line-by-line read runs only for a file with a fault
    from nrp import core
    path = tmp_path / "ds.txt"
    write_dataset(generate(GenSpec(n=50, d=7, gamma=0.05, norm_exponent=3.0)), path)
    lines = core._read_lines
    monkeypatch.setattr(core, "_read_lines", lambda path: pytest.fail("re-read"))
    ds = read_dataset(path)
    monkeypatch.setattr(core, "_read_lines", lines)
    assert ds.matrix.tobytes() == core._read_lines(path).matrix.tobytes()


def test_read_dataset_holds_no_copy_of_the_text(tmp_path):
    # the reader peaks at about 3.1 times the data matrix's bytes, in the
    # dataset's norm check.  The file's text is 2.6 times them: a reader
    # holding all of it peaks at about 5.7, and one holding its lines only
    # while loadtxt parses them at about 4.0
    import tracemalloc
    path = tmp_path / "ds.txt"
    ds = generate(GenSpec(n=2000, d=40, gamma=0.1, norm_exponent=3.0))
    write_dataset(ds, path)
    tracemalloc.start()
    try:
        back = read_dataset(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.matrix.tobytes() == ds.matrix.tobytes()
    assert peak < 3.5 * ds.matrix.nbytes
