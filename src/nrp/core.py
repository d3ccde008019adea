"""Dataset representation, game objectives, and margin/payoff evaluation.

The data matrix stores one label-signed example per row: row i equals
``y_i * x_i``.  A classifier w separates the data iff every row has a
positive inner product with w.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (BadDatasetFile, BadLabel, BadOutputPath, BadParameter,
                     NonFinite, RowNormViolation, ZeroVector)


@dataclass(frozen=True)
class Tolerances:
    """Central numeric slack constants."""

    invariant_slack: float = 1e-12
    underflow_floor: float = 1e-300


TOL = Tolerances()


class GameObjective(enum.Enum):
    """Which concave-convex payoff g(w, p) the dynamics optimize."""

    BILINEAR = "bilinear"          # g(w, p) = p' A w
    L2_REGULARIZED = "l2"          # g(w, p) = p' A w - ||w||^2 / 2


@dataclass(frozen=True)
class Dataset:
    """Immutable label-signed data matrix with optional margin certificate.

    matrix:        n x d, row i = y_i * x_i, each row p-norm bounded by 1
    norm_exponent: p in [2, inf) governing the row-norm regime
    known_margin:  lower bound on the achievable margin, if known
    exact_margin:  True iff known_margin is the true maximal margin
    w_star:        certificate vector with dual norm at most 1
    labels:        original +-1 labels (kept so files round-trip)
    """

    matrix: np.ndarray
    norm_exponent: float = 2.0
    known_margin: float | None = None
    exact_margin: bool = False
    w_star: np.ndarray | None = None
    labels: np.ndarray | None = None

    def __post_init__(self):
        a = np.ascontiguousarray(self.matrix, dtype=np.float64)
        a.setflags(write=False)
        object.__setattr__(self, "matrix", a)
        if self.w_star is not None:
            ws = np.asarray(self.w_star, dtype=np.float64)
            ws.setflags(write=False)
            object.__setattr__(self, "w_star", ws)
        self._validate()

    def _validate(self):
        a = self.matrix
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
            raise BadParameter("matrix must be n x d with n, d >= 1")
        if not np.all(np.isfinite(a)):
            raise NonFinite("data matrix has non-finite entries")
        p = float(self.norm_exponent)
        if not 2.0 <= p < math.inf:
            raise BadParameter(f"norm_exponent must lie in [2, inf), got {p}")
        norms = np.linalg.norm(a, ord=p, axis=1)
        bad = np.flatnonzero(norms > 1.0 + TOL.invariant_slack)
        if bad.size:
            i = int(bad[0])
            raise RowNormViolation(i, float(norms[i]), 1.0 + TOL.invariant_slack)
        if self.w_star is not None and not np.all(np.isfinite(self.w_star)):
            raise BadParameter("w_star has non-finite entries")
        if self.known_margin is not None and self.w_star is not None:
            q = p / (p - 1.0)
            if np.linalg.norm(self.w_star, ord=q) > 1.0 + TOL.invariant_slack:
                raise BadParameter("w_star dual norm exceeds 1")
            if not float(np.min(a @ self.w_star)) >= self.known_margin - TOL.invariant_slack:
                raise BadParameter("w_star does not certify known_margin")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def d(self) -> int:
        return self.matrix.shape[1]


def build_dataset(features, labels, norm_exponent: float = 2.0,
                  known_margin: float | None = None,
                  exact_margin: bool = False,
                  w_star=None) -> Dataset:
    """Assemble the label-signed matrix, rejecting norm/label violations.

    Rows are never rescaled: silently shrinking a row would change the
    margin and invalidate every rate check downstream.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise BadParameter("features must be n x d and labels length n")
    if not np.all(np.isfinite(x)):
        raise NonFinite("features have non-finite entries")
    for i, yi in enumerate(y):
        if yi not in (-1.0, 1.0):
            raise BadLabel(i, yi)
    norms = np.linalg.norm(x, ord=float(norm_exponent), axis=1)
    bad = np.flatnonzero(norms > 1.0 + TOL.invariant_slack)
    if bad.size:
        i = int(bad[0])
        raise RowNormViolation(i, float(norms[i]), 1.0 + TOL.invariant_slack)
    return Dataset(matrix=y[:, None] * x, norm_exponent=float(norm_exponent),
                   known_margin=known_margin, exact_margin=exact_margin,
                   w_star=w_star, labels=y.astype(np.int64))


def margin(dataset: Dataset, w: np.ndarray) -> float:
    """min_i A_(i,:) . w  (equivalently min over the simplex of p'Aw)."""
    w = np.asarray(w, dtype=np.float64)
    if not np.all(np.isfinite(w)):
        raise NonFinite("classifier has non-finite entries")
    return float(np.min(dataset.matrix @ w))


def normalized_margin(dataset: Dataset, w: np.ndarray) -> float:
    """margin(w) / ||w||_2; scale invariant in w."""
    w = np.asarray(w, dtype=np.float64)
    norm = float(np.linalg.norm(w))
    if norm == 0.0:
        raise ZeroVector("normalized margin undefined for the zero vector")
    return margin(dataset, w) / norm


def best_response_value(objective: GameObjective, dataset: Dataset,
                        w: np.ndarray) -> float:
    """m(w) = min over the simplex of g(w, .); attained at a vertex."""
    value = margin(dataset, w)
    if objective is GameObjective.L2_REGULARIZED:
        value -= 0.5 * float(np.dot(w, w))
    return value


# --- text format: line 1 "n d p", then "y x_1 ... x_d" per row, then
# optional "# key=value" metadata comment lines ---

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_dataset(dataset: Dataset, path) -> None:
    """Write the text format; a path that cannot be written raises
    BadOutputPath."""
    labels = dataset.labels
    if labels is None:
        labels = np.ones(dataset.n, dtype=np.int64)
    try:
        with open(path, "w") as fh:
            fh.write(f"{dataset.n} {dataset.d} {_fmt(dataset.norm_exponent)}\n")
            for i in range(dataset.n):
                x = dataset.matrix[i] * labels[i]
                fh.write(f"{int(labels[i])} " + " ".join(_fmt(v) for v in x) + "\n")
            if dataset.known_margin is not None:
                fh.write(f"# known_margin={_fmt(dataset.known_margin)}\n")
                fh.write(f"# exact={'true' if dataset.exact_margin else 'false'}\n")
            if dataset.w_star is not None:
                fh.write("# w_star=" + " ".join(_fmt(v) for v in dataset.w_star) + "\n")
    except OSError as exc:
        raise BadOutputPath(path, exc) from None


def _header(path, no: int, line: str) -> tuple[int, int, float]:
    try:
        n, d, p = line.split()
        n, d, p = int(n), int(d), float(p)
    except ValueError:
        n = d = 0
    if n < 1 or d < 1:
        raise BadDatasetFile(path, no, f"header {line!r} is not 'n d p' "
                             "with positive integers n and d")
    if not math.isfinite(p):
        raise BadDatasetFile(path, no, f"header exponent p = {p} is not finite")
    return n, d, p


def _metadata(path, no: int, line: str, d: int) -> dict:
    """{key: value} of a '# key=value' line; empty for an unknown key."""
    key, _, text = line[1:].strip().partition("=")
    try:
        if key == "known_margin":
            value = float(text)
            if not 0.0 < value < math.inf:
                raise BadDatasetFile(path, no, f"known_margin={text} is not "
                                     "positive and finite")
        elif key == "exact":
            value = text == "true"
        elif key == "w_star":
            value = np.array([float(v) for v in text.split()])
            if value.size != d:
                raise BadDatasetFile(path, no, f"w_star has {value.size} entries, "
                                     f"expected d = {d}")
            if not np.all(np.isfinite(value)):
                raise BadDatasetFile(path, no, "w_star has non-finite entries")
        else:
            return {}
    except ValueError:
        raise BadDatasetFile(path, no, f"{key} value {text!r} is not a number") from None
    return {key: value}


def read_dataset(path) -> Dataset:
    """Read the text format; a file that cannot be read or breaks the format
    raises BadDatasetFile naming the offending line.  Lines are parsed as
    they stream in, so no copy of the file's text is held."""
    header_no = None
    rows = 0
    meta = {}
    try:
        with open(path) as fh:
            for no, ln in enumerate(fh, 1):
                ln = ln.strip()
                if not ln:
                    continue
                if header_no is None:
                    header_no = no
                    n, d, p = _header(path, no, ln)
                    feats = np.empty((n, d))
                    labels = np.empty(n)
                elif ln.startswith("#"):
                    meta.update(_metadata(path, no, ln, d))
                else:
                    if rows == n:
                        raise BadDatasetFile(path, no, f"header gives n = {n} rows, "
                                             "this is one more")
                    parts = ln.split()
                    if len(parts) != d + 1:
                        raise BadDatasetFile(path, no, f"row has {len(parts)} fields, "
                                             f"expected a label and d = {d} features")
                    try:
                        labels[rows] = float(parts[0])
                        feats[rows] = [float(v) for v in parts[1:]]
                    except ValueError:
                        raise BadDatasetFile(path, no, "row has a field that is "
                                             "not a number") from None
                    rows += 1
    except (OSError, UnicodeDecodeError) as exc:
        raise BadDatasetFile(path, None, f"cannot read: {exc}") from None
    if header_no is None:
        raise BadDatasetFile(path, None, "empty file")
    if rows < n:
        raise BadDatasetFile(path, header_no, f"header gives n = {n} rows, "
                             f"the file has {rows}")
    return build_dataset(feats, labels, norm_exponent=p,
                         known_margin=meta.get("known_margin"),
                         exact_margin=meta.get("exact", False),
                         w_star=meta.get("w_star"))
