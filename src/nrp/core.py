"""Dataset representation, margins, and the dataset text format.

The data matrix stores one label-signed example per row: row i equals
``y_i * x_i``.  A classifier w separates the data iff every row has a
positive inner product with w.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (BadDatasetFile, BadLabel, BadOutputPath, BadParameter,
                     NonFinite, NrpError, RowNormViolation, ZeroVector)

INVARIANT_SLACK = 1e-12     # on the unit row-norm bound and the margin certificate


@dataclass(frozen=True)
class Dataset:
    """Immutable label-signed data matrix with optional margin certificate.

    matrix:        n x d, row i = y_i * x_i, each row p-norm bounded by 1
    norm_exponent: p in [2, inf) governing the row-norm regime
    known_margin:  lower bound on the achievable margin, if known
    exact_margin:  True iff known_margin is the true maximal margin
    w_star:        certificate vector with dual norm at most 1
    labels:        original +-1 labels, n of them (kept so files round-trip)
    """

    matrix: np.ndarray
    norm_exponent: float = 2.0
    known_margin: float | None = None
    exact_margin: bool = False
    w_star: np.ndarray | None = None
    labels: np.ndarray | None = None

    def __post_init__(self):
        # the dataset keeps its own arrays, and the caller's stay writable:
        # a matrix is copied unless it is a read-only float64 array that owns
        # its memory, as `build_dataset` hands over, which no one writes to
        a = self.matrix
        if not (isinstance(a, np.ndarray) and a.dtype == np.float64 and a.base is None
                and a.flags.c_contiguous and not a.flags.writeable):
            a = np.array(a, dtype=np.float64, order="C")
            a.setflags(write=False)
        object.__setattr__(self, "matrix", a)
        if self.w_star is not None:
            ws = np.array(self.w_star, dtype=np.float64)
            ws.setflags(write=False)
            object.__setattr__(self, "w_star", ws)
        if self.labels is not None:
            y = np.array(self.labels)       # a copy: the caller's array stays writable
            y.setflags(write=False)
            object.__setattr__(self, "labels", y)
        self._validate()

    def _validate(self):
        a = self.matrix
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
            raise BadParameter("matrix must be n x d with n, d >= 1")
        if not np.all(np.isfinite(a)):
            raise NonFinite("data matrix")
        p = float(self.norm_exponent)
        if not 2.0 <= p < math.inf:
            raise BadParameter(f"norm_exponent must lie in [2, inf), got {p}")
        limit = 1.0 + INVARIANT_SLACK
        # |x_i| <= ||x||_p: a row with an entry past the limit is past it in
        # norm too, and rejected first, its norm taken over that entry
        if max(a.max(), -a.min()) > limit:
            peaks = np.max(np.abs(a), axis=1)
            i = int(np.argmax(peaks > limit))
            norm = float(peaks[i]) * float(np.linalg.norm(a[i] / peaks[i], ord=p))
            raise RowNormViolation(i, norm, limit)
        norms = np.linalg.norm(a, ord=p, axis=1)
        bad = np.flatnonzero(norms > limit)
        if bad.size:
            i = int(bad[0])
            raise RowNormViolation(i, float(norms[i]), limit)
        if self.w_star is not None and not np.all(np.isfinite(self.w_star)):
            raise BadParameter("w_star has non-finite entries")
        if self.known_margin is not None and self.w_star is not None:
            q = p / (p - 1.0)
            # an entry past the limit puts the q-norm past it before it can overflow
            if (np.max(np.abs(self.w_star)) > limit
                    or np.linalg.norm(self.w_star, ord=q) > limit):
                raise BadParameter("w_star dual norm exceeds 1")
            if not float(np.min(a @ self.w_star)) >= self.known_margin - INVARIANT_SLACK:
                raise BadParameter("w_star does not certify known_margin")

        if self.labels is not None:
            _check_labels(self.labels, a.shape[0])

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
    """Assemble the label-signed matrix; `Dataset` rejects non-finite and
    norm-violating rows, whose sign changes neither.

    Rows are never rescaled: silently shrinking a row would change the
    margin and invalidate every rate check downstream.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if x.ndim != 2:
        raise BadParameter("features must be n x d")
    _check_labels(y, x.shape[0])    # before a bad label scales a row
    a = y[:, None] * x              # a new array, so the dataset need not copy it
    a.setflags(write=False)
    return Dataset(matrix=a, norm_exponent=float(norm_exponent),
                   known_margin=known_margin, exact_margin=exact_margin,
                   w_star=w_star, labels=y.astype(np.int64))


def _check_labels(labels: np.ndarray, n: int) -> None:
    """BadParameter unless there are n labels, BadLabel naming the first
    that is not +1 or -1."""
    if labels.shape != (n,):
        raise BadParameter(f"labels must have length n = {n}, got shape {labels.shape}")
    bad = np.flatnonzero((labels != 1) & (labels != -1))
    if bad.size:
        raise BadLabel(int(bad[0]), labels[bad[0]])


def margin(dataset: Dataset, w: np.ndarray) -> float:
    """min_i A_(i,:) . w  (equivalently min over the simplex of p'Aw)."""
    w = np.asarray(w, dtype=np.float64)
    if not np.all(np.isfinite(w)):
        raise NonFinite("classifier")
    return float(np.min(dataset.matrix @ w))


def normalized_margin(dataset: Dataset, w: np.ndarray) -> float:
    """margin(w) / ||w||_2; scale invariant in w."""
    w = np.asarray(w, dtype=np.float64)
    norm = float(np.linalg.norm(w))
    if norm == 0.0:
        raise ZeroVector("normalized margin undefined for the zero vector")
    return margin(dataset, w) / norm


# --- text format: line 1 "n d p", then "y x_1 ... x_d" per row, then
# optional "# key=value" metadata comment lines ---

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# the writer formats this many rows per call, so its Python floats and text
# stay a block's worth whatever n is
WRITE_BLOCK_ROWS = 256


def write_dataset(dataset: Dataset, path) -> None:
    """Write the text format; a path that cannot be written raises
    BadOutputPath."""
    labels = dataset.labels
    if labels is None:
        labels = np.ones(dataset.n, dtype=np.int64)
    # "%.17g" % v is format(v, ".17g"), and "%d" % -1.0 is "-1", as for the
    # int label; x = row * label is exact for a label of +-1
    row_text = "%d" + " %.17g" * dataset.d + "\n"
    try:
        with open(path, "w") as fh:
            fh.write(f"{dataset.n} {dataset.d} {_fmt(dataset.norm_exponent)}\n")
            for start in range(0, dataset.n, WRITE_BLOCK_ROWS):
                y = labels[start:start + WRITE_BLOCK_ROWS, None]
                block = np.hstack([y, dataset.matrix[start:start + WRITE_BLOCK_ROWS] * y])
                fh.write(row_text * len(block) % tuple(block.ravel().tolist()))
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
    if p < 2.0:
        raise BadDatasetFile(path, no, f"header exponent p = {p} is below 2")
    return n, d, p


def _metadata(path, no: int, line: str, d: int) -> dict:
    """{name: value} of a '# key = value' line, under the name of
    `build_dataset`'s argument it sets; empty for an unknown key."""
    key, _, text = line[1:].partition("=")
    key, text = key.strip(), text.strip()
    try:
        if key == "known_margin":
            value = float(text)
            # rows of p-norm <= 1 and a w of dual norm <= 1 have margin <= 1
            if not 0.0 < value <= 1.0:
                raise BadDatasetFile(path, no, f"known_margin={text} is not "
                                     "in (0, 1]")
        elif key == "exact":
            return {"exact_margin": text == "true"}
        elif key == "w_star":
            value = np.array([float(v) for v in text.split()])
            if value.size != d:
                raise BadDatasetFile(path, no, f"w_star has {value.size} entries, "
                                     f"expected d = {d}")
        else:
            return {}
    except ValueError:
        raise BadDatasetFile(path, no, f"{key} value {text!r} is not a number") from None
    return {key: value}


def read_dataset(path) -> Dataset:
    """Read the text format; a file that cannot be read or breaks the format
    raises BadDatasetFile naming the offending line.

    The data rows are parsed in one ``np.loadtxt`` call.  A file that this
    read cannot turn into a dataset is read again by `_read_lines`, which
    names the line of its first fault.  Neither read holds a copy of the
    file's text.
    """
    try:
        dataset = _read_table(path)
    except (OSError, ValueError, NrpError):
        dataset = None
    return dataset if dataset is not None else _read_lines(path)


def _read_table(path) -> Dataset | None:
    """The dataset of a good file, its rows parsed by one ``np.loadtxt``
    over a generator of the data lines, which passes the '#' lines to
    `_metadata`; None, or an exception, for a file with a fault.

    loadtxt parses a field with ``PyOS_string_to_double``, as ``float()``
    does, so the bits are the same; strings that only ``float()`` takes,
    such as ``0.2_5``, raise here and are read by `_read_lines`.
    """
    meta = {}
    with open(path) as fh:
        lines = ((no, ln.strip()) for no, ln in enumerate(fh, 1))
        no, header = next(((no, ln) for no, ln in lines if ln), (None, None))
        if header is None:
            return None
        n, d, p = _header(path, no, header)

        def data_lines():
            for no, ln in lines:
                if ln.startswith("#"):
                    meta.update(_metadata(path, no, ln, d))
                elif ln:
                    yield ln

        rows = data_lines()
        first = next(rows, None)
        if first is None:       # loadtxt would warn of no data
            return None
        table = np.loadtxt(itertools.chain([first], rows), comments=None, ndmin=2)
    if table.shape != (n, d + 1):
        return None
    return build_dataset(table[:, 1:], table[:, 0], norm_exponent=p, **meta)


def _read_lines(path) -> Dataset:
    """Read the text format line by line, parsing each line as it streams
    in and keeping each row's line number, so every fault is raised as a
    BadDatasetFile naming its line."""
    header_no = w_star_no = None
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
                    try:
                        feats, labels = np.empty((n, d)), np.empty(n)
                        row_no = np.empty(n, dtype=np.int64)
                    except (ValueError, MemoryError):
                        # numpy refuses a size past its index range or past the memory
                        raise BadDatasetFile(path, no, f"header gives n x d = {n} x {d}, "
                                             "too large to allocate") from None
                elif ln.startswith("#"):
                    entry = _metadata(path, no, ln, d)
                    w_star_no = no if "w_star" in entry else w_star_no
                    meta.update(entry)
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
                    row_no[rows] = no
                    rows += 1
        if header_no is None:
            raise BadDatasetFile(path, None, "empty file")
        if rows < n:
            raise BadDatasetFile(path, header_no, f"header gives n = {n} rows, "
                                 f"the file has {rows}")
        try:
            return build_dataset(feats, labels, norm_exponent=p, **meta)
        except BadLabel as exc:
            i, problem = exc.index, f"label is {exc.value!r}, expected +1 or -1"
        except NonFinite:
            i = int(np.argmin(np.all(np.isfinite(feats), axis=1)))
            problem = "row has a non-finite feature"
        except RowNormViolation as exc:
            i, problem = exc.index, f"row has norm {exc.norm:.6g} > 1"
        except BadParameter as exc:
            # with the header checked, only w_star fails here
            raise BadDatasetFile(path, w_star_no, str(exc)) from None
        raise BadDatasetFile(path, int(row_no[i]), problem)
    except (OSError, UnicodeDecodeError) as exc:
        raise BadDatasetFile(path, None, f"cannot read: {exc}") from None
