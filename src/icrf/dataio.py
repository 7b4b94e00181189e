"""Dataset container, CSV ingestion/emission, and flat config files.

CSV schema: header ``left,right,x1,...,xp`` with ``inf`` for unbounded
right endpoints, or ``time,status,x1,...`` in exact/right-censored mode
(status 1 = exact event, 0 = right-censored). Exact times T are encoded
as the interval (T*(1-1e-9), T].

Every table the package reads goes through one row reader,
``read_rows``, and every table it writes through one table writer,
``write_table``; every file it writes, tables and model files alike,
goes through one atomic write, ``atomic_write``.
"""

from __future__ import annotations

import csv
import hashlib
import os
import tempfile
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from .exceptions import InvariantViolation, ParseError

EPS_EXACT = 1e-9  # relative offset encoding an exactly observed time
WRITE_BLOCK = 4096  # table lines joined into one write


def require_count(value, what: str, error=InvariantViolation, least: int = 0):
    """``value`` if it is an integer >= ``least`` (a size, a seed or a
    worker count), else ``error``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        kind = "a non-negative integer" if least == 0 else f"an integer >= {least}"
        raise error(f"{what} must be {kind}, got {value!r}")
    return value


@dataclass(frozen=True)
class Dataset:
    lefts: np.ndarray
    rights: np.ndarray
    X: np.ndarray
    feature_names: list[str]
    tau: float

    def __post_init__(self):
        lefts = np.asarray(self.lefts, dtype=float)
        rights = np.asarray(self.rights, dtype=float)
        X = np.asarray(self.X, dtype=float)
        if X.ndim != 2 or X.shape[0] != lefts.size or rights.size != lefts.size:
            raise InvariantViolation("covariates must be rectangular, one row per interval")
        if len(self.feature_names) != X.shape[1]:
            raise InvariantViolation("feature_names length must match covariate columns")
        if not (np.isfinite(self.tau) and self.tau > 0.0):
            raise InvariantViolation(f"tau must be finite and > 0, got {self.tau}")
        if not np.all(np.isfinite(lefts) & (lefts >= 0.0)):
            raise InvariantViolation("left endpoints must be finite and >= 0")
        if np.any(np.isnan(rights)) or np.any(lefts >= rights):
            raise InvariantViolation("every interval must satisfy L < R (R may be +inf)")
        if not np.all(np.isfinite(X)):
            raise InvariantViolation("covariates must be finite")
        for a in (lefts, rights, X):
            a.flags.writeable = False
        object.__setattr__(self, "lefts", lefts)
        object.__setattr__(self, "rights", rights)
        object.__setattr__(self, "X", X)

    @property
    def n(self) -> int:
        return self.lefts.size

    @property
    def p(self) -> int:
        return self.X.shape[1]

    def has_unbounded(self) -> bool:
        return bool(np.any(np.isinf(self.rights)))

    def sha256(self) -> str:
        """The hex sha256 of tau and of the little-endian float64 lefts,
        rights and X, each after its shape: a fitted model records its
        training data's (``forest.IcrfModel.data_sha256``)."""
        digest = hashlib.sha256(np.float64(self.tau).astype("<f8").tobytes())
        for a in (self.lefts, self.rights, self.X):
            digest.update(np.asarray(a.shape, dtype="<i8").tobytes())
            digest.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
        return digest.hexdigest()


def encode_exact(t: float) -> tuple[float, float]:
    """Exactly observed T -> the interval (T*(1-eps), T]."""
    if t <= 0.0:
        raise InvariantViolation(f"exact event time must be > 0, got {t}")
    return t * (1.0 - EPS_EXACT), t


def atomic_write(path: str, pieces):
    """Write ``pieces`` (text or bytes, or an iterable of either) to
    ``path`` through a temporary file in its directory that replaces
    ``path`` only once every piece is written: a failed write leaves no
    partial file, and the old file, if any, as it was."""
    if isinstance(pieces, (str, bytes)):
        pieces = (pieces,)
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            for piece in pieces:
                fh.write(piece.encode() if isinstance(piece, str) else piece)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _cell(v) -> str:
    # 17 significant digits give every float64 back exactly; inf stays "inf"
    return f"{v:.17g}" if isinstance(v, (float, np.floating)) else str(v)


def write_table(path: str, header, rows):
    """Write a CSV table atomically: the ``header`` cells, then each of
    ``rows`` (any iterable, consumed as it is written). Float cells are
    written to 17 significant digits, other cells with ``str``."""
    lines = (",".join(map(_cell, row)) + "\n" for row in rows)
    blocks = iter(lambda: "".join(islice(lines, WRITE_BLOCK)), "")
    atomic_write(path, chain([",".join(header) + "\n"], blocks))


def read_rows(path: str):
    """The rows of a CSV table: first its header (stripped cells), then
    (line number, cells as floats) for each data row. Blank lines are no
    rows; a row whose width is not the header's, or with a cell that is
    not a number, raises ParseError naming ``path:line``, and so does a
    file that is not CSV text (bytes that are not text, or a field longer
    than the csv module reads)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise ParseError(f"{path}: empty file, expected a header row")
            yield [h.strip() for h in header]
            for row in filter(None, reader):  # a blank line, such as a last one, is no row
                ln = reader.line_num
                if len(row) != len(header):
                    raise ParseError(f"{path}:{ln}: {len(row)} values, expected {len(header)}")
                try:
                    values = [float(v) for v in row]
                except ValueError as e:
                    raise ParseError(f"{path}:{ln}: {e}") from None
                yield ln, values
        except (csv.Error, UnicodeDecodeError) as e:
            raise ParseError(f"{path}: not CSV text: {e}") from None


def load_csv(path: str, tau: float, exact_time_mode: bool = False) -> Dataset:
    """Read a dataset; validates L < R and non-negative times.

    Interval mode: rows with left == right are treated as exact times.
    Exact mode (``time,status``): status 1 -> exact, 0 -> right-censored.
    """
    rows = read_rows(path)
    header = next(rows)
    exact = exact_time_mode or header[:2] == ["time", "status"]
    first = ["time", "status"] if exact else ["left", "right"]
    if header[:2] != first:
        raise ParseError(f"{path}: expected '{','.join(first)},...' header, got {header[:2]}")
    lefts, rights, xs = [], [], []
    for ln, (left, right, *x) in rows:
        if exact:  # (time, status): exact at time, or censored after it
            if right not in (0.0, 1.0):
                raise ParseError(f"{path}:{ln}: status must be 0 or 1")
            right = left if right == 1.0 else np.inf
        if left < 0:
            raise InvariantViolation(f"{path}:{ln}: negative time {left}")
        if left == right:
            left, right = encode_exact(right)
        elif left > right:
            raise InvariantViolation(f"{path}:{ln}: L >= R ({left} >= {right})")
        lefts.append(left)
        rights.append(right)
        xs.append(x)
    if not lefts:
        raise ParseError(f"{path}: no data rows")
    return Dataset(lefts=np.asarray(lefts), rights=np.asarray(rights),
                   X=np.asarray(xs, dtype=float), feature_names=header[2:], tau=tau)


def write_csv(dataset: Dataset, path: str):
    write_table(path, ["left", "right", *dataset.feature_names],
                ([l, r, *x] for l, r, x in zip(dataset.lefts, dataset.rights, dataset.X)))


def write_truth_csv(path: str, latent_times: np.ndarray, s0: np.ndarray, grid: np.ndarray):
    """Hidden-truth sidecar: latent T plus S0(t|x_i) rows on a grid."""
    write_table(path, ["id", "latent_time", *(f"s0@{_cell(t)}" for t in grid)],
                ([i, t, *row] for i, (t, row) in enumerate(zip(latent_times, s0))))


def read_truth_csv(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (latent_times, S0 matrix, grid). Every row must hold an id,
    a latent time and one value per grid column; a malformed file raises
    ParseError."""
    rows = read_rows(path)
    header = next(rows)
    if header[:2] != ["id", "latent_time"] or not header[2:]:
        raise ParseError(f"{path}: not a truth sidecar file")
    try:
        grid = np.asarray([float(h.split("@", 1)[1]) for h in header[2:]])
    except (IndexError, ValueError):
        raise ParseError(f"{path}: malformed grid columns") from None
    values = np.asarray([row for _, row in rows]).reshape(-1, len(header))
    return values[:, 1], values[:, 2:], grid


# -- flat key=value config ---------------------------------------------------

def _flag(text: str) -> bool:
    """A yes/no config value: true/false, yes/no or 1/0."""
    value = {"true": True, "yes": True, "1": True,
             "false": False, "no": False, "0": False}.get(text.lower())
    if value is None:
        raise ValueError(text)
    return value


# allowed values and defaults of the forest options are those of
# ForestParams, TreeParams and SplitRule, which check them
CONFIG_KEYS = {
    "n_tree": int,
    "n_fold": int,
    "mtry": int,
    "n_min": int,
    "s": int,  # absolute subsample size (alternative to subsample)
    "subsample": float,
    "replace": _flag,
    "rule": str,
    "glr_sign": str,
    "prediction": str,
    "initial_smooth": _flag,
    "monitor_metric": str,
    "seed": int,
    "tau": float,
    "c_override": float,
    "n_jobs": int,
    "update_curves": str,
}


def read_key_values(path: str, keys: dict) -> dict:
    """Flat key=value file; ``keys`` maps each allowed key to the
    function that converts its value. '#' starts a comment."""
    try:
        with open(path) as fh:
            lines = list(fh)
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not a text file: {e}") from None
    out = {}
    for ln, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"{path}:{ln}: expected key=value, got {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in keys:
            raise ParseError(f"{path}:{ln}: unknown key {key!r}")
        try:
            out[key] = keys[key](val)
        except ValueError:
            raise ParseError(f"{path}:{ln}: bad value for {key}: {val!r}") from None
    return out


def parse_config(path: str) -> dict:
    """Flat key=value file mirroring the tuning-parameter names
    (n_tree, mtry, s, replace, n_min, n_fold, ...)."""
    out = read_key_values(path, CONFIG_KEYS)
    if out.get("replace"):
        raise ParseError(f"{path}: resampling with replacement is not supported")
    return out
