"""Dataset container, CSV ingestion/emission, and flat config files.

CSV schema: header ``left,right,x1,...,xp`` with ``inf`` for unbounded
right endpoints, or ``time,status,x1,...`` in exact/right-censored mode
(status 1 = exact event, 0 = right-censored). Exact times T are encoded
as the interval (T*(1-1e-9), T].
"""

from __future__ import annotations

import csv
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .exceptions import InvariantViolation, ParseError

EPS_EXACT = 1e-9  # relative offset encoding an exactly observed time


def require_count(value, what: str, error=InvariantViolation):
    """``value`` if it is an integer >= 0 (a size or a seed), else ``error``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
        raise error(f"{what} must be a non-negative integer, got {value!r}")
    return value


def _fmt(x: float) -> str:
    if np.isinf(x):
        return "inf"
    return f"{x:.17g}"


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


def encode_exact(t: float) -> tuple[float, float]:
    """Exactly observed T -> the interval (T*(1-eps), T]."""
    if t <= 0.0:
        raise InvariantViolation(f"exact event time must be > 0, got {t}")
    return t * (1.0 - EPS_EXACT), t


def atomic_write(path: str, text: str):
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_csv(path: str, tau: float, exact_time_mode: bool = False) -> Dataset:
    """Read a dataset; validates L < R and non-negative times.

    Interval mode: rows with left == right are treated as exact times.
    Exact mode (``time,status``): status 1 -> exact, 0 -> right-censored.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        exact = exact_time_mode or header[:2] == ["time", "status"]
        first = ["time", "status"] if exact else ["left", "right"]
        if header[:2] != first:
            raise ParseError(f"{path}: expected '{','.join(first)},...' header, got {header[:2]}")
        feature_names = header[2:]
        lefts, rights, rows = [], [], []
        for ln, row in enumerate(reader, start=2):
            if not row:  # a blank line, such as one after the last row, is no row
                continue
            try:
                left, right, *xs = (float(v) for v in row)
            except ValueError as e:
                raise ParseError(f"{path}:{ln}: {e}") from None
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
            rows.append(xs)
    if not lefts:
        raise ParseError(f"{path}: no data rows")
    widths = {len(r) for r in rows}
    if len(widths) != 1 or widths.pop() != len(feature_names):
        raise ParseError(f"{path}: ragged covariate rows")
    return Dataset(
        lefts=np.asarray(lefts),
        rights=np.asarray(rights),
        X=np.asarray(rows, dtype=float),
        feature_names=feature_names,
        tau=tau,
    )


def write_csv(dataset: Dataset, path: str):
    lines = [",".join(["left", "right", *dataset.feature_names])]
    for l, r, x in zip(dataset.lefts, dataset.rights, dataset.X):
        lines.append(",".join([_fmt(l), _fmt(r), *(_fmt(v) for v in x)]))
    atomic_write(path, "\n".join(lines) + "\n")


def write_truth_csv(path: str, latent_times: np.ndarray, s0: np.ndarray, grid: np.ndarray):
    """Hidden-truth sidecar: latent T plus S0(t|x_i) rows on a grid."""
    header = ["id", "latent_time"] + [f"s0@{_fmt(t)}" for t in grid]
    lines = [",".join(header)]
    for i, (t, row) in enumerate(zip(latent_times, s0)):
        lines.append(",".join([str(i), _fmt(t), *(_fmt(v) for v in row)]))
    atomic_write(path, "\n".join(lines) + "\n")


def read_truth_csv(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (latent_times, S0 matrix, grid). Every row must hold an id,
    a latent time and one value per grid column; a malformed file raises
    ParseError."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header[:2] != ["id", "latent_time"] or not header[2:]:
            raise ParseError(f"{path}: not a truth sidecar file")
        try:
            grid = np.asarray([float(h.split("@", 1)[1]) for h in header[2:]])
        except (IndexError, ValueError):
            raise ParseError(f"{path}: malformed grid columns") from None
        latent, rows = [], []
        for row in reader:
            if not row:  # a blank line is no row
                continue
            if len(row) != len(header):
                raise ParseError(
                    f"{path}: line {reader.line_num} has {len(row)} values, "
                    f"expected {len(header)}"
                )
            try:
                latent.append(float(row[1]))
                rows.append([float(v) for v in row[2:]])
            except ValueError:
                raise ParseError(f"{path}: line {reader.line_num}: non-numeric value") from None
    return np.asarray(latent), np.asarray(rows), grid


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
    out = {}
    with open(path) as fh:
        for ln, raw in enumerate(fh, start=1):
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
