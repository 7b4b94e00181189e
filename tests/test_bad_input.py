"""Bad input through the API: non-finite numbers, a status other than 0
or 1, malformed model headers, corrupted model arrays and predict
arguments of the wrong shape or type raise typed errors, never a bare
ValueError, TypeError, KeyError or IndexError, and are never read as
something else."""

import json

import numpy as np
import pytest

from icrf import Dataset, load_csv, load_model, predict
from icrf.cli import MAX_GRID_N, _parse_grid
from icrf.exceptions import DimensionMismatch, InvalidFold, InvariantViolation, ParseError
from icrf.serialize import MAGIC


@pytest.mark.parametrize("spec", ["0:nan:0.5", "0:inf:1", "nan:5:1", "0:5:inf", "-inf:5:1"])
def test_nonfinite_grid_is_parse_error(spec):
    with pytest.raises(ParseError):
        _parse_grid(spec)


@pytest.mark.parametrize("spec", ["0:5:1e-9", "0:5:1e-320", "0:1:0.000001"])
def test_grid_with_too_many_points_is_parse_error(spec):
    # 0:5:1e-9 used to end in numpy's ArrayMemoryError
    with pytest.raises(ParseError, match=f"more than {MAX_GRID_N}"):
        _parse_grid(spec)


def test_grid_at_the_point_cap_parses():
    assert _parse_grid(f"0:{MAX_GRID_N - 1}:1").size == MAX_GRID_N


@pytest.mark.parametrize("tau", [np.inf, np.nan])
def test_dataset_requires_finite_tau(tau):
    with pytest.raises(InvariantViolation):
        Dataset([0.0, 1.0], [1.0, np.inf], [[0.0], [1.0]], ["x1"], tau)


@pytest.mark.parametrize("status", ["1.5", "2", "nan"])
def test_status_other_than_0_or_1_is_parse_error(tmp_path, status):
    path = tmp_path / "d.csv"
    path.write_text(f"time,status,x1\n2,{status},0.0\n")
    with pytest.raises(ParseError):
        load_csv(str(path), tau=5.0)


@pytest.mark.parametrize("header", [
    {},
    {"manifest": [["marginal_times", "not-a-dtype", [1]]]},
    {"manifest": [["marginal_times", "<f8", [-1]]]},
], ids=["empty", "bad_dtype", "negative_shape"])
def test_malformed_model_header_is_parse_error(tmp_path, header):
    blob = json.dumps(header).encode()
    path = tmp_path / "m.bin"
    path.write_bytes(MAGIC + np.uint64(len(blob)).tobytes() + blob + bytes(64))
    with pytest.raises(ParseError):
        load_model(str(path))


# -- corrupted model files ---------------------------------------------------


@pytest.fixture(scope="module")
def saved_model(tmp_path_factory):
    """Bytes of a freshly saved model (scenario 5, n=200, 2 trees x 2 folds)."""
    import icrf

    data = icrf.generate(icrf.Scenario(5, n=200, seed=4)).dataset
    model = icrf.fit(data, icrf.ForestParams(n_tree=2, n_fold=2, seed=1))
    path = tmp_path_factory.mktemp("model") / "m.bin"
    icrf.save_model(model, str(path))
    return path.read_bytes()


def _arrays(blob: bytes) -> dict:
    """name -> (byte offset, dtype, count) of each array in a model file."""
    pos = len(MAGIC) + 8
    hlen = int(np.frombuffer(blob[len(MAGIC):pos], dtype="<u8")[0])
    out, pos = {}, pos + hlen
    for name, dtype, shape in json.loads(blob[len(MAGIC) + 8:pos])["manifest"]:
        count = int(np.prod(shape))
        out[name] = (pos, np.dtype(dtype), count)
        pos += count * np.dtype(dtype).itemsize
    return out


def _read(blob: bytes, name: str) -> np.ndarray:
    pos, dtype, count = _arrays(blob)[name]
    return np.frombuffer(blob, dtype, count, pos)


def _write(blob: bytes, name: str, index: int, value) -> bytes:
    pos, dtype, count = _arrays(blob)[name]
    at = pos + (index % count) * dtype.itemsize
    return blob[:at] + np.asarray(value, dtype=dtype).tobytes() + blob[at + dtype.itemsize:]


def _first_leaf_node(blob):
    return int(np.flatnonzero(_read(blob, "f1_t0_feature") < 0)[0])


def _interior_knot(blob):
    """A knot of tree 0's leaf curves that is not the first of its curve,
    with a predecessor below 1."""
    off = _read(blob, "f1_t0_loffsets")
    values = _read(blob, "f1_t0_lvalues")
    first = np.zeros(values.size, dtype=bool)
    first[off[:-1][off[:-1] < values.size]] = True
    return int(np.flatnonzero(~first & (np.roll(values, 1) < 0.5))[0])


# each: (array, the entry to overwrite, its new value). Before these
# checks, the first two loaded and predicted wrong rows or nothing at all;
# the next three loaded and then raised a bare IndexError in predict, the
# next made predict loop forever, and the last two loaded and gave a wrong
# out-of-bag error (an in-bag id beyond the data, a member id twice).
STRUCTURAL = {
    "loffsets_end": ("f1_t0_loffsets", lambda b: -1, lambda b: 1),
    "lmoffsets_jump": ("f1_t0_lmoffsets", lambda b: 1, lambda b: 10**6),
    "leafidx_out_of_range": ("f1_t0_leafidx", _first_leaf_node, lambda b: 999),
    "left_out_of_range": ("f1_t0_left", lambda b: 0, lambda b: 5000),
    "feature_out_of_range": ("f1_t0_feature", lambda b: 0, lambda b: 99),
    "left_loops_to_root": ("f1_t0_left", lambda b: 0, lambda b: 0),
    "inbag_out_of_range": ("f1_t0_inbag", lambda b: 0, lambda b: 10**6),
    "lmembers_repeated": ("f1_t0_lmembers", lambda b: 1, lambda b: _read(b, "f1_t0_lmembers")[0]),
}

# one case per check StepSurvival makes of a curve; a NaN value used to
# load and give NaN rows
VALUES = {
    "time_nan": ("f1_t0_ltimes", lambda b: 0, lambda b: np.nan),
    "time_zero": ("f1_t0_ltimes", lambda b: 0, lambda b: 0.0),
    "time_repeated": ("f1_t0_ltimes", _interior_knot,
                      lambda b: _read(b, "f1_t0_ltimes")[_interior_knot(b) - 1]),
    "value_above_one": ("f1_t0_lvalues", lambda b: 0, lambda b: 1.5),
    "value_nan": ("f1_t0_lvalues", lambda b: 0, lambda b: np.nan),
    "value_increasing": ("f1_t0_lvalues", _interior_knot, lambda b: 1.0),
    "tail_rate_negative": ("f1_t0_lrates", lambda b: 0, lambda b: -1.0),
    "marginal_value_nan": ("marginal_values", lambda b: 0, lambda b: np.nan),
}


def _with_header(blob: bytes, edit) -> bytes:
    """``blob`` with its header changed in place by ``edit``."""
    pos = len(MAGIC) + 8
    end = pos + int(np.frombuffer(blob[len(MAGIC):pos], dtype="<u8")[0])
    header = json.loads(blob[pos:end])
    edit(header)
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return MAGIC + np.uint64(len(text)).tobytes() + text + blob[end:]


# each: (the header key, an edit of the header). Before these checks, h = -1
# loaded and predicted rows of 1, h = NaN rows of 1.1e-16, tau = -3 loaded,
# k_opt = 7 of 2 folds loaded and failed at predict (InvalidFold), and
# params that fail their own checks raised InsufficientData
HEADER = {
    "h_negative": ("h", lambda hd: hd.update(h=-1.0)),
    "h_nan": ("h", lambda hd: hd.update(h=np.nan)),
    "h_inf": ("h", lambda hd: hd.update(h=np.inf)),
    "tau_negative": ("tau", lambda hd: hd.update(tau=-3.0)),
    "tau_nan": ("tau", lambda hd: hd.update(tau=np.nan)),
    "k_opt_beyond_folds": ("k_opt", lambda hd: hd.update(k_opt=7)),
    "k_opt_zero": ("k_opt", lambda hd: hd.update(k_opt=0)),
    "k_opt_fraction": ("k_opt", lambda hd: hd.update(k_opt=1.5)),
    "params_n_min": ("params", lambda hd: hd["params"]["tree"].update(n_min=0)),
    "params_c_override": ("params", lambda hd: hd["params"].update(c_override=-1.0)),
    "params_n_fold": ("params", lambda hd: hd["params"].update(n_fold=0)),
}


@pytest.mark.parametrize("case", list(STRUCTURAL) + list(VALUES) + list(HEADER))
def test_corrupted_model_file_is_parse_error(tmp_path, saved_model, case):
    if case in HEADER:
        name, edit = HEADER[case]
        blob = _with_header(saved_model, edit)
        assert blob != saved_model
    else:
        name, index, value = {**STRUCTURAL, **VALUES}[case]
        blob = _write(saved_model, name, index(saved_model), value(saved_model))
        assert blob != saved_model and len(blob) == len(saved_model)
    path = tmp_path / "bad.bin"
    path.write_bytes(blob)
    with pytest.raises(ParseError, match=name):
        load_model(str(path))


def test_uncorrupted_model_file_loads(tmp_path, saved_model):
    path = tmp_path / "m.bin"
    path.write_bytes(saved_model)
    assert load_model(str(path)).folds[0].trees[0].n_leaves >= 2


# -- predict arguments -------------------------------------------------------


@pytest.fixture(scope="module")
def loaded(tmp_path_factory, saved_model):
    path = tmp_path_factory.mktemp("loaded") / "m.bin"
    path.write_bytes(saved_model)
    return load_model(str(path))


# each: (predict keyword arguments, the error, a pattern of its message).
# The 2-D grid used to raise numpy's broadcast (smoothed) or "too deep"
# (raw) ValueError, the 3-D X a DimensionMismatch that counted its second
# axis as features, the fractional fold a TypeError, and fold=True chose
# fold 1.
BAD_PREDICT = {
    "grid_2d": (dict(grid=np.zeros((2, 3))), InvariantViolation, "1-D"),
    "X_3d": (dict(X=np.zeros((1, 2, 10))), DimensionMismatch, "2-D"),
    "fold_fraction": (dict(fold=1.5), InvalidFold, "integer"),
    "fold_zero": (dict(fold=0), InvalidFold, "integer"),
    "fold_bool": (dict(fold=True), InvalidFold, "integer"),
    # text used to raise numpy's bare ValueError; a None entry reads as NaN
    "X_text": (dict(X=[["a"] * 10]), InvariantViolation, "numeric"),
    "X_none": (dict(X=[[None] + [0.0] * 9]), InvariantViolation, "finite"),
    "grid_text": (dict(grid=["x", "y"]), InvariantViolation, "numeric"),
    "grid_none": (dict(grid=[0.0, None]), InvariantViolation, "finite"),
    "grid_ragged": (dict(grid=[[0.0], [1.0, 2.0]]), InvariantViolation, "numeric"),
}


@pytest.mark.parametrize("smoothed", [True, False], ids=["smoothed", "raw"])
@pytest.mark.parametrize("case", list(BAD_PREDICT))
def test_bad_predict_argument_is_typed_error(loaded, case, smoothed):
    kw, error, pattern = BAD_PREDICT[case]
    args = dict(X=np.zeros((2, len(loaded.feature_names))), grid=np.linspace(0.0, 5.0, 11))
    args.update(kw)
    with pytest.raises(error, match=pattern):
        predict(loaded, args["X"], args["grid"], fold=args.get("fold"), smoothed=smoothed)
