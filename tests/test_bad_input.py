"""Bad input through the API: non-finite numbers, a status other than 0
or 1, malformed model headers, corrupted model arrays and predict
arguments of the wrong shape or type raise typed errors, never a bare
ValueError, TypeError, KeyError or IndexError, and are never read as
something else."""

import contextlib
import functools
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import icrf
from icrf import Dataset, load_csv, load_model, predict
from icrf.cli import MAX_GRID_N, _parse_grid
from icrf.cli import main as cli_main
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


def _first_leaf_node(blob, pre):
    return int(np.flatnonzero(_read(blob, pre + "feature") < 0)[0])


def _first_split_node(blob, pre):
    return int(np.flatnonzero(_read(blob, pre + "feature") >= 0)[0])


def _last_node(blob, pre):
    return _read(blob, pre + "feature").size - 1


def _second_leaf_member(blob, pre):
    """The first member of the tree's second leaf."""
    return int(_read(blob, pre + "lmoffsets")[1])


def _interior_knot(blob, pre):
    """A knot of the tree's leaf curves that is not the first of its curve,
    with a predecessor below 1."""
    off = _read(blob, pre + "loffsets")
    values = _read(blob, pre + "lvalues")
    first = np.zeros(values.size, dtype=bool)
    first[off[:-1][off[:-1] < values.size]] = True
    return int(np.flatnonzero(~first & (np.roll(values, 1) < 0.5))[0])


# each: (array, the entry to overwrite, its new value), the array named
# with the tree's prefix {pre} (f1_t0_ or the last tree's, f2_t1_) or its
# fold's {fold}. Before these checks, the first two loaded and predicted
# wrong rows or nothing at all; the next three loaded and then raised a
# bare IndexError in predict, the next made predict loop forever, and the
# next made its right child, left + 1, a node of the next tree. Of the next
# four, a member id beyond the key limit or negative would break the
# loader's sort keys or index the data from its end, and a member id twice
# gave a wrong out-of-bag error. The last two loaded, predicted as the file
# without the change and saved it back, so two files held one model.
STRUCTURAL = {
    "loffsets_end": ("{pre}loffsets", lambda b, pre: -1, lambda b, pre: 1),
    "lmoffsets_jump": ("{pre}lmoffsets", lambda b, pre: 1, lambda b, pre: 10**6),
    "leafidx_out_of_range": ("{pre}leafidx", _first_leaf_node, lambda b, pre: 999),
    "left_out_of_range": ("{pre}left", lambda b, pre: 0, lambda b, pre: 5000),
    "feature_out_of_range": ("{pre}feature", lambda b, pre: 0, lambda b, pre: 99),
    "left_loops_to_root": ("{pre}left", lambda b, pre: 0, lambda b, pre: 0),
    "left_at_last_node": ("{pre}left", _first_split_node, _last_node),
    "inbag_out_of_range": ("{pre}lmembers", lambda b, pre: 0,
                           lambda b, pre: np.iinfo(np.int64).max),
    "lmembers_negative": ("{pre}lmembers", lambda b, pre: 0, lambda b, pre: -1),
    "lmembers_repeated": ("{pre}lmembers", lambda b, pre: 1,
                          lambda b, pre: _read(b, pre + "lmembers")[0]),
    "lmembers_in_two_leaves": ("{pre}lmembers", _second_leaf_member,
                               lambda b, pre: _read(b, pre + "lmembers")[0]),
    "left_at_leaf": ("{pre}left", _first_leaf_node, lambda b, pre: 12345),
    "leafidx_at_split": ("{pre}leafidx", _first_split_node, lambda b, pre: 0),
}

# one case per check StepSurvival makes of a leaf curve's knots; a NaN
# value used to load and give NaN rows. A non-finite cut-off at a split, a negative
# OOB error or one of NaN loaded too: the cut-off routed rows the other
# way, the OOB error went into the fold's
VALUES = {
    "time_nan": ("{pre}ltimes", lambda b, pre: 0, lambda b, pre: np.nan),
    "time_zero": ("{pre}ltimes", lambda b, pre: 0, lambda b, pre: 0.0),
    "time_repeated": ("{pre}ltimes", _interior_knot,
                      lambda b, pre: _read(b, pre + "ltimes")[_interior_knot(b, pre) - 1]),
    "value_above_one": ("{pre}lvalues", lambda b, pre: 0, lambda b, pre: 1.5),
    "value_nan": ("{pre}lvalues", lambda b, pre: 0, lambda b, pre: np.nan),
    "value_increasing": ("{pre}lvalues", _interior_knot, lambda b, pre: 1.0),
    "marginal_value_nan": ("marginal_values", lambda b, pre: 0, lambda b, pre: np.nan),
    "cutoff_nan": ("{pre}cutoff", _first_split_node, lambda b, pre: np.nan),
    "cutoff_inf": ("{pre}cutoff", _first_split_node, lambda b, pre: np.inf),
    "cutoff_minus_inf": ("{pre}cutoff", _first_split_node, lambda b, pre: -np.inf),
    "oob_negative": ("{fold}oob", lambda b, pre: 0, lambda b, pre: -5.0),
}


def _header(blob: bytes) -> tuple[dict, int]:
    """The parsed header of a model file and the offset where it ends."""
    pos = len(MAGIC) + 8
    end = pos + int(np.frombuffer(blob[len(MAGIC):pos], dtype="<u8")[0])
    return json.loads(blob[pos:end]), end


def _with_header(blob: bytes, edit) -> bytes:
    """``blob`` with its header changed in place by ``edit``."""
    header, end = _header(blob)
    edit(header)
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return MAGIC + np.uint64(len(text)).tobytes() + text + blob[end:]


def _declare(name: str, dtype: str):
    """A header edit that declares array ``name`` of ``dtype``, of the
    same item size, so the file stays whole."""
    def edit(header):
        for entry in header["manifest"]:
            if entry[0] == name:
                entry[1] = dtype
    return edit


# each: (the header key, an edit of the header). Before these checks, h = -1
# loaded and predicted rows of 1, h = NaN rows of 1.1e-16, tau = -3 loaded,
# k_opt = 7 of 2 folds loaded and failed at predict (InvalidFold), and
# params that fail their own checks raised InsufficientData. An OOB error
# array declared int64 loaded as errors of about 4.6e18, marginal arrays
# declared int64 as integer knots, and a marginal tail rate of +inf. The
# training data's sha256 is 64 lowercase hex digits.
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
    "params_seed_negative": ("params", lambda hd: hd["params"].update(seed=-1)),
    "oob_int64": ("f1_oob", _declare("f1_oob", "<i8")),
    "marginal_times_int64": ("marginal_times", _declare("marginal_times", "<i8")),
    "marginal_values_int64": ("marginal_values", _declare("marginal_values", "<i8")),
    "marginal_tail_rate_inf": ("marginal_tail_rate",
                               lambda hd: hd.update(marginal_tail_rate=np.inf)),
    "data_sha256_upper_case": ("data_sha256",
                               lambda hd: hd.update(data_sha256=hd["data_sha256"].upper())),
    "data_sha256_short": ("data_sha256",
                          lambda hd: hd.update(data_sha256=hd["data_sha256"][:63])),
}


def _corrupt(blob: bytes, case: str, fold: int = 1, tree: int = 0) -> tuple[bytes, str]:
    """``blob`` changed by a case of STRUCTURAL or VALUES in the given tree
    (or its fold), and the name of the array changed."""
    template, index, value = {**STRUCTURAL, **VALUES}[case]
    pre = f"f{fold}_t{tree}_"
    name = template.format(pre=pre, fold=f"f{fold}_")
    changed = _write(blob, name, index(blob, pre), value(blob, pre))
    assert changed != blob and len(changed) == len(blob)
    return changed, name


@pytest.mark.parametrize("case", list(STRUCTURAL) + list(VALUES) + list(HEADER))
def test_corrupted_model_file_is_parse_error(tmp_path, saved_model, case):
    if case in HEADER:
        name, edit = HEADER[case]
        blob = _with_header(saved_model, edit)
        assert blob != saved_model
    else:
        blob, name = _corrupt(saved_model, case)
    path = tmp_path / "bad.bin"
    path.write_bytes(blob)
    with pytest.raises(ParseError, match=name):
        load_model(str(path))


# the cases of one tree's arrays or of its fold's
IN_A_TREE = [case for case, (template, _, _) in {**STRUCTURAL, **VALUES}.items()
             if template.startswith("{")]


@pytest.mark.parametrize("case", IN_A_TREE)
def test_corrupted_last_tree_is_parse_error(tmp_path, saved_model, case):
    # the last tree of the last fold: a loader that checks all trees at
    # once must still name the tree at fault
    blob, name = _corrupt(saved_model, case, fold=2, tree=1)
    path = tmp_path / "bad.bin"
    path.write_bytes(blob)
    with pytest.raises(ParseError, match=name):
        load_model(str(path))


def _reverse_folds(header):
    header["folds"].reverse()


def _drop_last_tree(header):
    header["folds"][0]["trees"].pop()


# each: (a pattern of the error, a change of the file). Before these
# checks, each loaded: folds out of order made k_opt pick the other fold,
# a tree the header left out was dropped without notice, and bytes after
# the last array were ignored. A file of format 1, with its in-bag,
# right-child and tail-rate arrays, is no file of this format
STRUCTURE = {
    "folds_reversed": ("'folds'", lambda b: _with_header(b, _reverse_folds)),
    "tree_missing_from_header": ("'manifest'", lambda b: _with_header(b, _drop_last_tree)),
    "trailing_bytes": ("after the last array", lambda b: b + bytes(1)),
    "format_1_magic": ("not a model file", lambda b: b"ICRFMDL1" + b[len(MAGIC):]),
}


@pytest.mark.parametrize("case", list(STRUCTURE))
def test_bad_file_structure_is_parse_error(tmp_path, saved_model, case):
    pattern, change = STRUCTURE[case]
    path = tmp_path / "bad.bin"
    path.write_bytes(change(saved_model))
    with pytest.raises(ParseError, match=pattern):
        load_model(str(path))


@functools.lru_cache(maxsize=None)
def _small_model(prediction: str) -> bytes:
    """Bytes of a small saved model (scenario 5, n=120, 2 trees x 2
    folds) with leaves of kind ``prediction``."""
    data = icrf.generate(icrf.Scenario(5, n=120, seed=2)).dataset
    model = icrf.fit(data, icrf.ForestParams(
        n_tree=2, n_fold=2, seed=3, tree=icrf.TreeParams(prediction=prediction)))
    return _saved(model)


def _saved(model) -> bytes:
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "m.bin")
        icrf.save_model(model, path)
        with open(path, "rb") as fh:
            return fh.read()


def _loaded(blob: bytes):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "m.bin")
        with open(path, "wb") as fh:
            fh.write(blob)
        return load_model(path)


# values a corrupted float entry may hold: the edges of every check, and any
FLOATS = st.one_of(
    st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -1.0, 0.5, 1.0, 1.0 + 5e-13,
                     1.0 + 2e-12, 2.0, 1e300, -1e300]),
    st.floats(allow_nan=True, allow_infinity=True))
SHAPE_TOL = 1e-12  # rounding in the smoothed rows


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.sampled_from(["quasi_honest", "exploitative"]), st.data())
def test_written_value_is_parse_error_or_a_sound_model(prediction, data):
    """One value written anywhere in the arrays of a saved model either
    fails the load or leaves a model whose curves are curves: finite, in
    [0, 1] and non-increasing, raw and smoothed, and which saves back to
    the bytes it loads from."""
    blob = _small_model(prediction)
    arrays = _arrays(blob)
    name = data.draw(st.sampled_from(sorted(n for n, (_, _, count) in arrays.items() if count)))
    _, dtype, count = arrays[name]
    index = data.draw(st.integers(0, count - 1))
    info = np.iinfo(dtype) if dtype.kind == "i" else None
    value = data.draw(FLOATS if info is None else st.one_of(
        st.sampled_from([-1, 0, 1, 2, info.max, info.min]), st.integers(info.min, info.max)))
    try:
        model = _loaded(_write(blob, name, index, value))
    except ParseError:
        return
    X = np.random.default_rng(0).standard_normal((4, len(model.feature_names)))
    grid = np.linspace(0.0, 2.0 * model.tau, 23)
    for smoothed in (False, True):
        rows = predict(model, X, grid, smoothed=smoothed)
        assert np.isfinite(rows).all()
        assert rows.min() >= -SHAPE_TOL and rows.max() <= 1.0 + SHAPE_TOL
        assert np.diff(rows, axis=1).max() <= SHAPE_TOL
    again = _saved(model)
    assert _saved(_loaded(again)) == again


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



# -- the CSV probe: one or two cells of a CLI input file changed ----------

# what a changed cell may hold, a number half the time: no count here asks
# for more than a small fit
CELL_VALUES = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "-1", "-0", "0", "1", "2", "3", "0.5", "1e-320",
                     "1e308"]),
    st.sampled_from(["", " ", "abc", "1,2", '"', "3\n4", "GLR", "yes", "exploitative"]))
CHANGES = st.lists(st.tuples(st.integers(0, 10_000), st.integers(0, 10_000), CELL_VALUES),
                   min_size=1, max_size=2)


@pytest.fixture(scope="module")
def probe_inputs(tmp_path_factory):
    """Rows of cells of a 60-row data file, of a config of 2 trees x 2
    folds and of a five-row query file, with the path of a model fitted
    to the data."""
    d = tmp_path_factory.mktemp("probe")
    data = icrf.generate(icrf.Scenario(5, n=60, seed=8)).dataset
    icrf.write_csv(data, str(d / "d.csv"))
    rows = [line.split(",") for line in (d / "d.csv").read_text().splitlines()]
    config = [["n_tree", "2"], ["n_fold", "2"], ["tau", "5"], ["n_min", "6"],
              ["subsample", "0.95"], ["rule", "GWRS"], ["prediction", "quasi_honest"]]
    model = d / "m.bin"
    icrf.save_model(icrf.fit(data, icrf.ForestParams(n_tree=2, n_fold=2, seed=1)), str(model))
    files = {"data": (rows, ","), "config": (config, " = "),
             "query": ([r[2:] for r in rows[:6]], ",")}
    return files, model


def _text(rows, changes, sep) -> str:
    """``rows`` joined by ``sep`` into lines, with each (row, column,
    value) of ``changes`` (row and column wrapped to the table) set."""
    rows = [list(r) for r in rows]
    for i, j, value in changes:
        row = rows[i % len(rows)]
        row[j % len(row)] = value
    return "".join(sep.join(r) + "\n" for r in rows)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.filterwarnings("ignore::icrf.exceptions.NpmleWarning")
@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.sampled_from(["data", "config", "query"]), CHANGES, st.booleans())
# tau = 0.5 leaves IMSE1 no term in any tree of fold 1, whose NaN error
# used to raise a RuntimeWarning
@example("config", [(2, 1, "0.5")], False)
def test_changed_csv_cell_is_a_typed_error_or_a_run(probe_inputs, target, changes, smoothed):
    """A data file (``icrf fit``), a config file (``icrf fit --config``) or
    a query file (``icrf predict``) with one or two cells changed either
    runs and writes its output, or exits 1 with one error[...] line and
    no output; it never ends in a traceback or a RuntimeWarning."""
    files, model = probe_inputs
    with tempfile.TemporaryDirectory() as d:
        path = {name: os.path.join(d, name) for name in files}
        for name, (rows, sep) in files.items():
            with open(path[name], "w", newline="") as fh:
                fh.write(_text(rows, changes if name == target else [], sep))
        out = os.path.join(d, "out")
        if target == "query":
            argv = ["predict", "--model", model, "--query", path["query"], "--grid", "0:5:0.5",
                    "--out", out] + (["--smoothed"] if smoothed else [])
        else:
            argv = ["fit", "--data", path["data"], "--config", path["config"], "--out", out,
                    "--report", os.path.join(d, "r.csv"), "--seed", "1"]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            status = cli_main([str(a) for a in argv])
        lines = err.getvalue().splitlines()
        if status == 0:
            assert os.path.exists(out)
        else:
            assert status == 1 and len(lines) == 1 and lines[0].startswith("error["), lines
            assert not os.path.exists(out)
