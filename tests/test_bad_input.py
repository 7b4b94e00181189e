"""Bad input through the API: non-finite numbers, a status other than 0
or 1 and malformed model headers raise typed errors, never a bare
ValueError or KeyError, and are never read as something else."""

import json

import numpy as np
import pytest

from icrf import Dataset, load_csv, load_model
from icrf.cli import _parse_grid
from icrf.exceptions import InvariantViolation, ParseError
from icrf.serialize import MAGIC


@pytest.mark.parametrize("spec", ["0:nan:0.5", "0:inf:1", "nan:5:1", "0:5:inf", "-inf:5:1"])
def test_nonfinite_grid_is_parse_error(spec):
    with pytest.raises(ParseError):
        _parse_grid(spec)


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
