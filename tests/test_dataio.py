"""CSV ingestion/emission, exact-time encoding, and config parsing."""

import os

import numpy as np
import pytest

from icrf import Dataset, load_csv, parse_config, write_csv
from icrf.dataio import EPS_EXACT, read_rows, read_truth_csv, write_table, write_truth_csv
from icrf.exceptions import InvariantViolation, ParseError


class TestLoadCsv:
    def test_basic_row(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("left,right,x1\n1,2,0.5\n")
        ds = load_csv(str(p), tau=5.0)
        assert ds.n == 1 and ds.p == 1
        assert (ds.lefts[0], ds.rights[0]) == (1.0, 2.0)
        assert ds.X[0, 0] == 0.5

    def test_inf_right_endpoint(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("left,right,x1\n3,inf,0.1\n")
        ds = load_csv(str(p), tau=5.0)
        assert np.isinf(ds.rights[0])

    def test_reversed_interval_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("left,right,x1\n2,1,0.0\n")
        with pytest.raises(InvariantViolation):
            load_csv(str(p), tau=5.0)

    def test_exact_rows_encoded(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("left,right,x1\n2,2,0.0\n")
        ds = load_csv(str(p), tau=5.0)
        assert ds.rights[0] == 2.0
        assert np.isclose(ds.lefts[0], 2.0 * (1 - EPS_EXACT))
        assert ds.lefts[0] < ds.rights[0]

    def test_exact_time_mode(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("time,status,x1\n2,1,0.0\n3,0,1.0\n")
        ds = load_csv(str(p), tau=5.0, exact_time_mode=True)
        assert ds.rights[0] == 2.0 and ds.lefts[0] == 2.0 * (1 - EPS_EXACT)
        assert ds.lefts[1] == 3.0 and np.isinf(ds.rights[1])

    def test_bad_header(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ParseError):
            load_csv(str(p), tau=5.0)

    def test_ragged_rows(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("left,right,x1,x2\n1,2,0.5\n")
        with pytest.raises(ParseError):
            load_csv(str(p), tau=5.0)

    def test_blank_lines_are_no_rows(self, tmp_path):
        # a file that ends in an empty line used to fail with "not enough
        # values to unpack"
        p, q = tmp_path / "d.csv", tmp_path / "b.csv"
        p.write_text("left,right,x1\n1,2,0.5\n3,inf,0.1\n")
        q.write_text("left,right,x1\n1,2,0.5\n\n3,inf,0.1\n\n")
        want, got = load_csv(str(p), tau=5.0), load_csv(str(q), tau=5.0)
        for name in ("lefts", "rights", "X"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))

    def test_only_blank_lines_is_no_data(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("left,right,x1\n\n\n")
        with pytest.raises(ParseError, match="no data rows"):
            load_csv(str(p), tau=5.0)


class TestRoundTrip:
    def test_write_then_load_identity(self, tmp_path):
        rng = np.random.default_rng(61)
        n = 40
        lefts = rng.uniform(0, 2, size=n)
        rights = lefts + rng.uniform(0.1, 3, size=n)
        rights[rng.uniform(size=n) < 0.3] = np.inf
        X = rng.normal(size=(n, 3)) * np.pi
        ds = Dataset(lefts, rights, X, ["x1", "x2", "x3"], 5.0)
        p = tmp_path / "d.csv"
        write_csv(ds, str(p))
        back = load_csv(str(p), tau=5.0)
        np.testing.assert_array_equal(back.lefts, ds.lefts)
        np.testing.assert_array_equal(back.rights, ds.rights)
        np.testing.assert_array_equal(back.X, ds.X)
        assert back.feature_names == ds.feature_names

    def test_truth_sidecar_roundtrip(self, tmp_path):
        rng = np.random.default_rng(62)
        grid = np.linspace(0, 5, 11)
        s0 = np.clip(rng.uniform(size=(4, 11)), 0, 1)
        s0 = np.sort(s0, axis=1)[:, ::-1]
        latent = rng.uniform(0, 5, size=4)
        p = tmp_path / "t.csv"
        write_truth_csv(str(p), latent, s0, grid)
        lt, s0b, gb = read_truth_csv(str(p))
        np.testing.assert_array_equal(lt, latent)
        np.testing.assert_array_equal(s0b, s0)
        np.testing.assert_array_equal(gb, grid)


class TestTables:
    def test_cells(self, tmp_path):
        # floats to 17 significant digits, inf included; other cells by str
        p = tmp_path / "t.csv"
        write_table(str(p), ["a", "b", "c"],
                    [(1, 0.1, np.inf), ("x", np.float64(1 / 3), -np.inf)])
        assert p.read_text() == "a,b,c\n1,0.10000000000000001,inf\nx,0.33333333333333331,-inf\n"

    def test_no_rows_and_no_columns(self, tmp_path):
        p = tmp_path / "t.csv"
        write_table(str(p), ["a", "b"], iter(()))
        assert p.read_text() == "a,b\n"
        write_table(str(p), [], [])
        assert p.read_text() == "\n"

    def test_failed_write_leaves_the_old_file(self, tmp_path):
        # rows are consumed while they are written: a failure on the way
        # leaves no partial file
        p = tmp_path / "t.csv"
        p.write_text("old\n")

        def rows():
            yield from ((i, 0.5) for i in range(10_000))
            raise MemoryError

        with pytest.raises(MemoryError):
            write_table(str(p), ["a", "b"], rows())
        assert p.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["t.csv"]

    @pytest.mark.parametrize("text, line", [
        ("a,b\n1,2\n3\n4,x\n", 3),  # the short row comes first
        ("a,b\n1,2\n\n3,x\n4\n", 4),  # blank lines are no rows but count as lines
        ("a,b\n1,2,3\n", 2),
    ], ids=["short", "non_numeric", "long"])
    def test_first_bad_line_is_named(self, tmp_path, text, line):
        p = tmp_path / "t.csv"
        p.write_text(text)
        with pytest.raises(ParseError, match=f"^{p}:{line}: "):
            list(read_rows(str(p)))

    @pytest.mark.parametrize("read", [
        lambda p: load_csv(p, tau=5.0), read_truth_csv, parse_config, lambda p: list(read_rows(p)),
    ], ids=["data", "truth", "config", "rows"])
    @pytest.mark.parametrize("blob", [
        b"left,right,x1\n\xe9\xff,1,2\n", b'left,right,x1\n"' + b"a" * 200_000 + b"\n",
    ], ids=["not_utf8", "oversized_field"])
    def test_file_that_is_not_csv_text_is_parse_error(self, tmp_path, blob, read):
        # each used to end in a UnicodeDecodeError or csv.Error traceback
        p = tmp_path / "t.csv"
        p.write_bytes(blob)
        with pytest.raises(ParseError):
            read(str(p))

    def test_rows_are_floats(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(" a , b\n1, inf\n\n-2e3,0\n")
        assert list(read_rows(str(p))) == [["a", "b"], (2, [1.0, np.inf]), (4, [-2000.0, 0.0])]


# each turns the first data row of a truth sidecar into a malformed one
BAD_TRUTH_ROWS = {
    "non_numeric": lambda cells: cells[:2] + ["abc"] + cells[3:],
    "short_row": lambda cells: cells[:1],
    "fewer_values": lambda cells: cells[:-1],
}


def corrupt_truth_row(path, case):
    lines = path.read_text().splitlines()
    lines[1] = ",".join(BAD_TRUTH_ROWS[case](lines[1].split(",")))
    path.write_text("\n".join(lines) + "\n")


class TestTruthSidecar:
    @pytest.mark.parametrize("case", sorted(BAD_TRUTH_ROWS))
    def test_malformed_row_is_parse_error(self, tmp_path, case):
        grid = np.linspace(0, 5, 6)
        s0 = np.tile(np.linspace(1, 0, 6), (3, 1))
        p = tmp_path / "t.csv"
        write_truth_csv(str(p), np.ones(3), s0, grid)
        corrupt_truth_row(p, case)
        with pytest.raises(ParseError):
            read_truth_csv(str(p))

    def test_blank_line_is_no_row(self, tmp_path):
        grid = np.linspace(0, 5, 6)
        s0 = np.tile(np.linspace(1, 0, 6), (3, 1))
        p = tmp_path / "t.csv"
        write_truth_csv(str(p), np.arange(3.0), s0, grid)
        want = read_truth_csv(str(p))
        with open(p, "a") as fh:
            fh.write("\n")
        for got, ref in zip(read_truth_csv(str(p)), want):
            np.testing.assert_array_equal(got, ref)


class TestConfig:
    def test_parse_table_style_config(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text(
            "# tuning parameters\n"
            "n_tree = 300\nn_fold = 10\nmtry = 5\nn_min = 6\n"
            "replace = no\nsubsample = 0.95\nrule = GWRS\n"
            "initial_smooth = true\ntau = 5\n"
        )
        cfg = parse_config(str(p))
        assert cfg["n_tree"] == 300 and cfg["n_fold"] == 10
        assert cfg["initial_smooth"] is True
        assert cfg["tau"] == 5.0

    def test_replacement_sampling_rejected(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("replace = yes\n")
        with pytest.raises(ParseError):
            parse_config(str(p))

    @pytest.mark.parametrize("text, value", [("true", True), ("Yes", True), ("1", True),
                                             ("false", False), ("NO", False), ("0", False)])
    def test_initial_smooth_flag(self, tmp_path, text, value):
        p = tmp_path / "c.cfg"
        p.write_text(f"initial_smooth = {text}\n")
        assert parse_config(str(p))["initial_smooth"] is value

    @pytest.mark.parametrize("text", ["ture", "on", ""])
    def test_initial_smooth_bad_flag_rejected(self, tmp_path, text):
        p = tmp_path / "c.cfg"
        p.write_text(f"initial_smooth = {text}\n")
        with pytest.raises(ParseError):
            parse_config(str(p))

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("bogus = 1\n")
        with pytest.raises(ParseError):
            parse_config(str(p))


class TestDatasetValidation:
    @pytest.mark.parametrize("lefts, rights, X", [
        ([np.nan, 1.0], [2.0, 3.0], [[0.0], [1.0]]),
        ([0.0, 1.0], [np.nan, 3.0], [[0.0], [1.0]]),
        ([0.0, 1.0], [2.0, 3.0], [[np.nan], [1.0]]),
        ([0.0, 1.0], [2.0, 3.0], [[np.inf], [1.0]]),
    ], ids=["nan_left", "nan_right", "nan_covariate", "inf_covariate"])
    def test_nonfinite_rejected(self, lefts, rights, X):
        with pytest.raises(InvariantViolation):
            Dataset(lefts, rights, X, ["x1"], 5.0)

    def test_bad_value_in_config(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("n_tree = abc\n")
        with pytest.raises(ParseError):
            parse_config(str(p))
