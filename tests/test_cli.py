"""The command-line surface, end to end on small fits."""

import csv

import numpy as np
import pytest

from icrf import load_model
from icrf.cli import main

from test_dataio import BAD_TRUTH_ROWS, corrupt_truth_row

TAU = 5.0


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A simulated dataset plus one fitted model shared by CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data, truth = root / "d.csv", root / "t.csv"
    assert run(["simulate", "--scenario", 1, "--n", 90, "--M", 1,
                "--seed", 5, "--out", data, "--truth", truth]) == 0
    cfg = root / "c.cfg"
    cfg.write_text("n_tree = 10\nn_fold = 2\nn_min = 6\ntau = 5\n")
    model, report = root / "m.bin", root / "oob.csv"
    assert run(["fit", "--data", data, "--config", cfg, "--out", model,
                "--report", report, "--seed", 3]) == 0
    query = root / "q.csv"
    with open(data) as fh:
        rows = list(csv.reader(fh))
    lines = [",".join(rows[0][2:])] + [",".join(r[2:]) for r in rows[1:6]]
    query.write_text("\n".join(lines) + "\n")
    return root


class TestFit:
    def test_report_structure(self, workspace):
        with open(workspace / "oob.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["fold"]) for r in rows] == [1, 2]
        marks = [int(r["is_k_opt"]) for r in rows]
        assert sum(marks) == 1
        errs = [float(r["oob_imse1"]) for r in rows]
        assert marks[int(np.argmin(errs))] == 1

    def test_k1_single_row_report(self, workspace, tmp_path):
        cfg = tmp_path / "c1.cfg"
        cfg.write_text("n_tree = 6\nn_fold = 1\ntau = 5\n")
        assert run(["fit", "--data", workspace / "d.csv", "--config", cfg,
                    "--out", tmp_path / "m.bin", "--report", tmp_path / "r.csv",
                    "--seed", 1]) == 0
        assert len((tmp_path / "r.csv").read_text().strip().splitlines()) == 2

    def test_byte_identical_models_same_seed(self, workspace, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("n_tree = 8\nn_fold = 2\ntau = 5\n")
        args = ["fit", "--data", workspace / "d.csv", "--config", cfg,
                "--report", tmp_path / "r.csv", "--seed", 11]
        assert run(args + ["--out", tmp_path / "a.bin"]) == 0
        assert run(args + ["--out", tmp_path / "b.bin"]) == 0
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


class TestFitOptions:
    @pytest.mark.parametrize("line, code", [
        ("rule = foo", "insufficient_data"),
        ("glr_sign = sum", "insufficient_data"),
        ("prediction = quasi-honest", "insufficient_data"),
        ("update_curves = OOB", "insufficient_data"),
        ("monitor_metric = imse3", "insufficient_data"),
        ("initial_smooth = ture", "parse_error"),
        # n_min = 0 used to die in the bandwidth rule with ZeroDivisionError,
        # n_min = -1 with a TypeError on a complex bandwidth; c_override = -1
        # fitted a negative bandwidth and predicted rows of 1
        ("n_min = 0", "insufficient_data"),
        ("n_min = -1", "insufficient_data"),
        ("c_override = -1", "insufficient_data"),
        ("c_override = 0", "insufficient_data"),
        ("c_override = nan", "insufficient_data"),
        ("c_override = inf", "insufficient_data"),
    ])
    def test_unknown_value_is_typed_error(self, workspace, tmp_path, capsys, line, code):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"n_tree = 2\nn_fold = 1\ntau = 5\n{line}\n")
        assert run(["fit", "--data", workspace / "d.csv", "--config", cfg,
                    "--out", tmp_path / "m.bin", "--report", tmp_path / "r.csv"]) == 1
        assert f"error[{code}]" in capsys.readouterr().err
        assert not (tmp_path / "m.bin").exists()

    def test_single_fold_without_oob_is_typed_error(self, workspace, tmp_path, capsys):
        # s = n leaves no out-of-bag subject to pick k_opt by, even for one fold
        cfg = tmp_path / "c.cfg"
        cfg.write_text("n_tree = 2\nn_fold = 1\ntau = 5\ns = 90\n")
        assert run(["fit", "--data", workspace / "d.csv", "--config", cfg,
                    "--out", tmp_path / "m.bin", "--report", tmp_path / "r.csv"]) == 1
        assert "error[empty_oob]" in capsys.readouterr().err
        assert not (tmp_path / "m.bin").exists()

    @pytest.mark.parametrize("s, n", [(7, 25), (21, 300), (42, 300)])
    def test_absolute_subsample_size_is_exact(self, tmp_path, s, n):
        data = tmp_path / "d.csv"
        assert run(["simulate", "--scenario", 2, "--n", n, "--seed", 1, "--out", data]) == 0
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"n_tree = 3\nn_fold = 1\nn_min = 3\ntau = 5\ns = {s}\n"
                       "prediction = exploitative\n")
        model = tmp_path / "m.bin"
        assert run(["fit", "--data", data, "--config", cfg, "--out", model,
                    "--report", tmp_path / "r.csv"]) == 0
        trees = load_model(str(model)).folds[0].trees
        assert [t.inbag_ids.size for t in trees] == [s] * 3


class TestPredict:
    def test_curve_table(self, workspace, tmp_path):
        out = tmp_path / "curves.csv"
        assert run(["predict", "--model", workspace / "m.bin",
                    "--query", workspace / "q.csv", "--grid", "0:5:0.25",
                    "--smoothed", "--out", out]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        by_query = {}
        for r in rows:
            by_query.setdefault(r["query_id"], []).append(
                (float(r["t"]), float(r["survival"]))
            )
        for vals in by_query.values():
            ts, sv = zip(*vals)
            assert abs(sv[0] - 1.0) < 1e-6  # t = 0
            assert all(b <= a + 1e-9 for a, b in zip(sv, sv[1:]))

    def test_raw_vs_tiny_bandwidth_at_knot_midpoints(self, workspace, tmp_path):
        # refit with c_override giving h = 1e-4; smoothing error at knot
        # midpoints is bounded by h * max jump density
        cfg = tmp_path / "c.cfg"
        c_override = 1e-4 * 6 ** 0.2
        cfg.write_text(f"n_tree = 4\nn_fold = 1\ntau = 5\nc_override = {c_override}\n")
        model = tmp_path / "m.bin"
        assert run(["fit", "--data", workspace / "d.csv", "--config", cfg,
                    "--out", model, "--report", tmp_path / "r.csv",
                    "--seed", 2]) == 0
        raw, sm = tmp_path / "raw.csv", tmp_path / "sm.csv"
        common = ["predict", "--model", model, "--query", workspace / "q.csv",
                  "--grid", "0:5:0.01"]
        assert run(common + ["--out", raw]) == 0
        assert run(common + ["--smoothed", "--out", sm]) == 0

        def read(path):
            with open(path) as fh:
                return np.asarray(
                    [float(r["survival"]) for r in csv.DictReader(fh)]
                ).reshape(5, -1)

        vraw, vsm = read(raw), read(sm)
        grid = np.linspace(0, 5, 501)
        # compare away from curve knots: use interior-of-step midpoints,
        # detected as grid cells where the raw curve is locally flat
        flat = (np.abs(np.diff(vraw[:, :-1], axis=1)) == 0) & (
            np.abs(np.diff(vraw[:, 1:], axis=1)) == 0
        )
        diffs = np.abs(vsm[:, 1:-1] - vraw[:, 1:-1])[flat]
        assert diffs.max() < 1e-6

    @pytest.mark.parametrize("smoothed", [True, False], ids=["smoothed", "raw"])
    def test_header_only_query_gives_header_only_output(self, workspace, tmp_path, smoothed):
        # it used to report a query of 0 features
        query, out = tmp_path / "q0.csv", tmp_path / "o.csv"
        query.write_text((workspace / "q.csv").read_text().splitlines()[0] + "\n")
        flag = ["--smoothed"] if smoothed else []
        assert run(["predict", "--model", workspace / "m.bin", "--query", query,
                    "--grid", "0:5:1", "--out", out] + flag) == 0
        assert out.read_text() == "query_id,t,survival\n"

    @pytest.mark.parametrize("tail", ["\n", "\n\n", "\r\n"], ids=["one", "two", "crlf"])
    def test_trailing_blank_lines_are_no_queries(self, workspace, tmp_path, tail):
        # a blank last line used to fail with "expected p covariate columns"
        query = tmp_path / "q.csv"
        query.write_text((workspace / "q.csv").read_text() + tail)
        outs = []
        for q in (workspace / "q.csv", query):
            outs.append(tmp_path / f"o{len(outs)}.csv")
            assert run(["predict", "--model", workspace / "m.bin", "--query", q,
                        "--grid", "0:5:1", "--smoothed", "--out", outs[-1]]) == 0
        assert outs[1].read_text() == outs[0].read_text()

    def test_empty_query_file_is_parse_error(self, workspace, tmp_path, capsys):
        query = tmp_path / "empty.csv"
        query.write_text("")
        assert run(["predict", "--model", workspace / "m.bin", "--query", query,
                    "--grid", "0:5:1", "--out", tmp_path / "o.csv"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[parse_error]: ") and str(query) in err

    def test_dimension_mismatch_exit_code(self, workspace, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,x2\n0.0,0.0\n")
        assert run(["predict", "--model", workspace / "m.bin", "--query", bad,
                    "--grid", "0:5:1", "--out", tmp_path / "o.csv"]) == 1

    @pytest.mark.parametrize("cell, code", [("abc", "parse_error"),
                                            ("nan", "invariant_violation")])
    def test_bad_query_cell(self, workspace, tmp_path, capsys, cell, code):
        with open(workspace / "q.csv") as fh:
            lines = fh.read().splitlines()
        lines[1] = ",".join([cell] + lines[1].split(",")[1:])
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert run(["predict", "--model", workspace / "m.bin", "--query", bad,
                    "--grid", "0:5:1", "--out", tmp_path / "o.csv"]) == 1
        assert f"error[{code}]" in capsys.readouterr().err

    @pytest.mark.parametrize("cut", [lambda size: 40, lambda size: size // 2,
                                     lambda size: size - 3],
                             ids=["40_bytes", "half", "3_short"])
    def test_truncated_model(self, workspace, tmp_path, capsys, cut):
        blob = (workspace / "m.bin").read_bytes()
        model = tmp_path / "cut.bin"
        model.write_bytes(blob[: cut(len(blob))])
        assert run(["predict", "--model", model, "--query", workspace / "q.csv",
                    "--grid", "0:5:1", "--out", tmp_path / "o.csv"]) == 1
        assert "error[parse_error]" in capsys.readouterr().err


class TestBadInput:
    @pytest.mark.parametrize("spec", ["0:nan:0.5", "0:inf:1"])
    def test_nonfinite_grid(self, workspace, tmp_path, capsys, spec):
        assert run(["predict", "--model", workspace / "m.bin", "--query", workspace / "q.csv",
                    "--grid", spec, "--out", tmp_path / "o.csv"]) == 1
        assert "error[parse_error]" in capsys.readouterr().err

    def test_grid_with_too_many_points(self, workspace, tmp_path, capsys):
        # it used to end in numpy's ArrayMemoryError
        assert run(["predict", "--model", workspace / "m.bin", "--query", workspace / "q.csv",
                    "--grid", "0:5:1e-9", "--out", tmp_path / "o.csv"]) == 1
        assert capsys.readouterr().err.startswith("error[parse_error]: ")

    def test_nonfinite_tau(self, workspace, tmp_path, capsys):
        assert run(["fit", "--data", workspace / "d.csv", "--tau", "inf",
                    "--out", tmp_path / "m.bin", "--report", tmp_path / "r.csv"]) == 1
        assert "error[invariant_violation]" in capsys.readouterr().err
        assert not (tmp_path / "m.bin").exists()

    @pytest.mark.parametrize("argv", [
        lambda ws, d: ["fit", "--data", ws / "d.csv", "--config", d / "nope.cfg",
                       "--out", d / "m.bin", "--report", d / "r.csv"],
        lambda ws, d: ["predict", "--model", d / "nope.bin", "--query", ws / "q.csv",
                       "--grid", "0:5:1", "--out", d / "o.csv"],
    ], ids=["fit_config", "predict_model"])
    def test_missing_file(self, workspace, tmp_path, capsys, argv):
        assert run(argv(workspace, tmp_path)) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error[io_error]: ")


    def test_out_of_memory_is_a_typed_error(self, workspace, tmp_path, capsys, monkeypatch):
        # it used to end in a traceback; the table writer leaves no output
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr("icrf.cli.predict", exhausted)
        out = tmp_path / "o.csv"
        assert run(["predict", "--model", workspace / "m.bin", "--query", workspace / "q.csv",
                    "--grid", "0:5:1", "--out", out]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error[out_of_memory]: ")
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_a_typed_error(self, workspace, tmp_path, capsys, jobs):
        # it used to fit serially without a word
        assert run(["fit", "--data", workspace / "d.csv", "--tau", "5", "--jobs", jobs,
                    "--out", tmp_path / "m.bin", "--report", tmp_path / "r.csv"]) == 1
        assert capsys.readouterr().err.startswith("error[insufficient_data]: ")
        assert not (tmp_path / "m.bin").exists()


class TestSimulate:
    def test_scenario1_covariate_count(self, workspace):
        with open(workspace / "d.csv") as fh:
            header = next(csv.reader(fh))
        assert len(header) - 2 == 25

    def test_scenario2_covariate_count(self, tmp_path):
        out = tmp_path / "d2.csv"
        assert run(["simulate", "--scenario", 2, "--n", 40, "--M", 3,
                    "--seed", 1, "--out", out]) == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert len(rows[0]) - 2 == 10
        assert len(rows) - 1 == 40
        for r in rows[1:]:
            left, right = float(r[0]), float(r[1])
            assert left < right

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run(["simulate", "--scenario", 3, "--n", 30, "--M", 1,
                        "--seed", 7, "--out", out]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestEvaluate:
    def test_report_rows(self, workspace, tmp_path):
        out = tmp_path / "report.csv"
        assert run(["evaluate", "--model", workspace / "m.bin",
                    "--test", workspace / "d.csv", "--truth", workspace / "t.csv",
                    "--out", out]) == 0
        with open(out) as fh:
            rows = {r["metric"]: float(r["value"]) for r in csv.DictReader(fh)}
        assert set(rows) == {"imse1", "imse2", "eps_int", "eps_sup"}
        assert 0.0 <= rows["imse1"] <= 1.0 and 0.0 <= rows["imse2"] <= 1.0
        assert rows["eps_int"] >= 0.0 and rows["eps_sup"] >= 0.0

    def test_without_truth_only_imse(self, workspace, tmp_path):
        out = tmp_path / "report.csv"
        assert run(["evaluate", "--model", workspace / "m.bin",
                    "--test", workspace / "d.csv", "--out", out]) == 0
        with open(out) as fh:
            rows = {r["metric"] for r in csv.DictReader(fh)}
        assert rows == {"imse1", "imse2"}

    def test_missing_truth_error(self, workspace, tmp_path):
        assert run(["evaluate", "--model", workspace / "m.bin",
                    "--test", workspace / "d.csv", "--require-truth",
                    "--out", tmp_path / "r.csv"]) == 1

    def test_row_permutation_invariance(self, workspace, tmp_path):
        with open(workspace / "d.csv") as fh:
            lines = fh.read().strip().splitlines()
        shuffled = tmp_path / "shuffled.csv"
        rng = np.random.default_rng(1)
        body = list(lines[1:])
        rng.shuffle(body)
        shuffled.write_text("\n".join([lines[0]] + body) + "\n")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["evaluate", "--model", workspace / "m.bin",
                    "--test", workspace / "d.csv", "--out", a]) == 0
        assert run(["evaluate", "--model", workspace / "m.bin",
                    "--test", shuffled, "--out", b]) == 0

        def vals(p):
            with open(p) as fh:
                return {r["metric"]: float(r["value"]) for r in csv.DictReader(fh)}

        va, vb = vals(a), vals(b)
        for k in va:
            assert np.isclose(va[k], vb[k], atol=1e-12)

    @pytest.mark.parametrize("case", sorted(BAD_TRUTH_ROWS))
    def test_malformed_truth_row(self, workspace, tmp_path, capsys, case):
        truth = tmp_path / "t.csv"
        truth.write_bytes((workspace / "t.csv").read_bytes())
        corrupt_truth_row(truth, case)
        assert run(["evaluate", "--model", workspace / "m.bin",
                    "--test", workspace / "d.csv", "--truth", truth,
                    "--out", tmp_path / "r.csv"]) == 1
        assert "error[parse_error]" in capsys.readouterr().err


class TestImportance:
    def test_table_and_rescaling(self, workspace, tmp_path):
        out = tmp_path / "vi.csv"
        assert run(["importance", "--model", workspace / "m.bin",
                    "--data", workspace / "d.csv", "--nperm", 2,
                    "--seed", 1, "--out", out]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert rows[-1]["feature"] == "_multiplier"
        rescaled = [float(r["rescaled"]) for r in rows[:-1]]
        assert np.isclose(max(rescaled), 1.0)

    def test_no_permutation_is_typed_error(self, workspace, tmp_path, capsys):
        # --nperm 0 used to write NaN importances and exit 0
        assert run(["importance", "--model", workspace / "m.bin",
                    "--data", workspace / "d.csv", "--nperm", 0,
                    "--out", tmp_path / "vi.csv"]) == 1
        assert "error[insufficient_data]" in capsys.readouterr().err

    def test_data_missing_a_covariate_is_typed_error(self, workspace, tmp_path, capsys):
        # a missing column used to end in a bare IndexError's traceback
        data = tmp_path / "d.csv"
        with open(workspace / "d.csv") as fh:
            data.write_text("".join(",".join(r[:-1]) + "\n" for r in csv.reader(fh)))
        assert run(["importance", "--model", workspace / "m.bin", "--data", data,
                    "--nperm", 1, "--out", tmp_path / "vi.csv"]) == 1
        assert "error[dimension_mismatch]" in capsys.readouterr().err

    def test_default_nperm_is_ten(self):
        from icrf.cli import build_parser

        args = build_parser().parse_args(
            ["importance", "--model", "m", "--data", "d", "--out", "o"]
        )
        assert args.nperm == 10

    def test_reproducible_with_seed(self, workspace, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run(["importance", "--model", workspace / "m.bin",
                        "--data", workspace / "d.csv", "--nperm", 2,
                        "--seed", 9, "--out", out]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestBenchCli:
    def test_bench_runs_and_resumes(self, tmp_path):
        spec = tmp_path / "spec.cfg"
        spec.write_text(
            "scenarios = 1\nm_values = 1\nn_values = 50\nn_replicates = 2\n"
            "rules = GWRS\npredictions = quasi_honest\nn_tree = 4\nn_fold = 2\n"
            "n_test = 10\nseed = 3\n"
        )
        out = tmp_path / "res"
        assert run(["bench", "--spec", spec, "--out", out]) == 0
        raw1 = (out / "raw.csv").read_bytes()
        assert run(["bench", "--spec", spec, "--out", out]) == 0
        assert (out / "raw.csv").read_bytes() == raw1
        with open(out / "raw.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 2  # replicates x folds

    def test_unknown_rule_fails_before_any_replicate(self, tmp_path, capsys):
        spec = tmp_path / "spec.cfg"
        spec.write_text("rules = GWRS,foo\nn_values = 50\nn_replicates = 1\n")
        out = tmp_path / "res"
        assert run(["bench", "--spec", spec, "--out", out]) == 1
        assert "error[insufficient_data]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line, code", [
        ("grid_resolution = 1", "insufficient_data"),
        ("n_test = 0", "insufficient_data"),
        ("scenarios = 1,9", "invariant_violation"),
    ], ids=["grid_resolution", "n_test", "scenarios"])
    def test_bad_run_setting_fails_before_any_replicate(self, tmp_path, capsys, line, code):
        spec = tmp_path / "spec.cfg"
        spec.write_text(f"{line}\nn_values = 50\nn_replicates = 1\nn_tree = 2\nn_fold = 1\n")
        out = tmp_path / "res"
        assert run(["bench", "--spec", spec, "--out", out]) == 1
        assert f"error[{code}]" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_spec_value(self, tmp_path, capsys):
        spec = tmp_path / "spec.cfg"
        spec.write_text("n_tree = abc\n")
        assert run(["bench", "--spec", spec, "--out", tmp_path / "res"]) == 1
        assert "error[parse_error]" in capsys.readouterr().err

    def test_initial_smooth_is_a_spec_key(self, tmp_path, capsys):
        # a spec line initial_smooth = false used to be an unknown key; it
        # reaches the fits, whose first fold starts from the marginal's
        # interpolated row instead of its smoothed one
        raw = {}
        for value in ("true", "false", "ture"):
            spec = tmp_path / f"{value}.cfg"
            spec.write_text(f"initial_smooth = {value}\nn_values = 50\nn_replicates = 1\n"
                            "n_tree = 2\nn_fold = 1\nn_test = 5\nseed = 2\n")
            out = tmp_path / value
            status = run(["bench", "--spec", spec, "--out", out])
            if value == "ture":
                assert status == 1 and "error[parse_error]" in capsys.readouterr().err
                assert not out.exists()
            else:
                assert status == 0
                raw[value] = (out / "raw.csv").read_bytes()
        assert raw["true"] != raw["false"]


@pytest.mark.parametrize("argv, code", [
    (lambda ws, d: ["simulate", "--scenario", 5, "--n", -5, "--out", d / "o.csv"],
     "invariant_violation"),
    (lambda ws, d: ["simulate", "--scenario", 1, "--seed", -1, "--out", d / "o.csv"],
     "invariant_violation"),
    (lambda ws, d: ["fit", "--data", ws / "d.csv", "--tau", 5, "--out", d / "o.bin",
                    "--report", d / "r.csv", "--seed", -1], "insufficient_data"),
    (lambda ws, d: ["importance", "--model", ws / "m.bin", "--data", ws / "d.csv",
                    "--nperm", 1, "--seed", -1, "--out", d / "o.csv"], "insufficient_data"),
], ids=["simulate_n", "simulate_seed", "fit_seed", "importance_seed"])
def test_negative_seed_or_size_is_typed_error(workspace, tmp_path, capsys, argv, code):
    # each used to end in numpy's "expected non-negative integer" traceback
    assert run(argv(workspace, tmp_path)) == 1
    assert f"error[{code}]" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
