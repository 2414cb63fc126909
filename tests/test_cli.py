"""CSV ingestion and the command-line front end."""

import csv
import json

import numpy as np
import pytest

from qmave import InvalidInputError, estimation_error
from qmave.cli import main, parse_dataset_csv


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


class TestParseDatasetCsv:
    def test_basic(self, tmp_path):
        path = tmp_path / "data.csv"
        rng = np.random.default_rng(70)
        rows = rng.normal(size=(10, 3)).tolist()
        write_csv(path, ["a", "y", "b"], rows)
        data = parse_dataset_csv(str(path), "y")
        assert (data.n, data.d) == (10, 2)
        np.testing.assert_allclose(data.Y, [r[1] for r in rows])

    def test_column_by_index(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(path, ["a", "b"], [[i, 2 * i] for i in range(8)])
        data = parse_dataset_csv(str(path), 1)
        np.testing.assert_allclose(data.Y, [2 * i for i in range(8)])

    def test_missing_column(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(path, ["a", "b"], [[1, 2]] * 8)
        with pytest.raises(InvalidInputError, match="'y'"):
            parse_dataset_csv(str(path), "y")

    def test_bad_cell_cites_row_and_column(self, tmp_path):
        path = tmp_path / "data.csv"
        rows = [[1.0, 2.0]] * 10
        rows[3] = [1.0, "abc"]
        write_csv(path, ["x1", "y"], rows)
        with pytest.raises(InvalidInputError, match=r"row 4.*'y'.*'abc'"):
            parse_dataset_csv(str(path), "y")

    def test_too_few_rows(self, tmp_path, capsys):
        # the size floor is the estimator's: the file parses, and the fit
        # subcommand reports qmave_fit's n >= 2(d+1) on one error line
        path = tmp_path / "data.csv"
        write_csv(path, ["a", "b", "y"], [[1, 2, 3]] * 5)
        data = parse_dataset_csv(str(path), "y")
        assert (data.n, data.d) == (5, 2)
        out = tmp_path / "fit.json"
        assert main(["fit", "--input", str(path), "--y-col", "y", "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: need n >= 2(d+1) = 6 observations, got 5"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "header, rows, y_column, message",
        [
            (None, [], "y", "empty file, header row required"),
            (["a", "y"], [[1, 2]] * 8, 2, "column index 2 out of range for 2 columns"),
            (["a", "y"], [[1, 2]] * 8, "5", "column index 5 out of range for 2 columns"),
            (["y"], [[1]] * 8, "y", "need at least one covariate column besides y"),
            (["a", "y"], [[1, 2]] * 3 + [[1, 2, 3]], "y", "row 4: expected 2 cells, got 3"),
            (["a", "y"], [], "y", "no data rows"),
        ],
        ids=["empty-file", "index-out-of-range", "text-index-out-of-range", "y-only",
             "ragged-row", "no-data-rows"],
    )
    def test_malformed_file_is_named(self, tmp_path, header, rows, y_column, message):
        path = tmp_path / "data.csv"
        if header is None:
            path.write_text("")
        else:
            write_csv(path, header, rows)
        with pytest.raises(InvalidInputError, match=message):
            parse_dataset_csv(str(path), y_column)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,y\n1,2\n\n3,4\n\n5,7\n")
        data = parse_dataset_csv(str(path), "y")
        np.testing.assert_array_equal(data.X[:, 0], [1.0, 3.0, 5.0])
        np.testing.assert_array_equal(data.Y, [2.0, 4.0, 7.0])


class TestCliSimulateAndFit:
    def test_simulate_writes_data_and_sidecar(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = main(
            ["simulate", "--n", "100", "--noise", "normal", "--seed", "5", "--out", str(out)]
        )
        assert code == 0
        meta = json.loads((tmp_path / "sim.csv.meta.json").read_text())
        assert meta["n"] == 100 and meta["seed"] == 5 and meta["noise"] == "normal"
        assert abs(np.linalg.norm(meta["theta0"]) - 1) < 1e-9
        with open(out) as fh:
            header = fh.readline().strip().split(",")
        assert header == ["x1", "x2", "x3", "x4", "x5", "y"]

    def test_fit_round_trip(self, tmp_path):
        sim_out = tmp_path / "sim.csv"
        fit_out = tmp_path / "fit.json"
        assert (
            main(["simulate", "--n", "200", "--noise", "normal", "--seed", "3",
                  "--out", str(sim_out)])
            == 0
        )
        assert (
            main(["fit", "--input", str(sim_out), "--y-col", "y", "--tau", "0.5",
                  "--out", str(fit_out)])
            == 0
        )
        fit = json.loads(fit_out.read_text())
        meta = json.loads((tmp_path / "sim.csv.meta.json").read_text())
        err = estimation_error(np.array(fit["theta"]), np.array(meta["theta0"]))
        assert err < 0.2
        assert len(fit["theta_trace"]) == fit["iterations"] + 1

    def test_fit_csv_format(self, tmp_path):
        sim_out = tmp_path / "sim.csv"
        fit_out = tmp_path / "fit.csv"
        main(["simulate", "--n", "120", "--noise", "t5", "--seed", "4", "--out", str(sim_out)])
        assert (
            main(["fit", "--input", str(sim_out), "--y-col", "y", "--out", str(fit_out),
                  "--format", "csv"])
            == 0
        )
        with open(fit_out) as fh:
            header = fh.readline().strip().split(",")
        assert header[:3] == ["iteration", "converged", "objective"]
        assert header[3:] == [f"theta_{k}" for k in range(1, 6)]

    def test_invalid_tau_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc_info:
            main(["fit", "--input", "x.csv", "--y-col", "y", "--tau", "1.5",
                  "--out", str(tmp_path / "o.json")])
        assert exc_info.value.code == 2

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--tau", "0", "quantile level must lie strictly in (0, 1), got 0.0"),
            ("--tau", "abc", "quantile level must lie strictly in (0, 1), got 'abc'"),
            ("--trim", "0.5", "alpha must lie in [0, 0.5), got 0.5"),
        ],
    )
    def test_library_domain_is_usage_error(self, tmp_path, capsys, flag, value, message):
        with pytest.raises(SystemExit) as exc_info:
            main(["fit", "--input", "x.csv", "--y-col", "y", flag, value,
                  "--out", str(tmp_path / "o.json")])
        assert exc_info.value.code == 2
        assert f"argument {flag}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("h", ["abc", "-1", "0", "nan", "inf"])
    def test_invalid_bandwidth_is_usage_error(self, tmp_path, h):
        with pytest.raises(SystemExit) as exc_info:
            main(["fit", "--input", "x.csv", "--y-col", "y", "--h", h,
                  "--out", str(tmp_path / "o.json")])
        assert exc_info.value.code == 2

    def test_missing_file_is_single_line_error(self, tmp_path, capsys):
        code = main(["fit", "--input", str(tmp_path / "nope.csv"), "--y-col", "y",
                     "--out", str(tmp_path / "o.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1

    def test_binary_file_is_single_line_error(self, tmp_path, capsys):
        # 300 bytes of an executable's header: not UTF-8 text
        path = tmp_path / "data.csv"
        path.write_bytes((b"\x7fELF\x02\x01\x01\x00" + bytes(range(256)) * 2)[:300])
        code = main(["fit", "--input", str(path), "--y-col", "y",
                     "--out", str(tmp_path / "o.json")])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert str(path) in err[0] and "not UTF-8 text" in err[0]

    def test_explicit_bandwidth_flag(self, tmp_path):
        sim_out = tmp_path / "sim.csv"
        fit_out = tmp_path / "fit.json"
        main(["simulate", "--n", "150", "--noise", "normal", "--seed", "6", "--out", str(sim_out)])
        assert (
            main(["fit", "--input", str(sim_out), "--y-col", "y", "--h", "0.8",
                  "--out", str(fit_out)])
            == 0
        )


class TestCliBenchmark:
    def test_smoke_run(self, tmp_path):
        import time

        out = tmp_path / "bench.csv"
        t0 = time.time()
        code = main(
            ["benchmark", "--ns", "50", "--noises", "normal", "--reps", "2",
             "--seed", "1", "--out", str(out)]
        )
        elapsed = time.time() - t0
        assert code == 0
        assert elapsed < 60
        lines = out.read_text().splitlines()
        assert lines[0] == "n,method,noise,mean_error,sd_error,replications,excluded"
        assert len(lines) == 3

    def test_json_format(self, tmp_path):
        out = tmp_path / "bench.json"
        code = main(
            ["benchmark", "--ns", "50", "--noises", "t5", "--reps", "1",
             "--seed", "2", "--out", str(out), "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert {r["method"] for r in payload["rows"]} == {"MAVE", "qMAVE"}

    def test_zero_reps_is_single_line_error(self, tmp_path, capsys):
        code = main(
            ["benchmark", "--ns", "50", "--noises", "normal", "--reps", "0",
             "--out", str(tmp_path / "b.csv")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert "replication" in err

    def test_zero_workers_is_single_line_error(self, tmp_path, capsys):
        code = main(
            ["benchmark", "--ns", "50", "--noises", "normal", "--reps", "1",
             "--workers", "0", "--out", str(tmp_path / "b.csv")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert "workers" in err

    @pytest.mark.parametrize("flag, name", [("--ns", "ns"), ("--noises", "laws")])
    def test_empty_grid_is_single_line_error(self, tmp_path, capsys, flag, name):
        argv = {"--ns": "50", "--noises": "normal", flag: ""}
        out = tmp_path / "b.csv"
        code = main(["benchmark", *(v for kv in argv.items() for v in kv), "--reps", "1",
                     "--out", str(out)])
        assert code == 1 and not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert f"{name} is empty" in err

    def test_bad_noise_is_single_line_error(self, tmp_path, capsys):
        code = main(
            ["benchmark", "--ns", "50", "--noises", "cauchy", "--reps", "1",
             "--seed", "1", "--out", str(tmp_path / "b.csv")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "cauchy" in err
