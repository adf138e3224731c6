"""CLI dispatch, validation, report files, determinism."""

import csv
import json

import pytest

from heavytail_cs.cli import main


def run_cli(args):
    return main(args)


def read_report_csv(path):
    config = None
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        header = None
        for line in fh:
            if line.startswith("# config: "):
                config = json.loads(line[len("# config: "):])
                continue
            if line.startswith("#"):
                continue
            if header is None:
                header = next(csv.reader([line]))
                continue
            rows.append(dict(zip(header, next(csv.reader([line])))))
    return config, rows


class TestCoverageCommand:
    def test_json_report_fields(self, tmp_path):
        out = tmp_path / "cov.json"
        code = run_cli([
            "coverage", "--method", "catoni", "--dist", "gaussian", "--p", "2",
            "--alpha", "0.05", "--n", "1000", "--reps", "50", "--seed", "7",
            "--format", "json", "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"config", "rows", "summary"}
        assert doc["config"]["seed"] == 7
        assert "threads" not in doc["config"]  # execution detail, not config
        row = doc["rows"][0]
        assert "miscoverage_rate" in row and 0.0 <= row["miscoverage_rate"] <= 1.0

    def test_missing_dist_usage_error(self, capsys):
        assert run_cli(["coverage", "--method", "catoni", "--p", "2"]) == 2
        assert "--dist" in capsys.readouterr().err

    def test_invalid_alpha_names_field(self, capsys):
        code = run_cli(["coverage", "--dist", "gaussian", "--alpha", "1.5",
                        "--n", "100", "--reps", "5"])
        assert code == 2
        assert "alpha" in capsys.readouterr().err

    def test_both_methods_two_rows(self, tmp_path):
        out = tmp_path / "cov.json"
        assert run_cli(["coverage", "--method", "both", "--dist", "gaussian",
                        "--n", "500", "--reps", "20", "--seed", "1",
                        "--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert [r["method"] for r in doc["rows"]] == ["catoni", "ds"]


class TestWidthCommand:
    def test_csv_schema_both_methods(self, tmp_path):
        out = tmp_path / "w.csv"
        code = run_cli(["width", "--method", "both", "--dist", "gaussian",
                        "--n", "2000", "--seed", "3", "--reps", "2",
                        "--format", "csv", "--out", str(out)])
        assert code == 0
        config, rows = read_report_csv(str(out))
        assert config["command"] == "width" and config["seed"] == 3
        assert set(rows[0]) == {"n", "width_catoni", "bound_catoni", "condition_catoni",
                                "width_ds", "bound_ds", "condition_ds"}

    def test_bound_na_exactly_where_condition_false(self, tmp_path):
        out = tmp_path / "w.csv"
        run_cli(["width", "--method", "catoni", "--dist", "gaussian", "--n", "2000",
                 "--seed", "3", "--reps", "1", "--format", "csv", "--out", str(out)])
        _, rows = read_report_csv(str(out))
        assert any(r["condition_catoni"] == "false" for r in rows)
        assert any(r["condition_catoni"] == "true" for r in rows)
        for r in rows:
            assert (r["bound_catoni"] == "NA") == (r["condition_catoni"] == "false")

    def test_csv_round_trip_exact(self, tmp_path):
        """Reloaded CSV floats match the in-memory report to 1e-12 (repr
        serialization round-trips exactly)."""
        from heavytail_cs.harness import gaussian as gdist, run_width

        out = tmp_path / "w.csv"
        run_cli(["width", "--method", "catoni", "--dist", "gaussian", "--n", "1500",
                 "--seed", "5", "--reps", "2", "--format", "csv", "--out", str(out)])
        _, rows = read_report_csv(str(out))
        rep = run_width("catoni", gdist(0.0, 1.0), 2.0, 0.05, 1500, seed=5, reps=2)
        assert len(rows) == len(rep.checkpoints)
        for row, ck in zip(rows, rep.checkpoints):
            assert int(row["n"]) == ck.n
            assert abs(float(row["width_catoni"]) - ck.mean_width) <= 1e-12 * ck.mean_width
            if ck.bound is not None:
                assert abs(float(row["bound_catoni"]) - ck.bound) <= 1e-12 * ck.bound

    def test_matched_ds_optimal_schedule(self, tmp_path):
        """--schedule ds_optimal hands both methods the same width-optimal
        weights (matched-schedule comparison)."""
        out = tmp_path / "w.json"
        code = run_cli(["width", "--method", "both", "--dist", "gaussian", "--n", "500",
                        "--seed", "2", "--reps", "1", "--schedule", "ds_optimal",
                        "--format", "json", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["schedule"] == "ds_optimal"

    def test_svg_written(self, tmp_path):
        out = tmp_path / "w.csv"
        svg = tmp_path / "w.svg"
        code = run_cli(["width", "--method", "both", "--dist", "gaussian", "--n", "1000",
                        "--seed", "3", "--reps", "1", "--out", str(out), "--svg", str(svg)])
        assert code == 0
        text = svg.read_text()
        assert text.startswith("<svg") and "polyline" in text


class TestLilCheckCommand:
    def test_rejects_p_not_two(self, capsys):
        code = run_cli(["lil-check", "--dist", "gaussian", "--p", "1.5", "--n", "100"])
        assert code == 2
        assert "finite variance" in capsys.readouterr().err

    def test_floor_na_before_applicable(self, tmp_path):
        out = tmp_path / "lil.csv"
        code = run_cli(["lil-check", "--dist", "gaussian", "--n", "3000", "--seed", "9",
                        "--checkpoints", "5,8,9,100,3000", "--out", str(out)])
        assert code == 0
        _, rows = read_report_csv(str(out))
        by_n = {int(r["n"]): r for r in rows}
        assert by_n[5]["lil_floor"] == "NA" and by_n[8]["lil_floor"] == "NA"
        assert by_n[9]["lil_floor"] != "NA"

    def test_floor_below_width_from_reported_n0(self, tmp_path):
        out = tmp_path / "lil.json"
        run_cli(["lil-check", "--dist", "gaussian", "--n", "3000", "--seed", "9",
                 "--format", "json", "--out", str(out)])
        doc = json.loads(out.read_text())
        n0 = doc["summary"]["n0_first_checkpoint_floor_below_width"]
        assert n0 is not None and n0 <= 1000
        for row in doc["rows"]:
            if row["lil_floor"] is not None and row["n"] >= n0:
                assert row["width"] >= row["lil_floor"]


class TestEmptyCheckpoints:
    @pytest.mark.parametrize("command", ["width", "lil-check"])
    def test_usage_error(self, command, capsys):
        assert run_cli([command, "--dist", "gaussian", "--n", "100", "--checkpoints", ","]) == 2
        assert "error: checkpoints must not be empty" in capsys.readouterr().err


class TestConfigFileAndEnv:
    def test_config_file_with_flag_override(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"dist": "gaussian", "n": 400, "reps": 10,
                                        "alpha": 0.1, "seed": 21}))
        out = tmp_path / "r.json"
        code = run_cli(["coverage", "--dist", "gaussian", "--config", str(cfg_path),
                        "--alpha", "0.2", "--format", "json", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["alpha"] == 0.2  # flag wins
        assert doc["config"]["n"] == 400      # file fills the rest
        assert doc["config"]["seed"] == 21

    def test_env_seed_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HEAVYTAIL_CS_SEED", "4242")
        out = tmp_path / "r.json"
        run_cli(["coverage", "--dist", "gaussian", "--n", "200", "--reps", "5",
                 "--format", "json", "--out", str(out)])
        assert json.loads(out.read_text())["config"]["seed"] == 4242

    def test_missing_config_file(self, capsys):
        assert run_cli(["coverage", "--dist", "gaussian", "--config", "/no/such.json"]) == 2


class TestDeterminism:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_threads_do_not_change_bytes(self, tmp_path, fmt):
        outs = []
        for threads, name in ((1, "a"), (4, "b")):
            out = tmp_path / f"{name}.{fmt}"
            code = run_cli(["coverage", "--method", "both", "--dist", "centered_pareto",
                            "--shape", "1.9", "--p", "1.5", "--n", "800", "--reps", "40",
                            "--seed", "99", "--threads", str(threads),
                            "--format", fmt, "--out", str(out)])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_repeat_run_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["width", "--method", "both", "--dist", "student_t", "--df", "1.8",
                "--p", "1.5", "--n", "600", "--reps", "3", "--seed", "123", "--format", "csv"]
        assert run_cli(args + ["--out", str(a)]) == 0
        assert run_cli(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
