"""CLI dispatch, validation, report files, determinism."""

import csv
import json
import re
import warnings
from pathlib import Path

import pytest

from heavytail_cs import cli
from heavytail_cs.cli import _COMMANDS, _OPTIONS, main


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


class TestOneParser:
    """main builds its argument parser once per process, and a reused parser parses each command afresh."""

    COMMANDS = [
        ["width", "--method", "ds", "--dist", "gaussian", "--n", "200", "--checkpoints", "10,200", "--seed", "3"],
        ["coverage", "--method", "ds", "--dist", "gaussian", "--n", "200", "--reps", "3"],
    ]

    def test_two_commands_then_an_invalid_flag(self, tmp_path, capsys):
        fresh = []
        for k, args in enumerate(self.COMMANDS):
            cli._parser.cache_clear()
            assert main(args + ["--out", str(tmp_path / f"fresh{k}.csv")]) == 0
            fresh.append((tmp_path / f"fresh{k}.csv").read_text())
        cli._parser.cache_clear()
        for k, args in enumerate(self.COMMANDS):
            assert main(args + ["--out", str(tmp_path / f"reused{k}.csv")]) == 0
            assert (tmp_path / f"reused{k}.csv").read_text() == fresh[k]
        capsys.readouterr()
        assert main(["width", "--dist", "gaussian", "--bogus"]) == 2
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err
        assert cli._parser.cache_info().misses == 1


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

    def test_infinite_endpoints_report_na_without_warnings(self, tmp_path):
        """At p = 1.5 the ds_optimal weights put the early Catoni endpoints at
        +-inf: those widths read NA, the slope null, and no warning is raised."""
        out = tmp_path / "w.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(["width", "--method", "catoni", "--dist", "gaussian", "--p", "1.5",
                            "--n", "2000", "--reps", "1", "--seed", "3", "--schedule", "ds_optimal",
                            "--out", str(out)])
        assert code == 0
        _, rows = read_report_csv(out)
        assert rows[0]["width_catoni"] == "NA" and rows[-1]["width_catoni"] != "NA"
        assert '"slope_catoni": null' in out.read_text().splitlines()[-1]

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


class TestDefaultSchedule:
    """Without --schedule, Catoni runs the power law at --schedule-c in every command."""

    @pytest.mark.parametrize("args", [
        ["width", "--checkpoints", "100,2000", "--reps", "1"],
        ["coverage", "--alpha", "0.5", "--reps", "200"],
    ], ids=["width", "coverage"])
    def test_schedule_c_without_schedule_is_power_law(self, tmp_path, args):
        docs = []
        for extra in ([], ["--schedule", "power_law"]):
            out = tmp_path / f"r{len(docs)}.json"
            assert run_cli(args + ["--method", "catoni", "--dist", "gaussian", "--n", "2000",
                                   "--schedule-c", "0.5", "--format", "json", "--out", str(out), *extra]) == 0
            docs.append(json.loads(out.read_text()))
        assert docs[0]["rows"] == docs[1]["rows"] and docs[0]["summary"] == docs[1]["summary"]
        assert (docs[0]["config"]["schedule"], docs[1]["config"]["schedule"]) == (None, "power_law")
        if args[0] == "width":
            assert docs[0]["rows"][-1]["width_catoni"] == 0.21473151854452632
        else:
            assert docs[0]["rows"][0]["miscoverage_count"] == 48


class TestSeed:
    @pytest.mark.parametrize("flag, env, shown", [
        (["--seed", "-1"], None, "-1 (--seed)"),
        ([], "abc", "'abc' (HEAVYTAIL_CS_SEED)"),
        ([], "-3", "'-3' (HEAVYTAIL_CS_SEED)"),
    ], ids=["flag_negative", "env_text", "env_negative"])
    def test_bad_seed_exits_2_naming_source(self, capsys, monkeypatch, flag, env, shown):
        if env is not None:
            monkeypatch.setenv("HEAVYTAIL_CS_SEED", env)
        assert run_cli(["coverage", "--dist", "gaussian", "--n", "10", "--reps", "1", *flag]) == 2
        assert f"error: seed must be a non-negative integer, got {shown}" in capsys.readouterr().err

    def test_config_file_seed_named(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"seed": -2}))
        assert run_cli(["coverage", "--dist", "gaussian", "--n", "10", "--reps", "1", "--config", str(cfg_path)]) == 2
        assert "error: seed must be a non-negative integer, got -2 (config file)" in capsys.readouterr().err


class TestEmptyCheckpoints:
    @pytest.mark.parametrize("command", ["width", "lil-check"])
    def test_usage_error(self, command, capsys):
        assert run_cli([command, "--dist", "gaussian", "--n", "100", "--checkpoints", ","]) == 2
        assert "error: checkpoints must not be empty" in capsys.readouterr().err


class TestCheckpointValues:
    def test_fraction_rejected(self, capsys):
        code = run_cli(["width", "--dist", "gaussian", "--n", "200", "--reps", "1", "--checkpoints", "10.5,100"])
        assert code == 2
        assert "error: checkpoints must be integers" in capsys.readouterr().err

    def test_integral_spellings_accepted(self, tmp_path):
        out = tmp_path / "w.csv"
        code = run_cli(["width", "--dist", "gaussian", "--n", "1000", "--reps", "1",
                        "--checkpoints", "1e3,100.0,50", "--out", str(out)])
        assert code == 0
        _, rows = read_report_csv(out)
        assert [int(r["n"]) for r in rows] == [50, 100, 1000]


class TestListParseErrors:
    @pytest.mark.parametrize("args, key", [
        (["coverage", "--dist", "two_point", "--values", "a,b"], "values"),
        (["coverage", "--dist", "two_point", "--probs", "0.5,x"], "probs"),
        (["coverage", "--dist", "gaussian", "--schedule", "custom_list", "--schedule-values", "1,a"],
         "schedule_values"),
        (["width", "--dist", "gaussian", "--checkpoints", "10,a"], "checkpoints"),
    ], ids=["values", "probs", "schedule_values", "checkpoints"])
    def test_error_names_setting(self, capsys, args, key):
        assert run_cli(args + ["--n", "100", "--reps", "1"]) == 2
        assert f"error: {key} must be comma-separated numbers" in capsys.readouterr().err


class TestNonFiniteSettings:
    """Non-finite parameters are usage errors (exit 2), not a run that reports 0 misses."""

    @pytest.mark.parametrize("args, message", [
        (["coverage", "--dist", "two_point", "--values", "nan,1"], "two_point values must be finite"),
        (["coverage", "--dist", "gaussian", "--sigma", "nan"], "sigma must be positive and finite"),
        (["coverage", "--dist", "gaussian", "--mean", "inf"], "mean must be finite"),
        (["coverage", "--dist", "gaussian", "--schedule", "custom_list", "--schedule-values", "nan,1"],
         "positive finite values"),
        (["coverage", "--dist", "gaussian", "--schedule", "power_law", "--schedule-c", "inf"],
         "scale c must be positive and finite"),
        (["coverage", "--method", "ds", "--dist", "gaussian", "--b", "nan"], "b must be positive and finite"),
        (["coverage", "--method", "catoni", "--dist", "gaussian", "--b", "inf"], "b must be positive and finite"),
        (["coverage", "--method", "ds", "--dist", "gaussian", "--schedule-c", "nan"],
         "schedule_c must be positive and finite"),
        (["coverage", "--method", "catoni", "--dist", "gaussian", "--schedule-c", "nan"],
         "schedule_c: scale c must be positive and finite, got nan"),
        (["width", "--method", "ds", "--dist", "gaussian", "--tau", "inf"], "tau must be positive and finite"),
        (["width", "--dist", "gaussian", "--tau", "inf"], "tau must be positive and finite"),
        (["width", "--method", "ds", "--dist", "gaussian", "--p", "1.01", "--alpha", "1e-5"],
         "p = 1.01, alpha = 1e-05"),
        (["width", "--dist", "gaussian", "--sigma", "1e200"],
         "E|X - mu|^2.0 of gaussian(mean=0.0,sigma=1e+200) is not a finite float"),
        (["coverage", "--dist", "centered_pareto", "--scale", "1e250", "--p", "1.5"],
         "E|X - mu|^1.5 of centered_pareto(shape=1.9,scale=1e+250) is not a finite float"),
        (["coverage", "--method", "ds", "--dist", "two_point", "--values", "5", "--probs", "1"],
         "error: v_p = E|X - mu|^2.0 of two_point(values=[5.0],probs=[1.0]) is not positive: 0.0"),
        (["width", "--dist", "gaussian", "--sigma", "1e-300", "--p", "1.5"],
         "error: v_p = E|X - mu|^1.5 of gaussian(mean=0.0,sigma=1e-300) is not positive: 0.0"),
        (["width", "--method", "ds", "--dist", "gaussian", "--p", "1.0000001"],
         "error: a is not a positive normal float at p = 1.0000001, alpha = 0.05"),
    ], ids=["two_point_values", "sigma", "mean", "schedule_values", "schedule_c", "b", "b_unused",
            "schedule_c_unused", "schedule_c_default", "tau_unused", "tau", "ds_a_overflow", "gaussian_moment_overflow",
            "pareto_moment_overflow", "point_mass_moment", "underflowing_moment", "ds_a_far_beyond_float_range"])
    def test_exit_2_naming_setting(self, capsys, args, message):
        assert run_cli(args + ["--n", "100", "--reps", "1"]) == 2
        assert message in capsys.readouterr().err


class TestWidthT:
    """t is checked for every width run, not only where a Catoni config is built: the report embeds it."""

    @pytest.mark.parametrize("method", ["catoni", "ds", "both"])
    @pytest.mark.parametrize("t", ["1.5", "1", "0", "-0.2", "nan"])
    def test_t_outside_unit_interval_exits_2(self, capsys, method, t):
        assert run_cli(["width", "--method", method, "--dist", "gaussian", "--t", t, "--n", "300", "--reps", "1"]) == 2
        assert "error: t must lie in (0, 1)" in capsys.readouterr().err


class TestRanges:
    """Each range lives in its _OPTIONS row; a value outside it exits 2 with the same message, for any ranged key."""

    OUT_OF_RANGE = {
        "p": ("2.5", "p must lie in (1, 2], got 2.5"),
        "alpha": ("1.5", "alpha must lie in (0, 1), got 1.5"),
        "n": ("0", "n must be >= 1, got 0"),
        "reps": ("0", "reps must be >= 1, got 0"),
        "t": ("1.5", "t must lie in (0, 1), got 1.5"),
        "stride": ("0", "stride must be >= 1, got 0"),
        "threads": ("0", "threads must be >= 1, got 0"),
    }

    def test_every_ranged_option_has_a_case(self):
        assert {key for key, opt in _OPTIONS.items() if opt.valid} == set(self.OUT_OF_RANGE)

    @pytest.mark.parametrize("key", sorted(OUT_OF_RANGE))
    def test_out_of_range_exits_2(self, capsys, key):
        command = _OPTIONS[key].commands[-1]
        value, message = self.OUT_OF_RANGE[key]
        settings = {"n": "100", "reps": "1", key: value}
        args = [a for k, v in settings.items() if command in _OPTIONS[k].commands for a in ("--" + k, v)]
        assert run_cli([command, "--dist", "gaussian", *args]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestEmbeddedConfig:
    @pytest.mark.parametrize("command", list(_COMMANDS))
    def test_embeds_only_settings_the_command_takes(self, tmp_path, command):
        out = tmp_path / "r.json"
        reps = [] if command == "lil-check" else ["--reps", "2"]
        code = run_cli([command, "--dist", "gaussian", "--n", "300", *reps, "--format", "json", "--out", str(out)])
        assert code == 0
        config = json.loads(out.read_text())["config"]
        assert config["command"] == command
        taken = {key for key, opt in _OPTIONS.items() if command in opt.commands}
        assert set(config) - {"command"} <= taken


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

    @pytest.mark.parametrize("entry", [{"n": "100"}, {"threads": "2"}, {"p": "1.5"}, {"reps": 2.5},
                                       {"alpha": True}, {"method": None}],
                             ids=["n", "threads", "p", "reps", "alpha", "method"])
    def test_wrong_type_in_config_file_is_usage_error(self, tmp_path, capsys, entry):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"n": 50, "reps": 2, **entry}))
        assert run_cli(["coverage", "--dist", "gaussian", "--config", str(cfg_path)]) == 2
        (key,) = entry
        assert f"error: config file: {key} must be" in capsys.readouterr().err


class TestConfigFileChecks:
    """A config-file value gets the checks its flag gets: key, command, type, choices."""

    def run_with(self, tmp_path, command, entry, *flags):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(entry))
        return run_cli([command, "--config", str(cfg_path), "--n", "300", *flags])

    @pytest.mark.parametrize("entry", [{"format": "xml"}, {"schedule": "bogus"}, {"method": "nope"},
                                       {"dist": "cauchy"}], ids=["format", "schedule", "method", "dist"])
    def test_value_outside_choices(self, tmp_path, capsys, entry):
        assert self.run_with(tmp_path, "coverage", {"dist": "gaussian", **entry}, "--reps", "2") == 2
        (key,) = entry
        assert f"error: config file: {key} must be one of" in capsys.readouterr().err

    def test_unknown_key(self, tmp_path, capsys):
        assert self.run_with(tmp_path, "coverage", {"alpah": 0.5}, "--dist", "gaussian", "--reps", "2") == 2
        assert "config file: alpah" in capsys.readouterr().err

    @pytest.mark.parametrize("command, entry", [("width", {"stride": 2}), ("lil-check", {"reps": 3}),
                                                ("coverage", {"t": 0.3})],
                             ids=["stride-width", "reps-lil-check", "t-coverage"])
    def test_key_the_command_does_not_take(self, tmp_path, capsys, command, entry):
        assert self.run_with(tmp_path, command, entry, "--dist", "gaussian") == 2
        (key,) = entry
        assert f"config file: {key} is not a setting of {command}" in capsys.readouterr().err

    def test_dist_from_file_alone(self, tmp_path):
        out = tmp_path / "r.json"
        entry = {"dist": "student_t", "df": 1.8, "p": 1.5}
        assert self.run_with(tmp_path, "coverage", entry, "--reps", "5", "--format", "json", "--out", str(out)) == 0
        assert json.loads(out.read_text())["config"]["dist"] == "student_t(df=1.8,location=0.0)"


class TestOptionTable:
    @staticmethod
    def flags(command):
        return {"--" + key.replace("_", "-") for key, opt in _OPTIONS.items() if command in opt.commands}

    @pytest.mark.parametrize("command", list(_COMMANDS))
    def test_help_lists_exactly_the_table_flags(self, command, capsys):
        assert run_cli([command, "--help"]) == 0
        listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        assert listed == self.flags(command) | {"--config", "--help"}

    @pytest.mark.parametrize("command, args", [("coverage", ["--t", "0.3"]), ("lil-check", ["--tau", "0.2"])])
    def test_t_and_tau_only_for_width(self, capsys, command, args):
        assert run_cli([command, "--dist", "gaussian", "--n", "100", *args]) == 2
        assert f"unrecognized arguments: {' '.join(args)}" in capsys.readouterr().err

    def test_width_takes_t_and_tau_with_their_defaults(self):
        assert self.flags("width") >= {"--t", "--tau"}
        assert (_OPTIONS["t"].default, _OPTIONS["tau"].default) == (0.5, 0.1)

    def test_readme_documents_every_flag(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        for flag in sorted(set().union(*map(self.flags, _COMMANDS)) | {"--config"}):
            assert re.search(re.escape(flag) + r"(?![a-z-])", readme), flag


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
