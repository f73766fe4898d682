import json

import numpy as np
import pytest

from spapprox.cli import (
    ConfigError,
    SuiteConfig,
    load_config,
    main,
    parse_majorant,
    parse_measure,
    parse_psi,
    parse_scalar,
    parse_shape,
    run_suite,
)


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestParsers:
    @pytest.mark.parametrize(
        "text,value",
        [("1.5", 1.5), ("pi", np.pi), ("pi/2", np.pi / 2), ("3pi/4", 3 * np.pi / 4), ("2pi", 2 * np.pi)],
    )
    def test_scalars(self, text, value):
        assert parse_scalar(text) == pytest.approx(value)

    def test_bad_scalar(self):
        with pytest.raises(ConfigError):
            parse_scalar("one")

    def test_shape(self):
        assert parse_shape("phi_alpha:1.5").sup_value == pytest.approx(2**1.5)
        with pytest.raises(ConfigError):
            parse_shape("bogus:1")

    def test_measure(self):
        assert parse_measure("mu1", np.pi).label == "mu1"
        assert parse_measure("mu2", 1.0).total_mass == pytest.approx(1.0)
        atoms = parse_measure("atoms:[[0.5, 2.0]]", 1.0)
        assert atoms.atoms == ((0.5, 2.0),)
        with pytest.raises(ConfigError):
            parse_measure("nope", 1.0)

    def test_psi(self):
        assert parse_psi("power:1").label == "power:1"
        assert parse_psi("const:2j")(7) == 2j
        with pytest.raises(ConfigError):
            parse_psi("wat:1")

    def test_majorant(self):
        assert float(parse_majorant("linear").eval(np.array([2.0]))[0]) == 2.0
        assert float(parse_majorant("power:2").eval(np.array([3.0]))[0]) == 9.0
        with pytest.raises(ConfigError):
            parse_majorant("power:-1")


class TestConfig:
    def test_unknown_top_level_key(self, tmp_path):
        path = write_config(tmp_path, {"suite": "a6101", "bogus": 1})
        with pytest.raises(ConfigError, match="bogus"):
            load_config(path)

    def test_unknown_param_key(self, tmp_path):
        path = write_config(tmp_path, {"suite": "a6101", "params": {"nope": []}})
        with pytest.raises(ConfigError, match="nope"):
            load_config(path)

    def test_unknown_suite(self):
        with pytest.raises(ConfigError, match="unknown suite"):
            SuiteConfig(suite="wat")

    def test_json_error_is_line_anchored(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"suite": "a6101",}')
        with pytest.raises(ConfigError, match=r":1:"):
            load_config(str(path))

    def test_defaults_merged(self):
        cfg = SuiteConfig(suite="a6101", params={"k_factor": 8})
        assert cfg.params["k_factor"] == 8
        assert cfg.params["lambdas"] == [1, 2, 3, 4, 5]
        assert cfg.tolerance == 1e-9


class TestSuites:
    def test_a6101_five_rows_pass(self, tmp_path):
        cfg = SuiteConfig(suite="a6101", params={"k_factor": 8}, no_timestamp=True)
        report, status = run_suite(cfg)
        assert status == 0
        assert len(report["rows"]) == 5
        assert all(row["rel_err"] <= 1e-9 for row in report["rows"])
        assert {row["provenance"] for row in report["rows"]} == {"paper_constant"}

    def test_empty_grid_passes(self):
        cfg = SuiteConfig(suite="a6101", params={"lambdas": []}, no_timestamp=True)
        report, status = run_suite(cfg)
        assert status == 0
        assert report["rows"] == []
        assert report["pass"] is True

    def test_sharpness_small_grid(self):
        cfg = SuiteConfig(
            suite="sharpness",
            params={"p": [2.0], "alpha": [1.0], "r": [1.0], "n": [2], "k_factor": 8},
            no_timestamp=True,
        )
        report, status = run_suite(cfg)
        assert status == 0
        row = report["rows"][0]
        assert row["rel_gap"] <= 1e-6

    def test_sharpness_injected_error_fails(self):
        cfg = SuiteConfig(
            suite="sharpness",
            params={"p": [2.0], "alpha": [1.0], "r": [0.0], "n": [1],
                    "k_factor": 8, "constant_scale": 1.1},
            no_timestamp=True,
        )
        report, status = run_suite(cfg)
        assert status == 1
        assert report["pass"] is False

    def test_modulus_oracle_small(self):
        cfg = SuiteConfig(suite="modulus-oracle", params={"cases": 8}, no_timestamp=True)
        report, status = run_suite(cfg)
        assert status == 0
        assert len(report["rows"]) == 8

    def test_jackson_fuzz_small(self):
        cfg = SuiteConfig(
            suite="jackson-fuzz",
            params={"samples": 20, "p": [1.5], "psi": ["power:1"], "n": [2],
                    "k_factor": 8},
            no_timestamp=True,
        )
        report, status = run_suite(cfg)
        assert status == 0
        assert report["rows"][0]["violations"] == 0

    def test_widths_certify_small(self):
        cfg = SuiteConfig(
            suite="widths-certify",
            params={"samples": 10, "n": [1], "k_factor": 8},
            no_timestamp=True,
        )
        report, status = run_suite(cfg)
        assert status == 0
        assert all(row["verdict"] == "consistent" for row in report["rows"])


class TestMainEntry:
    def test_exit_2_on_missing_config(self, capsys):
        assert main(["suite", "--config", "/nonexistent/cfg.json"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_exit_2_on_unknown_key(self, tmp_path, capsys):
        path = write_config(tmp_path, {"suite": "a6101", "wrong": True})
        assert main(["suite", "--config", path]) == 2

    def test_suite_by_name_writes_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        cfg = write_config(
            tmp_path, {"suite": "a6101", "params": {"k_factor": 8}, "no_timestamp": True}
        )
        assert main(["suite", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["pass"] is True

    def test_deterministic_reports(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"suite": "modulus-oracle", "seed": 7, "params": {"cases": 5},
             "no_timestamp": True},
        )
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["suite", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["suite", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_csv_format(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"suite": "a6101", "params": {"k_factor": 8}, "format": "csv",
             "no_timestamp": True},
        )
        out = tmp_path / "report.csv"
        assert main(["suite", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].split(",")[0] == "lambda"
        assert len(lines) == 6  # header + five rows

    def test_jackson_inf_subcommand(self, tmp_path):
        out = tmp_path / "inf.json"
        rc = main([
            "jackson", "inf", "--phi", "phi_alpha:1", "--p", "2", "--mu", "mu1",
            "--tau", "pi", "--n", "2", "--k-max", "16", "--out", str(out),
            "--no-timestamp",
        ])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["value"] == pytest.approx(4.0, rel=1e-9)
        assert report["attained_at_n"] is True

    @pytest.mark.parametrize(
        "phi,extra",
        [("phi_alpha:0.25", []), ("phi_alpha:0.25", ["--k-max", "64"]), ("phi_alpha:0.5", [])],
    )
    def test_jackson_inf_low_fractional_order(self, tmp_path, phi, extra):
        out = tmp_path / "inf.json"
        rc = main([
            "jackson", "inf", "--phi", phi, "--p", "1", "--mu", "mu1",
            "--tau", "pi", "--n", "1", *extra, "--out", str(out), "--no-timestamp",
        ])
        assert rc == 0
        report = json.loads(out.read_text())
        assert 0.0 < report["value"] < 2 ** (float(phi.split(":")[1]) + 1)

    def test_jackson_sharp_subcommand(self, tmp_path):
        out = tmp_path / "sharp.json"
        rc = main([
            "jackson", "sharp", "--phi", "phi_alpha:1", "--p", "2", "--mu", "mu1",
            "--tau", "pi", "--psi", "power:1", "--n", "2", "--k-max", "16",
            "--out", str(out), "--no-timestamp",
        ])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["rel_gap"] <= 1e-6

    def test_jackson_bound_subcommand(self, tmp_path):
        spec_path = tmp_path / "f.json"
        spec_path.write_text(json.dumps([
            {"k": 1, "re": 1.0, "im": 0.0},
            {"k": 3, "re": 0.0, "im": 0.5},
        ]))
        out = tmp_path / "bound.json"
        rc = main([
            "jackson", "bound", "--phi", "phi_alpha:1", "--p", "2", "--mu", "mu1",
            "--tau", "pi", "--psi", "power:1", "--function", str(spec_path),
            "--n", "2", "--k-max", "16", "--out", str(out), "--no-timestamp",
        ])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["holds"] is True
        assert report["lhs"] <= report["bound"] + 1e-9

    def test_widths_value_subcommand(self, tmp_path):
        out = tmp_path / "value.json"
        rc = main([
            "widths", "value", "--phi", "phi_alpha:1", "--p", "2", "--mu", "mu1",
            "--tau", "pi", "--psi", "power:2", "--n", "3", "--k-max", "24",
            "--out", str(out), "--no-timestamp",
        ])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["value"] == pytest.approx(np.sqrt(2) / 2 / 9, rel=1e-9)
        assert report["dimensions"] == [5, 6]

    def test_widths_certify_subcommand(self, tmp_path):
        out = tmp_path / "cert.json"
        rc = main([
            "widths", "certify", "--phi", "phi_alpha:1", "--p", "2", "--mu", "mu1",
            "--tau", "pi", "--psi", "power:1", "--n", "1", "--samples", "10",
            "--seed", "3", "--k-max", "8", "--out", str(out), "--no-timestamp",
        ])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["verdict"] == "consistent"
        assert report["lower"]["failures"] == 0

    def test_widths_majorant_check_subcommand(self, tmp_path):
        out = tmp_path / "maj.json"
        rc = main([
            "widths", "majorant-check", "--phi", "phi_alpha:1", "--p", "2",
            "--mu", "mu2", "--tau", "3pi/4", "--omega", "linear",
            "--out", str(out), "--no-timestamp",
        ])
        # the linear majorant at p=2 fails the scaling condition: exit 1
        assert rc == 1
        report = json.loads(out.read_text())
        assert report["ok"] is False
