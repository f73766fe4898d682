import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spapprox import cli, jackson
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
from spapprox.jackson import SharpnessReport, sharpness_certificate


_MU1_SET = {"p": 2.0, "alpha": 1.0, "mu": "mu1", "tau": "pi", "psi": "power:1"}


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

    @pytest.mark.parametrize("text", ["pi/0", "3pi/0.0"])
    def test_zero_denominator_is_a_config_error(self, text):
        with pytest.raises(ConfigError, match="zero denominator"):
            parse_scalar(text)

    def test_shape(self):
        assert parse_shape("phi_alpha:1.5").sup_value == pytest.approx(2**1.5)
        with pytest.raises(ConfigError):
            parse_shape("bogus:1")
        with pytest.raises(ConfigError, match="shape token must be a string"):
            parse_shape(5)

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

    @pytest.mark.parametrize(
        "payload,match",
        [
            ({"suite": "a6101", "params": 5}, "params must be an object"),
            ({"suite": "a6101", "seed": [1]}, "seed must be an integer"),
            ({"suite": "a6101", "tolerance": "1e-6"}, "tolerance must be a number"),
            ({"suite": "a6101", "params": {"lambdas": 5}}, "'lambdas'"),
            ({"suite": "a6101", "params": {"lambdas": [[1]]}}, "'lambdas'"),
            ({"suite": "a6101", "params": {"k_factor": [8]}}, "'k_factor'"),
            ({"suite": "sharpness", "params": {"tau": None}}, "'tau'"),
            ({"suite": "widths-certify", "params": {"sets": [5]}}, "'sets'"),
            ({"suite": "widths-certify",
              "params": {"sets": [{"p": 2, "alpha": 1, "mu": "mu1", "psi": "power:1"}]}},
             "'sets'"),
            ({"suite": "widths-certify",
              "params": {"sets": [{"p": [2], "alpha": 1, "mu": "mu1", "tau": "pi",
                                   "psi": "power:1"}]}},
             "'sets'"),
            ({"suite": "widths-certify",
              "params": {"sets": [{"p": 2, "alpha": 1, "mu": "mu1", "tau": "pi",
                                   "psi": "power:1", "omgea": "linear"}]}},
             "'sets'"),
            ({"suite": "a6101", "out": 5, "params": {"lambdas": []}}, "out must be"),
            ({"suite": "a6101", "out": ["x"], "params": {"lambdas": []}}, "out must be"),
            ({"suite": "sharpness", "params": {"p": ["two"]}}, "parameter 'p'"),
            ({"suite": "jackson-fuzz", "params": {"samples": "many"}}, "parameter 'samples'"),
            ({"suite": "a6101", "tolerance": True}, "tolerance must be a number"),
            ({"suite": "jackson-fuzz", "params": {"samples": True}}, "parameter 'samples'"),
            ({"suite": "a6101", "params": {"lambdas": [True]}}, "'lambdas'"),
            ({"suite": "sharpness", "params": {"tau": True}}, "'tau'"),
            ({"suite": "a6101", "no_timestamp": "false"}, "no_timestamp must be a boolean"),
            ({"suite": "a6101", "seed": 1.7}, "seed must be an integer"),
            ({"suite": "a6101", "seed": True}, "seed must be an integer"),
            ({"suite": ["a6101"]}, "unknown suite"),
            ({"suite": "jackson-fuzz", "params": {"samples": 0, "p": [2.0]}},
             "'samples' .* at least 1"),
            ({"suite": "widths-certify", "params": {"samples": 0.5}}, "'samples' .* at least 1"),
            ({"suite": "sharpness", "tolerance": math.inf}, "JSON constant Infinity"),
            ({"suite": "a6101", "params": {"lambdas": [-math.inf]}}, "JSON constant -Infinity"),
            ({"suite": "widths-certify", "params": {"sets": [{**_MU1_SET, "p": math.nan}]}},
             "JSON constant NaN"),
            ({"suite": "a6101", "tolerance": -1e-9}, "tolerance must be a number"),
            ({"suite": "a6101", "params": {"n": [2.0]}}, "'n' .* must be an integer"),
            ({"suite": "modulus-oracle", "params": {"cases": 1e308}},
             "'cases' .* must be an integer"),
            ({"suite": "widths-certify", "params": {"sets": [{**_MU1_SET, "name": 5}]}},
             "set name token must be a string"),
            ({"suite": "jackson-fuzz", "seed": -1}, "seed must be an integer at least 0"),
        ],
    )
    def test_malformed_value_is_a_config_error(self, tmp_path, capsys, payload, match):
        path = write_config(tmp_path, payload)
        with pytest.raises(ConfigError, match=match):
            load_config(path)
        assert main(["suite", "--config", path]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_tau_and_alpha_take_text(self):
        cfg = SuiteConfig(suite="jackson-fuzz", params={"tau": "pi/2", "alpha": "1.5"})
        assert (cfg.params["tau"], cfg.params["alpha"]) == (np.pi / 2, 1.5)
        sets = [{"p": 2, "alpha": "1", "mu": "mu1", "tau": "3pi/4", "psi": "power:1"}]
        assert SuiteConfig(suite="widths-certify", params={"sets": sets}).params["sets"] == [
            {"p": 2.0, "alpha": 1.0, "mu": "mu1", "tau": 3 * np.pi / 4, "psi": "power:1"}
        ]
        with pytest.raises(ConfigError, match="'alpha'"):
            SuiteConfig(suite="sharpness", params={"alpha": ["2"]})

    def test_set_keys_beyond_the_defaults(self):
        sets = [{"p": 2, "alpha": 1, "mu": "mu1", "tau": "pi", "psi": "power:1",
                 "name": "named", "omega": "linear"}]
        assert SuiteConfig(suite="widths-certify", params={"sets": sets}).params["sets"] == [
            {**sets[0], "tau": np.pi}
        ]

    def test_defaults_merged(self):
        cfg = SuiteConfig(suite="a6101", params={"k_factor": 8})
        assert cfg.params["k_factor"] == 8
        assert cfg.params["lambdas"] == [1, 2, 3, 4, 5]
        assert cfg.tolerance == 1e-9


#: Small valid configs, one per suite.
_BASES = {
    "a6101": {"lambdas": [1], "n": [1], "k_factor": 4},
    "sharpness": {"p": [2.0], "alpha": [2.0], "r": [1.0], "n": [1], "k_factor": 2},
    "jackson-fuzz": {"samples": 2, "p": [2.0], "psi": ["power:1"], "n": [1], "max_order": 4,
                     "max_terms": 2, "k_factor": 2},
    "widths-certify": {"sets": [_MU1_SET], "n": [1], "samples": 1, "k_factor": 2},
    "modulus-oracle": {"cases": 2, "max_order": 4, "max_terms": 2},
}

#: One key of a base config set to a value that used to raise an uncaught
#: exception or run for minutes: a count of 1e308 ran on, Infinity overflowed
#: int(), an empty list divided by zero, 1e308 overflowed 2^alpha or |c|^p, and
#: a zero constant_scale divided by zero.
_CRASHERS = [
    ("a6101", "k_factor", math.inf),
    ("sharpness", "alpha", [1e308]),
    ("sharpness", "k_factor", math.inf),
    ("sharpness", "constant_scale", 0),
    ("jackson-fuzz", "samples", 1e308),
    ("jackson-fuzz", "samples", math.inf),
    ("jackson-fuzz", "alpha", 1e308),
    ("jackson-fuzz", "max_order", math.inf),
    ("jackson-fuzz", "max_terms", math.inf),
    ("jackson-fuzz", "k_factor", math.inf),
    ("widths-certify", "samples", 1e308),
    ("widths-certify", "samples", math.inf),
    ("widths-certify", "k_factor", math.inf),
    ("modulus-oracle", "cases", 1e308),
    ("modulus-oracle", "cases", math.inf),
    ("modulus-oracle", "alphas", []),
    ("modulus-oracle", "alphas", [1e308]),
    ("modulus-oracle", "p", []),
    ("modulus-oracle", "p", [1e308]),
    ("modulus-oracle", "max_order", math.inf),
    ("modulus-oracle", "max_terms", math.inf),
]


def _typed_like(value, default, key) -> bool:
    """Whether a checked parameter has its default's type and lies in its range."""
    if isinstance(default, list):
        return (isinstance(value, list) and len(value) > 0
                and all(_typed_like(item, default[0], key) for item in value))
    if isinstance(default, dict):
        keys = {*default, "name", "omega"}
        return (isinstance(value, dict) and set(default) <= set(value) <= keys
                and all(_typed_like(item, default.get(k, ""), k) for k, item in value.items()))
    if isinstance(default, str):
        return isinstance(value, str)
    in_range, _ = cli._RANGES[key]
    return (type(value) is type(default) and (isinstance(value, int) or math.isfinite(value))
            and in_range(value))


_LEAVES = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from(["pi", "3pi/4", "pi/0", "1e400", "nan", "2", "mu1", "power:1", "linear"])
    | st.sampled_from([0, 1, 2, 9, 33, 2.0, 1.5, 0.5, 16.5, 1e-300, 1e308, -1, 10**400])
)
_JSON = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3)
    | st.lists(st.fixed_dictionaries(
        {k: inner for k in _MU1_SET}, optional={"name": inner, "omega": inner}
    ), max_size=2),
    max_leaves=8,
)
_SUITE_KEYS = [(suite, key) for suite in cli.SUITES for key in cli.SUITES[suite].defaults]


class TestSchema:
    def test_defaults_pass_unchanged(self):
        for name, suite in cli.SUITES.items():
            params = SuiteConfig(suite=name, params=copy.deepcopy(suite.defaults)).params
            assert repr(params) == repr(suite.defaults)
            assert all(_typed_like(params[k], d, k) for k, d in suite.defaults.items())

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(_SUITE_KEYS), _JSON)
    def test_any_json_value_is_refused_or_typed(self, suite_key, value):
        suite, key = suite_key
        try:
            params = SuiteConfig(suite=suite, params={key: value}).params
        except ConfigError:
            return
        defaults = cli.SUITES[suite].defaults
        assert set(params) == set(defaults)
        assert all(_typed_like(params[k], d, k) for k, d in defaults.items())

    @pytest.mark.parametrize(
        "suite,key,value", _CRASHERS, ids=[f"{s}-{k}-{v}" for s, k, v in _CRASHERS]
    )
    def test_crash_or_hang_is_a_config_error(
        self, tmp_path, capsys, monkeypatch, suite, key, value
    ):
        def unreachable(*args, **kwargs):
            raise AssertionError("ran the library before checking the config")

        for name in ("inf_quantity", "sharpness_certificate", "jackson_bound",
                     "certify_widths", "generalized_modulus", "difference_modulus_oracle"):
            monkeypatch.setattr(cli, name, unreachable)
        path = write_config(tmp_path, {"suite": suite, "params": {**_BASES[suite], key: value}})
        assert main(["suite", "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: ")
        assert captured.err.count("\n") == 1


    @pytest.mark.parametrize("suite", ["jackson-fuzz", "modulus-oracle"])
    @pytest.mark.parametrize("order,terms", [(1, 4), (4, 10), (2, 6)])
    def test_more_terms_than_harmonics_is_a_config_error(
        self, tmp_path, capsys, monkeypatch, suite, order, terms
    ):
        # each key is in range on its own; numpy refused the draw mid-run
        def unreachable(*args, **kwargs):
            raise AssertionError("ran the library before checking the config")

        for name in ("inf_quantity", "jackson_bound", "random_sparse_spectrum",
                     "generalized_modulus", "difference_modulus_oracle"):
            monkeypatch.setattr(cli, name, unreachable)
        params = {**_BASES[suite], "max_order": order, "max_terms": terms}
        path = write_config(tmp_path, {"suite": suite, "params": params})
        assert main(["suite", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert "'max_terms'" in err and "'max_order'" in err
        assert f"2 * max_order + 1 = {2 * order + 1}" in err

    @pytest.mark.parametrize("suite", ["jackson-fuzz", "modulus-oracle"])
    def test_terms_filling_every_harmonic_run(self, suite):
        params = {**_BASES[suite], "max_order": 1, "max_terms": 3}
        _, status = run_suite(SuiteConfig(suite=suite, params=params, no_timestamp=True))
        assert status == 0


class TestSuites:
    def test_a6101_five_rows_pass(self, tmp_path):
        cfg = SuiteConfig(suite="a6101", params={"k_factor": 8}, no_timestamp=True)
        report, status = run_suite(cfg)
        assert status == 0
        assert len(report["rows"]) == 5
        assert all(row["rel_err"] <= 1e-9 for row in report["rows"])
        assert {row["provenance"] for row in report["rows"]} == {"paper_constant"}

    def test_empty_grid_passes(self):
        # a run over an empty grid checks nothing, so it is refused
        with pytest.raises(ConfigError, match="'lambdas' .* must be a non-empty list"):
            SuiteConfig(suite="a6101", params={"lambdas": []}, no_timestamp=True)

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

    def test_sharpness_injected_error_fails(self, monkeypatch):
        def skewed(*args, **kwargs):
            # the certificate against a constant 10% too large
            cert = sharpness_certificate(*args, **kwargs)
            constant = cert.constant * 1.1
            return SharpnessReport(cert.ratio, constant, abs(cert.ratio - constant) / constant)

        monkeypatch.setattr(cli, "sharpness_certificate", skewed)
        cfg = SuiteConfig(
            suite="sharpness",
            params={"p": [2.0], "alpha": [1.0], "r": [0.0], "n": [1], "k_factor": 8},
            no_timestamp=True,
        )
        report, status = run_suite(cfg)
        assert status == 1
        assert report["pass"] is False

    def test_sharpness_takes_one_infimum_per_p_alpha_n(self, monkeypatch, tmp_path, capsys):
        params = {"p": [2.0], "alpha": [1.0, 2.0], "r": [0.0, 1.0, 2.0], "n": [1, 2],
                  "k_factor": 8}
        path = write_config(tmp_path, {"suite": "sharpness", "params": params})
        calls = []
        inf_quantity = jackson.inf_quantity

        def counting(*args, **kwargs):
            calls.append(args[0])
            return inf_quantity(*args, **kwargs)

        monkeypatch.setattr(cli, "inf_quantity", counting)
        monkeypatch.setattr(jackson, "inf_quantity", counting)
        assert main(["suite", "--config", path, "--no-timestamp"]) == 0
        shared = capsys.readouterr().out
        assert calls == [1, 2, 1, 2]

        def per_r(shape, p, mu, psi, n, inf_report):
            # the route before: each r takes its own window infimum
            return sharpness_certificate(shape, p, mu, psi, n, k_max=inf_report.k_max)

        calls.clear()
        monkeypatch.setattr(cli, "sharpness_certificate", per_r)
        assert main(["suite", "--config", path, "--no-timestamp"]) == 0
        assert len(calls) == 4 + 12
        assert capsys.readouterr().out == shared

    def test_jackson_fuzz_takes_one_infimum_per_p_n(self, monkeypatch, tmp_path, capsys):
        # the default config but one sample per row: 4 p x 2 psi at n = 2
        path = write_config(tmp_path, {"suite": "jackson-fuzz", "params": {"samples": 1}})
        calls = []
        inf_quantity = jackson.inf_quantity

        def counting(*args, **kwargs):
            calls.append(args[0])
            return inf_quantity(*args, **kwargs)

        monkeypatch.setattr(cli, "inf_quantity", counting)
        monkeypatch.setattr(jackson, "inf_quantity", counting)
        assert main(["suite", "--config", path, "--no-timestamp"]) == 0
        shared = capsys.readouterr().out
        assert calls == [2, 2, 2, 2]

        def per_psi(f, psi, shape, p, mu, n, inf_report, tol):
            # the route before: each (p, psi, n) row takes its own window infimum
            return jackson.jackson_bound(f, psi, shape, p, mu, n, k_max=inf_report.k_max, tol=tol)

        calls.clear()
        monkeypatch.setattr(cli, "jackson_bound", per_psi)
        assert main(["suite", "--config", path, "--no-timestamp"]) == 0
        assert len(calls) == 4 + 8
        assert capsys.readouterr().out == shared

    def test_jackson_fuzz_passes_its_tolerance_to_every_bound(self, monkeypatch, tmp_path, capsys):
        # the default config but two samples per row: 4 p x 2 psi at n = 2
        path = write_config(tmp_path, {"suite": "jackson-fuzz", "params": {"samples": 2}})
        tols = []
        jackson_bound = jackson.jackson_bound

        def recording(*args, **kwargs):
            tols.append(kwargs["tol"])
            return jackson_bound(*args, **kwargs)

        monkeypatch.setattr(cli, "jackson_bound", recording)
        assert main(["suite", "--config", path, "--no-timestamp"]) == 0
        report = capsys.readouterr().out
        assert tols == [cli.SUITES["jackson-fuzz"].tolerance] * 16 == [1e-9] * 16

        def fixed_slack(*args, tol, **kwargs):
            # the route before: both verdicts at jackson_bound's own 1e-9
            return jackson_bound(*args, **kwargs)

        monkeypatch.setattr(cli, "jackson_bound", fixed_slack)
        assert main(["suite", "--config", path, "--no-timestamp"]) == 0
        assert capsys.readouterr().out == report

        tols.clear()
        path = write_config(
            tmp_path, {"suite": "jackson-fuzz", "tolerance": 0.25, "params": {"samples": 2}}
        )
        monkeypatch.setattr(cli, "jackson_bound", recording)
        assert main(["suite", "--config", path, "--no-timestamp"]) == 0
        assert tols == [0.25] * 16
        assert json.loads(capsys.readouterr().out)["tolerance"] == 0.25

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

    def test_exit_2_on_a_zero_denominator(self, tmp_path, capsys):
        rc = main([
            "jackson", "inf", "--phi", "phi_alpha:1", "--p", "2", "--mu", "mu1",
            "--tau", "pi/0", "--n", "1", "--no-timestamp",
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: zero denominator")
        path = write_config(tmp_path, {"suite": "sharpness", "params": {"tau": "pi/0"}})
        assert main(["suite", "--config", path]) == 2
        assert capsys.readouterr().err.startswith("config error: zero denominator")

    def test_negative_seed_flag_is_a_config_error(self, capsys):
        assert main(["suite", "--suite", "a6101", "--seed", "-1"]) == 2
        assert capsys.readouterr().err.startswith("config error: seed must be an integer")

    def test_exit_2_on_unknown_key(self, tmp_path, capsys):
        path = write_config(tmp_path, {"suite": "a6101", "wrong": True})
        assert main(["suite", "--config", path]) == 2

    @pytest.mark.parametrize(
        "payload,message",
        [
            ({"suite": "sharpness", "params": {"mu": 5}}, "measure token must be a string, got 5"),
            ({"suite": "jackson-fuzz", "params": {"psi": [5]}},
             "multiplier token must be a string, got 5"),
            ({"suite": "widths-certify",
              "params": {"sets": [{"p": 2, "alpha": 1, "mu": "mu1", "tau": "pi",
                                   "psi": "power:1", "omega": 7}]}},
             "majorant token must be a string, got 7"),
            ({"suite": "widths-certify",
              "params": {"sets": [{"p": 2, "alpha": 1, "mu": "mu1", "tau": "pi",
                                   "psi": "power:1", "omega": 0}]}},
             "majorant token must be a string, got 0"),
        ],
        ids=["mu", "psi", "omega", "omega-zero"],
    )
    def test_exit_2_on_a_number_for_an_object_token(self, tmp_path, capsys, payload, message):
        assert main(["suite", "--config", write_config(tmp_path, payload)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_sharpness_defaults_pass(self, capsys):
        assert main(["suite", "--suite", "sharpness", "--no-timestamp"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["rows"]) == 36

    def test_sharpness_at_alpha_p_one_stays_uncertified(self, tmp_path, capsys):
        # on mu1(pi) the infimum 8/pi is not attained when alpha * p = 1
        path = write_config(tmp_path, {"suite": "sharpness", "params": {
            "p": [1.0], "alpha": [1.0], "r": [0.0], "n": [1]}})
        assert main(["suite", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: row p=1, alpha=1, r=0, n=1: sharpness not certified")

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


_OBJECTS = ["--phi", "phi_alpha:1", "--p", "2", "--mu", "mu1", "--tau", "pi"]


class TestReportShape:
    """Key sets and CSV headers of every report, pinned."""

    @pytest.mark.parametrize(
        "command,status,keys",
        [
            (["jackson", "inf", "--n", "1", "--k-max", "8"], 0,
             {"value": None, "argmin_k": None, "k_max": None, "attained_at_n": None}),
            (["jackson", "sharp", "--psi", "power:1", "--n", "1", "--k-max", "8"], 0,
             {"constant": None, "ratio": None, "rel_gap": None, "holds": None}),
            (["jackson", "bound", "--psi", "power:1", "--n", "2", "--k-max", "16"], 0,
             {"lhs": None, "bound": None, "holds": None, "bound_plain": None,
              "holds_plain": None}),
            (["widths", "value", "--psi", "power:1", "--n", "1", "--k-max", "8"], 0,
             {"lower": None, "upper": None, "certified": None, "value": None,
              "dimensions": None, "shape_certification": None}),
            (["widths", "certify", "--psi", "power:1", "--n", "1", "--k-max", "8",
              "--samples", "2"], 0,
             {"closed_form": None, "certified": None,
              "lower": {"samples": None, "failures": None, "radius": None},
              "upper": {"samples": None, "max_en": None, "non_bracketing": None},
              "dimensions": None, "verdict": None}),
            (["widths", "majorant-check", "--omega", "linear"], 1,
             {"ok": None, "worst_rel_margin": None, "worst_xi": None, "worst_u": None}),
        ],
        ids=["inf", "sharp", "bound", "value", "certify", "majorant-check"],
    )
    def test_single_command_keys_and_csv_header(self, tmp_path, command, status, keys):
        spec_path = tmp_path / "f.json"
        spec_path.write_text(json.dumps([{"k": 3, "re": 1.0, "im": 0.0}]))
        if command[1] == "bound":
            command = [*command, "--function", str(spec_path)]

        def key_shape(report):
            return {k: key_shape(v) if isinstance(v, dict) else None for k, v in report.items()}

        out = tmp_path / "report"
        assert main([*command, *_OBJECTS, "--out", str(out), "--no-timestamp"]) == status
        assert key_shape(json.loads(out.read_text())) == keys
        assert main([*command, *_OBJECTS, "--out", str(out), "--no-timestamp",
                     "--format", "csv"]) == status
        header, row = out.read_text().splitlines()
        assert header == ",".join(sorted(keys))

    @pytest.mark.parametrize(
        "suite,params,rows,header",
        [
            ("a6101", {"lambdas": [2], "n": [2], "k_factor": 2}, 1,
             "lambda,n,value,expected,rel_err,argmin_k,attained_at_n,provenance,pass"),
            ("a6101", {"lambdas": [1], "k_factor": 8}, 1,
             "lambda,n,value,expected,rel_err,argmin_k,attained_at_n,provenance,pass"),
            ("sharpness", {"p": [2.0], "alpha": [2.0], "r": [1.0], "n": [1], "k_factor": 2}, 1,
             "p,alpha,r,n,ratio,constant,rel_gap,provenance,pass"),
            ("jackson-fuzz", {"samples": 2, "p": [2.0], "psi": ["power:1"], "n": [1],
                              "max_order": 4, "max_terms": 2, "k_factor": 2}, 1,
             "p,psi,n,cases,violations,violations_plain,provenance,pass"),
            ("widths-certify", {"sets": [_MU1_SET], "n": [1], "samples": 1, "k_factor": 2}, 1,
             "set,mode,n,closed_form,certified,lower_failures,upper_max_en,verdict,"
             "provenance,pass"),
            ("modulus-oracle", {"cases": 1, "max_order": 4, "max_terms": 2}, 1,
             "case,alpha,p,t,value,oracle,rel_diff,provenance,pass"),
            ("modulus-oracle", {"cases": 2}, 2,
             "case,alpha,p,t,value,oracle,rel_diff,provenance,pass"),
        ],
    )
    def test_suite_csv_header(self, tmp_path, suite, params, rows, header):
        cfg = write_config(tmp_path, {"suite": suite, "params": params, "format": "csv",
                                      "no_timestamp": True})
        out = tmp_path / "report.csv"
        assert main(["suite", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == header
        assert len(lines) == 1 + rows


class TestSingleCommandInputs:
    @pytest.mark.parametrize(
        "flag,payload,message",
        [
            ("--psi", {"values": {"1": [1.0, 0.0]}}, "misses key 'bound'"),
            ("--mu", {"label": "no points"}, "misses key 'points'"),
            ("--phi", {"points": [[0, 0], [1, 1]]}, "misses key 'sup_value'"),
            ("--mu", [[0.0, 1.0], [1.0, 2.0]], "must hold a JSON object"),
            ("--phi", {"points": 5, "sup_value": 1.0}, "holds a malformed value"),
            ("--psi", {"values": {"1": 5}, "bound": 1.0}, "holds a malformed value"),
            ("--psi", {"values": [1.0], "bound": 1.0}, "holds a malformed value"),
        ],
    )
    def test_malformed_tabulated_file_is_a_config_error(
        self, tmp_path, capsys, flag, payload, message
    ):
        table = tmp_path / "table.json"
        table.write_text(json.dumps(payload))
        args = {"--phi": "phi_alpha:1", "--mu": "mu1", "--psi": "power:1"}
        args[flag] = f"tab:{table}"
        rc = main([
            "widths", "value", "--p", "2", "--tau", "pi", "--n", "1", "--k-max", "8",
            *[item for pair in args.items() for item in pair], "--no-timestamp",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: tabulated")
        assert message in err

    @pytest.mark.parametrize("atoms", ["[1,2]", "[[0.5,[1]]]", "[[0.5,1,2]]", "5"])
    def test_malformed_atom_list_is_a_config_error(self, capsys, atoms):
        rc = main([
            "jackson", "inf", "--phi", "phi_alpha:1", "--p", "2", "--mu", f"atoms:{atoms}",
            "--tau", "pi", "--n", "1", "--k-max", "8", "--no-timestamp",
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: bad atom list")

    @pytest.mark.parametrize(
        "command",
        [
            ["jackson", "inf", "--n", "1"],
            ["widths", "value", "--psi", "power:1", "--n", "1"],
            ["widths", "majorant-check", "--omega", "linear"],
            ["jackson", "sharp", "--psi", "power:1", "--n", "1"],
            ["jackson", "bound", "--psi", "power:1", "--function", "f.json", "--n", "1"],
            ["widths", "certify", "--psi", "power:1", "--n", "1", "--samples", "1"],
        ],
    )
    def test_commands_that_scan_nothing_reject_the_scan_flags(self, capsys, command):
        # the scan sets its own resolution: no command takes a scan grid
        for flag in ("--grid-points", "--refine-iters"):
            rc = main([
                *command, "--phi", "phi_alpha:1", "--p", "2", "--mu", "mu1", "--tau", "pi",
                flag, "64",
            ])
            assert rc == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,message",
        [
            (["jackson", "inf", "--phi", "phi_alpha:1e308", "--n", "1"],
             "order alpha must be below 1024, where 2^alpha overflows, got 1e+308"),
            (["jackson", "sharp", "--phi", "phi_alpha:2", "--psi", "const:0", "--n", "1",
              "--k-max", "4"],
             "sharpness not certified: tail supremum of |psi| over |k| >= n is 0"),
        ],
        ids=["alpha-overflow", "zero-tail-supremum"],
    )
    def test_library_guard_exits_2(self, capsys, command, message):
        rc = main([*command, "--p", "1", "--mu", "mu1", "--tau", "pi", "--no-timestamp"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")

    def test_certificate_without_samples_exits_2(self, capsys):
        rc = main([
            "widths", "certify", "--phi", "phi_alpha:1", "--p", "2", "--mu", "mu1",
            "--tau", "pi", "--psi", "power:1", "--n", "1", "--samples", "0",
            "--no-timestamp",
        ])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "at least one sample" in captured.err
