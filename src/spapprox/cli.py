"""Batch verification front-end.

One executable, three families of commands:

* ``spapprox suite --config cfg.json`` runs a named verification suite
  (``a6101``, ``sharpness``, ``jackson-fuzz``, ``widths-certify``,
  ``modulus-oracle``) and writes a JSON or CSV report; exit status 0 means
  every row passed, 1 means an assertion failed, 2 means a usage/config
  error.
* ``spapprox jackson inf|sharp|bound`` evaluates single configurations.
* ``spapprox widths value|certify|majorant-check`` does the same for widths.

Both are tables over library calls: :data:`SUITES` holds each suite's row
runner, defaults, tolerance, CSV columns and provenance; :data:`COMMANDS`
holds each single-shot command's flags, library call, report and exit rule.

Objects are selected by name: shapes as ``phi_alpha:<a>`` or ``tab:<path>``,
measures as ``mu1``/``mu2``/``atoms:<json>``/``tab:<path>`` (plus ``--tau``),
multipliers as ``power:<r>``/``const:<c>``/``tab:<path>``, majorants as
``linear``/``power:<b>``.  Spectra are JSON record lists
``[{"k": int, "re": float, "im": float}, ...]``.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import re
import sys
import time
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Callable, Iterator

import numpy as np

from .averaging import WeightMeasure, atom_measure, mu1, mu2, tabulated_density
from .jackson import (
    SharpnessNotCertifiedError,
    closed_form_inf,
    inf_quantity,
    jackson_bound,
    sharpness_certificate,
)
from .psi import PsiSequence, const_multiplier, power, tabulated_psi
from .sampling import random_sparse_spectrum
from .smoothness import (
    ShapeFunction,
    difference_modulus_oracle,
    generalized_modulus,
    phi_alpha,
    tabulated_shape,
)
from .spectral import SpectralFunction
from .widths import (
    Majorant,
    SmoothnessClass,
    certify_widths,
    linear_majorant,
    majorant,
    majorant_condition_check,
    width_closed_form,
)


class ConfigError(ValueError):
    """Bad config file or command line; maps to exit status 2."""


# ---------------------------------------------------------------------------
# object parsing


_PI_RE = re.compile(r"^\s*(\d+(?:\.\d+)?)?\s*pi\s*(?:/\s*(\d+(?:\.\d+)?))?\s*$")


def parse_scalar(text) -> float:
    """Float literal or a pi expression like 'pi', '3pi/4', '2pi'."""
    if isinstance(text, (int, float)):
        return float(text)
    m = _PI_RE.match(text)
    if m:
        num = float(m.group(1)) if m.group(1) else 1.0
        den = float(m.group(2)) if m.group(2) else 1.0
        if den == 0.0:
            raise ConfigError(f"zero denominator in {text!r}")
        return num * math.pi / den
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"cannot parse number {text!r}") from exc


def _load_tab(token: str, kind: str, build):
    """``build`` applied to a ``tab:<path>`` JSON file; a missing key or a
    value of the wrong type is a config error."""
    with open(token[4:], encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigError(f"tabulated {kind} file must hold a JSON object")
    try:
        return build(data)
    except KeyError as exc:
        raise ConfigError(f"tabulated {kind} file misses key {exc}") from exc
    except (TypeError, AttributeError) as exc:
        raise ConfigError(f"tabulated {kind} file holds a malformed value: {exc}") from exc


def _require_token(token, kind: str) -> None:
    """An object token must be a string; a number or a list is a config error."""
    if not isinstance(token, str):
        raise ConfigError(f"{kind} token must be a string, got {token!r}")


def parse_shape(token: str) -> ShapeFunction:
    _require_token(token, "shape")
    if token.startswith("phi_alpha:"):
        return phi_alpha(parse_scalar(token.split(":", 1)[1]))
    if token.startswith("tab:"):
        return _load_tab(token, "shape", lambda data: tabulated_shape(
            data["points"],
            cap_point=data.get("cap_point"),
            sup_value=data["sup_value"],
            label=data.get("label", "tabulated"),
        ))
    raise ConfigError(f"unknown shape {token!r} (use phi_alpha:<a> or tab:<path>)")


def parse_measure(token: str, tau: float) -> WeightMeasure:
    _require_token(token, "measure")
    if token == "mu1":
        return mu1(tau)
    if token == "mu2":
        return mu2(tau)
    if token.startswith("atoms:"):
        try:
            atoms = [(float(t), float(m)) for t, m in json.loads(token[6:])]
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad atom list in {token!r}: {exc}") from exc
        return atom_measure(tau, atoms)
    if token.startswith("tab:"):
        return _load_tab(token, "measure", lambda data: tabulated_density(
            tau, data["points"], label=data.get("label", "tabulated")
        ))
    raise ConfigError(f"unknown measure {token!r} (use mu1, mu2, atoms:<json>, tab:<path>)")


def parse_psi(token: str) -> PsiSequence:
    _require_token(token, "multiplier")
    if token.startswith("power:"):
        return power(parse_scalar(token.split(":", 1)[1]))
    if token.startswith("const:"):
        return const_multiplier(complex(token.split(":", 1)[1]))
    if token.startswith("tab:"):
        return _load_tab(token, "multiplier", lambda data: tabulated_psi(
            {int(k): complex(v[0], v[1]) for k, v in data["values"].items()},
            bound=float(data["bound"]),
            zero_policy=data.get("zero_policy", "annihilate"),
            monotone_even=bool(data.get("monotone_even", False)),
            label=data.get("label", "tabulated"),
        ))
    raise ConfigError(f"unknown multiplier {token!r} (use power:<r>, const:<c>, tab:<path>)")


def parse_majorant(token: str) -> Majorant:
    _require_token(token, "majorant")
    if token == "linear":
        return linear_majorant()
    if token.startswith("power:"):
        beta = parse_scalar(token.split(":", 1)[1])
        if beta <= 0:
            raise ConfigError(f"majorant exponent must be positive, got {beta}")
        return majorant(lambda u: np.asarray(u, dtype=float) ** beta, label=token)
    raise ConfigError(f"unknown majorant {token!r} (use linear or power:<b>)")


def load_spectrum(path: str) -> SpectralFunction:
    with open(path, encoding="utf-8") as fh:
        return SpectralFunction.from_json(json.load(fh))


# ---------------------------------------------------------------------------
# suite configuration

_TOP_KEYS = {"suite", "seed", "format", "out", "no_timestamp", "tolerance", "params"}
#: Keys a ``widths-certify`` set may add to those of its default sets.
_SET_OPTIONAL_KEYS = {"name", "omega"}
_SCALAR = (int, float, str)


def _of_type(value, types) -> bool:
    """``isinstance``, except that a boolean is no number: JSON keeps them apart."""
    return isinstance(value, types) and not isinstance(value, bool)


def _fits(value, default, key: str | None = None) -> bool:
    """Whether a suite parameter has the shape of its default: a list whose
    items fit the default's first item, a set object whose values fit the default
    set's, or a scalar, a number for a number (text too at a scalar tau or alpha)."""
    if isinstance(default, list):
        return isinstance(value, list) and all(_fits(item, default[0]) for item in value)
    if isinstance(default, dict):
        return (
            isinstance(value, dict)
            and set(value) <= set(default) | _SET_OPTIONAL_KEYS
            and all(_fits(value.get(k), default[k], k) for k in default)
        )
    number = isinstance(default, (int, float)) and key not in ("tau", "alpha")
    return _of_type(value, (int, float) if number else _SCALAR)


@dataclass
class SuiteConfig:
    """Declarative suite run: which suite, which grids, which tolerances."""

    suite: str
    seed: int = 0
    format: str = "json"
    out: str | None = None
    no_timestamp: bool = False
    tolerance: float | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.suite, str) or self.suite not in SUITES:
            raise ConfigError(f"unknown suite {self.suite!r}; choose from {', '.join(SUITES)}")
        if self.format not in ("json", "csv"):
            raise ConfigError(f"unknown format {self.format!r}")
        if self.out is not None and not isinstance(self.out, str):
            raise ConfigError(f"out must be a file path string, got {self.out!r}")
        if self.tolerance is not None and not _of_type(self.tolerance, (int, float)):
            raise ConfigError(f"tolerance must be a number, got {self.tolerance!r}")
        if not _of_type(self.seed, int):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        if not isinstance(self.no_timestamp, bool):
            raise ConfigError(f"no_timestamp must be a boolean, got {self.no_timestamp!r}")
        defaults = SUITES[self.suite].defaults
        unknown = set(self.params) - set(defaults)
        if unknown:
            raise ConfigError(
                f"unknown parameter key(s) {sorted(unknown)} for suite {self.suite!r}; "
                f"allowed: {sorted(defaults)}"
            )
        for key, value in self.params.items():
            if not _fits(value, defaults[key], key):
                raise ConfigError(
                    f"parameter {key!r} of suite {self.suite!r} must have the shape of "
                    f"{defaults[key]!r}, got {value!r}"
                )
        if "samples" in self.params and self.params["samples"] < 1:
            # a run over no sample checks nothing, so it cannot pass
            raise ConfigError(
                f"parameter 'samples' of suite {self.suite!r} must be at least 1, "
                f"got {self.params['samples']!r}"
            )
        self.params = {**defaults, **self.params}
        if self.tolerance is None:
            self.tolerance = SUITES[self.suite].tolerance


def load_config(path: str) -> SuiteConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {sorted(unknown)}; allowed: {sorted(_TOP_KEYS)}")
    if "suite" not in raw:
        raise ConfigError(f"{path}: missing required key 'suite'")
    params = raw.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"{path}: params must be an object, got {params!r}")
    return SuiteConfig(
        suite=raw["suite"],
        seed=raw.get("seed", 0),
        format=raw.get("format", "json"),
        out=raw.get("out"),
        no_timestamp=raw.get("no_timestamp", False),
        tolerance=raw.get("tolerance"),
        params=dict(params),
    )


# ---------------------------------------------------------------------------
# suite implementations: each yields its rows, without the provenance


def _suite_a6101(cfg: SuiteConfig) -> Iterator[dict]:
    measure = mu1(math.pi)
    for lam in cfg.params["lambdas"]:
        shape = phi_alpha(2.0 * float(lam))  # with p=1 the weight power is lam
        for n in cfg.params["n"]:
            report = inf_quantity(int(n), shape, 1.0, measure, k_max=int(cfg.params["k_factor"]) * int(n))
            value = report.value / 2.0 ** float(lam)
            expected = closed_form_inf(int(lam))
            rel = abs(value - expected) / expected
            yield {
                "lambda": int(lam),
                "n": int(n),
                "value": value,
                "expected": expected,
                "rel_err": rel,
                "argmin_k": report.argmin_k,
                "attained_at_n": report.attained_at_n,
                "pass": bool(rel <= cfg.tolerance and report.attained_at_n),
            }


def _suite_sharpness(cfg: SuiteConfig) -> Iterator[dict]:
    tau = parse_scalar(cfg.params["tau"])
    scale = float(cfg.params["constant_scale"])
    for p in cfg.params["p"]:
        for alpha in cfg.params["alpha"]:
            shape = phi_alpha(float(alpha))
            measure = parse_measure(cfg.params["mu"], tau)
            for n in cfg.params["n"]:
                k_max = int(cfg.params["k_factor"]) * int(n) + 16
                for r in cfg.params["r"]:
                    try:
                        cert = sharpness_certificate(
                            shape, float(p), measure, power(float(r)), int(n), k_max=k_max
                        )
                    except SharpnessNotCertifiedError as exc:
                        raise SharpnessNotCertifiedError(
                            f"row p={float(p):g}, alpha={float(alpha):g}, r={float(r):g}, "
                            f"n={int(n)}: {exc}"
                        ) from exc
                    expected = cert.constant * scale
                    rel_gap = abs(cert.ratio - expected) / expected
                    yield {
                        "p": float(p),
                        "alpha": float(alpha),
                        "r": float(r),
                        "n": int(n),
                        "ratio": cert.ratio,
                        "constant": expected,
                        "rel_gap": rel_gap,
                        "pass": bool(rel_gap <= cfg.tolerance),
                    }


def _suite_jackson_fuzz(cfg: SuiteConfig) -> Iterator[dict]:
    tau = parse_scalar(cfg.params["tau"])
    measure = parse_measure(cfg.params["mu"], tau)
    shape = phi_alpha(parse_scalar(cfg.params["alpha"]))
    samples = int(cfg.params["samples"])
    for p in cfg.params["p"]:
        for psi_token in cfg.params["psi"]:
            psi = parse_psi(psi_token)
            for n in cfg.params["n"]:
                report = inf_quantity(
                    int(n), shape, float(p), measure,
                    k_max=int(cfg.params["k_factor"]) * int(n) + 16,
                )
                rng = np.random.default_rng(cfg.seed)
                violations = violations_plain = 0
                for _ in range(samples):
                    f = random_sparse_spectrum(
                        rng, int(cfg.params["max_order"]), int(cfg.params["max_terms"])
                    )
                    result = jackson_bound(
                        f, psi, shape, float(p), measure, int(n), inf_report=report
                    )
                    violations += not result.holds
                    violations_plain += not result.holds_plain
                yield {
                    "p": float(p),
                    "psi": psi_token,
                    "n": int(n),
                    "cases": samples,
                    "violations": violations,
                    "violations_plain": violations_plain,
                    "pass": bool(violations == 0 and violations_plain == 0),
                }


def _build_class(psi, shape, p, measure, n: int, omega_token: str | None) -> SmoothnessClass:
    """Majorant-mode class when a majorant token is given, else fixed at n."""
    if omega_token is not None:
        return SmoothnessClass(
            psi=psi, shape=shape, p=p, mu=measure, omega=parse_majorant(omega_token)
        )
    return SmoothnessClass(psi=psi, shape=shape, p=p, mu=measure, n=n)


def _suite_widths_certify(cfg: SuiteConfig) -> Iterator[dict]:
    for idx, spec in enumerate(cfg.params["sets"]):
        tau = parse_scalar(spec["tau"])
        measure = parse_measure(spec["mu"], tau)
        shape = phi_alpha(parse_scalar(spec["alpha"]))
        psi = parse_psi(spec["psi"])
        for n in cfg.params["n"]:
            cls = _build_class(psi, shape, float(spec["p"]), measure, int(n), spec.get("omega"))
            cert = certify_widths(
                cls, int(n), samples=int(cfg.params["samples"]), seed=cfg.seed,
                tol=cfg.tolerance, k_max=int(cfg.params["k_factor"]) * int(n) + 16,
            )
            yield {
                "set": spec.get("name", f"set{idx}"),
                "mode": cls.mode,
                "n": int(n),
                "closed_form": cert.closed_form.value if cert.closed_form.certified else None,
                "certified": cert.closed_form.certified,
                "lower_failures": cert.lower_evidence.failures,
                "upper_max_en": cert.upper_evidence.max_en,
                "verdict": cert.verdict,
                "pass": bool(cert.verdict == "consistent"),
            }


def _suite_modulus_oracle(cfg: SuiteConfig) -> Iterator[dict]:
    rng = np.random.default_rng(cfg.seed)
    alphas = [float(a) for a in cfg.params["alphas"]]
    ps = [float(p) for p in cfg.params["p"]]
    for case in range(int(cfg.params["cases"])):
        alpha = alphas[case % len(alphas)]
        p = ps[(case // len(alphas)) % len(ps)]
        f = random_sparse_spectrum(rng, int(cfg.params["max_order"]), int(cfg.params["max_terms"]))
        t = float(rng.uniform(0.05, math.pi))
        value = generalized_modulus(f, p, phi_alpha(alpha), t)
        oracle = difference_modulus_oracle(f, p, alpha, t)
        rel = abs(value - oracle) / max(oracle, 1e-300)
        yield {
            "case": case,
            "alpha": alpha,
            "p": p,
            "t": t,
            "value": value,
            "oracle": oracle,
            "rel_diff": rel,
            "pass": bool(rel <= cfg.tolerance),
        }


@dataclass(frozen=True)
class Suite:
    """One verification suite: its row runner, the provenance of its rows,
    its default tolerance, its CSV columns (``provenance`` and ``pass``
    follow) and its parameter defaults, which also fix each parameter's shape."""

    run: Callable[[SuiteConfig], Iterator[dict]]
    provenance: str
    tolerance: float
    columns: tuple[str, ...]
    defaults: dict[str, Any]


SUITES: dict[str, Suite] = {
    "a6101": Suite(
        _suite_a6101, "paper_constant", 1e-9,
        ("lambda", "n", "value", "expected", "rel_err", "argmin_k", "attained_at_n"),
        {"lambdas": [1, 2, 3, 4, 5], "n": [1], "k_factor": 64},
    ),
    "sharpness": Suite(
        _suite_sharpness, "paper_constant", 1e-6,
        ("p", "alpha", "r", "n", "ratio", "constant", "rel_gap"),
        {"p": [1.0, 2.0], "alpha": [2.0, 4.0], "r": [0.0, 1.0, 2.0], "n": [1, 2, 4],
         "mu": "mu1", "tau": "pi", "k_factor": 16,
         "constant_scale": 1.0},  # fault-injection knob for CI failure paths
    ),
    "jackson-fuzz": Suite(
        _suite_jackson_fuzz, "oracle", 1e-9,
        ("p", "psi", "n", "cases", "violations", "violations_plain"),
        {"samples": 1000, "p": [1.0, 1.5, 2.0, 3.0], "psi": ["power:0", "power:1"],
         "alpha": 1.0, "mu": "mu1", "tau": "pi", "n": [2], "max_order": 32, "max_terms": 8,
         "k_factor": 16},
    ),
    "widths-certify": Suite(
        _suite_widths_certify, "closed_form", 1e-6,
        ("set", "mode", "n", "closed_form", "certified", "lower_failures", "upper_max_en",
         "verdict"),
        {"sets": [{"p": 2.0, "alpha": 1.0, "mu": "mu1", "tau": "pi", "psi": "power:1"},
                  {"p": 2.0, "alpha": 1.0, "mu": "mu2", "tau": "3pi/4", "psi": "power:1"}],
         "n": [1, 2], "samples": 200, "k_factor": 16},
    ),
    "modulus-oracle": Suite(
        _suite_modulus_oracle, "oracle", 1e-6,
        ("case", "alpha", "p", "t", "value", "oracle", "rel_diff"),
        {"cases": 200, "alphas": [0.5, 1.0, 2.0, 3.0], "p": [1.0, 1.5, 2.0, 3.0],
         "max_order": 16, "max_terms": 6},
    ),
}


def run_suite(cfg: SuiteConfig) -> tuple[dict, int]:
    """Execute the suite; returns (report, exit_status)."""
    suite = SUITES[cfg.suite]
    rows = [{**row, "provenance": suite.provenance} for row in suite.run(cfg)]
    ok = all(row["pass"] for row in rows)
    report = {
        "suite": cfg.suite,
        "seed": cfg.seed,
        "tolerance": cfg.tolerance,
        "rows": rows,
        "pass": ok,
    }
    if not cfg.no_timestamp:
        report["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    return report, 0 if ok else 1


# ---------------------------------------------------------------------------
# single-shot commands


def _asdict(result, omit: tuple[str, ...] = ()) -> dict:
    """``dataclasses.asdict`` of a result, tuples as lists, without the fields
    named in ``omit`` at any depth."""
    return dataclasses.asdict(result, dict_factory=lambda pairs: {
        key: list(value) if isinstance(value, tuple) else value
        for key, value in pairs if key not in omit
    })


def _sharp_holds(report) -> bool:
    return report.rel_gap <= 1e-6


def _certificate_report(cert) -> dict:
    """The certificate with its closed form flattened to the value and its
    certification, and its evidence under ``lower`` and ``upper``."""
    report = _asdict(cert, omit=("failed_indices", "argmax_index"))
    closed = report.pop("closed_form")
    report["closed_form"], report["certified"] = closed["value"], closed["certified"]
    report["lower"] = report.pop("lower_evidence")
    report["upper"] = report.pop("upper_evidence")
    return report


@dataclass(frozen=True)
class Command:
    """One single-shot command: its extra flags, its library call on the
    parsed arguments and objects, its report of the result, and its exit rule."""

    help: str
    flags: tuple[tuple[str, dict], ...]
    call: Callable[[argparse.Namespace, SimpleNamespace], Any]
    report: Callable[[Any], dict] = _asdict
    passed: Callable[[Any], bool] = lambda result: True


_COMMON_FLAGS = (
    ("--out", {"help": "write the report here instead of stdout"}),
    ("--format", {"choices": ("json", "csv"), "default": None}),
    ("--no-timestamp", {"action": "store_true"}),
)
_OBJECT_FLAGS = (
    ("--phi", {"required": True, "help": "shape, e.g. phi_alpha:1"}),
    ("--p", {"required": True, "help": "norm exponent"}),
    ("--mu", {"required": True, "help": "measure: mu1|mu2|atoms:<json>|tab:<path>"}),
    ("--tau", {"required": True, "help": "measure support length (floats or pi forms)"}),
)
_PSI = ("--psi", {"required": True, "help": "multiplier, e.g. power:1"})
_N = ("--n", {"type": int, "required": True})
_K_MAX = ("--k-max", {"type": int, "default": None})
_OMEGA = ("--omega", {"help": "majorant for majorant-mode classes"})

_GROUP_HELP = {"jackson": "direct-estimate evaluations", "widths": "width values and certificates"}

COMMANDS: dict[str, dict[str, Command]] = {
    "jackson": {
        "inf": Command(
            "windowed dilation infimum", (_N, _K_MAX),
            lambda a, o: inf_quantity(a.n, o.shape, o.p, o.mu, k_max=a.k_max),
        ),
        "sharp": Command(
            "sharp constant and attained ratio", (_PSI, _N, _K_MAX),
            lambda a, o: sharpness_certificate(o.shape, o.p, o.mu, o.psi, a.n, k_max=a.k_max),
            report=lambda r: {**_asdict(r), "holds": _sharp_holds(r)},
            passed=_sharp_holds,
        ),
        "bound": Command(
            "check the estimate on one spectrum",
            (_PSI, ("--function", {"required": True, "help": "spectrum JSON file"}), _N, _K_MAX),
            lambda a, o: jackson_bound(
                load_spectrum(a.function), o.psi, o.shape, o.p, o.mu, a.n, k_max=a.k_max
            ),
            passed=lambda r: r.holds and r.holds_plain,
        ),
    },
    "widths": {
        "value": Command(
            "closed form or two-sided interval", (_PSI, _N, _OMEGA, _K_MAX),
            lambda a, o: width_closed_form(
                _build_class(o.psi, o.shape, o.p, o.mu, a.n, a.omega), a.n, k_max=a.k_max
            ),
            report=lambda r: _asdict(r, omit=("n",)),
        ),
        "certify": Command(
            "two-sided sampling certificates",
            (_PSI, _N, _OMEGA, ("--samples", {"type": int, "default": 200}),
             ("--seed", {"type": int, "default": 0}), _K_MAX),
            lambda a, o: certify_widths(
                _build_class(o.psi, o.shape, o.p, o.mu, a.n, a.omega), a.n,
                samples=a.samples, seed=a.seed, k_max=a.k_max,
            ),
            report=_certificate_report,
            passed=lambda r: r.verdict == "consistent",
        ),
        "majorant-check": Command(
            "window-scaling condition on a grid", (("--omega", {"required": True}),),
            lambda a, o: majorant_condition_check(parse_majorant(a.omega), o.shape, o.p, o.mu),
            passed=lambda r: r.ok,
        ),
    },
}


def _objects(args) -> SimpleNamespace:
    """The measure, shape and exponent of every command, and the multiplier
    of those that take one."""
    tau = parse_scalar(args.tau)
    mu = parse_measure(args.mu, tau)
    shape = parse_shape(args.phi)
    p = parse_scalar(args.p)
    psi = parse_psi(args.psi) if "psi" in args else None
    return SimpleNamespace(mu=mu, shape=shape, p=p, psi=psi)


# ---------------------------------------------------------------------------
# rendering, argument parsing and dispatch


def _render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True, default=_json_default) + "\n"
    if "suite" in report:
        rows = report["rows"]
        columns = [*SUITES[report["suite"]].columns, "provenance", "pass"]
    else:
        rows, columns = [report], sorted(report)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, extrasaction="ignore")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _add_flags(parser: argparse.ArgumentParser, *flags: tuple[str, dict]) -> None:
    for name, options in flags:
        parser.add_argument(name, **options)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spapprox", description="verification suites and single-shot evaluations"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_flags(
        sub.add_parser("suite", help="run a named verification suite"),
        ("--config", {"help": "JSON suite configuration"}),
        ("--suite", {"choices": SUITES, "help": "suite name (overrides config)"}),
        ("--seed", {"type": int, "help": "RNG seed (overrides config)"}),
        *_COMMON_FLAGS,
    )
    for group, commands in COMMANDS.items():
        group_sub = sub.add_parser(group, help=_GROUP_HELP[group]).add_subparsers(
            dest="subcommand", required=True
        )
        for name, command in commands.items():
            _add_flags(
                group_sub.add_parser(name, help=command.help),
                *_OBJECT_FLAGS, *command.flags, *_COMMON_FLAGS,
            )
    return parser


def _suite_config(args) -> SuiteConfig:
    """The suite run the config file and the command-line overrides describe."""
    if args.config:
        cfg = load_config(args.config)
        if args.suite and args.suite != cfg.suite:
            # switching suites drops config params and tolerance (they are per-suite)
            cfg = dataclasses.replace(cfg, suite=args.suite, params={}, tolerance=None)
    elif args.suite:
        cfg = SuiteConfig(suite=args.suite)
    else:
        raise ConfigError("suite runs need --config or --suite")
    if args.seed is not None:
        cfg.seed = args.seed
    if args.no_timestamp:
        cfg.no_timestamp = True
    if args.format is not None:
        cfg.format = args.format
    return cfg


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize --help to 0
        return int(exc.code or 0)

    try:
        if args.command == "suite":
            cfg = _suite_config(args)
            report, status = run_suite(cfg)
            _emit(_render(report, cfg.format), args.out or cfg.out)
            return status

        command = COMMANDS[args.command][args.subcommand]
        result = command.call(args, _objects(args))
        report = command.report(result)
        if not args.no_timestamp:
            report["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
        _emit(_render(report, args.format or "json"), args.out)
        return 0 if command.passed(result) else 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
