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


def parse_scalar(text: str) -> float:
    """Float literal or a pi expression like 'pi', '3pi/4', '2pi'."""
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
#: What each string parameter names, for the error when it is not a string.
_TOKENS = {"mu": "measure", "psi": "multiplier", "omega": "majorant", "name": "set name"}
#: The range of each numeric suite parameter, list items and set values included:
#: a test, and its bound with the reason for it.
_RANGES: dict[str, tuple[Callable[[Any], bool], str]] = {
    "n": (lambda v: v >= 1, "at least 1, the lowest order of approximation"),
    "k_factor": (lambda v: v >= 1, "at least 1, so that the window of dilations holds n"),
    "samples": (lambda v: v >= 1, "at least 1, since a run over no sample checks nothing"),
    "cases": (lambda v: v >= 1, "at least 1, since a run over no case checks nothing"),
    "max_terms": (lambda v: v >= 1, "at least 1, since a spectrum needs a term"),
    "max_order": (lambda v: v >= 1, "at least 1, since a spectrum at k = 0 has modulus 0"),
    "lambdas": (lambda v: 1 <= v <= 8, "in [1, 8]: the closed form needs it, and alpha = 2 lambda"),
    "p": (lambda v: 1 <= v <= 32, "in [1, 32]: S^p is normed from 1, and |c_k|^p stays finite"),
    "alpha": (lambda v: 0 < v <= 16, "in (0, 16]: an order is positive, 2^(alpha p) <= 2^512"),
    "alphas": (lambda v: 0 < v <= 16, "in (0, 16]: an order is positive, 2^(alpha p) <= 2^512"),
    "r": (lambda v: v >= 0, "at least 0, the order of a power:r multiplier"),
    "tau": (lambda v: v > 0, "positive, the length of the weight's support"),
}


def _of_type(value, types) -> bool:
    """``isinstance``, except that a boolean is no number: JSON keeps them apart."""
    return isinstance(value, types) and not isinstance(value, bool)


def _checked(value, default, key: str, where: str, text: bool = True):
    """A suite parameter checked against its default and typed like it.

    Lists are non-empty, set objects hold their default's keys, tokens are
    strings, integers are JSON integers, floats finite numbers (or, for a
    scalar tau or alpha, text), and each number lies in :data:`_RANGES`.
    """
    if isinstance(default, list):
        if not (isinstance(value, list) and value):
            raise ConfigError(f"{where} must be a non-empty list like {default!r}, got {value!r}")
        return [_checked(v, default[0], key, f"{where} item {i}", False)
                for i, v in enumerate(value)]
    if isinstance(default, dict):  # a widths-certify set, which may add a name and a majorant
        schema = {"name": "", "omega": "linear", **default}
        if not (isinstance(value, dict) and set(default) <= set(value) <= set(schema)):
            raise ConfigError(
                f"{where} must be an object with keys {sorted(default)} and optionally "
                f"'name' and 'omega', got {value!r}"
            )
        return {k: _checked(v, schema[k], k, f"{where} key {k!r}") for k, v in value.items()}
    if isinstance(default, str):
        _require_token(value, _TOKENS[key])
        return value
    if text and key in ("tau", "alpha") and isinstance(value, str):
        value = parse_scalar(value)
    test, bound = _RANGES[key]
    if isinstance(default, int):
        if not (_of_type(value, int) and test(value)):
            raise ConfigError(f"{where} must be an integer {bound}, got {value!r}")
        return value
    # the size test holds for an exact integer too, which float() would overflow
    if not (_of_type(value, (int, float)) and abs(value) <= sys.float_info.max and test(value)):
        raise ConfigError(f"{where} must be a finite number {bound}, got {value!r}")
    return float(value)


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
        tol = self.tolerance
        if tol is not None and not (_of_type(tol, (int, float)) and 0 <= tol < math.inf):
            raise ConfigError(f"tolerance must be a number, finite and at least 0, got {tol!r}")
        if not (_of_type(self.seed, int) and self.seed >= 0):
            raise ConfigError(f"seed must be an integer at least 0, got {self.seed!r}")
        if not isinstance(self.no_timestamp, bool):
            raise ConfigError(f"no_timestamp must be a boolean, got {self.no_timestamp!r}")
        if not isinstance(self.params, dict):
            raise ConfigError(f"params must be an object, got {self.params!r}")
        defaults = SUITES[self.suite].defaults
        unknown = set(self.params) - set(defaults)
        if unknown:
            raise ConfigError(
                f"unknown parameter key(s) {sorted(unknown)} for suite {self.suite!r}; "
                f"allowed: {sorted(defaults)}"
            )
        self.params = {**defaults, **{
            key: _checked(value, defaults[key], key, f"parameter {key!r} of suite {self.suite!r}")
            for key, value in self.params.items()
        }}
        terms, order = self.params.get("max_terms"), self.params.get("max_order")
        if terms is not None and terms > 2 * order + 1:
            raise ConfigError(
                f"parameter 'max_terms' of suite {self.suite!r} must be at most "
                f"2 * max_order + 1 = {2 * order + 1}, the harmonics with |k| <= "
                f"'max_order' ({order}), got {terms}"
            )
        if self.tolerance is None:
            self.tolerance = SUITES[self.suite].tolerance


def load_config(path: str) -> SuiteConfig:
    def no_constant(name: str):
        raise ConfigError(f"{path}: JSON constant {name} is not a finite number")

    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh, parse_constant=no_constant)
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
    return SuiteConfig(**raw)


# ---------------------------------------------------------------------------
# suite implementations: each yields its rows, without the provenance, with their verdicts


def _suite_a6101(cfg: SuiteConfig) -> Iterator[tuple[dict, bool]]:
    measure = mu1(math.pi)
    for lam in cfg.params["lambdas"]:
        shape = phi_alpha(2.0 * lam)  # with p=1 the weight power is lam
        for n in cfg.params["n"]:
            report = inf_quantity(n, shape, 1.0, measure, k_max=cfg.params["k_factor"] * n)
            value = report.value / 2.0**lam
            expected = closed_form_inf(lam)
            rel = abs(value - expected) / expected
            yield {
                "lambda": lam,
                "n": n,
                "value": value,
                "expected": expected,
                "rel_err": rel,
                "argmin_k": report.argmin_k,
                "attained_at_n": report.attained_at_n,
            }, rel <= cfg.tolerance and report.attained_at_n


def _suite_sharpness(cfg: SuiteConfig) -> Iterator[tuple[dict, bool]]:
    measure = parse_measure(cfg.params["mu"], cfg.params["tau"])
    for p in cfg.params["p"]:
        for alpha in cfg.params["alpha"]:
            shape = phi_alpha(alpha)
            for n in cfg.params["n"]:
                # the window infimum does not depend on r
                report = inf_quantity(n, shape, p, measure, k_max=cfg.params["k_factor"] * n + 16)
                for r in cfg.params["r"]:
                    try:
                        cert = sharpness_certificate(
                            shape, p, measure, power(r), n, inf_report=report
                        )
                    except SharpnessNotCertifiedError as exc:
                        raise SharpnessNotCertifiedError(
                            f"row p={p:g}, alpha={alpha:g}, r={r:g}, n={n}: {exc}"
                        ) from exc
                    yield {
                        "p": p,
                        "alpha": alpha,
                        "r": r,
                        "n": n,
                        "ratio": cert.ratio,
                        "constant": cert.constant,
                        "rel_gap": cert.rel_gap,
                    }, cert.rel_gap <= cfg.tolerance


def _suite_jackson_fuzz(cfg: SuiteConfig) -> Iterator[tuple[dict, bool]]:
    measure = parse_measure(cfg.params["mu"], cfg.params["tau"])
    shape = phi_alpha(cfg.params["alpha"])
    samples = cfg.params["samples"]
    for p in cfg.params["p"]:
        # the window infimum does not depend on psi
        reports = {
            n: inf_quantity(n, shape, p, measure, k_max=cfg.params["k_factor"] * n + 16)
            for n in cfg.params["n"]
        }
        for psi_token in cfg.params["psi"]:
            psi = parse_psi(psi_token)
            for n in cfg.params["n"]:
                report = reports[n]
                rng = np.random.default_rng(cfg.seed)
                violations = violations_plain = 0
                for _ in range(samples):
                    f = random_sparse_spectrum(
                        rng, cfg.params["max_order"], cfg.params["max_terms"]
                    )
                    result = jackson_bound(
                        f, psi, shape, p, measure, n, inf_report=report, tol=cfg.tolerance
                    )
                    violations += not result.holds
                    violations_plain += not result.holds_plain
                yield {
                    "p": p,
                    "psi": psi_token,
                    "n": n,
                    "cases": samples,
                    "violations": violations,
                    "violations_plain": violations_plain,
                }, violations == 0 and violations_plain == 0


def _build_class(psi, shape, p, measure, n: int, omega_token: str | None) -> SmoothnessClass:
    """Majorant-mode class when a majorant token is given, else fixed at n."""
    if omega_token is not None:
        return SmoothnessClass(
            psi=psi, shape=shape, p=p, mu=measure, omega=parse_majorant(omega_token)
        )
    return SmoothnessClass(psi=psi, shape=shape, p=p, mu=measure, n=n)


def _suite_widths_certify(cfg: SuiteConfig) -> Iterator[tuple[dict, bool]]:
    for idx, spec in enumerate(cfg.params["sets"]):
        measure = parse_measure(spec["mu"], spec["tau"])
        shape = phi_alpha(spec["alpha"])
        psi = parse_psi(spec["psi"])
        for n in cfg.params["n"]:
            cls = _build_class(psi, shape, spec["p"], measure, n, spec.get("omega"))
            cert = certify_widths(
                cls, n, samples=cfg.params["samples"], seed=cfg.seed,
                tol=cfg.tolerance, k_max=cfg.params["k_factor"] * n + 16,
            )
            yield {
                "set": spec.get("name", f"set{idx}"),
                "mode": cls.mode,
                "n": n,
                "closed_form": cert.closed_form.value if cert.closed_form.certified else None,
                "certified": cert.closed_form.certified,
                "lower_failures": cert.lower_evidence.failures,
                "upper_max_en": cert.upper_evidence.max_en,
                "verdict": cert.verdict,
            }, cert.verdict == "consistent"


def _suite_modulus_oracle(cfg: SuiteConfig) -> Iterator[tuple[dict, bool]]:
    rng = np.random.default_rng(cfg.seed)
    alphas, ps = cfg.params["alphas"], cfg.params["p"]
    for case in range(cfg.params["cases"]):
        alpha = alphas[case % len(alphas)]
        p = ps[(case // len(alphas)) % len(ps)]
        f = random_sparse_spectrum(rng, cfg.params["max_order"], cfg.params["max_terms"])
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
        }, rel <= cfg.tolerance


@dataclass(frozen=True)
class Suite:
    """One verification suite: its row runner, the provenance of its rows (the
    rows' keys, ``provenance`` and ``pass`` are its CSV columns), its default
    tolerance and its parameter defaults, which also fix each parameter's type."""

    run: Callable[[SuiteConfig], Iterator[tuple[dict, bool]]]
    provenance: str
    tolerance: float
    defaults: dict[str, Any]


SUITES: dict[str, Suite] = {
    "a6101": Suite(
        _suite_a6101, "paper_constant", 1e-9,
        {"lambdas": [1, 2, 3, 4, 5], "n": [1], "k_factor": 64},
    ),
    "sharpness": Suite(
        _suite_sharpness, "paper_constant", 1e-6,
        {"p": [1.0, 2.0], "alpha": [2.0, 4.0], "r": [0.0, 1.0, 2.0], "n": [1, 2, 4],
         "mu": "mu1", "tau": math.pi, "k_factor": 16},
    ),
    "jackson-fuzz": Suite(
        _suite_jackson_fuzz, "oracle", 1e-9,
        {"samples": 1000, "p": [1.0, 1.5, 2.0, 3.0], "psi": ["power:0", "power:1"],
         "alpha": 1.0, "mu": "mu1", "tau": math.pi, "n": [2], "max_order": 32, "max_terms": 8,
         "k_factor": 16},
    ),
    "widths-certify": Suite(
        _suite_widths_certify, "closed_form", 1e-6,
        {"sets": [{"p": 2.0, "alpha": 1.0, "mu": "mu1", "tau": math.pi, "psi": "power:1"},
                  {"p": 2.0, "alpha": 1.0, "mu": "mu2", "tau": 3 * math.pi / 4,
                   "psi": "power:1"}],
         "n": [1, 2], "samples": 200, "k_factor": 16},
    ),
    "modulus-oracle": Suite(
        _suite_modulus_oracle, "oracle", 1e-6,
        {"cases": 200, "alphas": [0.5, 1.0, 2.0, 3.0], "p": [1.0, 1.5, 2.0, 3.0],
         "max_order": 16, "max_terms": 6},
    ),
}


def run_suite(cfg: SuiteConfig) -> tuple[dict, int]:
    """Execute the suite; returns (report, exit_status)."""
    suite = SUITES[cfg.suite]
    rows = [{**row, "provenance": suite.provenance, "pass": bool(passed)}
            for row, passed in suite.run(cfg)]
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
    # a suite run has at least one row, since no list of its parameters is empty
    rows = report["rows"] if "suite" in report else [report]
    columns = [*rows[0]] if "suite" in report else sorted(report)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns)
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
        cfg = dataclasses.replace(cfg, seed=args.seed)
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
