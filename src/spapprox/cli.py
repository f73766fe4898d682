"""Batch verification front-end.

One executable, three families of commands:

* ``spapprox suite --config cfg.json`` runs a named verification suite
  (``a6101``, ``sharpness``, ``jackson-fuzz``, ``widths-certify``,
  ``modulus-oracle``) and writes a JSON or CSV report; exit status 0 means
  every row passed, 1 means an assertion failed, 2 means a usage/config
  error.
* ``spapprox jackson inf|sharp|bound`` evaluates single configurations.
* ``spapprox widths value|certify|majorant-check`` does the same for widths.

Objects are selected by name: shapes as ``phi_alpha:<a>`` or ``tab:<path>``,
measures as ``mu1``/``mu2``/``atoms:<json>``/``tab:<path>`` (plus ``--tau``),
multipliers as ``power:<r>``/``const:<c>``/``tab:<path>``, majorants as
``linear``/``power:<b>``.  Spectra are JSON record lists
``[{"k": int, "re": float, "im": float}, ...]``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .averaging import WeightMeasure, atom_measure, mu1, mu2, tabulated_density
from .jackson import (
    closed_form_inf,
    inf_quantity,
    jackson_bound,
    sharp_constant,
    sharpness_certificate,
)
from .psi import PsiSequence, const_multiplier, power, tabulated_psi
from .sampling import random_sparse_spectrum
from .smoothness import (
    ModulusGrid,
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

SUITES = ("a6101", "sharpness", "jackson-fuzz", "widths-certify", "modulus-oracle")


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
        return num * math.pi / den
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"cannot parse number {text!r}") from exc


def _load_tab(token: str, kind: str, build):
    """``build`` applied to a ``tab:<path>`` JSON file; a missing key is a config error."""
    with open(token[4:], encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigError(f"tabulated {kind} file must hold a JSON object")
    try:
        return build(data)
    except KeyError as exc:
        raise ConfigError(f"tabulated {kind} file misses key {exc}") from exc


def parse_shape(token: str) -> ShapeFunction:
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
    if token == "mu1":
        return mu1(tau)
    if token == "mu2":
        return mu2(tau)
    if token.startswith("atoms:"):
        try:
            atoms = json.loads(token[6:])
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad atom list in {token!r}: {exc}") from exc
        return atom_measure(tau, [(float(t), float(m)) for t, m in atoms])
    if token.startswith("tab:"):
        return _load_tab(token, "measure", lambda data: tabulated_density(
            tau, data["points"], label=data.get("label", "tabulated")
        ))
    raise ConfigError(f"unknown measure {token!r} (use mu1, mu2, atoms:<json>, tab:<path>)")


def parse_psi(token: str) -> PsiSequence:
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

_SUITE_DEFAULTS: dict[str, dict[str, Any]] = {
    "a6101": {
        "lambdas": [1, 2, 3, 4, 5],
        "n": [1],
        "k_factor": 64,
    },
    "sharpness": {
        "p": [1.0, 2.0],
        "alpha": [1.0, 2.0],
        "r": [0.0, 1.0, 2.0],
        "n": [1, 2, 4],
        "mu": "mu1",
        "tau": "pi",
        "k_factor": 16,
        "constant_scale": 1.0,  # fault-injection knob for CI failure paths
    },
    "jackson-fuzz": {
        "samples": 1000,
        "p": [1.0, 1.5, 2.0, 3.0],
        "psi": ["power:0", "power:1"],
        "alpha": 1.0,
        "mu": "mu1",
        "tau": "pi",
        "n": [2],
        "max_order": 32,
        "max_terms": 8,
        "k_factor": 16,
    },
    "widths-certify": {
        "sets": [
            {"p": 2.0, "alpha": 1.0, "mu": "mu1", "tau": "pi", "psi": "power:1"},
            {"p": 2.0, "alpha": 1.0, "mu": "mu2", "tau": "3pi/4", "psi": "power:1"},
        ],
        "n": [1, 2],
        "samples": 200,
        "k_factor": 16,
    },
    "modulus-oracle": {
        "cases": 200,
        "alphas": [0.5, 1.0, 2.0, 3.0],
        "p": [1.0, 1.5, 2.0, 3.0],
        "max_order": 16,
        "max_terms": 6,
    },
}

_SUITE_TOLERANCE = {
    "a6101": 1e-9,
    "sharpness": 1e-6,
    "jackson-fuzz": 1e-9,
    "widths-certify": 1e-6,
    "modulus-oracle": 1e-6,
}

_CSV_COLUMNS = {
    "a6101": ["lambda", "n", "value", "expected", "rel_err", "argmin_k", "attained_at_n", "provenance", "pass"],
    "sharpness": ["p", "alpha", "r", "n", "ratio", "constant", "rel_gap", "provenance", "pass"],
    "jackson-fuzz": ["p", "psi", "n", "cases", "violations", "violations_plain", "provenance", "pass"],
    "widths-certify": ["set", "mode", "n", "closed_form", "certified", "lower_failures", "upper_max_en", "verdict", "provenance", "pass"],
    "modulus-oracle": ["case", "alpha", "p", "t", "value", "oracle", "rel_diff", "provenance", "pass"],
}

_TOP_KEYS = {"suite", "seed", "format", "out", "no_timestamp", "tolerance", "params"}


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
        if self.suite not in SUITES:
            raise ConfigError(f"unknown suite {self.suite!r}; choose from {', '.join(SUITES)}")
        if self.format not in ("json", "csv"):
            raise ConfigError(f"unknown format {self.format!r}")
        allowed = set(_SUITE_DEFAULTS[self.suite])
        unknown = set(self.params) - allowed
        if unknown:
            raise ConfigError(
                f"unknown parameter key(s) {sorted(unknown)} for suite {self.suite!r}; "
                f"allowed: {sorted(allowed)}"
            )
        merged = dict(_SUITE_DEFAULTS[self.suite])
        merged.update(self.params)
        self.params = merged
        if self.tolerance is None:
            self.tolerance = _SUITE_TOLERANCE[self.suite]


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
    return SuiteConfig(
        suite=raw["suite"],
        seed=int(raw.get("seed", 0)),
        format=raw.get("format", "json"),
        out=raw.get("out"),
        no_timestamp=bool(raw.get("no_timestamp", False)),
        tolerance=raw.get("tolerance"),
        params=dict(raw.get("params", {})),
    )


# ---------------------------------------------------------------------------
# suite implementations


def _suite_a6101(cfg: SuiteConfig) -> list[dict]:
    rows = []
    tol = cfg.tolerance
    measure = mu1(math.pi)
    for lam in cfg.params["lambdas"]:
        shape = phi_alpha(2.0 * float(lam))  # with p=1 the weight power is lam
        for n in cfg.params["n"]:
            report = inf_quantity(int(n), shape, 1.0, measure, k_max=int(cfg.params["k_factor"]) * int(n))
            value = report.value / 2.0 ** float(lam)
            expected = closed_form_inf(int(lam))
            rel = abs(value - expected) / expected
            rows.append({
                "lambda": int(lam),
                "n": int(n),
                "value": value,
                "expected": expected,
                "rel_err": rel,
                "argmin_k": report.argmin_k,
                "attained_at_n": report.attained_at_n,
                "provenance": "paper_constant",
                "pass": bool(rel <= tol and report.attained_at_n),
            })
    return rows


def _suite_sharpness(cfg: SuiteConfig) -> list[dict]:
    rows = []
    tol = cfg.tolerance
    tau = parse_scalar(cfg.params["tau"])
    scale = float(cfg.params["constant_scale"])
    for p in cfg.params["p"]:
        for alpha in cfg.params["alpha"]:
            shape = phi_alpha(float(alpha))
            measure = parse_measure(cfg.params["mu"], tau)
            for n in cfg.params["n"]:
                k_max = int(cfg.params["k_factor"]) * int(n) + 16
                for r in cfg.params["r"]:
                    cert = sharpness_certificate(
                        shape, float(p), measure, power(float(r)), int(n), k_max=k_max
                    )
                    expected = cert.constant * scale
                    rel_gap = abs(cert.ratio - expected) / expected
                    rows.append({
                        "p": float(p),
                        "alpha": float(alpha),
                        "r": float(r),
                        "n": int(n),
                        "ratio": cert.ratio,
                        "constant": expected,
                        "rel_gap": rel_gap,
                        "provenance": "paper_constant",
                        "pass": bool(rel_gap <= tol),
                    })
    return rows


def _suite_jackson_fuzz(cfg: SuiteConfig) -> list[dict]:
    rows = []
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
                rows.append({
                    "p": float(p),
                    "psi": psi_token,
                    "n": int(n),
                    "cases": samples,
                    "violations": violations,
                    "violations_plain": violations_plain,
                    "provenance": "oracle",
                    "pass": bool(violations == 0 and violations_plain == 0),
                })
    return rows


def _build_class(psi, shape, p, measure, n: int, omega_token: str | None) -> SmoothnessClass:
    """Majorant-mode class when a majorant token is given, else fixed at n."""
    if omega_token:
        return SmoothnessClass(
            psi=psi, shape=shape, p=p, mu=measure, omega=parse_majorant(omega_token)
        )
    return SmoothnessClass(psi=psi, shape=shape, p=p, mu=measure, n=n)


def _suite_widths_certify(cfg: SuiteConfig) -> list[dict]:
    rows = []
    tol = cfg.tolerance
    for idx, spec in enumerate(cfg.params["sets"]):
        tau = parse_scalar(spec["tau"])
        measure = parse_measure(spec["mu"], tau)
        shape = phi_alpha(parse_scalar(spec["alpha"]))
        psi = parse_psi(spec["psi"])
        for n in cfg.params["n"]:
            cls = _build_class(psi, shape, float(spec["p"]), measure, int(n), spec.get("omega"))
            cert = certify_widths(
                cls, int(n), samples=int(cfg.params["samples"]), seed=cfg.seed,
                tol=tol, k_max=int(cfg.params["k_factor"]) * int(n) + 16,
            )
            rows.append({
                "set": spec.get("name", f"set{idx}"),
                "mode": cls.mode,
                "n": int(n),
                "closed_form": cert.closed_form.value if cert.closed_form.certified else None,
                "certified": cert.closed_form.certified,
                "lower_failures": cert.lower_evidence.failures,
                "upper_max_en": cert.upper_evidence.max_en,
                "verdict": cert.verdict,
                "provenance": "closed_form",
                "pass": bool(cert.verdict == "consistent"),
            })
    return rows


def _suite_modulus_oracle(cfg: SuiteConfig) -> list[dict]:
    rows = []
    tol = cfg.tolerance
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
        rows.append({
            "case": case,
            "alpha": alpha,
            "p": p,
            "t": t,
            "value": value,
            "oracle": oracle,
            "rel_diff": rel,
            "provenance": "oracle",
            "pass": bool(rel <= tol),
        })
    return rows


_SUITE_RUNNERS = {
    "a6101": _suite_a6101,
    "sharpness": _suite_sharpness,
    "jackson-fuzz": _suite_jackson_fuzz,
    "widths-certify": _suite_widths_certify,
    "modulus-oracle": _suite_modulus_oracle,
}


def run_suite(cfg: SuiteConfig) -> tuple[dict, int]:
    """Execute the suite; returns (report, exit_status)."""
    rows = _SUITE_RUNNERS[cfg.suite](cfg)
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


def _render(report: dict, fmt: str, suite: str | None = None) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True, default=_json_default) + "\n"
    buf = io.StringIO()
    columns = _CSV_COLUMNS.get(suite or report.get("suite", ""), None)
    rows = report.get("rows", [report])
    if columns is None:
        columns = sorted(rows[0]) if rows else []
    writer = csv.DictWriter(buf, fieldnames=columns, extrasaction="ignore")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if hasattr(obj, "__dataclass_fields__"):
        return {k: getattr(obj, k) for k in obj.__dataclass_fields__}
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", help="write the report here instead of stdout")
    parser.add_argument("--format", choices=("json", "csv"), default=None)
    parser.add_argument("--no-timestamp", action="store_true")


def _add_objects(parser: argparse.ArgumentParser, *, psi: bool = True, scan: bool = False) -> None:
    parser.add_argument("--phi", required=True, help="shape, e.g. phi_alpha:1")
    parser.add_argument("--p", required=True, help="norm exponent")
    parser.add_argument("--mu", required=True, help="measure: mu1|mu2|atoms:<json>|tab:<path>")
    parser.add_argument("--tau", required=True, help="measure support length (floats or pi forms)")
    if psi:
        parser.add_argument("--psi", required=True, help="multiplier, e.g. power:1")
    if scan:  # only the commands that scan a spectrum's shift supremum
        parser.add_argument("--grid-points", type=int, default=4096,
                            help="least scan points for the shift supremum")
        parser.add_argument("--refine-iters", type=int, default=40,
                            help="golden-section refinement iterations")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spapprox", description="verification suites and single-shot evaluations"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_suite = sub.add_parser("suite", help="run a named verification suite")
    p_suite.add_argument("--config", help="JSON suite configuration")
    p_suite.add_argument("--suite", choices=SUITES, help="suite name (overrides config)")
    p_suite.add_argument("--seed", type=int, help="RNG seed (overrides config)")
    _add_common(p_suite)

    p_jack = sub.add_parser("jackson", help="direct-estimate evaluations")
    jack_sub = p_jack.add_subparsers(dest="subcommand", required=True)

    p_inf = jack_sub.add_parser("inf", help="windowed dilation infimum")
    _add_objects(p_inf, psi=False)
    p_inf.add_argument("--n", type=int, required=True)
    p_inf.add_argument("--k-max", type=int, default=None)
    _add_common(p_inf)

    p_sharp = jack_sub.add_parser("sharp", help="sharp constant and attained ratio")
    _add_objects(p_sharp, scan=True)
    p_sharp.add_argument("--n", type=int, required=True)
    p_sharp.add_argument("--k-max", type=int, default=None)
    _add_common(p_sharp)

    p_bound = jack_sub.add_parser("bound", help="check the estimate on one spectrum")
    _add_objects(p_bound, scan=True)
    p_bound.add_argument("--function", required=True, help="spectrum JSON file")
    p_bound.add_argument("--n", type=int, required=True)
    p_bound.add_argument("--k-max", type=int, default=None)
    _add_common(p_bound)

    p_wid = sub.add_parser("widths", help="width values and certificates")
    wid_sub = p_wid.add_subparsers(dest="subcommand", required=True)

    p_val = wid_sub.add_parser("value", help="closed form or two-sided interval")
    _add_objects(p_val)
    p_val.add_argument("--n", type=int, required=True)
    p_val.add_argument("--omega", help="majorant for majorant-mode classes")
    p_val.add_argument("--k-max", type=int, default=None)
    _add_common(p_val)

    p_cert = wid_sub.add_parser("certify", help="two-sided sampling certificates")
    _add_objects(p_cert, scan=True)
    p_cert.add_argument("--n", type=int, required=True)
    p_cert.add_argument("--omega", help="majorant for majorant-mode classes")
    p_cert.add_argument("--samples", type=int, default=200)
    p_cert.add_argument("--seed", type=int, default=0)
    p_cert.add_argument("--k-max", type=int, default=None)
    _add_common(p_cert)

    p_maj = wid_sub.add_parser("majorant-check", help="window-scaling condition on a grid")
    _add_objects(p_maj, psi=False)
    p_maj.add_argument("--omega", required=True)
    _add_common(p_maj)

    return parser


def _run_single(args) -> tuple[dict, int]:
    tau = parse_scalar(args.tau)
    measure = parse_measure(args.mu, tau)
    shape = parse_shape(args.phi)
    p = parse_scalar(args.p)
    grid = ModulusGrid(args.grid_points, args.refine_iters) if "grid_points" in args else None

    if args.command == "jackson" and args.subcommand == "inf":
        report = inf_quantity(args.n, shape, p, measure, k_max=args.k_max)
        return {
            "value": report.value,
            "argmin_k": report.argmin_k,
            "k_max": report.k_max,
            "attained_at_n": report.attained_at_n,
        }, 0

    if args.command == "jackson" and args.subcommand == "sharp":
        psi = parse_psi(args.psi)
        cert = sharpness_certificate(shape, p, measure, psi, args.n, grid=grid, k_max=args.k_max)
        ok = cert.rel_gap <= 1e-6
        return {
            "constant": cert.constant,
            "ratio": cert.ratio,
            "rel_gap": cert.rel_gap,
            "holds": ok,
        }, 0 if ok else 1

    if args.command == "jackson" and args.subcommand == "bound":
        psi = parse_psi(args.psi)
        f = load_spectrum(args.function)
        result = jackson_bound(f, psi, shape, p, measure, args.n, k_max=args.k_max, grid=grid)
        return {
            "lhs": result.lhs,
            "bound": result.bound,
            "holds": result.holds,
            "bound_plain": result.bound_plain,
            "holds_plain": result.holds_plain,
        }, 0 if result.holds and result.holds_plain else 1

    if args.command == "widths" and args.subcommand == "value":
        cls = _build_class(parse_psi(args.psi), shape, p, measure, args.n, args.omega)
        value = width_closed_form(cls, args.n, k_max=args.k_max)
        return {
            "lower": value.lower,
            "upper": value.upper,
            "certified": value.certified,
            "value": value.value,
            "dimensions": list(value.dimensions),
            "shape_certification": value.shape_certification,
        }, 0

    if args.command == "widths" and args.subcommand == "certify":
        cls = _build_class(parse_psi(args.psi), shape, p, measure, args.n, args.omega)
        cert = certify_widths(
            cls, args.n, samples=args.samples, seed=args.seed, grid=grid,
            k_max=args.k_max,
        )
        ok = cert.verdict == "consistent"
        return {
            "closed_form": cert.closed_form.value,
            "certified": cert.closed_form.certified,
            "lower": {
                "samples": cert.lower_evidence.samples,
                "failures": cert.lower_evidence.failures,
                "radius": cert.lower_evidence.radius,
            },
            "upper": {
                "samples": cert.upper_evidence.samples,
                "max_en": cert.upper_evidence.max_en,
                "non_bracketing": cert.upper_evidence.non_bracketing,
            },
            "dimensions": list(cert.dimensions),
            "verdict": cert.verdict,
        }, 0 if ok else 1

    if args.command == "widths" and args.subcommand == "majorant-check":
        omega = parse_majorant(args.omega)
        check = majorant_condition_check(omega, shape, p, measure)
        return {
            "ok": check.ok,
            "worst_rel_margin": check.worst_rel_margin,
            "worst_xi": check.worst_xi,
            "worst_u": check.worst_u,
        }, 0 if check.ok else 1

    raise ConfigError(f"unhandled command {args.command} {args.subcommand}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize --help to 0
        return int(exc.code or 0)

    try:
        if args.command == "suite":
            if args.config:
                cfg = load_config(args.config)
                if args.suite and args.suite != cfg.suite:
                    # switching suites drops config params (they are per-suite)
                    cfg = SuiteConfig(
                        suite=args.suite, seed=cfg.seed, format=cfg.format,
                        out=cfg.out, no_timestamp=cfg.no_timestamp,
                    )
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
            out = args.out or cfg.out
            report, status = run_suite(cfg)
            _emit(_render(report, cfg.format, cfg.suite), out)
            return status

        report, status = _run_single(args)
        if not args.no_timestamp:
            report["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
        _emit(_render(report, args.format or "json"), args.out)
        return status
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
