"""Declarative experiment configuration.

Configs are YAML mappings validated against a fixed schema: unknown keys are
rejected with a spelling suggestion, defaults are filled in, and the
normalized document is hashed so that two configs share a digest exactly
when they agree semantically (whitespace and key order never matter).
"""

from __future__ import annotations

import difflib
import hashlib
import json
from dataclasses import dataclass

import numpy as np
import yaml

from .errors import ConfigInvariantError, ConfigSyntaxError, UnknownConfigKeyError
from .rng import derive_seed
from . import spectral
from .assumptions import RateConstants, RatePlan
from .rates import Colored, TheoryParams, WhiteDiagonal, plan_from_theory

DEFAULT_SEED = 20240810

PIPELINES = ("simulate", "posterior", "rate-fit", "check", "gn", "smallball",
             "minmax", "hs", "concentration", "findim")
FORMATS = ("csv", "json", "plotdata")


def _float(x):
    return float(x)


def _int(x):
    return int(x)


def _str(x):
    return str(x)


def _float_list(x):
    return [float(v) for v in x]


def _matrix(x):
    return [[float(v) for v in row] for row in x]


def _str_list(x):
    return [str(v) for v in x]


def _int_or_inf(x):
    if isinstance(x, str) and x.lower() in ("inf", "infinity"):
        return "inf"
    return int(x)


# (converter, default); None default means "absent unless given"
_SCHEMA = {
    "problem": {
        "n_dim": (_int, 512),
        "spectrum": ({
            "family": (_str, "mild"),
            "alpha": (_float, 1.0),
            "c1": (_float, 1.0),
            "c2": (_float, 1.0),
            "alpha1": (_float, None),
            "alpha2": (_float, None),
            "c0": (_float, None),
            "beta": (_float, None),
            "rho": (_float_list, None),
        }, "nested"),
        "coupling": ({
            "kind": (_str, "identity"),
            "lo_ratio": (_float, 1.0 / 3.0),
            "hi_ratio": (_float, 2.0),
            "seed": (_int, None),
            "v": (_float_list, None),
            "generator": (_matrix, None),
            "matrix": (_matrix, None),
        }, "nested"),
        "prior": ({
            "family": (_str, "power"),
            "delta": (_float, 1.0),
            "variances": (_float_list, None),
            "t": (_float, None),
            "l": (_float, None),
            "k2_seed": (_int, 7),
            "k2_scale": (_float, 0.1),
        }, "nested"),
        "noise": ({
            "kind": (_str, "white"),
            "variances": (_float_list, None),
            "r": (_float, None),
            "k1_seed": (_int, 11),
            "k1_scale": (_float, 0.1),
            "matrix": (_matrix, None),
        }, "nested"),
    },
    "truth": {
        "gamma": (_float, 2.0),
        "coefficients": (_float_list, None),
    },
    "run": {
        "pipelines": (_str_list, ["rate-fit"]),
        "n_grid": (_float_list, [1e2, 1e3, 1e4, 1e5, 1e6]),
        "mc": (_int, 2000),
        "y_replicates": (_int, 50),
        "delta_level": (_float, 0.1),
        "master_seed": (_int, DEFAULT_SEED),
        "xi_grid": (_float_list, None),
        "eps_grid": (_float_list, None),
        "x_grid": (_float_list, None),
        "k_max": (_int, 32),
        "j_max": (_int, None),
        "r_values": (lambda x: [_int_or_inf(v) for v in x], None),
        "hs_target": (_str, None),
        "plug_k": (_int, None),
        "plug_r": (_int, None),
    },
    "outputs": {
        "directory": (_str, "out"),
        "formats": (_str_list, ["csv"]),
    },
    "findim": {
        "p": (_int, 1),
        "q": (_int, 1),
        "g": (_matrix, [[1.0]]),
        "m_const": (_float, 3.0),
        "mixture_weights": (_float_list, None),
        "mixture_means": (_matrix, None),
        "mixture_sds": (_matrix, None),
    },
}

_PLAN_KEYS = {
    "eps_n": _float, "xi_n": _float, "k_n": _int, "r_n": _int_or_inf,
    "n_level": _float, "c": _float, "c1": _float, "c2": _float, "r": _float,
}


def _reject_unknown(given: dict, allowed, section: str) -> None:
    for key in given:
        if key not in allowed:
            match = difflib.get_close_matches(str(key), [str(a) for a in allowed], n=1)
            raise UnknownConfigKeyError(str(key), section, match[0] if match else None)


def _convert(value, converter, section: str, key: str):
    try:
        return converter(value)
    except (TypeError, ValueError) as exc:
        raise ConfigInvariantError(f"{section}.{key}", str(exc))


def _normalize_section(given: dict, schema: dict, section: str) -> dict:
    if not isinstance(given, dict):
        raise ConfigInvariantError(section, "expected a mapping")
    _reject_unknown(given, schema.keys(), section)
    out = {}
    for key, spec in schema.items():
        if isinstance(spec[0], dict):  # nested section
            sub = given.get(key, {})
            out[key] = _normalize_section(sub, spec[0], f"{section}.{key}")
            continue
        converter, default = spec
        if key in given and given[key] is not None:
            out[key] = _convert(given[key], converter, section, key)
        elif default is not None:
            out[key] = default
    return out


def _normalize_plan(raw) -> str | dict:
    if raw is None or raw == "auto":
        return "auto"
    if not isinstance(raw, dict):
        raise ConfigInvariantError("plan", "expected 'auto' or a mapping")
    _reject_unknown(raw, _PLAN_KEYS.keys(), "plan")
    return {k: _convert(v, _PLAN_KEYS[k], "plan", k) for k, v in raw.items()}


def _check_invariants(data: dict) -> None:
    run = data["run"]
    n_grid = run["n_grid"]
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ConfigInvariantError("run.n_grid", "must be strictly increasing")
    if any(n <= 0 for n in n_grid):
        raise ConfigInvariantError("run.n_grid", "entries must be positive")
    if run["mc"] < 1 or run["y_replicates"] < 1:
        raise ConfigInvariantError("run.mc", "counts must be positive")
    if run["master_seed"] < 0:
        raise ConfigInvariantError("run.master_seed", "seed must be nonnegative")
    if not (0 < run["delta_level"] < 0.5):
        raise ConfigInvariantError("run.delta_level", "must lie in (0, 0.5)")
    for p in run["pipelines"]:
        if p not in PIPELINES:
            raise ConfigInvariantError("run.pipelines", f"unknown pipeline {p!r}")
    for f in data["outputs"]["formats"]:
        if f not in FORMATS:
            raise ConfigInvariantError("outputs.formats", f"unknown format {f!r}")
    if data["problem"]["n_dim"] < 1:
        raise ConfigInvariantError("problem.n_dim", "must be >= 1")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, default-filled configuration with its semantic digest."""

    data: dict
    digest: str

    @property
    def run(self) -> dict:
        return self.data["run"]

    @property
    def outputs(self) -> dict:
        return self.data["outputs"]

    def with_master_seed(self, seed: int) -> "ExperimentConfig":
        data = json.loads(json.dumps(self.data))
        data["run"]["master_seed"] = int(seed)
        return ExperimentConfig(data=data, digest=_digest(data))


def _digest(data: dict) -> str:
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a YAML configuration document."""
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        if mark is not None:
            raise ConfigSyntaxError(str(getattr(exc, "problem", exc)),
                                    line=mark.line + 1, column=mark.column + 1)
        raise ConfigSyntaxError(str(exc))
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigSyntaxError("top level must be a mapping")

    top_allowed = ("schema_version", "problem", "truth", "plan", "run", "outputs", "findim")
    _reject_unknown(raw, top_allowed, "top level")
    version = raw.get("schema_version", 1)
    if version != 1:
        raise ConfigInvariantError("schema_version", f"unrecognized version {version!r}")

    data = {"schema_version": 1}
    for section in ("problem", "truth", "run", "outputs", "findim"):
        data[section] = _normalize_section(raw.get(section, {}), _SCHEMA[section], section)
    data["plan"] = _normalize_plan(raw.get("plan"))
    _check_invariants(data)
    return ExperimentConfig(data=data, digest=_digest(data))


# ---------------------------------------------------------------------------
# Builders: config sections to model objects
# ---------------------------------------------------------------------------

# One table per problem section: kind -> (keys the kind requires, constructor).
# Constructors look up ``spectral`` names at call time, so a rebound module
# attribute reaches every build.
_SPECTRA = {  # (spec, n_dim) -> spectrum
    "mild": ((), lambda s, n: spectral.make_spectrum(
        spectral.MildFamily(s["alpha"], s["c1"], s["c2"]), n)),
    "severe": (("alpha1", "alpha2", "c0", "beta"), lambda s, n: spectral.make_spectrum(
        spectral.SevereFamily(s["alpha1"], s["alpha2"], s["c0"], s["beta"]), n)),
    "explicit": (("rho",), lambda s, n: spectral.make_spectrum(np.asarray(s["rho"]), n)),
}
_PRIORS = {  # (spec, n_dim, spectrum) -> prior; hilbert_scale -> (coupling, prior)
    "power": ((), lambda s, n, op: spectral.power_law_prior(s["delta"], n)),
    "explicit": (("variances",), lambda s, n, op: spectral.explicit_prior(s["variances"], n)),
    "hilbert_scale": (("t", "l"), lambda s, n, op: spectral.hilbert_scale_prior(
        op, s["t"], s["l"], spectral.random_spd(n, s["k2_seed"], s["k2_scale"]))),
}
_COUPLINGS = {  # spec -> coupling kind
    "identity": ((), lambda s: spectral.IdentityCoupling()),
    "banded": ((), lambda s: spectral.BandedCoupling(s["lo_ratio"], s["hi_ratio"])),
    "reflection": (("v",), lambda s: spectral.ReflectionCoupling(np.asarray(s["v"]))),
    "exp_skew": (("generator",), lambda s: spectral.ExpSkewCoupling(np.asarray(s["generator"]))),
    "explicit": (("matrix",), lambda s: spectral.ExplicitCoupling(np.asarray(s["matrix"]))),
}
_NOISES = {  # (spec, n_dim, spectrum) -> noise
    "white": ((), lambda s, n, op: spectral.white_noise(n)),
    "diagonal": (("variances",), lambda s, n, op: spectral.diagonal_noise(s["variances"], n)),
    "colored": (("r",), lambda s, n, op: spectral.colored_noise(
        op, s["r"], spectral.random_spd(n, s["k1_seed"], s["k1_scale"]))),
    "dense": (("matrix",), lambda s, n, op: spectral.dense_noise(np.asarray(s["matrix"]))),
}


def _require(spec: dict, section: str, kind_key: str, table: dict):
    """The constructor of the section's kind, once the kind is known and the
    keys it requires are present."""
    kind = spec[kind_key]
    if kind not in table:
        raise ConfigInvariantError(f"{section}.{kind_key}", f"unknown {kind_key} {kind!r}")
    required, make = table[kind]
    for key in required:
        if key not in spec:
            raise ConfigInvariantError(f"{section}.{key}", f"required for {kind_key} {kind!r}")
    return make


def build_spectrum(config: ExperimentConfig) -> spectral.OperatorSpectrum:
    spec = config.data["problem"]["spectrum"]
    make = _require(spec, "problem.spectrum", "family", _SPECTRA)
    return make(spec, config.data["problem"]["n_dim"])


def build_problem(config: ExperimentConfig) -> spectral.InverseProblem:
    prob = config.data["problem"]
    n_dim = prob["n_dim"]
    spectrum = build_spectrum(config)

    prior_spec = prob["prior"]
    coupling_spec = prob["coupling"]
    coupling_seed = coupling_spec.get("seed")
    if coupling_seed is None:
        coupling_seed = derive_seed(config.run["master_seed"], "coupling")

    make_prior = _require(prior_spec, "problem.prior", "family", _PRIORS)
    if prior_spec["family"] == "hilbert_scale":
        if coupling_spec["kind"] != "identity":
            raise ConfigInvariantError("problem.coupling.kind",
                                       "a hilbert_scale prior defines its own coupling")
        coupling, prior = make_prior(prior_spec, n_dim, spectrum)
    else:
        prior = make_prior(prior_spec, n_dim, spectrum)
        kind = _require(coupling_spec, "problem.coupling", "kind", _COUPLINGS)(coupling_spec)
        coupling = spectral.make_coupling(kind, n_dim, coupling_seed)

    noise_spec = prob["noise"]
    noise = _require(noise_spec, "problem.noise", "kind", _NOISES)(noise_spec, n_dim, spectrum)
    return spectral.InverseProblem(operator=spectrum, coupling=coupling,
                                   prior=prior, noise=noise, n_dim=n_dim)


def build_truth(config: ExperimentConfig) -> np.ndarray:
    truth = config.data["truth"]
    n_dim = config.data["problem"]["n_dim"]
    if "coefficients" in truth:
        coeffs = np.asarray(truth["coefficients"], dtype=float)
        if coeffs.shape != (n_dim,):
            raise ConfigInvariantError("truth.coefficients", f"must have length {n_dim}")
        return coeffs
    return spectral.power_law_truth(truth["gamma"], n_dim)


def build_theory_params(config: ExperimentConfig) -> TheoryParams:
    prob = config.data["problem"]
    if prob["spectrum"]["family"] != "mild":
        raise ConfigInvariantError("plan", "auto plans require a mild spectrum")
    alpha = prob["spectrum"]["alpha"]
    gamma = config.data["truth"]["gamma"]
    prior_spec = prob["prior"]
    noise_spec = prob["noise"]
    if noise_spec["kind"] == "colored" and prior_spec["family"] == "hilbert_scale":
        variant = Colored(noise_spec["r"], prior_spec["t"], prior_spec["l"])
        delta = prior_spec.get("delta", 1.0)
    elif prior_spec["family"] == "power":
        variant = WhiteDiagonal()
        delta = prior_spec["delta"]
    else:
        raise ConfigInvariantError("plan", "auto plans require a power or hilbert_scale prior")
    return TheoryParams(alpha=alpha, delta=delta, gamma=gamma, variant=variant)


def build_plan(config: ExperimentConfig) -> RatePlan:
    raw = config.data["plan"]
    n_dim = config.data["problem"]["n_dim"]
    if raw == "auto":
        params = build_theory_params(config)
        n_level = float(config.run["n_grid"][-1])
        return plan_from_theory(params, n_level, n_dim)
    constants = RateConstants(c=raw.get("c", 1.0), c1=raw.get("c1", 1.0),
                              c2=raw.get("c2", 1.0), r=raw.get("r", 1.0))
    r_n = raw.get("r_n")
    if r_n == "inf":
        r_n = None
    missing = [k for k in ("eps_n", "xi_n", "k_n") if k not in raw]
    if missing:
        raise ConfigInvariantError("plan", f"missing keys: {', '.join(missing)}")
    return RatePlan(eps_n=raw["eps_n"], xi_n=raw["xi_n"], k_n=raw["k_n"], r_n=r_n,
                    constants=constants,
                    n_level=raw.get("n_level", float(config.run["n_grid"][-1])))


def build_findim(config: ExperimentConfig):
    from .rates import FiniteDimExperiment, GaussianMixturePrior, two_component_mixture

    fd = config.data["findim"]
    p, q = fd["p"], fd["q"]
    if {"mixture_weights", "mixture_means", "mixture_sds"} <= fd.keys():
        prior = GaussianMixturePrior(np.asarray(fd["mixture_weights"]),
                                     np.asarray(fd["mixture_means"]),
                                     np.asarray(fd["mixture_sds"]))
    else:
        prior = two_component_mixture(p)
    return FiniteDimExperiment(p=p, q=q, g_matrix=np.asarray(fd["g"]),
                               prior=prior, m_const=fd["m_const"])
