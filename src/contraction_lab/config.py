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
import math
from dataclasses import dataclass

import numpy as np
import yaml

from .errors import ConfigInvariantError, ConfigSyntaxError, UnknownConfigKeyError
from .rng import derive_seed
from . import rates, spectral
from .assumptions import RateConstants, RatePlan
from .rates import Colored, TheoryParams, WhiteDiagonal, plan_from_theory

DEFAULT_SEED = 20240810

PIPELINES = ("simulate", "posterior", "rate-fit", "check", "gn", "smallball",
             "minmax", "hs", "concentration", "findim")
FORMATS = ("csv", "json", "plotdata")


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


# (converter, default), or a nested section's own schema; a None default
# means "absent unless given"
_SCHEMA = {
    "problem": {
        "n_dim": (int, 512),
        "spectrum": {
            "family": (str, "mild"),
            "alpha": (float, 1.0),
            "c1": (float, 1.0),
            "c2": (float, 1.0),
            "alpha1": (float, None),
            "alpha2": (float, None),
            "c0": (float, None),
            "beta": (float, None),
            "rho": (_float_list, None),
        },
        "coupling": {
            "kind": (str, "identity"),
            "lo_ratio": (float, 1.0 / 3.0),
            "hi_ratio": (float, 2.0),
            "seed": (int, None),
            "v": (_float_list, None),
            "generator": (_matrix, None),
            "matrix": (_matrix, None),
        },
        "prior": {
            "family": (str, "power"),
            "delta": (float, 1.0),
            "variances": (_float_list, None),
            "t": (float, None),
            "l": (float, None),
            "k2_seed": (int, 7),
            "k2_scale": (float, 0.1),
        },
        "noise": {
            "kind": (str, "white"),
            "variances": (_float_list, None),
            "r": (float, None),
            "k1_seed": (int, 11),
            "k1_scale": (float, 0.1),
            "matrix": (_matrix, None),
        },
    },
    "truth": {
        "gamma": (float, 2.0),
        "coefficients": (_float_list, None),
    },
    "run": {
        "pipelines": (_str_list, ["rate-fit"]),
        "n_grid": (_float_list, [1e2, 1e3, 1e4, 1e5, 1e6]),
        "mc": (int, 2000),
        "y_replicates": (int, 50),
        "delta_level": (float, 0.1),
        "master_seed": (int, DEFAULT_SEED),
        "xi_grid": (_float_list, None),
        "eps_grid": (_float_list, None),
        "x_grid": (_float_list, None),
        "k_max": (int, 32),
        "j_max": (int, None),
        "r_values": (lambda x: [_int_or_inf(v) for v in x], None),
        "hs_target": (str, None),
        "plug_k": (int, None),
        "plug_r": (int, None),
    },
    "outputs": {
        "directory": (str, "out"),
        "formats": (_str_list, ["csv"]),
    },
    "findim": {
        "p": (int, 1),
        "q": (int, 1),
        "g": (_matrix, [[1.0]]),
        "m_const": (float, 3.0),
        "mixture_weights": (_float_list, None),
        "mixture_means": (_matrix, None),
        "mixture_sds": (_matrix, None),
    },
}

# hs_diagnostic targets, with the coupling kind each one needs (None: any)
HS_TARGETS = {"reflection_pair": "reflection", "exp_pair": "exp_skew", "gn_bound": None}
_MIXTURE_KEYS = ("mixture_weights", "mixture_means", "mixture_sds")

_PLAN_KEYS = {
    "eps_n": float, "xi_n": float, "k_n": int, "r_n": _int_or_inf,
    "n_level": float, "c": float, "c1": float, "c2": float, "r": float,
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
        if isinstance(spec, dict):
            out[key] = _normalize_section(given.get(key, {}), spec, f"{section}.{key}")
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
    n_dim = data["problem"]["n_dim"]
    if n_dim < 1:
        raise ConfigInvariantError("problem.n_dim", "must be >= 1")
    run = data["run"]
    n_grid = run["n_grid"]
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ConfigInvariantError("run.n_grid", "must be strictly increasing")
    if not all(0 < n < math.inf for n in n_grid):
        raise ConfigInvariantError("run.n_grid", "entries must be positive and finite")
    for key in ("mc", "y_replicates", "k_max"):
        if run[key] < 1:
            raise ConfigInvariantError(f"run.{key}", "counts must be positive")
    for key in ("xi_grid", "x_grid", "eps_grid", "r_values"):
        if run.get(key) == []:
            raise ConfigInvariantError(f"run.{key}", "must not be empty; omit it for the default")
    for key in ("xi_grid", "x_grid"):
        if not all(0 <= v < math.inf for v in run.get(key, [])):
            raise ConfigInvariantError(f"run.{key}", "entries must be nonnegative and finite")
    if not all(0 < eps < math.inf for eps in run.get("eps_grid", [])):
        raise ConfigInvariantError("run.eps_grid", "entries must be positive and finite")
    # Coordinate counts lie in [1, n_dim] ("inf" where allowed); k_max alone is
    # an upper limit, clipped to n_dim where it is used.
    plan = data["plan"] if data["plan"] != "auto" else {}
    # NaN fails "0 < v < inf" where it passes every "v <= 0"
    positive = {f"plan.{key}": plan[key] for key in ("c", "c1", "c2", "r") if key in plan}
    positive.update({"truth.gamma": data["truth"]["gamma"],
                     "findim.m_const": data["findim"]["m_const"]})
    for name, v in positive.items():
        if not 0 < v < math.inf:
            raise ConfigInvariantError(name, "must be positive and finite")
    if not np.all(np.isfinite(data["truth"].get("coefficients", []))):
        raise ConfigInvariantError("truth.coefficients", "entries must be finite")
    counts = {f"run.{key}": [run[key]] for key in ("j_max", "plug_k", "plug_r") if key in run}
    counts["run.r_values"] = run.get("r_values", [])
    counts.update({f"plan.{key}": [plan[key]] for key in ("k_n", "r_n") if key in plan})
    for name, values in counts.items():
        if any(v != "inf" and not 1 <= v <= n_dim for v in values):
            raise ConfigInvariantError(name, f"must lie in [1, n_dim = {n_dim}]")
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
    target = run.get("hs_target")
    if target is not None:
        if target not in HS_TARGETS:
            raise ConfigInvariantError("run.hs_target", f"unknown target {target!r}; expected "
                                       f"one of {', '.join(HS_TARGETS)}")
        kind = HS_TARGETS[target]
        if kind is not None and data["problem"]["coupling"]["kind"] != kind:
            raise ConfigInvariantError("run.hs_target", f"{target} requires a {kind} coupling")
    _check_findim(data["findim"])


def _findim_array(fd: dict, key: str) -> np.ndarray:
    try:
        return np.asarray(fd[key], dtype=float)
    except ValueError as exc:
        raise ConfigInvariantError(f"findim.{key}", str(exc))


def _check_findim(fd: dict) -> None:
    """The shapes, rank and mixture ``build_findim``'s constructors would
    reject, by key (``m_const`` is checked with the other positive scalars)."""
    p, q = fd["p"], fd["q"]
    if p < 1:
        raise ConfigInvariantError("findim.p", "must be >= 1")
    if q < p:
        raise ConfigInvariantError("findim.q", f"must be >= findim.p = {p}")
    g = _findim_array(fd, "g")
    if g.size != q * p:
        raise ConfigInvariantError("findim.g", f"must hold q x p = {q} x {p} entries, "
                                               f"got {g.size}")
    # One column has full rank exactly when it is nonzero; asking the SVD for
    # that would page LAPACK's SVD into every process that parses a config.
    g = g.reshape(q, p)
    if not np.all(np.isfinite(g)) or not (
            np.any(g) if p == 1 else np.linalg.svd(g, compute_uv=False).min() > 0):
        raise ConfigInvariantError("findim.g", "must be finite with full column rank")
    given = [key for key in _MIXTURE_KEYS if key in fd]
    if not given:
        return
    for key in _MIXTURE_KEYS:
        if key not in fd:
            raise ConfigInvariantError(f"findim.{key}", f"required with findim.{given[0]}")
    weights = _findim_array(fd, "mixture_weights")
    means, sds = (np.atleast_2d(_findim_array(fd, key)) for key in _MIXTURE_KEYS[1:])
    if weights.ndim != 1 or not (np.all(weights > 0) and abs(weights.sum() - 1.0) <= 1e-12):
        raise ConfigInvariantError("findim.mixture_weights", "must be a positive distribution")
    if means.shape != (weights.size, p) or not np.all(np.isfinite(means)):
        raise ConfigInvariantError("findim.mixture_means",
                                   f"must be finite, {weights.size} x p = {weights.size} x {p}")
    if sds.shape != means.shape or not np.all((sds > 0) & (sds < math.inf)):
        raise ConfigInvariantError("findim.mixture_sds", f"must be positive and finite, "
                                   f"{weights.size} x p = {weights.size} x {p}")


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
        _check_invariants(data)
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


def build_problem(config: ExperimentConfig) -> spectral.InverseProblem:
    prob = config.data["problem"]
    n_dim = prob["n_dim"]
    spectrum_spec = prob["spectrum"]
    spectrum = _require(spectrum_spec, "problem.spectrum", "family", _SPECTRA)(spectrum_spec, n_dim)

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
    elif prior_spec["family"] == "power":
        variant = WhiteDiagonal()
    else:
        raise ConfigInvariantError("plan", "auto plans require a power or hilbert_scale prior")
    return TheoryParams(alpha=alpha, delta=prior_spec["delta"], gamma=gamma, variant=variant)


def build_plan(config: ExperimentConfig) -> RatePlan:
    raw = config.data["plan"]
    n_dim = config.data["problem"]["n_dim"]
    if raw == "auto":
        params = build_theory_params(config)
        n_level = float(config.run["n_grid"][-1])
        return plan_from_theory(params, n_level, n_dim)
    constants = RateConstants(**{k: raw[k] for k in ("c", "c1", "c2", "r") if k in raw})
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
    fd = config.data["findim"]
    p, q = fd["p"], fd["q"]
    if set(_MIXTURE_KEYS) <= fd.keys():
        prior = rates.GaussianMixturePrior(np.asarray(fd["mixture_weights"]),
                                           np.asarray(fd["mixture_means"]),
                                           np.asarray(fd["mixture_sds"]))
    else:
        prior = rates.two_component_mixture(p)
    return rates.FiniteDimExperiment(p=p, q=q, g_matrix=np.asarray(fd["g"]),
                                     prior=prior, m_const=fd["m_const"])
