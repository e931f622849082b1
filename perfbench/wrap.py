"""Wrap the package's entry points with spans and counts, from outside.

Nothing under ``src/`` is edited: each wrapper replaces one module or class
binding for the duration of a traced round, and ``uninstall`` puts the
original objects back so that every binding is identical (``is``) to what it
was before.
"""

from __future__ import annotations

import functools
import importlib
import math
from functools import cached_property

from .spans import Recorder

# (module, attribute, span name): plain function bindings, looked up by the
# callers at call time, so replacing the module attribute reaches every call.
TIMED = (
    ("contraction_lab.runner", "build_problem", "config.build_problem"),
    ("contraction_lab.spectral", "make_coupling", "spectral.build"),
    ("contraction_lab.spectral", "random_spd", "spectral.build"),
    ("contraction_lab.spectral", "colored_noise", "spectral.build"),
    ("contraction_lab.spectral", "hilbert_scale_prior", "spectral.build"),
    ("contraction_lab.runner", "simulate_data", "spectral.simulate"),
    ("contraction_lab.posterior", "cholesky_with_jitter", "posterior.factor"),
    ("contraction_lab.posterior", "cho_solve", "posterior.factor"),
    ("contraction_lab.posterior", "conjugate_posterior", "posterior.conjugate"),
    ("contraction_lab.posterior", "posterior_exceedance_grid", "posterior.exceedance"),
    ("contraction_lab.rates", "fit_contraction_rate", "rates.fit"),
    ("contraction_lab.rates", "finite_dim_rate_run", "rates.findim"),
    ("contraction_lab.assumptions", "compute_g_kr", "assumptions.g"),
    ("contraction_lab.assumptions", "small_ball_log_prob", "assumptions.smallball"),
    ("contraction_lab.assumptions", "verify_assumptions", "assumptions.check"),
    ("contraction_lab.assumptions", "minmax_compare", "assumptions.eig"),
    ("contraction_lab.assumptions", "coupled_pushforward_cov", "assumptions.eig"),
    ("contraction_lab.assumptions", "diagonal_pushforward_cov", "assumptions.eig"),
    ("contraction_lab.assumptions", "hs_diagnostic", "assumptions.eig"),
    ("contraction_lab.assumptions", "concentration_check", "assumptions.concentration"),
    # One posterior replicate of rate-fit: the cell its thread pool runs.
    ("contraction_lab.rates", "_replicate_distances", "runner.cell"),
)

# Every module that binds ``substream`` under its own name.
SUBSTREAM_MODULES = ("contraction_lab.posterior", "contraction_lab.rates",
                     "contraction_lab.assumptions", "contraction_lab.spectral")

NOISE_METHODS = ("noise_whiten", "noise_color")
CACHED_MATRICES = ("whitened_forward", "whitened_gram")


class _GeneratorProxy:
    """Forwards to a ``numpy.random.Generator``; times ``standard_normal``."""

    def __init__(self, gen, rec: Recorder):
        self._gen = gen
        self._rec = rec

    def standard_normal(self, size=None, *args, **kwargs):
        with self._rec.span("rng.draw"):
            out = self._gen.standard_normal(size, *args, **kwargs)
        if size is None:
            size = 1
        self._rec.count("rng.normals", math.prod(size) if hasattr(size, "__len__") else int(size))
        return out

    def __getattr__(self, name):
        return getattr(self._gen, name)


def _after_call(rec: Recorder, name: str, out) -> None:
    """Counts read off a call's result."""
    rec.count(name + "_calls")
    if name == "rates.fit":
        # every grid point is either kept or listed in ``failures``
        rec.count("rates.grid_kept", len(out.n_grid))
        rec.count("rates.grid_attempted", len(out.n_grid) + len(out.failures))
    elif name == "assumptions.smallball" and out.upper_bound_only:
        rec.count("assumptions.smallball_upper_only")
    elif name == "runner.cell":
        rec.count("rates.replicates")


def _span_wrapper(fn, rec: Recorder, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span(name):
            out = fn(*args, **kwargs)
        _after_call(rec, name, out)
        return out
    return wrapper


def _substream_wrapper(fn, rec: Recorder):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.count("rng.streams")
        return _GeneratorProxy(fn(*args, **kwargs), rec)
    return wrapper


def _map_cells_wrapper(fn, rec: Recorder):
    @functools.wraps(fn)
    def wrapper(cell, items, workers):
        def timed_cell(item):
            with rec.span("runner.cell"):
                return cell(item)
        return fn(timed_cell, items, workers)
    return wrapper


def _bindings() -> list[tuple[object, str, object]]:
    """(module or class, attribute, make_wrapper(original, rec)) for every
    binding ``install`` replaces."""
    problem_cls = importlib.import_module("contraction_lab.spectral").InverseProblem
    out = []
    for mod_name, attr, span_name in TIMED:
        out.append((importlib.import_module(mod_name), attr,
                    functools.partial(_span_wrapper, name=span_name)))
    for mod_name in SUBSTREAM_MODULES:
        out.append((importlib.import_module(mod_name), "substream", _substream_wrapper))
    out.append((importlib.import_module("contraction_lab.runner"), "_map_cells",
                _map_cells_wrapper))
    for attr in NOISE_METHODS:
        out.append((problem_cls, attr,
                    functools.partial(_span_wrapper, name="spectral.noise_apply")))
    for attr in CACHED_MATRICES:
        out.append((problem_cls, attr,
                    functools.partial(_cached_property_wrapper, owner=problem_cls)))
    return out


def _cached_property_wrapper(prop, rec: Recorder, owner):
    wrapped = cached_property(_span_wrapper(prop.func, rec, "spectral.cached_matrices"))
    wrapped.__set_name__(owner, prop.attrname)
    return wrapped


def targets() -> list[tuple[object, str]]:
    """Every (module or class, attribute) pair that ``install`` replaces."""
    return [(owner, attr) for owner, attr, _ in _bindings()]


def install(rec: Recorder) -> list[tuple[object, str, object]]:
    """Replace every traced binding; returns the originals for ``uninstall``."""
    saved = []
    for owner, attr, make_wrapper in _bindings():
        original = vars(owner)[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original, rec))
    return saved


def uninstall(saved: list[tuple[object, str, object]]) -> None:
    """Restore the original bindings, most recent replacement first."""
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)
