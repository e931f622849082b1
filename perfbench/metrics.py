"""Metric names, units, and the per-layer numbers computed from spans.

``END_TO_END`` and ``PIPELINE_TIMES`` come from untraced rounds; ``LAYERS``
from traced rounds. ``BENCHMARK.json`` lists the subset that every workload
measures; the full set is printed and written to the run's report.
"""

from __future__ import annotations

from .spans import inclusive_ns, self_time_ns, spans_from_dict

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "failed_frac": "ratio",
}

# Per-pipeline invocation times, reported on the workloads that run them.
PIPELINE_TIMES = {
    "ratefit_s": ("s", ("rate-fit",)),
    "posterior_s": ("s", ("posterior",)),
    "smallball_s": ("s", ("smallball",)),
    "check_s": ("s", ("check",)),
    "light_s": ("s", ("simulate", "gn", "minmax", "hs", "concentration", "findim")),
}

# Span name -> metric holding its inclusive time.
SPAN_TIMES = {
    "config.parse": "config.parse_s",
    "config.build_problem": "config.build_problem_s",
    "spectral.build": "spectral.build_s",
    "spectral.cached_matrices": "spectral.cached_matrices_s",
    "spectral.noise_apply": "spectral.noise_apply_s",
    "spectral.simulate": "spectral.simulate_s",
    "rng.draw": "rng.draw_s",
    "posterior.factor": "posterior.factor_s",
    "posterior.conjugate": "posterior.conjugate_s",
    "posterior.exceedance": "posterior.exceedance_s",
    "rates.fit": "rates.fit_s",
    "rates.findim": "rates.findim_s",
    "assumptions.g": "assumptions.g_s",
    "assumptions.smallball": "assumptions.smallball_s",
    "assumptions.check": "assumptions.check_s",
    "assumptions.eig": "assumptions.eig_s",
    "assumptions.concentration": "assumptions.concentration_s",
    "runner.run": "runner.run_s",
    "runner.emit": "runner.emit_s",
}

COUNTS = ("config.build_problem_calls", "spectral.noise_apply_calls", "rng.streams",
          "rng.normals", "posterior.factor_calls", "rates.replicates", "assumptions.g_calls",
          "assumptions.smallball_calls", "assumptions.smallball_upper_only")

LAYERS = {
    **{metric: "s" for metric in SPAN_TIMES.values()},
    **{name: "count" for name in COUNTS},
    "rates.fit_self_s": "s",
    "rates.flop": "flop",
    "rates.grid_kept_frac": "ratio",
    "runner.bytes_written": "B",
    "runner.worker_busy_frac": "ratio",
    "trace.overhead_frac": "ratio",
}

# Spans subtracted from rates.fit to give its self time.
FIT_CHILDREN = ("rng.draw", "posterior.factor")


def layer_metrics(doc: dict, workers: int, bytes_written: int, n_dim: int, mc: int) -> dict:
    """Per-layer numbers of one traced round from its recorder dump.

    Times are inclusive: a span nested in another layer's span counts in
    both. ``rates.flop`` is computed, not measured: 2 N^2 mc per replicate
    for the ``cov_chol @ z`` product.
    """
    spans = spans_from_dict(doc)
    counts = doc["counts"]
    out = {metric: inclusive_ns(spans, name) / 1e9 for name, metric in SPAN_TIMES.items()}
    out.update({name: counts.get(name, 0) for name in COUNTS})
    # Draws on pool threads are parented to the pipeline span, not to
    # rates.fit, so the subtracted spans are chosen by name and interval.
    subtract = [s for s in spans if s.name in FIT_CHILDREN]
    out["rates.fit_self_s"] = sum(self_time_ns(fit, subtract)
                                  for fit in spans if fit.name == "rates.fit") / 1e9
    out["rates.flop"] = 2 * n_dim * n_dim * mc * out["rates.replicates"]
    attempted = counts.get("rates.grid_attempted", 0)
    out["rates.grid_kept_frac"] = counts.get("rates.grid_kept", 0) / attempted if attempted else None
    out["runner.bytes_written"] = bytes_written
    capacity = workers * sum(s.duration_ns for s in spans if s.name == "runner.pipeline")
    out["runner.worker_busy_frac"] = inclusive_ns(spans, "runner.cell") / capacity if capacity else None
    return out
