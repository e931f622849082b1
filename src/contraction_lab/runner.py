"""Pipeline orchestration, result records and serialization.

Each pipeline turns one validated config into one or more columnar tables.
Cells run in order, in the caller's thread, each seeded from the master seed
by (pipeline id, cell index). The ``workers`` count is the benchmark
harness's argument and selects nothing: output bytes never depended on it.
"""

from __future__ import annotations

import csv
import datetime
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import assumptions, posterior, quadform, rates
from .config import (HS_TARGETS, ExperimentConfig, build_findim, build_plan, build_problem,
                     build_truth)
from .errors import (ConfigError, ConfigInvariantError, ConstructionError, NumericalError,
                     ParameterError)
from .rng import derive_seed
from .spectral import InverseProblem, simulate_data

EXPLORATORY_LABEL = "exploratory - no rate claim for severely ill-posed spectra"


@dataclass(frozen=True)
class Table:
    """One named columnar block carrying its provenance and config digest."""

    name: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    provenance: dict
    config_digest: str
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "rows", tuple(tuple(r) for r in self.rows))
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError(f"table {self.name}: row width {len(row)} != {len(self.columns)}")


@dataclass(frozen=True)
class ResultRecord:
    config_digest: str
    created_at: str
    tables: tuple[Table, ...]
    failures: dict = field(default_factory=dict)

    def table(self, name: str) -> Table:
        for t in self.tables:
            if t.name == name:
                return t
        raise KeyError(name)


def _map_cells(fn, items, workers: int) -> list:
    """``fn`` over ``items`` in order; ``workers`` is perfbench's argument and selects nothing."""
    return [fn(item) for item in items]


def _table(config: ExperimentConfig, name: str, columns, rows, operation: str,
           label: str = "", **provenance) -> Table:
    """Table whose provenance names the operation, master seed and any extras."""
    return Table(name, columns, rows,
                 {"operation": operation, "seed": config.run["master_seed"], **provenance},
                 config.digest, label=label)


def _n(x):
    """Grid value as int when integral, float otherwise (lossless CSV)."""
    v = float(x)
    return int(v) if v.is_integer() else v


# ---------------------------------------------------------------------------
# Pipelines
# ---------------------------------------------------------------------------

def _posterior_blocks(problem: InverseProblem) -> dict:
    """How many diagonal blocks each posterior precision splits into, and
    the size of the largest: the per-n factorization and eigensolve cost."""
    sizes = np.diff(problem.gram_blocks)
    return {"count": int(sizes.size), "largest": int(sizes.max())}


def _pipe_simulate(config: ExperimentConfig, problem: InverseProblem, workers: int) -> list[Table]:
    u0 = build_truth(config)
    run = config.run
    seed = run["master_seed"]

    def cell(item):
        i, n = item
        data = simulate_data(problem, u0, n, derive_seed(seed, "simulate", i))
        return [(_n(n), k + 1, float(data.y[k])) for k in range(problem.n_dim)]

    blocks = _map_cells(cell, list(enumerate(run["n_grid"])), workers)
    rows = [row for block in blocks for row in block]
    return [_table(config, "simulate", ("n_level", "coord", "y"), rows, "simulate_data")]


def _pipe_posterior(config: ExperimentConfig, problem: InverseProblem, workers: int) -> list[Table]:
    u0 = build_truth(config)
    run = config.run
    seed = run["master_seed"]

    def cell(item):
        # ||u - u0||^2 under the posterior is the quadratic form of the
        # covariance's eigenvalues lam and offsets c = V^T (mean - u0)
        i, n = item
        data = simulate_data(problem, u0, n, derive_seed(seed, "posterior", i, "data"))
        lam, c = posterior.posterior_spectrum(problem, n, data.y, u0)
        scale = math.sqrt(lam.sum())  # sqrt(trace C)
        xis = run.get("xi_grid") or [scale * m for m in (0.5, 1.0, 2.0, 4.0)]
        q = np.square(xis)
        c2 = np.broadcast_to(c * c, (q.size, c.size))
        tails = quadform.tails(q, lam, c2)
        return ([(_n(n), float(xi), float(t), None)
                 for xi, t in zip(xis, -np.expm1(tails.log_cdf))], tails.log_sf_bound.tolist())

    cells = _map_cells(cell, list(enumerate(run["n_grid"])), workers)
    # std_error stays empty: nothing is sampled
    return [_table(config, "posterior_exceedance", ("n_level", "xi", "estimate", "std_error"),
                   [row for rows, _ in cells for row in rows], "covariance_spectrum",
                   tail="lugannani-rice", certificate="chernoff",
                   log_chernoff=[b for _, bounds in cells for b in bounds],
                   posterior_blocks=_posterior_blocks(problem))]


def _pipe_rate_fit(config: ExperimentConfig, problem: InverseProblem, workers: int) -> list[Table]:
    u0 = build_truth(config)
    run = config.run
    fit = rates.fit_contraction_rate(problem, u0, run["n_grid"], run["delta_level"],
                                     run["y_replicates"],
                                     seed=derive_seed(run["master_seed"], "rate-fit"))
    rows = [(_n(n), float(x), float(frac), float(fit.slope), float(fit.slope_ci[0]),
             float(fit.slope_ci[1]))
            for n, x, frac in zip(fit.n_grid, fit.xi_hat, fit.exceedance_frac)]
    return [_table(config, "rate_fit",
                   ("n", "xi_hat", "exceedance_frac", "slope", "slope_lo", "slope_hi"), rows,
                   "fit_contraction_rate", label=EXPLORATORY_LABEL if fit.exploratory else "",
                   failures=list(fit.failures), posterior_blocks=_posterior_blocks(problem))]


def _pipe_check(config: ExperimentConfig, problem: InverseProblem, workers: int) -> list[Table]:
    u0 = build_truth(config)
    plan = build_plan(config)
    report = assumptions.verify_assumptions(problem, plan, u0)
    sb = report.small_ball_report
    rows = [
        ("small_ball", float(report.small_ball.measured), float(report.small_ball.bound),
         "undetermined" if report.small_ball.ok is None else report.small_ball.ok),
        ("projection_tail", float(report.tail.measured), float(report.tail.bound), report.tail.ok),
        ("g", float(report.g.measured), float(report.g.bound), report.g.ok),
        ("k_n", float(report.kn.measured), float(report.kn.bound), report.kn.ok),
        ("truth_ratio", float(report.truth_ratio), None, True),
    ]
    return [_table(config, "assumption_checks", ("check", "measured", "bound", "ok"), rows,
                   "verify_assumptions",
                   label="finite-r evidence only" if report.finite_r_evidence else "",
                   small_ball=[sb.bounds[0], sb.log_prob, sb.bounds[1]],
                   plan={"eps_n": plan.eps_n, "xi_n": plan.xi_n, "k_n": plan.k_n,
                         "r_n": plan.r_n if plan.r_n is not None else "inf",
                         "n_level": plan.n_level})]


def _pipe_gn(config: ExperimentConfig, problem: InverseProblem, workers: int) -> list[Table]:
    run = config.run
    n = problem.n_dim
    k_values = list(range(1, min(run["k_max"], n) + 1))
    r_values = ["inf" if r == "inf" else int(r)
                for r in run.get("r_values") or [max(1, n // 4), max(1, n // 2), n, "inf"]]
    # one cell per cutoff, each g(k, r) over every k; rows run k-major
    columns = _map_cells(lambda r: assumptions.compute_g_kr(
        problem, k_values, None if r == "inf" else r), r_values, workers)
    rows = [(k, r, g) for k, gs in zip(k_values, zip(*columns)) for r, g in zip(r_values, gs)]
    return [_table(config, "g_table", ("k", "r", "g"), rows, "compute_g_kr")]


def _pipe_smallball(config: ExperimentConfig, problem: InverseProblem, workers: int) -> list[Table]:
    u0 = build_truth(config)
    form = assumptions.small_ball_form(problem, u0)
    eps_grid = config.run.get("eps_grid")
    if not eps_grid:  # the scale is sqrt(trace(M Lambda M^T))
        scale = math.sqrt(float(form.lam.sum()))
        eps_grid = [scale * m for m in (0.25, 0.5, 1.0, 2.0)]
    reports = _map_cells(lambda eps: assumptions.small_ball_log_prob(problem, u0, eps, form),
                         eps_grid, workers)
    rows = [(float(eps), float(rep.log_prob), float(rep.ci_halfwidth),
             float(rep.centered_log_prob), float(rep.shift_cost), rep.upper_bound_only)
            for eps, rep in zip(eps_grid, reports)]
    return [_table(config, "small_ball", ("eps", "log_prob", "ci_halfwidth", "centered_log_prob",
                                          "shift_cost", "upper_bound_only"), rows,
                   "small_ball_log_prob",
                   bounds=[list(rep.bounds) for rep in reports],
                   centered_bounds=[list(rep.centered_bounds) for rep in reports])]


def _pipe_minmax(config: ExperimentConfig, problem: InverseProblem, workers: int) -> list[Table]:
    run = config.run
    j_max = run.get("j_max") or max(1, (3 * problem.n_dim) // 4)
    table = assumptions.minmax_compare(assumptions.coupled_pushforward_cov(problem),
                                       assumptions.diagonal_pushforward_cov(problem),
                                       j_max)
    rows = [(j + 1, float(a), float(b), float(r))
            for j, (a, b, r) in enumerate(zip(table.alphas, table.betas, table.ratios))]
    return [_table(config, "minmax_ratios", ("j", "alpha", "beta", "ratio"), rows,
                   "minmax_compare", min_ratio=table.min_ratio, max_ratio=table.max_ratio)]


def _pipe_hs(config: ExperimentConfig, problem: InverseProblem, workers: int) -> list[Table]:
    run = config.run
    kind = config.data["problem"]["coupling"]["kind"]
    target = run.get("hs_target") or next(
        (t for t, needs in HS_TARGETS.items() if needs == kind), "gn_bound")
    report = assumptions.hs_diagnostic(problem, target)
    rows = [(report.target, int(m), float(v), report.verdict)
            for m, v in zip(report.truncations, report.values)]
    return [_table(config, "hs_diagnostic", ("target", "truncation", "value", "verdict"), rows,
                   "hs_diagnostic", details=report.details)]


def _pipe_concentration(config: ExperimentConfig, problem: InverseProblem, workers: int) -> list[Table]:
    run = config.run
    k = run.get("plug_k") or min(8, problem.n_dim)
    r = run.get("plug_r") or problem.n_dim
    rep = assumptions.concentration_check(problem, k, r, float(run["n_grid"][-1]),
                                          run.get("x_grid") or None)
    # std_error stays empty: nothing is sampled
    rows = [(float(x), float(e), float(b), None, bool(o))
            for x, e, b, o in zip(rep.x_grid, rep.empirical, rep.bound, rep.ok)]
    return [_table(config, "concentration", ("x", "empirical", "bound", "std_error", "ok"), rows,
                   "concentration_check", tail="lugannani-rice", certificate="chernoff",
                   log_chernoff=rep.log_chernoff.tolist(), sigma0_sq=rep.sigma0_sq,
                   mean_deviation=rep.mean_deviation, k=k, r=r)]


def _pipe_findim(config: ExperimentConfig, problem: InverseProblem, workers: int) -> list[Table]:
    run = config.run
    exp = build_findim(config)
    u0 = np.zeros(exp.p)
    n_grid = [n for n in run["n_grid"] if n >= 3]
    if len(n_grid) < 1:
        raise ConfigInvariantError("run.n_grid", "findim needs grid entries >= 3")
    table = rates.finite_dim_rate_run(exp, u0, n_grid, run["y_replicates"],
                                      derive_seed(run["master_seed"], "findim"))
    rows = [(_n(n), float(m), None if math.isnan(r) else float(r), int(c))
            for n, m, r, c in zip(table.n_grid, table.mean_exceedance,
                                  table.max_ratio, table.diagnostic_counts)]
    return [_table(config, "findim_rate", ("n", "mean_exceedance", "max_ratio", "diagnostic_count"),
                   rows, "finite_dim_rate_run", method=table.method, tail=table.tail)]


PIPELINE_FUNCS = {
    "simulate": _pipe_simulate,
    "posterior": _pipe_posterior,
    "rate-fit": _pipe_rate_fit,
    "check": _pipe_check,
    "gn": _pipe_gn,
    "smallball": _pipe_smallball,
    "minmax": _pipe_minmax,
    "hs": _pipe_hs,
    "concentration": _pipe_concentration,
    "findim": _pipe_findim,
}


# The failures a pipeline reports as data: its inputs, a model it could not
# build, or numerics that broke down.
_PIPELINE_ERRORS = (ParameterError, NumericalError, ConstructionError, ConfigError,
                    np.linalg.LinAlgError)


def run_experiment(config: ExperimentConfig, pipelines: list[str] | None = None,
                   workers: int = 1) -> ResultRecord:
    """Execute the requested pipelines; the package's errors and
    ``LinAlgError`` become per-pipeline failure entries and never abort the
    remaining work. Any other exception is a defect and propagates.
    ``workers`` is the benchmark harness's argument and selects nothing."""
    requested = pipelines if pipelines is not None else config.run["pipelines"]
    for name in requested:
        if name not in PIPELINE_FUNCS:
            raise ConfigInvariantError("run.pipelines", f"unknown pipeline {name!r}")
    tables: list[Table] = []
    failures: dict[str, str] = {}
    problem = build_problem(config)
    for name in requested:
        try:
            tables.extend(PIPELINE_FUNCS[name](config, problem, workers))
        except _PIPELINE_ERRORS as exc:
            failures[name] = f"{type(exc).__name__}: {exc}"
    created = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return ResultRecord(config_digest=config.digest, created_at=created,
                        tables=tuple(tables), failures=failures)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def record_to_dict(record: ResultRecord) -> dict:
    return {
        "config_digest": record.config_digest,
        "created_at": record.created_at,
        "failures": dict(record.failures),
        "tables": [
            {"name": t.name, "columns": list(t.columns),
             "rows": [list(r) for r in t.rows], "provenance": t.provenance,
             "config_digest": t.config_digest, "label": t.label}
            for t in record.tables
        ],
    }


def record_from_dict(doc: dict) -> ResultRecord:
    tables = tuple(Table(name=t["name"], columns=tuple(t["columns"]),
                         rows=tuple(tuple(r) for r in t["rows"]),
                         provenance=t["provenance"], config_digest=t["config_digest"],
                         label=t.get("label", ""))
                   for t in doc["tables"])
    return ResultRecord(config_digest=doc["config_digest"], created_at=doc["created_at"],
                        tables=tables, failures=doc.get("failures", {}))


def emit_results(record: ResultRecord, format: str, out_dir) -> list[Path]:
    """Write the record to disk; timestamps stay out of the data tables so
    reruns of one config are byte-identical."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    if format == "csv":
        for t in record.tables:
            path = out / f"{t.name}.csv"
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(t.columns)
                writer.writerows(t.rows)
            written.append(path)
        meta = out / "metadata.json"
        with open(meta, "w") as fh:
            json.dump({"config_digest": record.config_digest,
                       "created_at": record.created_at,
                       "failures": record.failures,
                       "tables": {t.name: {"provenance": t.provenance, "label": t.label}
                                  for t in record.tables}}, fh, indent=2, sort_keys=True)
            fh.write("\n")
        written.append(meta)
        return written
    if format == "json":
        path = out / "result.json"
        with open(path, "w") as fh:
            json.dump(record_to_dict(record), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return [path]
    if format == "plotdata":
        for t in record.tables:
            for j, col in enumerate(t.columns[1:], start=1):
                if not all(isinstance(r[j], (int, float)) and not isinstance(r[j], bool)
                           for r in t.rows):
                    continue
                path = out / f"{t.name}.{col}.plotdata"
                with open(path, "w") as fh:
                    for r in t.rows:
                        fh.write(f"{r[0]} {r[j]}\n")
                written.append(path)
        return written
    raise ConfigInvariantError("outputs.formats", f"unknown format {format!r}")
