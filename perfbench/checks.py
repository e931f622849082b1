"""Output checks on the CSV files one pipeline invocation emitted.

Each check returns a list of problems; an empty list means the invocation's
output is correct. The benchmark counts an invocation with any problem as a
failed operation.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

SLOPE_TOLERANCE = 0.15


def expected_tables(pipeline: str, n_dim: int, n_grid: list[float]) -> dict:
    """Table name -> (columns, row count) for the run defaults the workloads use."""
    g = len(n_grid)
    return {
        "simulate": {"simulate": (("n_level", "coord", "y"), g * n_dim)},
        "posterior": {"posterior_exceedance": (("n_level", "xi", "estimate", "std_error"), g * 4)},
        "rate-fit": {"rate_fit": (("n", "xi_hat", "exceedance_frac", "slope", "slope_lo",
                                   "slope_hi"), g)},
        "check": {"assumption_checks": (("check", "measured", "bound", "ok"), 5)},
        "gn": {"g_table": (("k", "r", "g"), min(32, n_dim) * 4)},
        "smallball": {"small_ball": (("eps", "log_prob", "ci_halfwidth", "centered_log_prob",
                                      "shift_cost", "upper_bound_only"), 4)},
        "minmax": {"minmax_ratios": (("j", "alpha", "beta", "ratio"), max(1, 3 * n_dim // 4))},
        "hs": {"hs_diagnostic": (("target", "truncation", "value", "verdict"), 3)},
        "concentration": {"concentration": (("x", "empirical", "bound", "std_error", "ok"), 9)},
        "findim": {"findim_rate": (("n", "mean_exceedance", "max_ratio", "diagnostic_count"),
                                   sum(1 for n in n_grid if n >= 3))},
    }[pipeline]


def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def csv_digest(out_dir: Path) -> str:
    """SHA-256 over the emitted CSV files, by file name then bytes."""
    h = hashlib.sha256()
    for path in sorted(Path(out_dir).glob("*.csv")):
        h.update(path.name.encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def check_invocation(pipeline: str, out_dir: Path, n_dim: int, n_grid: list[float],
                     theory_xi: float) -> list[str]:
    out_dir = Path(out_dir)
    problems = []
    meta_path = out_dir / "metadata.json"
    if not meta_path.exists():
        return [f"{pipeline}: metadata.json missing"]
    meta = json.loads(meta_path.read_text())
    if meta["failures"]:
        problems.append(f"{pipeline}: failures {meta['failures']}")
    tables = {}
    for name, (columns, count) in expected_tables(pipeline, n_dim, n_grid).items():
        path = out_dir / f"{name}.csv"
        if not path.exists():
            problems.append(f"{pipeline}: table {name} missing")
            continue
        header, rows = read_table(path)
        if tuple(header) != columns:
            problems.append(f"{pipeline}: table {name} columns {header}")
        if len(rows) != count:
            problems.append(f"{pipeline}: table {name} has {len(rows)} rows, expected {count}")
        tables[name] = rows
    if "rate_fit" in tables:
        problems += _check_rate_fit(tables["rate_fit"], meta, theory_xi)
    if "posterior_exceedance" in tables:
        problems += _check_posterior(tables["posterior_exceedance"])
    return problems


def _check_rate_fit(rows, meta, theory_xi) -> list[str]:
    problems = []
    dropped = meta["tables"]["rate_fit"]["provenance"]["failures"]
    if dropped:
        problems.append(f"rate-fit: n-grid points dropped {dropped}")
    if rows:
        slope = float(rows[0][3])
        if abs(slope - theory_xi) > SLOPE_TOLERANCE:
            problems.append(f"rate-fit: slope {slope:.4f} not within {SLOPE_TOLERANCE} "
                            f"of theory {theory_xi:.4f}")
    return problems


def _check_posterior(rows) -> list[str]:
    problems = []
    by_n: dict[str, list[tuple[float, float]]] = {}
    for n_level, xi, estimate, _ in rows:
        by_n.setdefault(n_level, []).append((float(xi), float(estimate)))
    for n_level, pairs in by_n.items():
        pairs.sort()
        values = [e for _, e in pairs]
        if any(not (0.0 <= e <= 1.0) for e in values):
            problems.append(f"posterior: estimate outside [0, 1] at n={n_level}")
        if any(b > a for a, b in zip(values, values[1:])):
            problems.append(f"posterior: estimate increases in xi at n={n_level}")
    return problems
