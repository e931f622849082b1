"""Thin command-line interface: one subcommand per pipeline.

Exit codes: 0 success, 1 configuration error (including a value a model
constructor rejects, or a ``--workers`` count below 1), 2 a failed pipeline,
3 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import FORMATS, PIPELINES, parse_config
from .errors import ConfigError, ConfigInvariantError, ConstructionError, ParameterError
from .runner import emit_results, run_experiment

_DESCRIPTIONS = {
    "simulate": "draw data samples over the n-grid",
    "posterior": "conjugate posterior exceedance curves",
    "rate-fit": "fit the empirical contraction-rate slope",
    "check": "verify the contraction assumptions for a rate plan",
    "gn": "tabulate the worst-case inverse-adjoint norms g(k, r)",
    "smallball": "small-ball masses with rigorous bounds and shift certificates",
    "minmax": "eigenvalue sandwich ratios against the diagonal surrogate",
    "hs": "Hilbert-Schmidt truncation diagnostics",
    "concentration": "plug-in estimator concentration versus the Gaussian envelope",
    "findim": "finite-dimensional sqrt(log n / n) experiment",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="contraction-lab",
                                     description="posterior-contraction laboratory")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to a YAML experiment config")
    common.add_argument("--seed", type=int, default=None, help="override the master seed")
    common.add_argument("--out", default=None, help="output directory (default: from config)")
    common.add_argument("--format", choices=FORMATS, default=None,
                        help="output format (default: from config)")
    common.add_argument("--workers", type=int, default=1,
                        help="worker threads for independent cells (default: 1)")
    sub = parser.add_subparsers(dest="pipeline", required=True)
    for name in PIPELINES:
        sub.add_parser(name, parents=[common], help=_DESCRIPTIONS[name])
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 3
    try:
        if args.workers < 1:
            raise ConfigInvariantError("--workers", f"must be at least 1, got {args.workers}")
        config = parse_config(text)
        if args.seed is not None:
            config = config.with_master_seed(args.seed)
        # run_experiment records a pipeline's errors as failures; the ones
        # caught here come from the problem build, before any pipeline runs
        record = run_experiment(config, pipelines=[args.pipeline], workers=args.workers)
    except (ConfigError, ParameterError, ConstructionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    out_dir = args.out if args.out is not None else config.outputs["directory"]
    formats = [args.format] if args.format is not None else config.outputs["formats"]
    try:
        for fmt in formats:
            for path in emit_results(record, fmt, out_dir):
                print(path)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3

    if record.failures:
        for name, message in record.failures.items():
            print(f"pipeline {name} failed: {message}", file=sys.stderr)
        return 2
    for table in record.tables:
        suffix = f"  [{table.label}]" if table.label else ""
        print(f"{table.name}: {len(table.rows)} rows{suffix}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
