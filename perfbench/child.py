"""One round of a workload in a fresh process.

Reads a JSON spec on stdin and prints one JSON line. The process first times
its own set-up (``import contraction_lab``, ``parse_config``,
``build_problem`` and the first access of the cached whitened matrices) and
drops that problem. Then each pipeline of the round is invoked the way one
``contraction-lab <pipeline>`` call does it: ``parse_config`` ->
``run_experiment`` -> ``emit_results(record, "csv")``, each invocation
building its own problem. With ``trace`` set, the invocations run under the
span wrappers and the spans are written to ``spans_path`` when the round
ends.

Run as ``python3 -m perfbench.child`` with ``src`` and the repository root on
``PYTHONPATH``; ``perfbench/run.py`` does this.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path


def _versions() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas_version}


def _setup(spec: dict) -> tuple[float, object]:
    t0 = time.perf_counter()
    import contraction_lab
    from contraction_lab.config import build_problem

    config = contraction_lab.parse_config(spec["config"]).with_master_seed(spec["seed"])
    problem = build_problem(config)
    problem.whitened_forward
    problem.whitened_gram
    return time.perf_counter() - t0, config


def _invoke(spec: dict, pipeline: str, rec) -> dict:
    from contraction_lab import emit_results, parse_config, run_experiment

    span = rec.span if rec is not None else (lambda name, root=False: nullcontext())
    result = {"pipeline": pipeline}
    t0 = time.perf_counter()
    try:
        with span("runner.pipeline", root=True):
            with span("config.parse"):
                config = parse_config(spec["config"]).with_master_seed(spec["seed"])
            with span("runner.run"):
                record = run_experiment(config, pipelines=[pipeline], workers=spec["workers"])
            with span("runner.emit"):
                emit_results(record, "csv", Path(spec["out_dir"]) / pipeline)
    except Exception as exc:  # noqa: BLE001 - a failed invocation is a result
        result["error"] = f"{type(exc).__name__}: {exc}"
    result["invocation_s"] = time.perf_counter() - t0
    return result


def _theory_xi(config) -> float:
    from contraction_lab import theory_rates
    from contraction_lab.config import build_theory_params

    return theory_rates(build_theory_params(config)).xi_exponent


def main() -> int:
    spec = json.loads(sys.stdin.read())
    src = Path(spec["root"]) / "src"
    setup_s, config = _setup(spec)
    import contraction_lab

    if Path(contraction_lab.__file__).resolve().parent.parent != src.resolve():
        print(f"contraction_lab imported from {contraction_lab.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    out = {"setup_s": setup_s, "config_digest": config.digest,
           "n_dim": config.data["problem"]["n_dim"], "n_grid": config.run["n_grid"],
           "mc": config.run["mc"], "theory_xi": _theory_xi(config), "versions": _versions(),
           "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS",
                                                           "OMP_NUM_THREADS")}}
    rec = saved = None
    if spec["trace"]:
        from perfbench import spans, wrap

        before = [(owner, attr, vars(owner)[attr]) for owner, attr in wrap.targets()]
        rec = spans.Recorder(spec["run_id"])
        saved = wrap.install(rec)
    try:
        out["invocations"] = [_invoke(spec, p, rec) for p in spec["pipelines"]]
    finally:
        if saved is not None:
            wrap.uninstall(saved)
            out["restored"] = all(vars(owner)[attr] is orig for owner, attr, orig in before)
            rec.write(spec["spans_path"])
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
