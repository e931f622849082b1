#!/usr/bin/env python3
"""Closed-loop benchmark of the contraction-lab CLI pipelines.

    python3 perfbench/run.py --workload ratefit-512-w1 --seed 1 --seconds 20 --trace 0

One client runs one workload at a time. A round is one fresh Python process
that sets up once and then invokes each of the workload's pipelines the way
one ``contraction-lab <pipeline>`` call does; rounds repeat until the next
one would overrun ``--seconds`` (at least one round). Every invocation's
CSV output is checked. ``--trace 0`` reports the end-to-end metrics of
untraced rounds; ``--trace 1`` alternates untraced and traced rounds and
reports per-layer metrics and the tracing overhead. The last line of
standard output is one JSON object; the full metric table, the environment
and the CSV digests go to ``.bench_out/results/``, with the recorded spans of
a traced run beside them.

``--roadmap-table`` instead runs ``rate-fit`` and the other nine pipelines
once each at the default configuration and prints the ROADMAP baseline table.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import checks, metrics  # noqa: E402

# BLAS runs single-threaded in every child, so ``workers`` is the only
# source of parallelism.
BLAS_THREADS = 1
BLAS_ENV = {var: str(BLAS_THREADS) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                               "MKL_NUM_THREADS")}
DEFAULT_SEED = 20240810
MIN_SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 150

BANDED_512 = {"problem": {"n_dim": 512, "coupling": {"kind": "banded"}}}
DENSE_1024 = {"problem": {"n_dim": 1024,
                          "prior": {"family": "hilbert_scale", "t": 1.0, "l": 2.0},
                          "noise": {"kind": "colored", "r": 0.5}},
              "run": {"y_replicates": 10}}
SWEEP = ("simulate", "posterior", "check", "gn", "smallball", "minmax", "hs",
         "concentration", "findim")


@dataclass(frozen=True)
class Workload:
    config: dict
    pipelines: tuple[str, ...]
    workers: int
    # Worker count of one extra, untimed invocation whose CSV bytes must equal
    # those of every timed round.
    compare_workers: int | None = None


WORKLOADS = {
    "ratefit-512-w1": Workload(BANDED_512, ("rate-fit",), 1, compare_workers=2),
    "ratefit-512-w2": Workload(BANDED_512, ("rate-fit",), 2),
    "sweep-512": Workload(BANDED_512, SWEEP, 1),
    "dense-1024": Workload(DENSE_1024, ("posterior", "rate-fit"), 1),
}


class Bench:
    """Spawns the round processes of one benchmark run and keeps their results."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.env = {**os.environ, **BLAS_ENV, "PYTHONPATH": f"{ROOT / 'src'}{os.pathsep}{ROOT}"}
        self.invocations: list[dict] = []
        self.setup_samples: list[float] = []
        self.first: dict = {}
        self._serial = 0

    def round(self, traced: bool, pipelines=None, workers=None) -> dict:
        """Run the pipelines in one fresh process; returns the process's result
        with its checked invocations."""
        pipelines = self.workload.pipelines if pipelines is None else pipelines
        workers = self.workload.workers if workers is None else workers
        self._serial += 1
        out_dir = self.work / f"round{self._serial}"
        spans_path = self.work / f"spans{self._serial}.json"
        spec = {"root": str(ROOT), "config": json.dumps(self.workload.config),
                "seed": self.seed, "pipelines": list(pipelines), "workers": workers,
                "trace": traced, "run_id": f"{os.getpid()}-{self._serial}",
                "out_dir": str(out_dir), "spans_path": str(spans_path)}
        try:
            proc = subprocess.run([sys.executable, "-m", "perfbench.child"],
                                  input=json.dumps(spec), capture_output=True, text=True,
                                  cwd=ROOT, env=self.env, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            res = {"error": f"timed out after {CHILD_TIMEOUT_S} s"}
        else:
            if proc.returncode == 0:
                res = json.loads(proc.stdout.strip().splitlines()[-1])
            else:
                res = {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
        if "setup_s" in res:
            self.setup_samples.append(res["setup_s"])
            self.first = self.first or res
        invocations = res.setdefault("invocations", [])
        if "error" in res:  # the process died: every pipeline of the round failed
            invocations[:] = [{"pipeline": p, "error": res["error"]} for p in pipelines]
        for inv in invocations:
            inv["workers"] = workers
            self._check(inv, out_dir / inv["pipeline"], res)
        self.invocations += invocations
        if traced and spans_path.exists():
            res["spans"] = json.loads(spans_path.read_text())
        shutil.rmtree(out_dir, ignore_errors=True)
        spans_path.unlink(missing_ok=True)
        return res

    def _check(self, inv: dict, out_dir: Path, res: dict) -> None:
        problems = []
        if "error" in inv:
            problems.append(f"{inv['pipeline']}: {inv['error']}")
        else:
            if res.get("restored") is False:
                problems.append(f"{inv['pipeline']}: traced bindings not restored")
            problems += checks.check_invocation(inv["pipeline"], out_dir, res["n_dim"],
                                                res["n_grid"], res["theory_xi"])
            inv["csv_sha256"] = checks.csv_digest(out_dir)
            inv["bytes_written"] = sum(p.stat().st_size for p in out_dir.iterdir())
        inv["problems"] = problems


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _wall(rnd: dict) -> float:
    return sum(inv.get("invocation_s", 0.0) for inv in rnd["invocations"])


def measure(bench: Bench, seconds: float, trace: bool) -> tuple[list, list]:
    """Untraced rounds, and with ``trace`` one traced round after each, until
    the next round (or pair) would end after ``seconds``."""
    plain, traced = [], []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        plain.append(bench.round(traced=False))
        if trace:
            traced.append(bench.round(traced=True))
        now = time.monotonic()
        if now - start + (now - began) > seconds:
            return plain, traced


def pipeline_times(rnd: dict) -> dict:
    out = {}
    for metric, (_, group) in metrics.PIPELINE_TIMES.items():
        hits = [inv.get("invocation_s", 0.0) for inv in rnd["invocations"]
                if inv["pipeline"] in group]
        if hits:
            out[metric] = sum(hits)
    return out


def compute(bench: Bench, plain: list, traced: list) -> dict:
    out = {"setup_s": _median(bench.setup_samples),
           "wall_s": _median([_wall(r) for r in plain]),
           "peak_rss_mb": _median([r.get("maxrss_kb", 0) / 1024 for r in plain])}
    per_round = [pipeline_times(r) for r in plain]
    for metric in metrics.PIPELINE_TIMES:
        out[metric] = _median([t.get(metric) for t in per_round])
    failed = sum(1 for inv in bench.invocations if inv["problems"])
    out["failed_frac"] = failed / len(bench.invocations)
    if traced and bench.first:
        layer_rounds = [metrics.layer_metrics(
            r["spans"], bench.workload.workers,
            sum(inv.get("bytes_written", 0) for inv in r["invocations"]),
            bench.first["n_dim"], bench.first["mc"]) for r in traced if "spans" in r]
        for name in metrics.LAYERS:
            if name != "trace.overhead_frac":
                out[name] = _median([lr[name] for lr in layer_rounds])
        untraced_wall = out["wall_s"]
        out["trace.overhead_frac"] = (_median([_wall(r) for r in traced]) - untraced_wall) / untraced_wall
    return out


def environment(bench: Bench, seed: int, workload_name: str) -> dict:
    first = bench.first
    return {"workload": workload_name, "seed": seed, "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS, "blas_env": first.get("blas_threads"),
            "workers": bench.workload.workers, "n_dim": first.get("n_dim"),
            "config_digest": first.get("config_digest"), **first.get("versions", {})}


def csv_digests(bench: Bench) -> dict:
    """Pipeline -> the distinct SHA-256 digests of its CSVs across timed rounds."""
    out: dict[str, list[str]] = {}
    for inv in bench.invocations:
        if "csv_sha256" in inv and inv["workers"] == bench.workload.workers:
            seen = out.setdefault(inv["pipeline"], [])
            if inv["csv_sha256"] not in seen:
                seen.append(inv["csv_sha256"])
    return out


def _units() -> dict:
    units = dict(metrics.END_TO_END)
    units.update({k: unit for k, (unit, _) in metrics.PIPELINE_TIMES.items()})
    units.update(metrics.LAYERS)
    return units


def run_workload(args, work: Path) -> int:
    workload = WORKLOADS[args.workload]
    bench = Bench(workload, args.seed, work)
    plain, traced = measure(bench, args.seconds, args.trace == 1)
    while args.trace == 0 and len(bench.setup_samples) < MIN_SETUP_SAMPLES:
        bench.round(traced=False, pipelines=())
    if workload.compare_workers is not None:
        ref = bench.round(traced=False, workers=workload.compare_workers)["invocations"][0]
        for inv in bench.invocations:
            if inv is not ref and inv.get("csv_sha256") != ref.get("csv_sha256"):
                inv["problems"].append(f"CSV bytes differ between workers={inv['workers']} "
                                       f"and workers={workload.compare_workers}")
    values = compute(bench, plain, traced)

    failed = sum(1 for inv in bench.invocations if inv["problems"])
    units = _units()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    headline = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    report = {
        "environment": environment(bench, args.seed, args.workload),
        "trace": args.trace, "seconds": args.seconds,
        "rounds": {"untraced": len(plain), "traced": len(traced)},
        "setup_samples": bench.setup_samples,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        "csv_sha256": csv_digests(bench),
        "problems": [p for inv in bench.invocations for p in inv["problems"]],
        "attempted": len(bench.invocations), "failed": failed,
    }
    results = ROOT / ".bench_out" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S")
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    if traced:
        path.with_suffix(".spans.json").write_text(
            json.dumps([r["spans"] for r in traced if "spans" in r]) + "\n")

    for problem in report["problems"]:
        print(f"problem: {problem}")
    for name, metric in report["metrics"].items():
        if metric["value"] is not None:
            print(f"{name:34s} {metric['value']:.6g} {metric['unit']}")
    print(f"report: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": len(bench.invocations),
                      "failed": failed,
                      "metrics": {name: {"value": values[name], "unit": units[name]}
                                  for name in headline}}))
    return 0


def roadmap_table(args, work: Path) -> int:
    """Times of every pipeline on the default config, one invocation each."""
    times = {}
    for name in ("ratefit-512-w1", "sweep-512"):
        bench = Bench(WORKLOADS[name], args.seed, work)
        for inv in bench.round(traced=False)["invocations"]:
            if inv["problems"]:
                print(f"problem: {inv['problems']}", file=sys.stderr)
                return 1
            times[inv["pipeline"]] = inv["invocation_s"]
    print("| Pipeline | Time |\n| --- | --- |")
    for pipeline, seconds in sorted(times.items(), key=lambda kv: -kv[1]):
        print(f"| {pipeline} | {seconds:.2f} s |")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--roadmap-table", action="store_true")
    args = parser.parse_args(argv)
    if not args.roadmap_table and args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "contraction_lab" / "__init__.py").is_file():
        print(f"error: no contraction_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workers = 1 if args.roadmap_table else WORKLOADS[args.workload].workers
    nproc = len(os.sched_getaffinity(0))
    if workers * BLAS_THREADS > nproc:
        print(f"error: {workers} workers x {BLAS_THREADS} BLAS threads exceeds nproc={nproc}",
              file=sys.stderr)
        return 2
    # On SIGTERM, unwind: subprocess.run kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = ROOT / ".bench_out" / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return roadmap_table(args, work) if args.roadmap_table else run_workload(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
