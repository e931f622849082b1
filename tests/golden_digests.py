"""SHA-256 digests of the CLI's output files on pinned configs.

``golden_digests.json`` beside this file holds the digest of every CSV, and
of ``metadata.json`` without its ``created_at`` line, that the CLI writes for

- all ten pipelines on the banded N = 512 default at seeds 20240810 and
  90817, and
- ``posterior`` and ``rate-fit`` on a dense N = 64 config (Hilbert-scale
  prior, colored noise) at the default seed,

keyed by the numpy, scipy and BLAS builds that produced them. Every run
happens in one child process with ``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` set to 1, because dense bytes
depend on the BLAS thread count.

A change that moves output bytes regenerates the table and states each moved
column::

    PYTHONPATH=src python tests/golden_digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

TABLE = Path(__file__).with_name("golden_digests.json")
SRC = Path(__file__).resolve().parents[1] / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

PIPELINES = ("simulate", "posterior", "rate-fit", "check", "gn", "smallball", "minmax", "hs",
             "concentration", "findim")
RUNS = {  # name -> (config, seeds, pipelines)
    "banded-512": ({"problem": {"n_dim": 512, "coupling": {"kind": "banded"}}},
                   (20240810, 90817), PIPELINES),
    "dense-64": ({"problem": {"n_dim": 64,
                              "prior": {"family": "hilbert_scale", "t": 1.0, "l": 2.0},
                              "noise": {"kind": "colored", "r": 0.5}}},
                 (20240810,), ("posterior", "rate-fit")),
}
_CREATED_AT = re.compile(rb'^\s*"created_at": .*\n', re.M)


def environment() -> dict:
    """The builds the digests depend on: numpy and scipy versions, and the
    BLAS each links (scipy's LAPACK calls go through its own)."""
    def blas(config):
        dep = config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep['name']} {dep['version']}"
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "numpy_blas": blas(np.show_config), "scipy_blas": blas(scipy.show_config)}


def file_digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "metadata.json":
        data = _CREATED_AT.sub(b"", data)
    return hashlib.sha256(data).hexdigest()


def compute() -> dict:
    """Run every pinned invocation through the CLI in this process and
    digest its files: ``{"<run>/<seed>/<pipeline>/<file>": sha256}``."""
    from contraction_lab.cli import main

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (config, seeds, pipelines) in RUNS.items():
            path = Path(tmp, f"{name}.json")
            path.write_text(json.dumps(config))
            for seed in seeds:
                for pipeline in pipelines:
                    out_dir = Path(tmp, name, str(seed), pipeline)
                    with contextlib.redirect_stdout(io.StringIO()):
                        code = main([pipeline, "--config", str(path), "--seed", str(seed),
                                     "--out", str(out_dir)])
                    if code != 0:
                        raise RuntimeError(f"{pipeline} on {name} at seed {seed} exited {code}")
                    for file in sorted(out_dir.iterdir()):
                        out[f"{name}/{seed}/{pipeline}/{file.name}"] = file_digest(file)
    return out


def run_pinned() -> dict:
    """``{"environment", "digests"}`` from a child process on one BLAS thread."""
    env = dict(os.environ, **{var: "1" for var in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, __file__, "--child"], env=env, check=True,
                          capture_output=True, text=True)
    return json.loads(done.stdout)


if __name__ == "__main__":
    if sys.argv[1:] == ["--child"]:
        json.dump({"environment": environment(), "digests": compute()}, sys.stdout)
    else:
        TABLE.write_text(json.dumps(run_pinned(), indent=2, sort_keys=True) + "\n")
        print(TABLE)
