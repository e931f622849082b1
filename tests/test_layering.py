"""Module layering: no module of the package reaches into a sibling's
private names, whether by ``from .sibling import _name`` or by
``sibling._name`` attribute access; every public function of ``quadform``
has a caller in another module; and the package's import graph leaves out
the slow-to-import parts of scipy."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from contraction_lab.config import PIPELINES

PACKAGE = "contraction_lab"
SRC = Path(__file__).resolve().parents[1] / "src" / PACKAGE
MODULES = sorted(SRC.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _sibling(module: str | None, level: int) -> str | None:
    """Sibling module an import names, or None when it names no sibling."""
    if level == 1:
        return module
    if level == 0 and module and module.startswith(PACKAGE + "."):
        return module[len(PACKAGE) + 1:]
    return None


def private_accesses(source: str) -> list[str]:
    """Every sibling-private name the module source imports or touches."""
    tree = ast.parse(source)
    found, module_aliases = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            sibling = _sibling(node.module, node.level)
            package_itself = sibling is None and (
                node.level == 1 or (node.level == 0 and node.module == PACKAGE))
            for alias in node.names:
                if package_itself:
                    module_aliases.add(alias.asname or alias.name)
                if (sibling or package_itself) and _private(alias.name):
                    found.append(f"line {node.lineno}: import {alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith(PACKAGE + ".") and alias.asname:
                    module_aliases.add(alias.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name) and node.value.id in module_aliases):
            found.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
    return found


def test_scan_finds_the_package():
    assert {"posterior.py", "rates.py", "runner.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_sibling_private_access(path):
    assert private_accesses(path.read_text()) == []


@pytest.mark.parametrize("source", [
    "from .posterior import _covariance_factor\n",
    "from contraction_lab.spectral import as_vector, _scale_rows\n",
    "from . import posterior\nposterior._covariance_factor(None, 1.0)\n",
    "import contraction_lab.posterior as post\npost._posterior_mean\n",
])
def test_guard_catches_private_access(source):
    assert len(private_accesses(source)) == 1


def test_guard_allows_public_and_own_names():
    source = ("from . import posterior\nfrom .spectral import as_vector\n"
              "def _own():\n    return posterior.factor_posterior\n"
              "_own()\nposterior.__name__\n")
    assert private_accesses(source) == []


def public_functions(source: str) -> set[str]:
    """Names of the module-level public functions a module source defines."""
    return {node.name for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}


def sibling_calls(source: str, sibling: str) -> set[str]:
    """Names of ``sibling``'s functions that a module source calls, as
    ``sibling.name(...)`` after importing the module or as ``name(...)``
    after ``from .sibling import name``."""
    tree = ast.parse(source)
    module_aliases, imported = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names_sibling = _sibling(node.module, node.level) == sibling
            package_itself = _sibling(node.module, node.level) is None and (
                node.level == 1 or (node.level == 0 and node.module == PACKAGE))
            for alias in node.names:
                if package_itself and alias.name == sibling:
                    module_aliases.add(alias.asname or alias.name)
                elif names_sibling:
                    imported[alias.asname or alias.name] = alias.name
    called = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                and func.value.id in module_aliases):
            called.add(func.attr)
        elif isinstance(func, ast.Name) and func.id in imported:
            called.add(imported[func.id])
    return called


def test_every_public_quadform_function_has_a_caller_in_src():
    """``quadform`` exposes one batched entry point per question; a public
    function that no other module calls is dead surface."""
    defined = public_functions((SRC / "quadform.py").read_text())
    called = set().union(*(sibling_calls(path.read_text(), "quadform")
                           for path in MODULES if path.name != "quadform.py"))
    assert defined and sorted(defined - called) == []


def test_caller_scan_reads_both_import_forms():
    source = ("from . import quadform as qf\nfrom .quadform import spectrum as spec\n"
              "qf.quantiles(0.1, lam, c2)\nspec(cov, d, 'x')\nqf.log_cdf\n")
    assert sibling_calls(source, "quadform") == {"quantiles", "spectrum"}


# Runs in a fresh interpreter: the test process itself may have imported
# scipy.stats already. The pipelines run and write their CSVs, so that a
# function-local import anywhere on a pipeline's path is caught as well.
IMPORT_GRAPH_SCRIPT = """
import json, sys, tempfile
import contraction_lab as cl

problem, pipelines = json.loads(sys.argv[1]), sys.argv[2:]
config = cl.parse_config(json.dumps({
    "problem": problem,
    "run": {"n_grid": [100, 1000, 10000, 100000], "mc": 300, "y_replicates": 3}}))
record = cl.run_experiment(config, pipelines=pipelines)
with tempfile.TemporaryDirectory() as out:
    written = cl.emit_results(record, "csv", out)
print(json.dumps({"tables": len(record.tables), "csv": len(written),
                  "failures": record.failures,
                  "loaded": sorted(m for m in sys.modules
                                   if m.split(".")[:2] in (["scipy", "stats"],
                                                           ["scipy", "optimize"]))}))
"""


@pytest.mark.parametrize("problem, pipelines", [
    ({"n_dim": 12, "coupling": {"kind": "banded"}}, list(PIPELINES)),
    # the dense path: the prior's eigensolve, the noise's triangular factor
    ({"n_dim": 12, "prior": {"family": "hilbert_scale", "t": 1.0, "l": 2.0},
      "noise": {"kind": "colored", "r": 0.5}}, ["simulate", "posterior", "rate-fit"]),
], ids=["banded", "colored-hilbert"])
def test_pipelines_never_import_scipy_stats_or_optimize(problem, pipelines):
    """``scipy.stats`` and ``scipy.optimize`` cost about 0.75 s of every
    process start; the package needs neither, at import or in any pipeline."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", IMPORT_GRAPH_SCRIPT, json.dumps(problem),
                           *pipelines], env=env, capture_output=True, text=True,
                          timeout=300, check=True)
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["tables"] >= len(pipelines) and out["csv"] >= len(pipelines)
    assert out["failures"] == {}
    assert out["loaded"] == []
