"""Module layering: no module of the package reaches into a sibling's
private names, whether by ``from .sibling import _name`` or by
``sibling._name`` attribute access; every public name has a caller; only
listed functions draw random numbers; and the package's import graph leaves
out the slow-to-import parts of scipy."""

import ast
import json
import os
import re
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


README = SRC.parents[1] / "README.md"

# Public names that only tests call, each the oracle of a test.
TEST_ORACLES = {
    "band_window": "the band pattern banded-coupling entries are checked against",
    "OperatorSpectrum.envelope_bounds": "the family envelope spectra are checked against",
}


class _Uses(ast.NodeVisitor):
    """The definitions of one module, each with the names used inside it.

    A definition is a module-level function or class, or a method of a
    class, keyed ``Class.method``; a function defined inside a function is
    part of it. Names used outside every definition are keyed ``""``."""

    def __init__(self):
        self.owner = ""
        self.classes = set()
        self.used = {"": set()}

    def _define(self, node, is_class: bool):
        if self.owner and self.owner not in self.classes:
            self.generic_visit(node)
            return
        for decorator in node.decorator_list:
            self.visit(decorator)
        parent = self.owner
        self.owner = f"{parent}.{node.name}" if parent else node.name
        if is_class:
            self.classes.add(self.owner)
        self.used.setdefault(self.owner, set())
        for child in ast.iter_child_nodes(node):
            if child not in node.decorator_list:
                self.visit(child)
        self.owner = parent

    def visit_FunctionDef(self, node):
        self._define(node, False)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node):
        self._define(node, True)

    def visit_Name(self, node):
        self.used[self.owner].add(node.id)

    def visit_Attribute(self, node):
        self.used[self.owner].add(node.attr)
        self.generic_visit(node)


def _live(qualname: str, live: set[str]) -> bool:
    *owner, name = qualname.split(".")
    if name.startswith("__") and name.endswith("__"):
        return bool(owner) and owner[-1] in live  # called implicitly on its class
    return name in live or qualname in live


def unreached(sources: dict[str, str], used_elsewhere: set[str]) -> list[str]:
    """Public definitions of the module ``sources`` that no live code uses.

    Module-level code and the names in ``used_elsewhere`` are live. A
    definition becomes live once live code uses its name (a method: any
    attribute of that name), and then the names it uses are live too, so
    code used only by dead code is dead. Imports use nothing.
    """
    pending, live = {}, set(used_elsewhere)
    for module, source in sources.items():
        scan = _Uses()
        scan.visit(ast.parse(source))
        live |= scan.used.pop("")
        pending.update({(module, qualname): used for qualname, used in scan.used.items()})
    while ready := [key for key in pending if _live(key[1], live)]:
        for key in ready:
            live |= pending.pop(key)
    return sorted(qualname for _, qualname in pending
                  if not any(part.startswith("_") for part in qualname.split(".")))


def readme_names(text: str) -> set[str]:
    """Identifiers in a Markdown text's code: fenced blocks and inline spans."""
    fence = re.compile(r"^```\w*\n(.*?)^```", re.M | re.S)
    code = fence.findall(text) + re.findall(r"`([^`\n]+)`", fence.sub("", text))
    return {name for chunk in code for name in re.findall(r"[A-Za-z_]\w*", chunk)}


def test_every_public_name_has_a_caller():
    """Every public function, class, method and property in ``src/`` is used
    by live code in ``src/``, by README's code, or is a listed test oracle;
    anything else is dead surface."""
    sources = {path.stem: path.read_text() for path in MODULES}
    assert unreached(sources, readme_names(README.read_text()) | set(TEST_ORACLES)) == []


def test_every_test_oracle_is_defined():
    """An oracle deleted from ``src/`` leaves the allow-list too."""
    defined = set()
    for path in MODULES:
        scan = _Uses()
        scan.visit(ast.parse(path.read_text()))
        defined |= scan.used.keys()
    assert set(TEST_ORACLES) <= defined


def test_caller_scan_follows_live_code_only():
    source = ("def used():\n    return Helper()\n"
              "class Helper:\n"
              "    def __post_init__(self):\n        self.prop\n"
              "    @property\n    def prop(self):\n        return 1\n"
              "    def unused_method(self):\n        return 2\n"
              "def dead():\n    return Orphan()\n"
              "class Orphan:\n    pass\n"
              "def recursive():\n    return recursive()\n"
              "def outer():\n    def inner():\n        return 0\n    return inner\n"
              "def documented():\n    pass\n"
              "def _private():\n    pass\n"
              "TABLE = {'simulate': used}\n")
    sources = {"a": source, "b": "from .a import dead\nprint(outer)\n"}
    assert unreached(sources, {"documented"}) == ["Helper.unused_method", "Orphan", "dead",
                                                  "recursive"]
    assert readme_names("see `cl.quadform.log_cdf` and\n```python\nfit(x)\n```\n") == \
        {"cl", "quadform", "log_cdf", "fit", "x"}


# ``quadform``'s whole public surface: one tail evaluator (``tails`` and its
# ``Tails``), the rigorous lower bound beside it, the quantile solve, and the
# block-diagonal type with its spectrum. A second tail entry fails the test.
QUADFORM_PUBLIC = {"BlockDiagonal", "block_spectrum", "quantiles", "tails", "Tails",
                   "log_cdf_product", "EIGENVALUE_RTOL"}


def public_definitions(source: str) -> set[str]:
    """Public names a module defines at its top level: functions, classes
    and assigned names; imports define none."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return {name for name in names if not name.startswith("_")}


def test_quadform_public_names_are_pinned():
    assert public_definitions((SRC / "quadform.py").read_text()) == QUADFORM_PUBLIC


def test_public_definition_scan():
    source = ("import math\nfrom numpy import linalg\nLIMIT = 1.0\n_TOL = 2.0\n"
              "WIDTH: int = 3\ndef tails():\n    inner = 1\n    return inner\n"
              "def _solve():\n    pass\nclass Tails:\n    field = 0\n")
    assert public_definitions(source) == {"LIMIT", "WIDTH", "tails", "Tails"}


# A generator's sampling methods.
DRAW_METHODS = ("standard_normal", "normal", "uniform", "integers", "random", "choice",
                "permutation", "shuffle")

# Every function in ``src/`` that draws from a random generator, each with
# the reason it may: data and seeded builds, and the samplers that no
# pipeline calls, kept as test oracles. Moving a sampler to ``tests/``
# removes its line.
DRAW_SITES = {
    "spectral.simulate_data": "data: the draws of simulate and posterior",
    "rates._replicate_distances": "data: one rate-fit replicate",
    "rates.simulate_finite_dim": "data: one findim replicate",
    "spectral._banded_blocks": "build: a banded coupling's seeded block sizes",
    "spectral._haar_orthogonal": "build: a banded coupling's Haar-random blocks",
    "spectral.random_spd": "build: the seeded operator of colored noise or a Hilbert prior",
    "posterior.posterior_exceedance_grid": "sampler: posterior exceedance, a test oracle kept "
                                           "in src/ while perfbench's wrappers bind it",
}


def draw_sites(sources: dict[str, str]) -> set[str]:
    """``module.function`` of every call of a ``DRAW_METHODS`` method in the
    module ``sources``: the enclosing module-level function, or
    ``Class.method``; a call outside every function is keyed by its module."""
    found = set()

    def walk(node, owner: str, in_function: bool):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef) and not in_function:
                walk(child, f"{owner}.{child.name}", False)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and not in_function:
                walk(child, f"{owner}.{child.name}", True)
            else:
                if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                        and child.func.attr in DRAW_METHODS):
                    found.add(owner)
                walk(child, owner, in_function)

    for module, source in sources.items():
        walk(ast.parse(source), module, False)
    return found


def test_only_listed_functions_draw():
    """Every random draw in ``src/`` is in a function of ``DRAW_SITES``,
    and every listed function still draws."""
    assert draw_sites({path.stem: path.read_text() for path in MODULES}) == set(DRAW_SITES)


def test_draw_scan_keys_by_enclosing_function():
    source = ("import numpy as np\n"
              "def data(rng):\n    return rng.standard_normal(3)\n"
              "def outer(rng):\n    def inner():\n        return rng.choice(4)\n    return inner\n"
              "class Prior:\n    def sample(self, rng):\n        return rng.uniform(size=2)\n"
              "def exact(x):\n    return np.sqrt(x)\n"
              "FIXED = np.random.default_rng(0).integers(5)\n")
    assert draw_sites({"m": source}) == {"m.data", "m.outer", "m.Prior.sample", "m"}


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
