"""Config validation, digesting, pipeline orchestration, emission, CLI."""

import json
import runpy
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import contraction_lab as cl
from contraction_lab.cli import main as cli_main
from contraction_lab.config import (
    build_findim,
    build_plan,
    build_problem,
    build_theory_params,
    build_truth,
)
from contraction_lab.errors import (
    ConfigInvariantError,
    ConfigSyntaxError,
    NumericalError,
    UnknownConfigKeyError,
)
from contraction_lab import assumptions as assumptions_module
from contraction_lab import posterior as posterior_module
from contraction_lab import quadform
from contraction_lab import rates as rates_module
from contraction_lab import runner as runner_module
from contraction_lab import spectral
from contraction_lab.runner import EXPLORATORY_LABEL

from block_reference import zero_pattern_blocks

SMALL_CONFIG = """
problem:
  n_dim: 12
  spectrum: {family: mild, alpha: 1.0}
  coupling: {kind: identity}
  prior: {family: power, delta: 1.0}
truth: {gamma: 2.0}
run:
  pipelines: [gn]
  n_grid: [100, 1000, 10000, 100000]
  mc: 300
  y_replicates: 4
  master_seed: 99
  k_max: 6
outputs:
  formats: [csv]
"""


class TestParseConfig:
    def test_minimal_config_fills_defaults(self):
        config = cl.parse_config("problem: {spectrum: {family: mild, alpha: 1.0}}")
        assert config.data["problem"]["n_dim"] == 512
        assert config.data["run"]["mc"] == 2000
        assert config.data["run"]["y_replicates"] == 50
        assert config.data["run"]["delta_level"] == 0.1
        assert config.data["plan"] == "auto"

    def test_unsorted_grid_names_field(self):
        with pytest.raises(ConfigInvariantError) as err:
            cl.parse_config("run: {n_grid: [100, 50, 1000, 10000]}")
        assert "run.n_grid" in str(err.value)

    @pytest.mark.parametrize("key", ["mc", "y_replicates", "k_max", "j_max", "plug_k", "plug_r"])
    def test_nonpositive_count_names_its_own_key(self, key):
        """A count below 1 is a config error naming its key, never a silent
        default in its place or an empty table."""
        with pytest.raises(ConfigInvariantError) as err:
            cl.parse_config(f"run: {{{key}: 0}}")
        assert err.value.field == f"run.{key}"

    @pytest.mark.parametrize("doc, field", [
        ("run: {j_max: 40}", "run.j_max"),
        ("run: {plug_k: 20}", "run.plug_k"),
        ("run: {plug_r: 30}", "run.plug_r"),
        ("run: {r_values: [6, 40, inf]}", "run.r_values"),
        ("run: {r_values: [0]}", "run.r_values"),
        ("plan: {eps_n: 0.5, xi_n: 0.5, k_n: 40}", "plan.k_n"),
        ("plan: {eps_n: 0.5, xi_n: 0.5, k_n: 4, r_n: 13}", "plan.r_n"),
    ])
    def test_coordinate_count_outside_n_dim_names_its_own_key(self, doc, field):
        """A count that indexes the N coordinates is a config error outside
        [1, N], not a pipeline failure; ``k_max`` alone is an upper limit,
        clipped to N."""
        with pytest.raises(ConfigInvariantError) as err:
            cl.parse_config("problem: {n_dim: 12}\n" + doc)
        assert err.value.field == field
        cl.parse_config("problem: {n_dim: 12}\n"
                        "run: {k_max: 40, j_max: 12, plug_k: 12, plug_r: 12, r_values: [1, 12, inf]}\n"
                        "plan: {eps_n: 0.5, xi_n: 0.5, k_n: 12, r_n: 12}")

    @pytest.mark.parametrize("key", ["n_grid", "xi_grid", "x_grid", "eps_grid"])
    @pytest.mark.parametrize("bad", [".inf", ".nan"])
    def test_non_finite_grid_entry_names_its_key(self, key, bad):
        """Every comparison with NaN is False and ``.inf`` is positive and
        increasing, so each grid is checked for finite entries: a config
        error naming the key, not a traceback or a row of NaN."""
        with pytest.raises(ConfigInvariantError, match="finite") as err:
            cl.parse_config(f"run: {{{key}: [0.5, 100, {bad}]}}")
        assert err.value.field == f"run.{key}"

    @pytest.mark.parametrize("doc, field", [
        ("run: {hs_target: reflection}", "run.hs_target"),
        ("run: {hs_target: exp_pair}", "run.hs_target"),
        ("findim: {p: 0}", "findim.p"),
        ("findim: {p: 2, q: 1}", "findim.q"),
        ("findim: {p: 2, q: 3}", "findim.g"),
        ("findim: {p: 1, q: 2, g: [[0], [0]]}", "findim.g"),
        ("findim: {g: [[1, 2], [3]]}", "findim.g"),
        ("findim: {m_const: 0}", "findim.m_const"),
        ("findim: {mixture_weights: [1.0]}", "findim.mixture_means"),
        ("findim: {mixture_weights: [0.5, 0.6], mixture_means: [[0], [1]], "
         "mixture_sds: [[1], [1]]}", "findim.mixture_weights"),
        ("findim: {mixture_weights: [0.5, 0.5], mixture_means: [[0, 1], [1, 0]], "
         "mixture_sds: [[1, 1], [1, 1]]}", "findim.mixture_means"),
        ("findim: {mixture_weights: [0.5, 0.5], mixture_means: [[0], [1]], "
         "mixture_sds: [[1], [-1]]}", "findim.mixture_sds"),
        ("findim: {m_const: .nan}", "findim.m_const"),
        ("findim: {m_const: .inf}", "findim.m_const"),
        ("findim: {g: [[.inf]]}", "findim.g"),
        ("findim: {p: 2, q: 2, g: [[1, 0], [.nan, 1]]}", "findim.g"),
        ("findim: {mixture_weights: [.nan, 1.0], mixture_means: [[0], [1]], "
         "mixture_sds: [[1], [1]]}", "findim.mixture_weights"),
        ("findim: {mixture_weights: [0.5, 0.5], mixture_means: [[.nan], [1]], "
         "mixture_sds: [[1], [1]]}", "findim.mixture_means"),
        ("findim: {mixture_weights: [0.5, 0.5], mixture_means: [[0], [1]], "
         "mixture_sds: [[1], [.nan]]}", "findim.mixture_sds"),
    ])
    def test_hs_target_and_findim_checked_at_parse_time(self, doc, field):
        """Values the hs and findim pipelines would reject are config errors
        naming their key; valid ones parse."""
        with pytest.raises(ConfigInvariantError) as err:
            cl.parse_config(doc)
        assert err.value.field == field
        cl.parse_config("problem: {coupling: {kind: exp_skew, generator: [[0]]}}\n"
                        "run: {hs_target: exp_pair}\n"
                        "findim: {p: 2, q: 3, g: [[1, 0], [0, 1], [1, 1]], m_const: 2.0, "
                        "mixture_weights: [1.0], mixture_means: [[0, 0]], "
                        "mixture_sds: [[1, 2]]}")

    @pytest.mark.parametrize("doc, field", [
        *((f"plan: {{eps_n: 0.1, xi_n: 0.2, k_n: 3, {key}: {bad}}}", f"plan.{key}")
          for key in ("c", "c1", "c2", "r") for bad in (".nan", ".inf", "0")),
        ("truth: {gamma: .nan}", "truth.gamma"),
        ("truth: {gamma: 0}", "truth.gamma"),
        ("truth: {coefficients: [1.0, .nan]}", "truth.coefficients"),
    ])
    def test_plan_and_truth_values_checked_at_parse_time(self, doc, field):
        """Every comparison with NaN is False, so a NaN constant or truth
        value passed ``<= 0`` checks and reached the tables as NaN bounds
        with verdicts; each is a config error naming its key, and so is an
        infinite or zero one. (``RatePlan`` refuses a NaN ``eps_n``,
        ``xi_n`` or ``n_level`` by itself.)"""
        with pytest.raises(ConfigInvariantError) as err:
            cl.parse_config(doc)
        assert err.value.field == field
        cl.parse_config("plan: {eps_n: 0.1, xi_n: 0.2, k_n: 3, n_level: 100, "
                        "c: 2, c1: 2, c2: 2, r: 2}\ntruth: {gamma: 1.5}")

    def test_seed_override_is_validated_like_the_file(self):
        with pytest.raises(ConfigInvariantError) as err:
            cl.parse_config("").with_master_seed(-5)
        assert err.value.field == "run.master_seed"

    def test_unknown_key_suggests_spelling(self):
        with pytest.raises(UnknownConfigKeyError) as err:
            cl.parse_config("problem: {pirors: {family: power}}")
        assert err.value.suggestion == "prior"

    def test_syntax_error_carries_location(self):
        with pytest.raises(ConfigSyntaxError) as err:
            cl.parse_config("run: {n_grid: [100, 200\n")
        assert err.value.line is not None

    def test_unknown_pipeline_and_format(self):
        with pytest.raises(ConfigInvariantError):
            cl.parse_config("run: {pipelines: [warp]}")
        with pytest.raises(ConfigInvariantError):
            cl.parse_config("outputs: {formats: [xml]}")

    def test_plan_keys_checked(self):
        with pytest.raises(UnknownConfigKeyError):
            cl.parse_config("plan: {eps: 0.1}")
        with pytest.raises(UnknownConfigKeyError):
            cl.parse_config("plan: {eps_n: 0.1, xi_n: 0.2, k_n: 4, m: 1.0}")
        with pytest.raises(ConfigInvariantError):
            cl.parse_config("plan: 17")


# (problem section given on top of a valid n_dim = 4 problem, field named by the error)
BUILD_ERRORS = [
    ({"spectrum": {"family": "severe", "alpha2": 1.0, "c0": 1.0, "beta": 1.0}},
     "problem.spectrum.alpha1"),
    ({"spectrum": {"family": "severe", "alpha1": 1.0, "c0": 1.0, "beta": 1.0}},
     "problem.spectrum.alpha2"),
    ({"spectrum": {"family": "severe", "alpha1": 1.0, "alpha2": 1.0, "beta": 1.0}},
     "problem.spectrum.c0"),
    ({"spectrum": {"family": "severe", "alpha1": 1.0, "alpha2": 1.0, "c0": 1.0}},
     "problem.spectrum.beta"),
    ({"spectrum": {"family": "explicit"}}, "problem.spectrum.rho"),
    ({"spectrum": {"family": "wild"}}, "problem.spectrum.family"),
    ({"prior": {"family": "explicit"}}, "problem.prior.variances"),
    ({"prior": {"family": "hilbert_scale", "l": 1.0}}, "problem.prior.t"),
    ({"prior": {"family": "hilbert_scale", "t": 1.0}}, "problem.prior.l"),
    ({"prior": {"family": "hilbert_scale", "t": 1.0, "l": 1.0},
      "coupling": {"kind": "banded"}}, "problem.coupling.kind"),
    ({"prior": {"family": "flat"}}, "problem.prior.family"),
    ({"coupling": {"kind": "reflection"}}, "problem.coupling.v"),
    ({"coupling": {"kind": "exp_skew"}}, "problem.coupling.generator"),
    ({"coupling": {"kind": "explicit"}}, "problem.coupling.matrix"),
    ({"coupling": {"kind": "twisted"}}, "problem.coupling.kind"),
    ({"noise": {"kind": "diagonal"}}, "problem.noise.variances"),
    ({"noise": {"kind": "colored"}}, "problem.noise.r"),
    ({"noise": {"kind": "dense"}}, "problem.noise.matrix"),
    ({"noise": {"kind": "pink"}}, "problem.noise.kind"),
]


class TestBuildProblem:
    @pytest.mark.parametrize("problem, field", BUILD_ERRORS,
                             ids=[f for _, f in BUILD_ERRORS])
    def test_missing_or_unknown_kind_names_field(self, problem, field):
        config = cl.parse_config(json.dumps({"problem": {"n_dim": 4, **problem}}))
        with pytest.raises(ConfigInvariantError) as err:
            build_problem(config)
        assert err.value.field == field

    def test_dense_operators_decomposed_once(self, monkeypatch):
        """A Hilbert-scale prior with colored noise runs one eigensolve, LAPACK
        dsyevd of G^-t + K2 (it defines the coupling), and no numpy eigh;
        colored noise factors its whitening root G^-r + K1 by Cholesky and
        runs no eigensolve at all."""
        calls = []
        for owner, name in ((np.linalg, "eigh"), (np.linalg, "eigvalsh"), (np.linalg, "svd"),
                            (spectral, "dsyevd")):
            original = getattr(owner, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)
        config = cl.parse_config(json.dumps({"problem": {
            "n_dim": 16, "prior": {"family": "hilbert_scale", "t": 1.0, "l": 2.0},
            "noise": {"kind": "colored", "r": 0.5}}}))
        prob = build_problem(config)
        prob.whitened_gram
        assert calls.count("dsyevd") == 1 and "eigh" not in calls
        assert calls.count("eigvalsh") == 2  # the spectral norms of K1 and K2
        assert "svd" not in calls
        k1 = cl.random_spd(16, seed=1, scale=0.5)
        calls.clear()
        cl.colored_noise(prob.operator, 0.5, k1)
        assert calls == []

    def test_every_kind_builds(self):
        kinds = [
            {"spectrum": {"family": "severe", "alpha1": 1.0, "alpha2": 1.0, "c0": 1.0,
                          "beta": -1.0}},
            {"spectrum": {"family": "explicit", "rho": [1.0, 0.5, 0.25, 0.125]}},
            {"prior": {"family": "explicit", "variances": [1.0, 0.5, 0.25, 0.125]}},
            {"prior": {"family": "hilbert_scale", "t": 1.0, "l": 1.0}},
            {"coupling": {"kind": "banded"}},
            {"coupling": {"kind": "reflection", "v": [1.0, 0.0, 1.0, 0.0]}},
            {"coupling": {"kind": "exp_skew", "generator": (np.triu(np.ones((4, 4)), 1)
                                                        - np.tril(np.ones((4, 4)), -1)).tolist()}},
            {"coupling": {"kind": "explicit", "matrix": np.eye(4)[::-1].tolist()}},
            {"noise": {"kind": "diagonal", "variances": [1.0, 2.0, 1.0, 2.0]}},
            {"noise": {"kind": "colored", "r": 0.5}},
            {"noise": {"kind": "dense", "matrix": (2.0 * np.eye(4)).tolist()}},
        ]
        for problem in kinds:
            config = cl.parse_config(json.dumps({"problem": {"n_dim": 4, **problem}}))
            assert build_problem(config).n_dim == 4


SKEW_4 = (np.triu(np.ones((4, 4)), 1) - np.tril(np.ones((4, 4)), -1)).tolist()


class TestBuilders:
    """Config sections that reach the model objects through the builders."""

    def test_explicit_plan_with_infinite_cutoff(self):
        config = cl.parse_config("problem: {n_dim: 8}\n"
                                 "plan: {eps_n: 0.5, xi_n: 0.4, k_n: 3, r_n: inf, c2: 2.5}")
        plan = build_plan(config)
        assert (plan.eps_n, plan.xi_n, plan.k_n, plan.r_n) == (0.5, 0.4, 3, None)
        assert plan.constants == cl.RateConstants(c=1.0, c1=1.0, c2=2.5, r=1.0)
        assert plan.n_level == 1e6

    def test_explicit_finite_cutoff_is_evidence_only(self):
        config = cl.parse_config("problem: {n_dim: 8}\n"
                                 "plan: {eps_n: 0.5, xi_n: 0.5, k_n: 3, r_n: 4}\n"
                                 "run: {n_grid: [100, 1000], mc: 1000}")
        record = cl.run_experiment(config, pipelines=["check"])
        assert not record.failures, record.failures
        table = record.table("assumption_checks")
        assert table.label == "finite-r evidence only"
        assert table.provenance["plan"]["r_n"] == 4
        assert table.provenance["plan"]["n_level"] == 1000.0

    def test_colored_hilbert_scale_auto_plan(self):
        config = cl.parse_config(
            "problem: {n_dim: 16, prior: {family: hilbert_scale, t: 1.0, l: 2.0, delta: 2.5}, "
            "noise: {kind: colored, r: 0.5}}\ntruth: {gamma: 3.0}")
        params = build_theory_params(config)
        assert params == cl.TheoryParams(alpha=1.0, delta=2.5, gamma=3.0,
                                         variant=cl.Colored(r=0.5, t=1.0, l=2.0))
        assert build_plan(config) == cl.plan_from_theory(params, 1e6, 16)

    def test_truth_coefficients(self):
        config = cl.parse_config("problem: {n_dim: 3}\ntruth: {coefficients: [0.5, -1, 2]}")
        np.testing.assert_array_equal(build_truth(config), [0.5, -1.0, 2.0])
        config = cl.parse_config("problem: {n_dim: 4}\ntruth: {coefficients: [0.5, -1, 2]}")
        with pytest.raises(ConfigInvariantError) as err:
            build_truth(config)
        assert err.value.field == "truth.coefficients"

    def test_findim_mixture_keys(self):
        exp = build_findim(cl.parse_config(
            "findim: {mixture_weights: [0.25, 0.75], mixture_means: [[-2.0], [1.0]], "
            "mixture_sds: [[0.5], [2.0]], m_const: 4.0}"))
        np.testing.assert_array_equal(exp.prior.weights, [0.25, 0.75])
        np.testing.assert_array_equal(exp.prior.means, [[-2.0], [1.0]])
        np.testing.assert_array_equal(exp.prior.sds, [[0.5], [2.0]])
        assert (exp.p, exp.q, exp.m_const) == (1, 1, 4.0)

    def test_findim_above_one_dimension_is_exact(self):
        """At p >= 2 the table comes from the exact mixture posterior with
        saddlepoint component tails, and draws nothing but the data."""
        config = cl.parse_config("problem: {n_dim: 4}\n"
                                 "findim: {p: 2, q: 3, g: [[1, 0], [0, 1], [1, 1]]}\n"
                                 "run: {n_grid: [100, 1000], mc: 1000, y_replicates: 3}")
        record = cl.run_experiment(config, pipelines=["findim"])
        assert not record.failures, record.failures
        table = record.table("findim_rate")
        assert table.provenance == {"operation": "finite_dim_rate_run",
                                    "seed": config.run["master_seed"],
                                    "method": "exact-mixture", "tail": "lugannani-rice"}
        assert [row[0] for row in table.rows] == [100, 1000]
        assert all(0.0 <= row[1] <= 1.0 for row in table.rows)

    def test_findim_plane_table_falls_strictly_in_n(self):
        """``findim: {p: 2, q: 2, g: I}`` on the default n-grid: the mean
        exceedance falls strictly with n (importance sampling read 0.041,
        0.82 and 0.92 at n = 1e4 to 1e6 here)."""
        config = cl.parse_config("findim: {p: 2, q: 2, g: [[1, 0], [0, 1]]}")
        table = cl.run_experiment(config, pipelines=["findim"]).table("findim_rate")
        assert [row[0] for row in table.rows] == [100, 1000, 10000, 100000, 1000000]
        values = [row[1] for row in table.rows]
        assert all(a > b for a, b in zip(values, values[1:])), values
        assert values[-1] < 1e-15

    @pytest.mark.parametrize("coupling, target", [
        ({"kind": "reflection", "v": [1.0, 0.5, 0.25, 0.125]}, "reflection_pair"),
        ({"kind": "exp_skew", "generator": SKEW_4}, "exp_pair"),
        ({"kind": "banded"}, "gn_bound"),
    ])
    def test_hs_default_target_follows_the_coupling(self, coupling, target):
        config = cl.parse_config(json.dumps({"problem": {"n_dim": 4, "coupling": coupling}}))
        record = cl.run_experiment(config, pipelines=["hs"])
        assert not record.failures, record.failures
        rows = record.table("hs_diagnostic").rows
        assert [(row[0], row[1]) for row in rows] == [(target, 1), (target, 2), (target, 4)]


class TestDigest:
    def test_pinned_digests(self):
        """Digests are part of every output's provenance; they only change
        with the normalized config document."""
        assert cl.parse_config("").digest == (
            "3e5c4c579293397258bb4ceb6c57705f36bcac1b5d2784a30eb9edf74ba26a5d")
        config = cl.parse_config("problem: {coupling: {kind: banded}, noise: {kind: colored, "
                                 "r: 0.5}}\nplan: {eps_n: 0.1, xi_n: 0.2, k_n: 4, c2: 2.0}")
        assert config.digest == (
            "3131657d0266dd8d85be8d7dc23df81e34fba7bc30fec5c0688bd193e4b73363")

    def test_whitespace_and_order_insensitive(self):
        a = cl.parse_config("run: {mc: 700, y_replicates: 3}\nproblem: {n_dim: 8}")
        b = cl.parse_config("problem:\n  n_dim:    8\nrun:\n  y_replicates: 3\n  mc: 700\n")
        assert a.digest == b.digest

    def test_explicit_default_matches_omitted(self):
        assert cl.parse_config("run: {mc: 2000}").digest == cl.parse_config("").digest

    def test_semantic_change_changes_digest(self):
        a = cl.parse_config("run: {mc: 700}")
        b = cl.parse_config("run: {mc: 701}")
        assert a.digest != b.digest

    def test_seed_override_is_semantic(self):
        a = cl.parse_config("")
        assert a.with_master_seed(1).digest != a.digest


class TestRunExperiment:
    def test_same_config_identical_tables(self):
        config = cl.parse_config(SMALL_CONFIG)
        rec1 = cl.run_experiment(config)
        rec2 = cl.run_experiment(config)
        assert rec1.config_digest == rec2.config_digest
        assert rec1.tables == rec2.tables

    def test_single_pipeline_single_table(self):
        record = cl.run_experiment(cl.parse_config(SMALL_CONFIG))
        assert len(record.tables) == 1
        assert record.tables[0].name == "g_table"
        assert record.tables[0].config_digest == record.config_digest

    def test_severe_rate_fit_labelled_exploratory(self):
        config = cl.parse_config("""
problem:
  n_dim: 10
  spectrum: {family: severe, alpha1: 0.0, alpha2: 0.0, c0: 0.1, beta: -1.0}
run:
  pipelines: [rate-fit]
  n_grid: [100, 1000, 10000, 100000]
  mc: 200
  y_replicates: 4
  master_seed: 5
""")
        record = cl.run_experiment(config)
        assert not record.failures
        assert record.table("rate_fit").label == EXPLORATORY_LABEL

    def test_pipeline_failure_is_entry_not_exception(self):
        config = cl.parse_config("""
problem:
  n_dim: 8
  spectrum: {family: severe, alpha1: 0.0, alpha2: 0.0, c0: 0.1, beta: -1.0}
run: {pipelines: [check], n_grid: [100, 1000], mc: 50, y_replicates: 2}
""")
        record = cl.run_experiment(config)  # auto plan needs a mild spectrum
        assert "check" in record.failures
        assert record.tables == ()

    def test_unknown_pipeline_rejected_before_any_work(self, monkeypatch):
        """An unknown name among the requested pipelines raises before the
        problem is built or any named pipeline runs."""
        def refuse(config):
            raise AssertionError("build_problem called before the pipeline names were checked")

        monkeypatch.setattr(runner_module, "build_problem", refuse)
        with pytest.raises(ConfigInvariantError, match="'nope'"):
            cl.run_experiment(cl.parse_config(SMALL_CONFIG), pipelines=["simulate", "nope"])

    def test_workers_do_not_change_tables(self):
        config = cl.parse_config(SMALL_CONFIG)
        assert cl.run_experiment(config, workers=1).tables == \
            cl.run_experiment(config, workers=8).tables

    @pytest.mark.parametrize("problem", [
        {"n_dim": 64, "coupling": {"kind": "banded"}},
        {"n_dim": 12, "prior": {"family": "hilbert_scale", "t": 1.0, "l": 2.0},
         "noise": {"kind": "colored", "r": 0.5}},
    ], ids=["banded", "colored-hilbert"])
    def test_cells_run_in_the_callers_thread(self, monkeypatch, problem):
        """``workers`` selects no parallel path: with every thread start
        refused, the cell pipelines still run at eight workers and write the
        tables of one."""
        def refuse(thread):
            raise AssertionError(f"a pipeline started thread {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        config = cl.parse_config(json.dumps({
            "problem": problem,
            "run": {"n_grid": [100, 1000, 10000, 100000], "mc": 300, "y_replicates": 3}}))
        pipelines = ["simulate", "posterior", "gn", "smallball"]
        serial = cl.run_experiment(config, pipelines=pipelines, workers=1)
        assert not serial.failures, serial.failures
        assert [t.name for t in serial.tables] == [
            "simulate", "posterior_exceedance", "g_table", "small_ball"]
        assert cl.run_experiment(config, pipelines=pipelines, workers=8).tables == serial.tables

    @pytest.mark.parametrize("mc", [50, 1500])
    def test_provenance_records_the_draws_used(self, mc):
        """No pipeline reads ``run.mc``: posterior and concentration draw
        nothing and findim nothing but its data, so no table records a count
        and posterior's bytes do not depend on it. posterior and
        concentration say how their tails and certificates were obtained,
        with one Chernoff exponent per row and every ``std_error`` empty."""
        config = cl.parse_config(json.dumps({"problem": {"n_dim": 12}, "run": {
            "pipelines": ["posterior", "concentration", "findim"],
            "n_grid": [100, 1000], "mc": mc, "y_replicates": 2}}))
        record = cl.run_experiment(config)
        assert not record.failures, record.failures
        for name in ("posterior_exceedance", "concentration", "findim_rate"):
            assert "mc" not in record.table(name).provenance
        post = record.table("posterior_exceedance")
        assert post.provenance["operation"] == "covariance_spectrum"
        for name, column in (("posterior_exceedance", 3), ("concentration", 3)):
            table = record.table(name)
            assert (table.provenance["tail"], table.provenance["certificate"]) == \
                ("lugannani-rice", "chernoff")
            assert len(table.provenance["log_chernoff"]) == len(table.rows)
            assert [row[column] for row in table.rows] == [None] * len(table.rows)
        default = cl.parse_config(json.dumps({"problem": {"n_dim": 12}, "run": {
            "pipelines": ["posterior"], "n_grid": [100, 1000]}}))
        assert cl.run_experiment(default).table("posterior_exceedance").rows == post.rows

    def test_posterior_blocks_reach_metadata_only(self, tmp_path):
        """The rate-fit and posterior provenance records how the posterior
        precision splits (block count and largest block); it reaches
        ``metadata.json`` and leaves every CSV byte as a record without it
        writes them."""
        config = cl.parse_config(SMALL_CONFIG.replace("coupling: {kind: identity}",
                                                      "coupling: {kind: banded}"))
        record = cl.run_experiment(config, pipelines=["posterior", "rate-fit"])
        assert not record.failures, record.failures
        sizes = np.diff(zero_pattern_blocks(build_problem(config).whitened_gram.dense()))
        assert sizes.size > 1
        expected = {"count": int(sizes.size), "largest": int(sizes.max())}
        names = ("posterior_exceedance", "rate_fit")
        assert [record.table(n).provenance["posterior_blocks"] for n in names] == [expected] * 2
        cl.emit_results(record, "csv", tmp_path / "with")
        meta = json.loads((tmp_path / "with" / "metadata.json").read_text())
        assert [meta["tables"][n]["provenance"]["posterior_blocks"] for n in names] == [expected] * 2
        doc = cl.record_to_dict(record)
        for table in doc["tables"]:
            del table["provenance"]["posterior_blocks"]
        cl.emit_results(cl.record_from_dict(doc), "csv", tmp_path / "without")
        for n in names:
            assert ((tmp_path / "with" / f"{n}.csv").read_bytes()
                    == (tmp_path / "without" / f"{n}.csv").read_bytes())

    def test_one_partition_per_problem_read_off_the_coupling(self, monkeypatch):
        """A problem's partition is its coupling's blocks under diagonal
        noise and one block under dense noise, and a banded run of all ten
        pipelines scans no matrix: the builder knows T's blocks, so
        ``_coupling_blocks`` is never called, on T or on any Gram,
        covariance or transpose."""
        problems, scanned = [], []
        build = runner_module.build_problem

        def capturing_build(config):
            problems.append(build(config))
            return problems[-1]

        monkeypatch.setattr(runner_module, "build_problem", capturing_build)
        monkeypatch.setattr(spectral, "_coupling_blocks", scanned.append)
        config = cl.parse_config(SMALL_CONFIG.replace("coupling: {kind: identity}",
                                                      "coupling: {kind: banded}"))
        record = cl.run_experiment(config, pipelines=list(runner_module.PIPELINE_FUNCS))
        assert not record.failures, record.failures
        assert len(problems) == 1 and scanned == []
        prob = problems[0]
        assert prob.gram_blocks is prob.coupling.t.edges and prob.gram_blocks.size > 2
        dense = build_problem(cl.parse_config(SMALL_CONFIG.replace(
            "coupling: {kind: identity}", "coupling: {kind: banded}\n  noise: {kind: colored, r: 0.5}")))
        assert np.array_equal(dense.gram_blocks, [0, 12])

    @pytest.mark.parametrize("replace", [
        ("coupling: {kind: identity}", "coupling: {kind: banded}"),
        ("prior: {family: power, delta: 1.0}",
         "prior: {family: hilbert_scale, t: 1.0, l: 2.0}\n  noise: {kind: colored, r: 0.5}"),
    ], ids=["banded", "dense_hilbert"])
    def test_pipelines_leave_forward_map_uncached(self, monkeypatch, replace):
        """No pipeline holds the whitened forward map M, on a banded or a
        dense problem: the Gram, the small-ball form and the pushforward
        covariances read ``forward_blocks`` (a temporary M when dense), and
        the posterior mean goes through ``whitened_adjoint``."""
        problems = []
        build = runner_module.build_problem

        def capturing_build(config):
            problems.append(build(config))
            return problems[-1]

        monkeypatch.setattr(runner_module, "build_problem", capturing_build)
        config = cl.parse_config(SMALL_CONFIG.replace(*replace))
        record = cl.run_experiment(config, pipelines=list(runner_module.PIPELINE_FUNCS))
        assert not record.failures, record.failures
        assert problems
        for prob in problems:
            assert "whitened_gram" in vars(prob) and "whitened_forward" not in vars(prob)

    def test_posterior_pipeline_factors_once_per_n(self, monkeypatch):
        """One factorization per n: the Cholesky of the precision, shared by
        the data conditioning and the xi grid; the covariance factor is its
        triangular inverse, not a second Cholesky."""
        calls = []
        original = posterior_module.cholesky_with_jitter

        def counting(mat, *args, **kwargs):
            calls.append(mat.n_dim)
            return original(mat, *args, **kwargs)

        monkeypatch.setattr(posterior_module, "cholesky_with_jitter", counting)
        config = cl.parse_config(SMALL_CONFIG)
        record = cl.run_experiment(config, pipelines=["posterior"])
        assert not record.failures, record.failures
        assert len(calls) == len(config.run["n_grid"])

    def test_posterior_pipeline_draws_only_its_data(self, monkeypatch):
        """One invocation draws N normals per grid n, the data of
        ``spectral.simulate_data``, through every module's ``substream``,
        and never reaches the Monte Carlo oracle
        ``posterior_exceedance_grid``."""
        drawn = []

        class Counting:
            def __init__(self, gen):
                self._gen = gen

            def standard_normal(self, size=None, **kwargs):
                drawn.append(int(np.prod(size)))
                return self._gen.standard_normal(size, **kwargs)

            def __getattr__(self, name):
                raise AssertionError(f"generator method {name} called")

        def oracle(*args, **kwargs):
            raise AssertionError("posterior_exceedance_grid called")

        config = cl.parse_config(SMALL_CONFIG.replace("coupling: {kind: identity}",
                                                      "coupling: {kind: banded}"))
        prob = build_problem(config)
        for module in (spectral, posterior_module, assumptions_module, rates_module):
            original = module.substream
            monkeypatch.setattr(module, "substream",
                                lambda *args, _f=original: Counting(_f(*args)))
        monkeypatch.setattr(posterior_module, "posterior_exceedance_grid", oracle)
        tables = runner_module._pipe_posterior(config, prob, 1)
        grid = config.run["n_grid"]
        assert len(tables[0].rows) == 4 * len(grid)
        assert drawn == [prob.n_dim] * len(grid)

    @staticmethod
    def _count_column_builds(monkeypatch) -> list:
        """The ``(k, r)`` of every plug-in column build from here on."""
        calls = []
        original = assumptions_module._plug_in_columns

        def counting(*args, **kwargs):
            calls.append(args[1:])
            return original(*args, **kwargs)

        monkeypatch.setattr(assumptions_module, "_plug_in_columns", counting)
        return calls

    def test_concentration_pipeline_computes_g_once(self, monkeypatch):
        """One set of plug-in columns per run sets g, the default x grid, the
        envelope and the spectrum of the deviation."""
        calls = self._count_column_builds(monkeypatch)
        record = cl.run_experiment(cl.parse_config(SMALL_CONFIG), pipelines=["concentration"])
        assert not record.failures, record.failures
        assert len(calls) == 1

    def test_gn_and_hs_build_columns_once_per_cutoff(self, monkeypatch):
        """``gn`` builds one set of plug-in columns per cutoff, at the largest
        k, for its whole k grid (4 builds at the default r values, not one
        per (k, r) cell), and ``hs`` one set for its ``g_rho_sq`` grid."""
        calls = self._count_column_builds(monkeypatch)
        config = cl.parse_config(SMALL_CONFIG)
        record = cl.run_experiment(config, pipelines=["gn"])
        assert not record.failures, record.failures
        assert sorted(calls, key=str) == [(6, 12), (6, 3), (6, 6), (6, None)]
        assert len(record.table("g_table").rows) == 6 * 4
        calls.clear()
        record = cl.run_experiment(config, pipelines=["hs"])
        assert not record.failures, record.failures
        assert calls == [(6, 12)]
        assert len(record.table("hs_diagnostic").provenance["details"]["g_rho_sq"]) == 6


class TestEmit:
    def test_empty_record_valid_header_only_csv(self, tmp_path):
        record = cl.ResultRecord("deadbeef", "2026-01-01T00:00:00+00:00",
                                 (cl.Table("empty", ("a", "b"), (), {}, "deadbeef"),))
        paths = cl.emit_results(record, "csv", tmp_path)
        text = (tmp_path / "empty.csv").read_text()
        assert text == "a,b\n"
        assert any(p.name == "metadata.json" for p in paths)

    def test_rate_fit_column_contract(self, tmp_path):
        config = cl.parse_config("""
problem: {n_dim: 10}
run:
  pipelines: [rate-fit]
  n_grid: [100, 1000, 10000, 100000]
  mc: 150
  y_replicates: 3
  master_seed: 3
""")
        record = cl.run_experiment(config)
        cl.emit_results(record, "csv", tmp_path)
        header = (tmp_path / "rate_fit.csv").read_text().splitlines()[0]
        assert header == "n,xi_hat,exceedance_frac,slope,slope_lo,slope_hi"

    def test_json_round_trip(self, tmp_path):
        record = cl.run_experiment(cl.parse_config(SMALL_CONFIG))
        cl.emit_results(record, "json", tmp_path)
        doc = json.loads((tmp_path / "result.json").read_text())
        assert cl.record_from_dict(doc) == record

    def test_plotdata_two_columns(self, tmp_path):
        record = cl.run_experiment(cl.parse_config(SMALL_CONFIG))
        paths = cl.emit_results(record, "plotdata", tmp_path)
        assert paths
        for line in paths[0].read_text().splitlines():
            assert len(line.split()) == 2

    def test_unwritable_path_is_os_error(self, tmp_path):
        record = cl.ResultRecord("d", "t", (cl.Table("t", ("a",), ((1,),), {}, "d"),))
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        with pytest.raises(OSError):
            cl.emit_results(record, "csv", blocker)

    def test_timestamps_confined_to_metadata(self, tmp_path):
        """Re-running the same config gives byte-identical data tables."""
        config = cl.parse_config(SMALL_CONFIG)
        a, b = tmp_path / "a", tmp_path / "b"
        cl.emit_results(cl.run_experiment(config), "csv", a)
        cl.emit_results(cl.run_experiment(config), "csv", b)
        assert (a / "g_table.csv").read_bytes() == (b / "g_table.csv").read_bytes()


class TestCli:
    def _write(self, tmp_path, text=SMALL_CONFIG):
        path = tmp_path / "config.yaml"
        path.write_text(text)
        return path

    def test_pipeline_run_success(self, tmp_path, capsys):
        path = self._write(tmp_path)
        code = cli_main(["gn", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "g_table.csv").exists()
        assert "g_table" in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = self._write(tmp_path, "problem: {pirors: 2}")
        assert cli_main(["gn", "--config", str(path)]) == 1

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert cli_main(["gn", "--config", str(tmp_path / "nope.yaml")]) == 3

    def test_negative_seed_flag_exit_code(self, tmp_path, capsys):
        path = self._write(tmp_path)
        assert cli_main(["gn", "--config", str(path), "--seed", "-1",
                         "--out", str(tmp_path / "out")]) == 1
        assert "'run.master_seed'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_eigensolver_failure_names_the_pipeline(self, tmp_path, capsys, monkeypatch):
        """A divide-and-conquer solve that fails to converge reaches the rate
        fit as a ``NumericalError`` and the CLI as exit 2 with the pipeline
        named on stderr."""
        def unconverged(d, e, *args, **kwargs):
            return d.copy(), np.eye(d.size), 1

        monkeypatch.setattr(quadform, "dstevd", unconverged)
        # A banded coupling: an identity one is all one-row blocks, whose
        # spectrum takes no eigensolve.
        banded = SMALL_CONFIG.replace("coupling: {kind: identity}", "coupling: {kind: banded}")
        prob = build_problem(cl.parse_config(banded))
        assert np.diff(prob.gram_blocks).max() > 1
        with pytest.raises(NumericalError, match=r"dstevd failed .* n_level = 100\.0"):
            cl.fit_contraction_rate(prob, cl.power_law_truth(2.0, 12), [1e2, 1e3, 1e4, 1e5],
                                    0.1, 4, seed=0)
        path = self._write(tmp_path, banded)
        assert cli_main(["rate-fit", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "pipeline rate-fit failed: NumericalError" in err and "dstevd" in err

    @pytest.mark.parametrize("problem", ["prior: {family: power, delta: -1}",
                                         "coupling: {kind: banded, hi_ratio: 0.9}"])
    def test_model_construction_error_exit_code(self, tmp_path, capsys, problem):
        """A value the model constructors reject is a config error (exit 1)
        reported on one line, not a traceback out of ``main``."""
        path = self._write(tmp_path, f"problem: {{n_dim: 8, {problem}}}")
        assert cli_main(["gn", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("pipeline, doc, field", [
        ("hs", "run: {hs_target: reflection}", "'run.hs_target'"),
        ("findim", "findim: {p: 2, q: 1}", "'findim.q'"),
    ])
    def test_hs_target_and_findim_errors_exit_code(self, tmp_path, capsys, pipeline, doc, field):
        """A bad hs target or findim section exits 1 (config error) with the
        key named, before any pipeline runs, not 2 from the pipeline."""
        path = self._write(tmp_path, "problem: {n_dim: 8}\n" + doc)
        assert cli_main([pipeline, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("pipeline, doc, field", [
        ("check", "plan: {eps_n: 0.1, xi_n: 0.2, k_n: 3, c: .nan}", "'plan.c'"),
        ("check", "truth: {gamma: .nan}", "'truth.gamma'"),
        ("findim", "findim: {mixture_weights: [.nan, 1.0], mixture_means: [[0], [1]], "
                   "mixture_sds: [[1], [1]]}", "'findim.mixture_weights'"),
        ("findim", "findim: {mixture_weights: [0.5, 0.5], mixture_means: [[.nan], [1]], "
                   "mixture_sds: [[1], [1]]}", "'findim.mixture_means'"),
        ("findim", "findim: {g: [[.inf]]}", "'findim.g'"),
        ("findim", "findim: {m_const: .nan}", "'findim.m_const'"),
    ])
    def test_non_finite_values_exit_code(self, tmp_path, capsys, pipeline, doc, field):
        """A NaN or infinite value that every ``<= 0`` check lets through
        exits 1 (config error) with its key named, before any pipeline runs;
        it is not written as NaN rows, nor reported against another key."""
        path = self._write(tmp_path, "problem: {n_dim: 8}\n" + doc)
        assert cli_main([pipeline, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("pipeline, doc, field", [
        ("posterior", "run: {xi_grid: [-0.1, 0.2]}", "'run.xi_grid'"),
        ("smallball", "run: {eps_grid: [0.0, 0.5]}", "'run.eps_grid'"),
        ("concentration", "run: {x_grid: [-1.0, 0.0]}", "'run.x_grid'"),
    ])
    def test_grid_errors_exit_code(self, tmp_path, capsys, pipeline, doc, field):
        """A grid value outside its domain exits 1 (config error) with the key
        named, not 2 from the pipeline, and writes no rows."""
        path = self._write(tmp_path, "problem: {n_dim: 8}\n" + doc)
        assert cli_main([pipeline, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("pipeline, key", [
        ("posterior", "xi_grid"), ("smallball", "eps_grid"),
        ("concentration", "x_grid"), ("gn", "r_values"),
    ])
    def test_empty_grid_exit_code(self, tmp_path, capsys, pipeline, key):
        """An explicitly empty grid is a config error naming its key (exit 1),
        not a silent switch to the default grid under another digest."""
        path = self._write(tmp_path, f"problem: {{n_dim: 8}}\nrun: {{{key}: []}}")
        assert cli_main([pipeline, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"'run.{key}'" in err
        assert not (tmp_path / "out").exists()

    def test_seed_flag_changes_digest(self, tmp_path):
        path = self._write(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert cli_main(["gn", "--config", str(path), "--out", str(out1), "--format", "json"]) == 0
        assert cli_main(["gn", "--config", str(path), "--out", str(out2),
                         "--format", "json", "--seed", "123"]) == 0
        d1 = json.loads((out1 / "result.json").read_text())["config_digest"]
        d2 = json.loads((out2 / "result.json").read_text())["config_digest"]
        assert d1 != d2

    def test_one_dimensional_colored_noise(self, tmp_path, capsys):
        path = self._write(tmp_path, "problem: {n_dim: 1, noise: {kind: colored, r: 0.5}}")
        assert cli_main(["gn", "--config", str(path), "--out", str(tmp_path / "out")]) == 0

    def _usage_error(self, capsys, argv) -> str:
        """Run ``argv``, which argparse must refuse, and return its stderr."""
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert not out
        assert err.startswith("error: ") and err.count("\n") == 1, err
        return err

    @pytest.mark.parametrize("flags, named", [
        (["--config", "CONFIG", "--bogus"], "--bogus"),
        (["--config", "CONFIG", "--seed", "abc"], "--seed"),
        (["--seed", "1"], "--config"),
        (["--config", "CONFIG", "--format", "xml"], "--format"),
    ], ids=["unknown-flag", "seed-abc", "missing-config", "format-xml"])
    def test_usage_error_exit_code(self, tmp_path, capsys, flags, named):
        """A flag argparse refuses exits 1, the config-error code, on one
        stderr line naming the flag: not argparse's 2, which the CLI reserves
        for a failed pipeline."""
        path = self._write(tmp_path)
        argv = ["gn", "--out", str(tmp_path / "out")] + [
            str(path) if flag == "CONFIG" else flag for flag in flags]
        assert named in self._usage_error(capsys, argv)
        assert not (tmp_path / "out").exists()

    def test_workers_flag_is_a_usage_error(self, tmp_path, capsys):
        """``--workers`` is gone: it selected no code path and moved no byte."""
        path = self._write(tmp_path)
        err = self._usage_error(capsys, ["gn", "--config", str(path), "--workers", "2",
                                         "--out", str(tmp_path / "out")])
        assert "--workers" in err
        assert not (tmp_path / "out").exists()

    def test_unexpected_error_type_is_a_traceback(self, tmp_path, monkeypatch):
        """Only the package's errors and ``LinAlgError`` become failure
        entries (exit 2); a ``TypeError`` is a defect and leaves
        ``run_experiment`` and ``main`` as a traceback."""
        def broken(*args, **kwargs):
            raise TypeError("unsupported operand")

        monkeypatch.setattr(cl.assumptions, "compute_g_kr", broken)
        path = self._write(tmp_path)
        with pytest.raises(TypeError, match="unsupported operand"):
            cli_main(["gn", "--config", str(path), "--out", str(tmp_path / "out")])

    def test_failed_pipeline_exit_code(self, tmp_path, capsys):
        path = self._write(tmp_path, """
problem:
  n_dim: 8
  spectrum: {family: severe, alpha1: 0.0, alpha2: 0.0, c0: 0.1, beta: -1.0}
run: {pipelines: [check], n_grid: [100, 1000], mc: 50, y_replicates: 2}
""")
        assert cli_main(["check", "--config", str(path), "--out", str(tmp_path / "out")]) == 2


class TestPipelines:
    @pytest.mark.parametrize("pipeline,table", [
        ("simulate", "simulate"),
        ("posterior", "posterior_exceedance"),
        ("check", "assumption_checks"),
        ("smallball", "small_ball"),
        ("minmax", "minmax_ratios"),
        ("hs", "hs_diagnostic"),
        ("concentration", "concentration"),
        ("findim", "findim_rate"),
    ])
    def test_each_pipeline_produces_its_table(self, pipeline, table):
        config = cl.parse_config(f"""
problem:
  n_dim: 10
  coupling: {{kind: banded}}
run:
  pipelines: [{pipeline}]
  n_grid: [100, 1000, 10000, 100000]
  mc: 300
  y_replicates: 3
  master_seed: 17
""")
        record = cl.run_experiment(config)
        assert not record.failures, record.failures
        assert record.table(table).rows

    def test_tables_match_the_benchmark_headers(self):
        """All ten pipelines on a small banded config write the header and
        row count that ``perfbench.checks.expected_tables`` pins for the run
        defaults, so renaming or dropping a pinned column fails here, not
        only in every benchmark operation. The module is read by path, so
        the test runs from any directory."""
        checks = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
        expected_tables = runpy.run_path(str(checks))["expected_tables"]
        config = cl.parse_config(json.dumps({"problem": {"n_dim": 12,
                                                         "coupling": {"kind": "banded"}},
                                             "run": {"mc": 100, "y_replicates": 3}}))
        record = cl.run_experiment(config, pipelines=list(runner_module.PIPELINE_FUNCS))
        assert not record.failures, record.failures
        expected = {}
        for pipeline in runner_module.PIPELINE_FUNCS:
            expected.update(expected_tables(pipeline, 12, config.run["n_grid"]))
        assert {t.name: (t.columns, len(t.rows)) for t in record.tables} == expected

    @pytest.mark.parametrize("pipeline, key", [("posterior", "xi_grid"), ("smallball", "eps_grid")])
    def test_radius_past_the_last_lower_end(self, pipeline, key):
        """At radius 1e-100 on a banded N = 64 config the saddlepoint lies
        below the last lower end the bracket search tries (``t = -2**599``).
        The row stops there: the posterior tail reads 1.0 and the small-ball
        mass equals its Chernoff upper bound, instead of failing the
        pipeline."""
        config = cl.parse_config(json.dumps({
            "problem": {"n_dim": 64, "coupling": {"kind": "banded"}},
            "run": {"n_grid": [100, 1000, 10000, 100000], key: [1e-100, 0.1]}}))
        record = cl.run_experiment(config, pipelines=[pipeline])
        assert not record.failures, record.failures
        table = record.tables[0]
        if pipeline == "posterior":
            assert [row[2] for row in table.rows[::2]] == [1.0] * 4
        else:
            upper = table.provenance["bounds"][0][1]
            assert table.rows[0][1] == upper <= -207.0


def _banded_default(coupling="banded"):
    config = cl.parse_config(json.dumps({"problem": {"n_dim": 512,
                                                     "coupling": {"kind": coupling}}}))
    return config, build_problem(config), build_truth(config)


class TestBandedMemoryBudget:
    """On the default banded problem (N = 512, 21 blocks holding 0.115 N^2
    entries) no operator of the posterior, minmax, smallball or check
    pipeline is an N x N array: ``tracemalloc`` peaks in units of one N x N
    float array, measured after the build and before the Gram is read. The
    small-ball form reads M's blocks only. The parent of this
    layout measured 3.39 (rate-fit), 4.03 (minmax) and 1.00 (a held factor)."""

    UNIT = 512 * 512 * 8

    def _peak(self, fn):
        tracemalloc.start()
        try:
            out = fn()
            return tracemalloc.get_traced_memory()[1] / self.UNIT, out
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("replicates, budget", [(5, 0.5), (50, 1.8)])
    def test_rate_fit(self, replicates, budget):
        """With 5 replicates the fit stays within half an N x N array. At the
        default 50 the quantile solve's (R, N) batches, 0.1 N x N each, make
        up most of the 1.6-1.7 measured: about ten of them are alive at once
        inside ``quadform._cgf``."""
        config, prob, u0 = _banded_default()
        assert "whitened_gram" not in vars(prob)
        run = config.run
        peak, fit = self._peak(lambda: cl.fit_contraction_rate(
            prob, u0, run["n_grid"], run["delta_level"], replicates, seed=3))
        assert fit.xi_hat.size == len(run["n_grid"])
        assert peak <= budget

    # Peak of each pipeline in N x N arrays: the measured value plus 0.1.
    PIPELINE_BUDGETS = {"simulate": 0.28, "posterior": 0.47, "rate-fit": 1.72, "check": 0.34,
                        "gn": 0.26, "smallball": 0.34, "minmax": 0.36, "hs": 1.14,
                        "concentration": 0.15, "findim": 0.11}

    @pytest.mark.parametrize("pipeline", list(runner_module.PIPELINE_FUNCS))
    def test_pipeline_peak(self, pipeline):
        """Each of the ten pipelines on the default banded problem, traced
        from after the build. ``concentration`` draws nothing (0.05 measured;
        its draws made 3.96), and neither does ``posterior`` beyond its data
        (0.37 measured; at ``mc: 100`` its draws made 0.48). What is left for a
        later change: ``rate-fit`` keeps about ten (R, N) batches alive in
        ``quadform._cgf``; ``hs`` (1.04) is the plug-in Gram's two N x k
        arrays at k = N / 2, the columns and their coloring, for the
        ``g_rho_sq`` grid."""
        assert set(self.PIPELINE_BUDGETS) == set(runner_module.PIPELINE_FUNCS)
        config = cl.parse_config(json.dumps({"problem": {"n_dim": 512,
                                                         "coupling": {"kind": "banded"}}}))
        prob = build_problem(config)
        peak, tables = self._peak(
            lambda: runner_module.PIPELINE_FUNCS[pipeline](config, prob, 1))
        assert tables and all(table.rows for table in tables)
        assert peak <= self.PIPELINE_BUDGETS[pipeline]

    def test_minmax_pipeline(self):
        """Both pushforward covariances are block-diagonal operators, and the
        eigenvalues are taken one block at a time."""
        config, prob, _ = _banded_default()
        peak, tables = self._peak(lambda: runner_module._pipe_minmax(config, prob, 1))
        assert len(tables[0].rows) == 384
        assert peak <= 0.5

    def test_factor_holds_its_blocks_only(self):
        """A posterior factor holds the precision's Cholesky factor, whose
        parts hold the blocks' 0.115 N^2 entries, and nothing else."""
        _, prob, _ = _banded_default()
        prob.whitened_gram
        tracemalloc.start()
        try:
            factor = cl.factor_posterior(prob, 1e4)
            held = tracemalloc.get_traced_memory()[0] / self.UNIT
        finally:
            tracemalloc.stop()
        assert factor._precision_chol.edges.size > 2 and held <= 0.15

    def test_identity_rate_fit_makes_no_lapack_call(self, monkeypatch):
        """An identity coupling is one run of one-row blocks: the factor, the
        mean and the covariance spectrum take closed forms, so no
        factorization, inversion or eigensolve reaches LAPACK."""
        calls = []

        def refuse(name):
            def call(*args, **kwargs):
                calls.append(name)
                raise AssertionError(f"{name} on a one-row run")
            return call

        for module, name in ((posterior_module, "dpotrf"), (posterior_module, "dpotri"),
                             (posterior_module, "dtrtri"), (posterior_module, "cho_solve"),
                             (quadform, "dsytrd"), (quadform, "dormqr"), (quadform, "dstevd")):
            monkeypatch.setattr(module, name, refuse(name))
        config, prob, u0 = _banded_default("identity")
        run = config.run
        fit = cl.fit_contraction_rate(prob, u0, run["n_grid"], run["delta_level"],
                                      run["y_replicates"], seed=3)
        assert calls == [] and np.all(fit.xi_hat > 0)


class TestIdentityMemoryBudget:
    """An identity coupling is one run of ones, so an identity-coupled
    problem takes O(N) memory: ``tracemalloc`` in units of one N x N float
    array at N = 4096. When T was a dense array the build held 1.00 and
    peaked at 2.25 (T and the copy it froze)."""

    N = 4096
    UNIT = N * N * 8

    def _config(self):
        return cl.parse_config(json.dumps({"problem": {"n_dim": self.N,
                                                       "coupling": {"kind": "identity"}}}))

    def test_build_holds_no_square_array(self):
        config = self._config()
        tracemalloc.start()
        try:
            prob = build_problem(config)
            held, peak = (m / self.UNIT for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert held < 0.01 and peak < 0.01
        assert prob.coupling.t.segments == ((0, self.N, True),)

    # Measured peaks: simulate 0.026, posterior 0.013, rate-fit 0.160. The
    # rate fit's is the quantile solve's (R, N) batches in ``quadform._cgf``
    # at the default R = 50, 0.0122 N x N each: about 13 alive at once.
    PIPELINE_BUDGETS = {"simulate": 0.04, "posterior": 0.03, "rate-fit": 0.18}

    @pytest.mark.parametrize("pipeline", list(PIPELINE_BUDGETS))
    def test_pipeline_peak(self, pipeline):
        config = self._config()
        prob = build_problem(config)
        tracemalloc.start()
        try:
            tables = runner_module.PIPELINE_FUNCS[pipeline](config, prob, 1)
            peak = tracemalloc.get_traced_memory()[1] / self.UNIT
        finally:
            tracemalloc.stop()
        assert tables and all(table.rows for table in tables)
        assert peak <= self.PIPELINE_BUDGETS[pipeline]
