"""Config validation, digesting, pipeline orchestration, emission, CLI."""

import json

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
from contraction_lab import posterior as posterior_module
from contraction_lab.runner import EXPLORATORY_LABEL

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
        """A Hilbert-scale prior with colored noise runs one eigh per dense
        operator (G^-t + K2 and G^-r + K1) and nothing else."""
        calls = []
        for name in ("eigh", "eigvalsh", "svd"):
            original = getattr(np.linalg, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        config = cl.parse_config(json.dumps({"problem": {
            "n_dim": 16, "prior": {"family": "hilbert_scale", "t": 1.0, "l": 2.0},
            "noise": {"kind": "colored", "r": 0.5}}}))
        prob = build_problem(config)
        prob.whitened_gram
        assert calls.count("eigh") == 2
        assert calls.count("eigvalsh") == 2  # the spectral norms of K1 and K2
        assert "svd" not in calls

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

    def test_findim_above_one_dimension_uses_snis(self):
        config = cl.parse_config("problem: {n_dim: 4}\n"
                                 "findim: {p: 2, q: 3, g: [[1, 0], [0, 1], [1, 1]]}\n"
                                 "run: {n_grid: [100, 1000], mc: 1000, y_replicates: 3}")
        record = cl.run_experiment(config, pipelines=["findim"])
        assert not record.failures, record.failures
        table = record.table("findim_rate")
        assert table.provenance["method"] == "snis"
        assert [row[0] for row in table.rows] == [100, 1000]
        assert all(0.0 <= row[1] <= 1.0 for row in table.rows)

    @pytest.mark.parametrize("coupling, target", [
        ({"kind": "reflection", "v": [1.0, 0.5, 0.25, 0.125]}, "reflection_pair"),
        ({"kind": "exp_skew", "generator": SKEW_4}, "exp_pair"),
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

    def test_workers_do_not_change_tables(self):
        config = cl.parse_config(SMALL_CONFIG)
        assert cl.run_experiment(config, workers=1).tables == \
            cl.run_experiment(config, workers=8).tables

    def test_posterior_pipeline_factors_once_per_n(self, monkeypatch):
        """One factorization per n: the Cholesky of the precision, shared by
        the data conditioning and the xi grid; the covariance factor is its
        triangular inverse, not a second Cholesky."""
        calls = []
        original = posterior_module.cholesky_with_jitter

        def counting(mat, *args, **kwargs):
            calls.append(mat.shape)
            return original(mat, *args, **kwargs)

        monkeypatch.setattr(posterior_module, "cholesky_with_jitter", counting)
        config = cl.parse_config(SMALL_CONFIG)
        record = cl.run_experiment(config, pipelines=["posterior"])
        assert not record.failures, record.failures
        assert len(calls) == len(config.run["n_grid"])


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

        monkeypatch.setattr(posterior_module, "dstevd", unconverged)
        prob = build_problem(cl.parse_config(SMALL_CONFIG))
        with pytest.raises(NumericalError, match=r"dstevd failed .* n_level = 100\.0"):
            cl.fit_contraction_rate(prob, cl.power_law_truth(2.0, 12), [1e2, 1e3, 1e4, 1e5],
                                    0.1, 4, seed=0)
        path = self._write(tmp_path)
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
