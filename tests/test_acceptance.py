"""Acceptance suite: every criterion at its stated setting and tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to stream them).
"""

import math
import time

import numpy as np

import contraction_lab as cl

from oracles import weighted_posterior_exceedance


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _benchmark_problem(n_dim, coupling_kind, seed=0):
    return cl.InverseProblem(
        cl.make_spectrum(cl.MildFamily(1.0), n_dim),
        cl.make_coupling(coupling_kind, n_dim, seed=seed),
        cl.power_law_prior(1.0, n_dim),
        cl.white_noise(n_dim), n_dim)


RATE_GRID = [1e2, 1e3, 1e4, 1e5, 1e6]


def test_01_rate_exponent_diagonal_mild():
    """Identity coupling, alpha=delta=1, gamma=2, N=512: fitted slope of
    log xi_hat against log n within -0.20 +- 0.15, in under ten minutes."""
    start = time.monotonic()
    prob = _benchmark_problem(512, cl.IdentityCoupling())
    fit = cl.fit_contraction_rate(prob, cl.power_law_truth(2.0, 512), RATE_GRID,
                                  delta_level=0.1, y_replicates=50, seed=101)
    elapsed = time.monotonic() - start
    ok = abs(fit.slope - (-0.20)) <= 0.15 and elapsed <= 600.0
    _report(1, ok, f"slope {fit.slope:+.4f} (target -0.20 +- 0.15), {elapsed:.0f}s")


def test_02_rate_exponent_banded_coupling():
    """Same parameters through a banded coupling: the prior basis need not
    be the operator basis."""
    prob = _benchmark_problem(512, cl.BandedCoupling(), seed=202)
    fit = cl.fit_contraction_rate(prob, cl.power_law_truth(2.0, 512), RATE_GRID,
                                  delta_level=0.1, y_replicates=50, seed=101)
    ok = abs(fit.slope - (-0.20)) <= 0.15
    _report(2, ok, f"banded slope {fit.slope:+.4f} (target -0.20 +- 0.15)")


def test_03_banded_g_bound():
    """Banded coupling, white noise, mild spectrum with c2 = 1 at N = 256:
    g_n <= (2n)^(2 alpha) for every n <= 128, within 1e-9 relative."""
    worst = 0.0
    for seed in (0, 202):
        prob = _benchmark_problem(256, cl.BandedCoupling(), seed=seed)
        for n in range(1, 129):
            ratio = cl.compute_g_kr(prob, n, prob.n_dim) / (2 * n) ** 2
            worst = max(worst, ratio)
    ok = worst <= 1.0 + 1e-9
    _report(3, ok, f"max g_n / (2n)^2 = {worst:.6f} over n <= 128, two band seeds")


def test_04_identity_closed_form_and_linkage():
    """Diagonal problems: g(k, r) equals the closed form within 1e-10
    relative for k, r <= 32, and sqrt(g(k, k)) is bit-equal to 1/rho_k."""
    prob = _benchmark_problem(32, cl.IdentityCoupling())
    inv_sq = (1.0 / prob.operator.rho) ** 2
    worst = 0.0
    for k in range(1, 33):
        for r in range(1, 33):
            g = cl.compute_g_kr(prob, k, r)
            target = float(np.max(inv_sq[: min(k, r)]))
            worst = max(worst, abs(g - target) / target)
    linkage = all(math.sqrt(cl.compute_g_kr(prob, k, k)) == 1.0 / prob.operator.rho[k - 1]
                  for k in range(1, 33))
    ok = worst <= 1e-10 and linkage
    _report(4, ok, f"max closed-form rel err {worst:.2e}; linkage bit-consistent: {linkage}")


def test_05_oracle_equivalence():
    """Self-normalized weighted estimator vs conjugate closed form on 20
    random problems with N <= 4: within 4 combined SE in at least 19."""
    agree = 0
    for trial in range(20):
        rng = np.random.default_rng(1000 + trial)
        n_dim = int(rng.integers(1, 5))
        rho = np.sort(rng.uniform(0.3, 1.2, n_dim))[::-1]
        q = np.linalg.qr(rng.standard_normal((n_dim, n_dim)))[0]
        prob = cl.InverseProblem(
            cl.make_spectrum(rho, n_dim),
            cl.make_coupling(cl.ExplicitCoupling(q), n_dim),
            cl.explicit_prior(rng.uniform(0.3, 1.5, n_dim), n_dim),
            cl.diagonal_noise(rng.uniform(0.5, 1.5, n_dim), n_dim), n_dim)
        u0 = rng.standard_normal(n_dim) * 0.3
        data = cl.simulate_data(prob, u0, 10.0, seed=trial)
        post = cl.conjugate_posterior(prob, data)
        factor = post.cov_factor.dense()
        xi = float(np.sqrt(np.trace(factor @ factor.T) / n_dim))
        conj = cl.posterior_exceedance_grid(post, u0, [xi], 20_000, seed=trial + 40)[0]
        weighted = weighted_posterior_exceedance(prob, data, u0, xi, mc=40_000,
                                                 seed=trial + 80)
        combined = math.hypot(conj.std_error, weighted.std_error)
        if abs(conj.value - weighted.value) <= 4 * combined:
            agree += 1
    ok = agree >= 19
    _report(5, ok, f"{agree}/20 problems agree within 4 combined SE")


def test_06_plug_in_concentration_envelope():
    """On the default examples the Chernoff bound on the plug-in deviation
    tail beyond sqrt(tr Sigma) + x certifies the envelope exp(-x^2 / 2
    sigma0^2) at every offset, and the Lugannani-Rice tail lies below it."""
    cases = [
        (_benchmark_problem(64, cl.IdentityCoupling()), 8, 64),
        (_benchmark_problem(64, cl.IdentityCoupling()), 8, 32),
        (_benchmark_problem(64, cl.BandedCoupling(), seed=3), 8, 64),
    ]
    all_ok = True
    details = []
    for prob, k, r in cases:
        sigma0 = math.sqrt(cl.compute_g_kr(prob, k, r) / 1e4)
        rep = cl.concentration_check(prob, k, r, 1e4, x_grid=sigma0 * np.linspace(0, 4, 9))
        log_bound = -rep.x_grid**2 / (2 * rep.sigma0_sq)
        all_ok = (all_ok and rep.ok.all() and rep.mean_dev_ok
                  and bool(np.all(rep.empirical <= rep.bound)))
        details.append(f"{np.max((rep.log_chernoff - log_bound)[1:]):+.3f}")
    _report(6, all_ok, f"max (log Chernoff - log envelope) over x > 0 per case: "
                       f"{', '.join(details)}")


def test_07_minmax_sandwich():
    """Banded coupling at N = 64, j <= 48: eigenvalue ratios against the
    diagonal surrogate stay in a measured positive interval, stable to the
    band seed; identity-coupling ratios are exactly one."""
    def interval(seed):
        prob = _benchmark_problem(64, cl.BandedCoupling(), seed=seed)
        table = cl.minmax_compare(cl.coupled_pushforward_cov(prob),
                                  cl.diagonal_pushforward_cov(prob), 48)
        return table.min_ratio, table.max_ratio

    c_lo, c_hi = interval(0)
    seed_ok = all(c_lo / 2 <= lo and hi <= 2 * c_hi
                  for lo, hi in (interval(1), interval(2)))
    ident = _benchmark_problem(64, cl.IdentityCoupling())
    ident_table = cl.minmax_compare(cl.coupled_pushforward_cov(ident),
                                    cl.diagonal_pushforward_cov(ident), 48)
    ident_ok = bool(np.all(ident_table.ratios == 1.0))
    ok = c_lo > 0 and math.isfinite(c_hi) and seed_ok and ident_ok
    _report(7, ok, f"measured interval [{c_lo:.3f}, {c_hi:.3f}], "
                   f"seed-stable: {seed_ok}, identity exact: {ident_ok}")


def test_08_hs_classifications():
    """Three reflection examples classified by truncation growth at
    N in {64, 128, 256}: finite rotation and square-summable direction
    bounded, exponential-prior harmonic direction divergent."""
    outcomes = []
    for n in (64, 128, 256):
        j = np.arange(1, n + 1, dtype=float)
        cases = [
            (np.eye(n)[0], (1.0 + j**2) ** -1.5, "bounded"),
            (2.0**-j, j**-2.0, "bounded"),
            (1.0 / j, np.exp(-j), "divergent"),
        ]
        for v, lam, expected in cases:
            prob = cl.InverseProblem(
                cl.make_spectrum(cl.MildFamily(1.0), n),
                cl.make_coupling(cl.ReflectionCoupling(v), n),
                cl.explicit_prior(lam, n), cl.white_noise(n), n)
            verdict = cl.hs_diagnostic(prob, "reflection_pair").verdict
            outcomes.append(verdict == expected)
    ok = all(outcomes)
    _report(8, ok, f"{sum(outcomes)}/9 classifications correct over N in {{64,128,256}}")


def test_09_appendix_rate():
    """One-dimensional experiment with the Gaussian-mixture prior and
    m_const = 3: mean exceedance at 3 sqrt(log n / n) decreases over
    {1e2..1e5} and sits below 0.05 at n = 1e5; every close-data ratio
    against the noiseless posterior at half radius is finite."""
    exp = cl.FiniteDimExperiment(p=1, q=1, g_matrix=np.array([[1.0]]),
                                 prior=cl.two_component_mixture(1), m_const=3.0)
    table = cl.finite_dim_rate_run(exp, np.zeros(1), [1e2, 1e3, 1e4, 1e5],
                                   y_replicates=50, seed=404)
    decreasing = all(a >= b for a, b in zip(table.mean_exceedance,
                                            table.mean_exceedance[1:]))
    small_end = table.mean_exceedance[-1] < 0.05
    ratios_finite = all(math.isfinite(r) for lst in table.ratios.values() for r in lst)
    has_ratios = int(table.diagnostic_counts.sum()) > 0
    ok = decreasing and small_end and ratios_finite and has_ratios
    _report(9, ok, f"exceedance {table.mean_exceedance[0]:.2e} -> "
                   f"{table.mean_exceedance[-1]:.2e}, "
                   f"{int(table.diagnostic_counts.sum())} finite ratios")


DETERMINISM_CONFIG = """
problem:
  n_dim: 64
  coupling: {kind: banded}
run:
  pipelines: [rate-fit, gn, concentration]
  n_grid: [100, 1000, 10000, 100000]
  mc: 500
  y_replicates: 8
  master_seed: 77
  k_max: 16
"""


def test_10_determinism_across_workers(tmp_path):
    """Identical configs produce byte-identical CSV tables whether cells run
    on one worker or eight."""
    config = cl.parse_config(DETERMINISM_CONFIG)
    dir1, dir8 = tmp_path / "w1", tmp_path / "w8"
    cl.emit_results(cl.run_experiment(config, workers=1), "csv", dir1)
    cl.emit_results(cl.run_experiment(config, workers=8), "csv", dir8)
    names = sorted(p.name for p in dir1.glob("*.csv"))
    same = bool(names) and all((dir1 / n).read_bytes() == (dir8 / n).read_bytes()
                               for n in names)
    _report(10, same, f"{len(names)} CSV tables byte-identical across 1 and 8 workers")
