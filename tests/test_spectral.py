"""Spectra, couplings, measures, forward model and simulation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import contraction_lab as cl
from contraction_lab import quadform, spectral
from contraction_lab.errors import ConstructionError, NumericalError, ParameterError
from contraction_lab.rng import substream

from block_reference import zero_pattern_blocks


def identity_problem(n_dim=4, alpha=1.0, delta=1.0):
    return cl.InverseProblem(
        operator=cl.make_spectrum(cl.MildFamily(alpha), n_dim),
        coupling=cl.make_coupling(cl.IdentityCoupling(), n_dim),
        prior=cl.power_law_prior(delta, n_dim),
        noise=cl.white_noise(n_dim),
        n_dim=n_dim,
    )


class TestSpectrumFamilies:
    def test_mild_alpha_one_three_modes(self):
        """Direct evaluation of (1 + k^2)^(-1/2) for k = 1, 2, 3."""
        spec = cl.make_spectrum(cl.MildFamily(1.0), 3)
        k = np.arange(1, 4, dtype=float)
        np.testing.assert_allclose(spec.rho, (1 + k**2) ** -0.5, rtol=1e-15)
        np.testing.assert_allclose(spec.rho, [0.70711, 0.44721, 0.31623], atol=5e-6)

    def test_mild_alpha_zero_is_flat(self):
        spec = cl.make_spectrum(cl.MildFamily(0.0), 7)
        assert np.array_equal(spec.rho, np.ones(7))

    def test_severe_pure_exponential(self):
        """alpha1 = alpha2 = 0, c0 = 1, beta = -1 gives exp(-2k)."""
        spec = cl.make_spectrum(cl.SevereFamily(0.0, 0.0, 1.0, -1.0), 2)
        np.testing.assert_array_equal(spec.rho, np.exp([-2.0, -4.0]))

    @pytest.mark.parametrize("family", [
        cl.MildFamily(-0.5),
        cl.MildFamily(1.0, c1=0.0),
        cl.MildFamily(1.0, c1=2.0, c2=1.0),
        cl.SevereFamily(0.0, 1.0, 1.0, -1.0),   # alpha1 < alpha2
        cl.SevereFamily(1.0, 0.5, -1.0, -1.0),  # c0 <= 0
    ])
    def test_bad_parameters_rejected(self, family):
        with pytest.raises(ParameterError):
            cl.make_spectrum(family, 4)

    def test_bad_n_dim_rejected(self):
        with pytest.raises(ParameterError):
            cl.make_spectrum(cl.MildFamily(1.0), 0)

    @pytest.mark.parametrize("family", [
        cl.MildFamily(1.5, c1=0.5, c2=2.0),
        cl.SevereFamily(1.0, 0.25, 0.7, -1.2),
    ])
    def test_envelope_holds_at_every_index(self, family):
        spec = cl.make_spectrum(family, 64)
        lo, hi = spec.envelope_bounds()
        assert np.all(lo <= spec.rho + 1e-15)
        assert np.all(spec.rho <= hi + 1e-15)

    def test_explicit_spectrum_must_be_monotone(self):
        with pytest.raises(ParameterError):
            cl.make_spectrum(np.array([0.5, 1.0]), 2)
        with pytest.raises(ParameterError):
            cl.make_spectrum(np.array([1.0, -0.5]), 2)


class TestCouplings:
    def test_identity(self):
        coupling = cl.make_coupling(cl.IdentityCoupling(), 4)
        assert np.array_equal(coupling.t.dense(), np.eye(4))

    def test_reflection_on_basis_vector(self):
        """Householder reflection across e1 flips exactly that axis."""
        coupling = cl.make_coupling(cl.ReflectionCoupling(np.array([1.0, 0.0, 0.0])), 3)
        np.testing.assert_array_equal(coupling.t.dense(), np.diag([-1.0, 1.0, 1.0]))

    def test_banded_support_and_orthogonality(self):
        coupling = cl.make_coupling(cl.BandedCoupling(1 / 3, 2.0), 8, seed=7)
        t = coupling.t.dense()
        assert np.linalg.norm(t.T @ t - np.eye(8)) < 1e-10
        for j in range(1, 9):
            lo, hi = cl.band_window(j, 1 / 3, 2.0, 8)
            col = t[:, j - 1]
            assert np.all(col[: lo - 1] == 0.0)
            assert np.all(col[hi:] == 0.0)

    @pytest.mark.parametrize("n_dim,seed", [(16, 0), (33, 1), (128, 2), (257, 3)])
    def test_banded_pattern_any_size_and_seed(self, n_dim, seed):
        coupling = cl.make_coupling(cl.BandedCoupling(), n_dim, seed=seed)
        t = coupling.t.dense()
        assert np.linalg.norm(t.T @ t - np.eye(n_dim)) < 1e-10
        for j in range(1, n_dim + 1):
            lo, hi = cl.band_window(j, 1 / 3, 2.0, n_dim)
            assert np.all(t[: lo - 1, j - 1] == 0.0)
            assert np.all(t[hi:, j - 1] == 0.0)

    def test_exp_skew_is_orthogonal(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((6, 6))
        a = a - a.T
        coupling = cl.make_coupling(cl.ExpSkewCoupling(a), 6)
        assert np.linalg.norm(coupling.t.dense().T @ coupling.t.dense() - np.eye(6)) < 1e-10

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            cl.make_coupling(cl.ReflectionCoupling(np.zeros(3)), 3)
        with pytest.raises(ParameterError):
            cl.make_coupling(cl.ExpSkewCoupling(np.ones((3, 3))), 3)
        with pytest.raises(ParameterError):
            cl.make_coupling(cl.BandedCoupling(2.0, 1.0), 8)
        with pytest.raises(ParameterError):
            cl.make_coupling(cl.ExplicitCoupling(np.ones((3, 3))), 3)

    def test_infeasible_band_pattern(self):
        with pytest.raises(ConstructionError):
            cl.make_coupling(cl.BandedCoupling(0.5, 0.9), 8)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_entry_rejected(self, bad):
        """A NaN entry makes ``||T'T - I||_F`` NaN, which compares false
        against the tolerance either way round; it must still be rejected."""
        t = np.eye(3)
        t[1, 1] = bad
        with pytest.raises(ParameterError, match="not orthonormal"):
            cl.make_coupling(cl.ExplicitCoupling(t), 3)


def _hilbert_coupling(n_dim):
    spec = cl.make_spectrum(cl.MildFamily(1.0), n_dim)
    return cl.hilbert_scale_prior(spec, 1.0, 2.0, cl.random_spd(n_dim, seed=2, scale=0.2))[0]


class TestCouplingBlocks:
    """A coupling holds T on its finest diagonal blocks: the banded builder's
    seeded blocks, one run for the identity, and for a T that arrives dense
    the blocks of its exact zero pattern in both triangles, found once. It
    checks orthonormality block by block."""

    @pytest.mark.parametrize("n_dim,seed", [(16, 0), (128, 2), (512, 7)])
    def test_banded_blocks_are_the_seeded_partition(self, n_dim, seed):
        coupling = cl.make_coupling(cl.BandedCoupling(), n_dim, seed=seed)
        made = spectral._banded_blocks(n_dim, 1 / 3, 2.0, substream(seed, "banded-coupling"))
        assert np.array_equal(coupling.t.edges, [0] + [b for _, b in made])
        with pytest.raises(ValueError, match="read-only"):
            coupling.t.edges[0] = 1

    def test_identity_and_dense_kinds(self):
        assert np.array_equal(cl.make_coupling(cl.IdentityCoupling(), 5).t.edges, np.arange(6))
        reflect = cl.make_coupling(cl.ReflectionCoupling(np.array([1.0, 0.0, 0.0])), 3)
        assert np.array_equal(reflect.t.edges, [0, 1, 2, 3])
        skew = np.triu(np.ones((6, 6)), 1)
        for coupling in (cl.make_coupling(cl.ReflectionCoupling(np.arange(1.0, 9.0)), 8),
                         cl.make_coupling(cl.ExpSkewCoupling(skew - skew.T), 6),
                         _hilbert_coupling(32)):
            assert np.array_equal(coupling.t.edges, [0, coupling.n_dim])

    def test_both_triangles_count(self):
        """An entry above the diagonal joins blocks as one below it does,
        even one small enough to pass the orthonormality tolerance."""
        t = np.eye(4)
        t[[0, 0, 1, 1], [0, 1, 0, 1]] = [0.6, 0.8, -0.8, 0.6]  # rotation, rows 0:2
        assert np.array_equal(cl.make_coupling(cl.ExplicitCoupling(t), 4).t.edges, [0, 2, 3, 4])
        p = np.eye(4)[[0, 3, 2, 1]]  # swaps coordinates 1 and 3
        assert np.array_equal(cl.make_coupling(cl.ExplicitCoupling(p), 4).t.edges, [0, 1, 4])
        for row, col, edges in ((1, 3, [0, 1, 4]), (0, 2, [0, 3, 4])):
            t = np.eye(4)
            t[row, col] = 1e-12  # above the diagonal; its transpose has it below
            for mat in (t, t.T):
                assert np.array_equal(cl.make_coupling(cl.ExplicitCoupling(mat), 4).t.edges, edges)

    @pytest.mark.parametrize("kind", ["banded", "identity"])
    @pytest.mark.parametrize("n_dim", [1, 2, 3, 512])
    def test_banded_and_identity_builds_scan_nothing(self, monkeypatch, kind, n_dim):
        """The banded and identity builders know their blocks, so neither
        calls ``_coupling_blocks``; an explicit T of the same size does."""
        def refuse(mat):
            raise AssertionError("zero-pattern scan")

        monkeypatch.setattr(spectral, "_coupling_blocks", refuse)
        coupling = cl.make_coupling({"banded": cl.BandedCoupling(),
                                     "identity": cl.IdentityCoupling()}[kind], n_dim, seed=7)
        assert coupling.t.n_dim == n_dim
        if kind == "identity":
            assert coupling.t.segments == ((0, n_dim, True),)
            assert np.array_equal(coupling.t.parts[0], np.ones(n_dim))
        with pytest.raises(AssertionError, match="zero-pattern scan"):
            cl.make_coupling(cl.ExplicitCoupling(np.eye(n_dim)), n_dim)

    def test_dense_coupling_skips_the_scan(self):
        """A nonzero corner makes a dense T one block with no zero-pattern
        scan: the whole-matrix comparison that starts the scan is never
        made, and the coupling's one part is the matrix it was built from."""
        class Unscannable(np.ndarray):
            def __ne__(self, other):
                raise AssertionError("zero-pattern scan of a dense coupling")

        hilbert = _hilbert_coupling(64)
        refl = cl.make_coupling(cl.ReflectionCoupling(np.arange(1.0, 65.0)), 64)
        for coupling in (hilbert, refl):
            assert np.array_equal(coupling.t.edges, [0, 64])
            assert len(coupling.t.parts) == 1 and coupling.t.dense() is coupling.t.parts[0]
            t = coupling.t.parts[0].view(Unscannable)
            assert np.array_equal(spectral._coupling_blocks(t), [0, 64])
        with pytest.raises(AssertionError, match="zero-pattern scan"):
            spectral._coupling_blocks(np.eye(64).view(Unscannable))

    @settings(derandomize=True, deadline=None, max_examples=250)
    @given(st.data())
    def test_scan_matches_the_reference(self, data):
        """The one-pass scan against the definition (``block_reference``)
        on drawn zero patterns: permutations, zero diagonals and entries on
        either side of the diagonal, in both memory orders."""
        n = data.draw(st.integers(1, 12))
        mat = np.zeros((n, n))
        if data.draw(st.booleans()):
            mat[np.arange(n), data.draw(st.permutations(range(n)))] = 1.0
        else:
            mat[np.diag_indices(n)] = data.draw(st.lists(st.sampled_from([0.0, 1.0]),
                                                         min_size=n, max_size=n))
        entries = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                            st.sampled_from([0.0, -1e-300, 2.0]))
        for i, j, value in data.draw(st.lists(entries, max_size=n)):
            mat[i, j] = value
        for order in "CF":
            arr = np.array(mat, order=order)
            assert np.array_equal(spectral._coupling_blocks(arr), zero_pattern_blocks(mat))

    @pytest.mark.parametrize("kind", ["banded", "identity", "reflection", "hilbert"])
    def test_couplings_match_the_reference(self, kind):
        """On the package's couplings, in both memory orders: the default
        banded partition, N one-row blocks, a reflection whose vector has
        two nonzero entries (rows 2 to 5 are one block), and a dense
        Hilbert-scale basis."""
        v = np.zeros(16)
        v[[2, 5]] = [0.6, 0.8]
        t = {"banded": lambda: cl.make_coupling(cl.BandedCoupling(), 512, seed=7).t.dense(),
             "identity": lambda: np.eye(64),
             "reflection": lambda: cl.make_coupling(cl.ReflectionCoupling(v), 16).t.dense(),
             "hilbert": lambda: _hilbert_coupling(64).t.dense()}[kind]()
        ref = zero_pattern_blocks(t)
        for order in "CF":
            assert np.array_equal(spectral._coupling_blocks(np.array(t, order=order)), ref)
        if kind == "reflection":
            assert np.array_equal(ref, [0, 1, 2, 6] + list(range(7, 17)))

    @pytest.mark.parametrize("block", [0, 3, 7])
    def test_bad_block_rejected_with_the_whole_matrix_error(self, block):
        coupling = cl.make_coupling(cl.BandedCoupling(), 128, seed=2)
        lo, hi = coupling.t.edges[block], coupling.t.edges[block + 1]
        t = coupling.t.dense().copy()
        t[lo:hi, lo:hi] *= 1.0 + 1e-6
        err = np.linalg.norm(t.T @ t - np.eye(128))
        with pytest.raises(ParameterError, match=f"{err:.3e}"):
            cl.make_coupling(cl.ExplicitCoupling(t), 128)

    def test_orthonormal_kinds_pass(self):
        rng = np.random.default_rng(1)
        for coupling in (cl.make_coupling(cl.BandedCoupling(), 257, seed=3),
                         cl.make_coupling(cl.IdentityCoupling(), 64),
                         cl.make_coupling(cl.ReflectionCoupling(rng.standard_normal(64)), 64),
                         _hilbert_coupling(64)):
            t = coupling.t.dense()
            assert np.linalg.norm(t.T @ t - np.eye(coupling.n_dim)) < spectral.ORTHOGONALITY_TOL


def _adjoint_problem(coupling):
    n = coupling.n_dim
    return cl.InverseProblem(cl.make_spectrum(cl.MildFamily(1.0), n), coupling,
                             cl.power_law_prior(1.0, n),
                             cl.diagonal_noise(np.linspace(0.5, 2.0, n), n), n)


class TestBlockAdjoint:
    """``whitened_adjoint`` applies ``T^T`` one part of ``coupling.t`` at a
    time, a run of one-row blocks as one elementwise product, and a
    one-block coupling as one product."""

    @pytest.mark.parametrize("make", [
        lambda: cl.make_coupling(cl.BandedCoupling(), 512, seed=5),
        lambda: cl.make_coupling(cl.IdentityCoupling(), 64),
        lambda: cl.make_coupling(cl.ReflectionCoupling(np.eye(64)[2]), 64),
        lambda: cl.make_coupling(cl.ReflectionCoupling(np.arange(1.0, 65.0)), 64),
        lambda: _hilbert_coupling(64),
    ], ids=["banded", "identity", "reflection-diagonal", "reflection", "hilbert"])
    def test_matches_the_whole_product(self, make):
        prob = _adjoint_problem(make())
        n, t = prob.n_dim, prob.coupling.t.dense()
        rng = np.random.default_rng(n)
        for x in (rng.standard_normal(n), rng.standard_normal((n, 7))):
            v = prob.noise_whiten(x)
            v = (prob.operator.rho * v.T).T
            ref = t.T @ v
            got = prob.whitened_adjoint(x)
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()

    def test_one_block_coupling_makes_one_product(self):
        for coupling in (_hilbert_coupling(64),
                         cl.make_coupling(cl.ReflectionCoupling(np.arange(1.0, 65.0)), 64)):
            t = coupling.t
            assert len(t.parts) == 1 and t.dense() is t.parts[0]
            prob = _adjoint_problem(coupling)
            x = np.random.default_rng(0).standard_normal((64, 5))
            v = (prob.operator.rho * prob.noise_whiten(x).T).T
            assert np.array_equal(prob.whitened_adjoint(x), t.parts[0].T @ v)

    def test_one_row_runs_are_elementwise(self):
        """The identity and a coordinate reflection are one run of one-row
        blocks: the adjoint is the diagonal times the whitened data, exactly."""
        for coupling in (cl.make_coupling(cl.IdentityCoupling(), 64),
                         cl.make_coupling(cl.ReflectionCoupling(np.eye(64)[2]), 64)):
            assert coupling.t.segments == ((0, 64, True),)
            prob = _adjoint_problem(coupling)
            x = np.random.default_rng(1).standard_normal((64, 3))
            v = (prob.operator.rho * prob.noise_whiten(x).T).T
            assert np.array_equal(prob.whitened_adjoint(x),
                                  np.diagonal(coupling.t.dense())[:, None] * v)


class TestBlockGram:
    """With diagonal noise the whitened Gram is formed one coupling block at
    a time; dense noise forms it whole."""

    def test_banded_gram_matches_dense_product(self):
        n = 512
        prob = cl.InverseProblem(cl.make_spectrum(cl.MildFamily(1.0), n),
                                 cl.make_coupling(cl.BandedCoupling(), n, seed=5),
                                 cl.power_law_prior(1.0, n),
                                 cl.diagonal_noise(np.linspace(0.5, 2.0, n), n), n)
        gram, m = prob.whitened_gram.dense(), prob.whitened_forward
        ref = m.T @ m
        assert np.abs(gram - ref).max() <= 1e-15 * np.abs(ref).max()
        assert np.array_equal(gram, gram.T)
        inside = np.zeros((n, n), dtype=bool)
        for lo, hi in zip(prob.coupling.t.edges[:-1], prob.coupling.t.edges[1:]):
            inside[lo:hi, lo:hi] = True
        assert prob.coupling.t.edges.size > 2 and not np.any(gram[~inside])
        assert np.array_equal(prob.gram_blocks, prob.coupling.t.edges)

    @pytest.mark.parametrize("noise", ["colored", "dense"])
    def test_dense_noise_gram_is_bit_equal(self, noise):
        n = 64
        spec = cl.make_spectrum(cl.MildFamily(1.0), n)
        cov = cl.random_spd(n, seed=4, scale=0.2)
        measure = (cl.colored_noise(spec, 0.5, cov) if noise == "colored"
                   else cl.dense_noise(cov))
        prob = cl.InverseProblem(spec, cl.make_coupling(cl.BandedCoupling(), n, seed=3),
                                 cl.power_law_prior(1.0, n), measure, n)
        m = prob.whitened_forward
        gram = prob.whitened_gram
        assert len(gram.parts) == 1 and gram.dense() is gram.parts[0]
        assert np.array_equal(gram.dense(), m.T @ m)
        assert np.array_equal(gram.dense(), gram.dense().T)


class TestMeasures:
    def test_zero_variance_rejected(self):
        with pytest.raises(ParameterError):
            cl.explicit_prior([1.0, 0.0], 2)

    def test_colored_noise_matches_inverse_square(self):
        """zeta (G^-r + K1)^2 = I by direct matrix multiplication, and the
        stored factor is the lower Cholesky factor of G^-r + K1."""
        spec = cl.make_spectrum(cl.MildFamily(1.0), 6)
        k1 = cl.random_spd(6, seed=3, scale=0.2)
        noise = cl.colored_noise(spec, 0.5, k1)
        base = np.diag(spec.rho**-0.5) + k1
        np.testing.assert_allclose(noise.dense @ base @ base, np.eye(6), atol=1e-10)
        factor = noise.root_factor
        assert np.array_equal(factor, np.tril(factor)) and np.all(np.diag(factor) > 0)
        np.testing.assert_allclose(factor @ factor.T, base, rtol=1e-14, atol=1e-14)

    def test_indefinite_colored_root_names_k1(self):
        """K1 = -2 I leaves G^(-1/2) + K1 with diagonal entries of both signs,
        so the whitening root is indefinite and the error names K1."""
        spec = cl.make_spectrum(cl.MildFamily(1.0), 6)
        with pytest.raises(ParameterError, match="K1"):
            cl.colored_noise(spec, 0.5, -2.0 * np.eye(6))

    def test_colored_noise_requires_r_in_unit_interval(self):
        spec = cl.make_spectrum(cl.MildFamily(1.0), 4)
        with pytest.raises(ParameterError):
            cl.colored_noise(spec, 1.5, np.eye(4))

    def test_hilbert_scale_prior_matches_fractional_power(self):
        """Reconstructed covariance equals (G^-t + K2)^(-l) elementwise."""
        from scipy.linalg import fractional_matrix_power

        spec = cl.make_spectrum(cl.MildFamily(1.0), 6)
        k2 = cl.random_spd(6, seed=9, scale=0.3)
        coupling, prior = cl.hilbert_scale_prior(spec, t=1.0, l=1.5, k2=k2)
        rebuilt = (coupling.t.dense() * prior.variances[None, :]) @ coupling.t.dense().T
        target = fractional_matrix_power(np.diag(spec.rho**-1.0) + k2, -1.5).real
        np.testing.assert_allclose(rebuilt, target, atol=1e-10)
        assert np.all(np.diff(prior.variances) <= 1e-15)

    def test_hilbert_scale_eigenvectors_occupy_the_shifted_array(self, monkeypatch):
        """The prior's eigensolve runs in place: the coupling's one part is
        the Fortran-ordered array ``_shifted`` formed, now holding the
        eigenvectors, and its eigenvalues are those of ``eigh``."""
        formed = []
        shifted = spectral._shifted
        monkeypatch.setattr(spectral, "_shifted",
                            lambda *args: formed.append(shifted(*args)) or formed[-1])
        spec = cl.make_spectrum(cl.MildFamily(1.0), 40)
        k2 = cl.random_spd(40, seed=9, scale=0.3)
        coupling, prior = cl.hilbert_scale_prior(spec, t=1.0, l=2.0, k2=k2)
        (part,) = coupling.t.parts
        assert len(formed) == 1 and part is formed[0] and part.flags.f_contiguous
        assert not part.flags.writeable
        vals = np.linalg.eigvalsh(np.diag(spec.rho**-1.0) + k2)
        np.testing.assert_allclose(prior.variances, vals**-2.0, rtol=1e-12)

    def test_hilbert_scale_eigensolve_failure_names_the_prior(self, monkeypatch):
        """A nonzero ``info`` from LAPACK dsyevd raises ``NumericalError``
        naming the routine and the prior, not a prior built from garbage."""
        original = spectral.dsyevd
        monkeypatch.setattr(spectral, "dsyevd", lambda *a, **k: original(*a, **k)[:2] + (5,))
        spec = cl.make_spectrum(cl.MildFamily(1.0), 8)
        with pytest.raises(NumericalError, match=r"dsyevd failed with info = 5 on the "
                                                 r"hilbert-scale prior"):
            cl.hilbert_scale_prior(spec, 1.0, 2.0, cl.random_spd(8, seed=1, scale=0.3))

    def test_dense_noise_must_be_spd(self):
        with pytest.raises(ParameterError):
            cl.dense_noise(np.diag([1.0, -0.5]))

    @pytest.mark.parametrize("factor", [np.eye(3), np.diag([1.0, 0.0]),
                                        np.array([[1.0, 0.0], [np.nan, 1.0]])])
    def test_root_factor_must_be_square_finite_with_positive_diagonal(self, factor):
        with pytest.raises(ParameterError):
            cl.DenseNoise(2, factor)

    def test_dense_prior_rejected(self):
        """The posterior treats the prior as diagonal in the phi-basis, so a
        dense measure passed as the prior would be silently misread."""
        spec = cl.make_spectrum(cl.MildFamily(1.0), 2)
        prior = cl.dense_noise(np.array([[1.0, 0.3], [0.3, 0.5]]))
        with pytest.raises(ParameterError):
            cl.InverseProblem(spec, cl.make_coupling(cl.IdentityCoupling(), 2), prior,
                              cl.white_noise(2), 2)

    @pytest.mark.parametrize("n_dim,seed,scale", [(1, 0, 1.0), (2, 3, 0.5), (7, 1, 0.2),
                                                  (64, 5, 0.3), (257, 2, 1.0)])
    def test_random_spd_bytes_pinned(self, n_dim, seed, scale):
        """Built in the draw's own array, the matrix keeps the bytes of the
        expression ``scale * (I + S / (1.05 ||S||_2))``, S = (A + A') / 2."""
        a = substream(seed, "spd").standard_normal((n_dim, n_dim))
        s = 0.5 * (a + a.T)
        ref = scale * (np.eye(n_dim) + s / (1.05 * np.abs(np.linalg.eigvalsh(s)).max()))
        k = cl.random_spd(n_dim, seed, scale)
        assert k.flags.c_contiguous and k.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n_dim", [1, 2, 7])
    def test_random_spd_every_size(self, n_dim):
        """Symmetric, with eigenvalues in [scale (1 - 1/1.05), scale (1 + 1/1.05)]."""
        k = cl.random_spd(n_dim, seed=3, scale=0.5)
        assert k.shape == (n_dim, n_dim)
        assert np.array_equal(k, k.T)
        vals = np.linalg.eigvalsh(k)
        assert vals.min() >= 0.5 * (1 - 1 / 1.05) - 1e-12
        assert vals.max() <= 0.5 * (1 + 1 / 1.05) + 1e-12


class TestForwardModel:
    def test_diagonal_scaling_in_e_basis(self):
        prob = cl.InverseProblem(
            cl.make_spectrum(np.array([1.0, 0.5]), 2),
            cl.make_coupling(cl.IdentityCoupling(), 2),
            cl.power_law_prior(1.0, 2), cl.white_noise(2), 2)
        np.testing.assert_array_equal(
            cl.forward_apply(prob, np.array([1.0, 1.0])), [1.0, 0.5])

    def test_reflection_flips_first_mode(self):
        prob = cl.InverseProblem(
            cl.make_spectrum(cl.MildFamily(0.0), 2),
            cl.make_coupling(cl.ReflectionCoupling(np.array([1.0, 0.0])), 2),
            cl.power_law_prior(1.0, 2), cl.white_noise(2), 2)
        np.testing.assert_array_equal(
            cl.forward_apply(prob, np.array([1.0, 0.0])), [-1.0, 0.0])

    def test_zero_maps_to_zero(self):
        prob = identity_problem(5)
        assert np.all(cl.forward_apply(prob, np.zeros(5)) == 0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ParameterError):
            cl.forward_apply(identity_problem(4), np.zeros(5))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           a=st.floats(-10, 10, allow_nan=False),
           b=st.floats(-10, 10, allow_nan=False))
    def test_linearity(self, seed, a, b):
        """f(a u + b v) = a f(u) + b f(v) to 1e-12 relative."""
        prob = identity_problem(6)
        rng = np.random.default_rng(seed)
        u, v = rng.standard_normal(6), rng.standard_normal(6)
        lhs = cl.forward_apply(prob, a * u + b * v)
        rhs = a * cl.forward_apply(prob, u) + b * cl.forward_apply(prob, v)
        scale = max(1.0, np.linalg.norm(rhs))
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * scale


class TestSimulation:
    def test_fixed_seed_bit_identical(self):
        prob = identity_problem(4)
        u0 = cl.power_law_truth(2.0, 4)
        a = cl.simulate_data(prob, u0, 100.0, seed=11)
        b = cl.simulate_data(prob, u0, 100.0, seed=11)
        assert np.array_equal(a.y, b.y)

    def test_zero_truth_white_noise_is_scaled_normal(self):
        """With u0 = 0 and white noise, y = z / sqrt(n) exactly."""
        prob = identity_problem(4)
        data = cl.simulate_data(prob, np.zeros(4), 25.0, seed=3)
        z = cl.substream(3, "simulate").standard_normal(4)
        assert np.array_equal(data.y, z / 5.0)

    def test_large_n_recovers_forward_image(self):
        """||y - G u0|| = ||z|| / sqrt(n) <= 1e-4 at n = 1e10 unless ||z|| > 10,
        an event of probability below 1e-3 for a 4-dim standard normal."""
        prob = identity_problem(4)
        u0 = cl.power_law_truth(2.0, 4)
        data = cl.simulate_data(prob, u0, 1e10, seed=17)
        gap = np.linalg.norm(data.y - cl.forward_apply(prob, u0))
        assert gap < 1e-4

    @pytest.mark.parametrize("dense", [False, True])
    def test_noise_covariance_matches_target(self, dense):
        """Empirical covariance of sqrt(n) (y - G u0) over 1e4 independent
        seeds matches the noise covariance entrywise within 5 SE."""
        n_dim, m, n_level = 3, 10_000, 7.0
        spec = cl.make_spectrum(cl.MildFamily(1.0), n_dim)
        if dense:
            noise = cl.colored_noise(spec, 0.5, cl.random_spd(n_dim, seed=1, scale=0.3))
            zeta = noise.dense
        else:
            noise = cl.diagonal_noise([1.0, 0.5, 2.0], n_dim)
            zeta = np.diag(noise.variances)
        prob = cl.InverseProblem(spec, cl.make_coupling(cl.IdentityCoupling(), n_dim),
                                 cl.power_law_prior(1.0, n_dim), noise, n_dim)
        u0 = cl.power_law_truth(1.0, n_dim)
        gu0 = cl.forward_apply(prob, u0)
        draws = np.array([
            math.sqrt(n_level) * (cl.simulate_data(prob, u0, n_level, seed=s).y - gu0)
            for s in range(m)])
        emp = draws.T @ draws / m
        se = np.sqrt((np.outer(np.diag(zeta), np.diag(zeta)) + zeta**2) / m)
        assert np.all(np.abs(emp - zeta) <= 5 * se)

    def test_bad_n_level(self):
        with pytest.raises(ParameterError):
            cl.simulate_data(identity_problem(3), np.zeros(3), 0.0, seed=0)


class TestNoiseRoot:
    """Whitening and colouring against the eigen-route oracle: for a
    whitening root W = V diag(w) V', whiten(x) = V diag(w) V' x and
    color(x) = V diag(1/w) V' x."""

    N = 64

    @staticmethod
    def _eigen_route(vals, vecs, power, x):
        return vecs @ ((vals**power)[:, None] * (vecs.T @ x.reshape(len(vals), -1)))

    def _problem_and_root(self, kind):
        n = self.N
        spec = cl.make_spectrum(cl.MildFamily(1.0), n)
        if kind == "colored":
            k1 = cl.random_spd(n, seed=5, scale=0.3)
            noise = cl.colored_noise(spec, 0.5, k1)
            vals, vecs = np.linalg.eigh(np.diag(spec.rho**-0.5) + k1)
        else:
            k = cl.random_spd(n, seed=6, scale=1.0)
            cov_vals, vecs = np.linalg.eigh(k @ k)
            noise = cl.dense_noise(k @ k)
            vals = cov_vals**-0.5
        prob = cl.InverseProblem(spec, cl.make_coupling(cl.IdentityCoupling(), n),
                                 cl.power_law_prior(1.0, n), noise, n)
        return prob, vals, vecs

    @pytest.mark.parametrize("kind", ["colored", "dense"])
    @pytest.mark.parametrize("shape", [(64,), (64, 5)])
    def test_whiten_and_color_match_eigen_route(self, kind, shape):
        prob, vals, vecs = self._problem_and_root(kind)
        x = np.random.default_rng(7).standard_normal(shape)
        for got, power in ((prob.noise_whiten(x), 1.0), (prob.noise_color(x), -1.0)):
            want = self._eigen_route(vals, vecs, power, x).reshape(shape)
            assert got.shape == shape
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


class TestImmutability:
    def _colored_problem(self, n=6):
        spec = cl.make_spectrum(cl.MildFamily(1.0), n)
        return cl.InverseProblem(spec, cl.make_coupling(cl.BandedCoupling(), n, seed=3),
                                 cl.power_law_prior(1.0, n),
                                 cl.colored_noise(spec, 0.5, cl.random_spd(n, seed=4, scale=0.2)), n)

    def test_stored_arrays_are_read_only(self):
        prob = self._colored_problem()
        for arr in (prob.operator.rho, prob.prior.variances,
                    prob.noise.root_factor, prob.noise.dense):
            with pytest.raises(ValueError):
                arr[0] = -1.0
        assert np.all(prob.operator.rho > 0)

    @pytest.mark.parametrize("make", [
        lambda: cl.make_coupling(cl.BandedCoupling(), 64, seed=3),
        lambda: cl.make_coupling(cl.IdentityCoupling(), 6),
        lambda: cl.make_coupling(cl.ReflectionCoupling(np.eye(6)[2]), 6),
        lambda: cl.make_coupling(cl.ReflectionCoupling(np.arange(1.0, 7.0)), 6),
        lambda: cl.make_coupling(cl.ExplicitCoupling(np.eye(6)[[0, 3, 2, 1, 4, 5]]), 6),
        lambda: _hilbert_coupling(6),
    ], ids=["banded", "identity", "reflection-diagonal", "reflection", "explicit", "hilbert"])
    def test_coupling_parts_and_edges_are_read_only(self, make):
        """Every part of ``coupling.t``, a block or a run's vector, and its
        edges refuse writes."""
        t = make().t
        for arr in (t.edges, *t.parts):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = -1

    def test_cached_matrices_are_read_only(self):
        prob = self._colored_problem()
        for arr in (prob.whitened_forward, *prob.whitened_gram.parts):
            with pytest.raises(ValueError):
                arr[0, 0] = -1.0
            with pytest.raises(ValueError):
                arr *= 2.0
        assert np.array_equal(prob.whitened_gram.dense(),
                              prob.whitened_forward.T @ prob.whitened_forward)

    @pytest.mark.parametrize("noise", ["colored", "diagonal"])
    def test_gram_and_adjoint_do_without_cached_forward_map(self, noise):
        """``whitened_gram`` forms M only as a temporary when M is not held,
        bit-equal to the Gram of the cached M; ``whitened_adjoint`` gives
        ``M^T x`` for a vector and a block to rounding, and neither leaves M
        cached."""
        prob = self._colored_problem(12)
        if noise == "diagonal":
            prob = cl.InverseProblem(prob.operator, prob.coupling, prob.prior,
                                     cl.diagonal_noise(np.linspace(0.5, 2.0, 12), 12), 12)
        x = np.random.default_rng(0).standard_normal((12, 3))
        gram, adjoint, adjoint_vec = (prob.whitened_gram.dense(), prob.whitened_adjoint(x),
                                      prob.whitened_adjoint(x[:, 0]))
        assert "whitened_forward" not in vars(prob)
        m = prob.whitened_forward
        twin = cl.InverseProblem(prob.operator, prob.coupling, prob.prior, prob.noise, 12)
        twin.whitened_forward
        assert np.array_equal(gram, twin.whitened_gram.dense()) and np.array_equal(gram, gram.T)
        ref = m.T @ x
        np.testing.assert_allclose(adjoint, ref, rtol=0, atol=1e-14 * np.abs(ref).max())
        np.testing.assert_allclose(adjoint_vec, ref[:, 0], rtol=0, atol=1e-14 * np.abs(ref).max())

    def test_whitening_needs_no_further_decomposition(self, monkeypatch):
        """The noise measure carries the Cholesky factor of its whitening
        root, so whitening and colouring never decompose anything again."""
        prob = self._colored_problem()

        def refuse(*args, **kwargs):
            raise AssertionError("decomposition after build")

        for name in ("eigh", "eigvalsh", "svd"):
            monkeypatch.setattr(np.linalg, name, refuse)
        zeta = prob.noise.dense
        m = prob.whitened_forward
        g_t = prob.operator.rho[:, None] * prob.coupling.t.dense()
        np.testing.assert_allclose(m.T @ zeta @ m, g_t.T @ g_t, rtol=1e-10, atol=1e-12)
        z = np.ones(prob.n_dim)
        np.testing.assert_allclose(prob.noise_whiten(prob.noise_color(z)), z, rtol=1e-12)

    def test_caller_arrays_are_copied_not_frozen(self):
        rho = np.array([1.0, 0.5, 0.25])
        t = np.eye(3)
        lam = np.array([1.0, 0.5, 0.2])
        cov = np.diag([2.0, 1.0, 0.5])
        spec = cl.make_spectrum(rho, 3)
        coupling = cl.make_coupling(cl.ExplicitCoupling(t), 3)
        prior = cl.explicit_prior(lam, 3)
        noise = cl.dense_noise(cov)
        for arr in (rho, t, lam, cov):
            assert arr.flags.writeable
            arr[0] = -1.0
        assert spec.rho[0] == 1.0
        assert coupling.t.dense()[0, 0] == 1.0 and not np.shares_memory(coupling.kind.t_matrix, t)
        assert prior.variances[0] == 1.0
        assert abs(noise.dense[0, 0] - 2.0) <= 1e-15  # derived through the root

    def test_coupling_kinds_hold_read_only_copies(self):
        """A coupling's kind keeps read-only copies of its arrays: writing to
        the caller's arrays leaves the diagnostics built on the kind
        unchanged, and writing through the kind raises. An explicit kind,
        the Hilbert-scale prior's included, shares the coupling's one part,
        or holds the matrix that the coupling's parts view."""
        n = 6
        spec = cl.make_spectrum(cl.MildFamily(1.0), n)

        def problem(kind):
            return cl.InverseProblem(spec, cl.make_coupling(kind, n), cl.power_law_prior(1.0, n),
                                     cl.white_noise(n), n)

        a = np.triu(np.arange(1.0, n * n + 1).reshape(n, n) / 10.0, 1)
        a = a - a.T
        v = np.arange(1.0, n + 1)
        skew, refl = problem(cl.ExpSkewCoupling(a)), problem(cl.ReflectionCoupling(v))
        before = (cl.hs_diagnostic(skew, "exp_pair").values,
                  cl.hs_diagnostic(refl, "reflection_pair").values)
        assert any(before[0]) and any(before[1])
        a[:] = 0.0
        v[:] = 0.0
        for arr in (skew.coupling.kind.a_matrix, refl.coupling.kind.v):
            with pytest.raises(ValueError):
                arr[0] = 0.0
        assert (cl.hs_diagnostic(skew, "exp_pair").values,
                cl.hs_diagnostic(refl, "reflection_pair").values) == before

        t = np.array(refl.coupling.t.dense())  # a dense orthogonal matrix, one block
        explicit = cl.make_coupling(cl.ExplicitCoupling(t), n)
        hilbert, _ = cl.hilbert_scale_prior(spec, 1.0, 2.0, cl.random_spd(n, seed=5, scale=0.1))
        for coupling in (explicit, hilbert):
            assert len(coupling.t.parts) == 1 and coupling.kind.t_matrix is coupling.t.parts[0]
        assert t.flags.writeable
        runs = cl.make_coupling(cl.ExplicitCoupling(np.eye(n)), n)
        assert runs.t.segments == ((0, n, True),)
        assert np.shares_memory(runs.t.parts[0], runs.kind.t_matrix)

    def test_data_sample_holds_read_only_copies(self):
        """A data sample neither follows later writes to the caller's arrays
        nor accepts a write that would bypass its finiteness check."""
        y, u0 = np.array([1.0, 2.0, 3.0]), np.zeros(3)
        sample = cl.DataSample(y=y, n_level=10.0, u0=u0, seed=0)
        y[0], u0[0] = 99.0, 99.0
        assert sample.y[0] == 1.0 and sample.u0[0] == 0.0
        for arr in (sample.y, sample.u0):
            with pytest.raises(ValueError, match="read-only"):
                arr[1] = np.nan
        assert np.all(np.isfinite(sample.y))
