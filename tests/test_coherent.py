import pathlib

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from hqrsim import coherent
from hqrsim.coherent import RING_MAX_D, WEIGHT_MODELS, norm_constants, ring_states
from oracles import (gram_matrix, norm_constants_uncached, overlap, quadrature_wavefunction,
                     ring_to_orthonormal)


def gram_sum_oracle(d, alpha, m):
    """Direct double sum over ring-state overlaps."""
    s = [alpha * np.exp(2j * np.pi * k / d) for k in range(d)]
    total = 0j
    for k in range(d):
        for l in range(d):
            total += np.exp(2j * np.pi * (k - l) * m / d) * overlap(s[l], s[k])
    return total


class TestOverlap:
    def test_vacuum_and_self(self):
        assert overlap(0, 0) == pytest.approx(1.0)
        assert abs(overlap(1.3 + 0.2j, 1.3 + 0.2j) - 1.0) < 1e-12

    def test_opposite_amplitudes_match_d2_constant(self):
        alpha = 0.8
        ov = overlap(alpha, -alpha)
        assert abs(ov - np.exp(-2 * alpha ** 2)) < 1e-12
        nu = norm_constants(2, alpha)[0]
        assert abs(nu - 2 * (1 + ov.real)) < 1e-12

    def test_magnitude_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a, b = (complex(*rng.uniform(-2, 2, 2)) for _ in range(2))
            assert abs(overlap(a, b)) <= 1 + 1e-12

    def test_quadrature_oracle(self):
        # integral of psi_a(p) psi_b*(p) over the line reproduces overlap(b, a);
        # p of beta is read as x of -1j beta
        rng = np.random.default_rng(1)
        for _ in range(5):
            a, b = (complex(*rng.uniform(-1.8, 1.8, 2)) for _ in range(2))
            re = quad(lambda p: (quadrature_wavefunction(-1j * a, "x", p)
                                 * np.conj(quadrature_wavefunction(-1j * b, "x", p))).real,
                      -np.inf, np.inf, epsabs=1e-12)[0]
            im = quad(lambda p: (quadrature_wavefunction(-1j * a, "x", p)
                                 * np.conj(quadrature_wavefunction(-1j * b, "x", p))).imag,
                      -np.inf, np.inf, epsabs=1e-12)[0]
            assert abs(complex(re, im) - overlap(b, a)) < 1e-8


class TestNormConstants:
    def test_zero_amplitude(self):
        assert np.allclose(norm_constants(3, 0.0), [9, 0, 0], atol=1e-12)

    def test_matches_gram_sum(self):
        for d in (2, 3, 4, 5):
            for alpha in (0.2, 0.7, 1.5):
                n = norm_constants(d, alpha)
                for m in range(d):
                    oracle = gram_sum_oracle(d, alpha, m)
                    assert abs(oracle.imag) < 1e-10
                    assert abs(n[m] - oracle.real) < 1e-10

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 8])
    def test_sum_rule(self, d):
        for alpha in np.linspace(0.0, 6.0, 20):
            n = norm_constants(d, alpha)
            assert abs(n.sum() - d ** 2) < 1e-10
            assert n.min() >= 0.0

    def test_limits(self):
        # large amplitude: equidistribution toward d each
        n = norm_constants(3, 6.0)
        assert np.max(np.abs(n - 3.0)) < 1e-10
        # small amplitude: everything in the symmetric direction
        n = norm_constants(4, 1e-8)
        assert abs(n[0] - 16.0) < 1e-10

    def test_qutrit_reference_point(self):
        # alpha = 1.2 sqrt(1 - e^{-5/22}); leading weight 6.744.../9 = 0.7493...
        alpha = 1.2 * np.sqrt(1 - np.exp(-5 / 22))
        n = norm_constants(3, alpha)
        assert n[0] == pytest.approx(6.74399, abs=5e-5)
        # Gram-derived trailing constants (these differ from the closed-form
        # variant below; the Fock-space norm of the superposition states
        # confirms the Gram values)
        assert n[1] == pytest.approx(0.28790, abs=5e-5)
        assert n[2] == pytest.approx(1.96811, abs=5e-5)

    def test_fock_space_oracle(self):
        # explicit truncated-Fock norm of sum_k e^{2 pi i k m/3}|alpha w^k>
        from scipy.special import gammaln
        alpha, dim = 0.5410609978120907, 3
        nmax = 120
        ns = np.arange(nmax)

        def coh(a):
            return np.exp(-abs(a) ** 2 / 2) * np.exp(ns * np.log(complex(a)) - 0.5 * gammaln(ns + 1))

        expected = norm_constants(dim, alpha)
        for m in range(dim):
            v = sum(np.exp(2j * np.pi * k * m / dim) * coh(alpha * np.exp(2j * np.pi * k / dim))
                    for k in range(dim))
            assert abs(np.vdot(v, v).real - expected[m]) < 1e-10


class TestNormConstantProperties:
    @settings(max_examples=200, deadline=None)
    @given(d=st.integers(2, 12), alphas=st.lists(st.floats(0.0, 6.0), min_size=1, max_size=4))
    def test_sum_rule_and_nonnegative(self, d, alphas):
        n = norm_constants(d, alphas)
        assert n.shape == (len(alphas), d)
        assert np.abs(n.sum(axis=-1) - d ** 2).max() <= 1e-10 * d ** 2
        assert n.min() >= 0.0


class TestClosedFormVariant:
    def test_d2_identical(self):
        for alpha in (0.0, 0.3, 1.1, 2.5):
            assert np.array_equal(norm_constants(2, alpha, "closed-form"), norm_constants(2, alpha))

    def test_d2_matches_mpmath(self):
        # at d = 2 both models are the DFT, 2(1 +- e^{-2 alpha^2}); the m = 1
        # value is a difference, so its relative error grows as eps / alpha^2
        # toward small alpha: 1.0e-14 at alpha = 0.051, 2.5e-15 above 0.1
        alphas = np.geomspace(0.05, 40.0, 400)
        got = norm_constants(2, alphas, "closed-form")
        assert np.array_equal(got, norm_constants(2, alphas))
        with mpmath.workdps(40):
            for a, row in zip(alphas, got):
                e = mpmath.exp(-2 * mpmath.mpf(a) ** 2)
                for value, want in zip(row, (2 * (1 + e), 2 * (1 - e))):
                    assert abs(value - want) <= 2e-14 * want

    def test_d3_structure(self):
        # m=0 agrees with the Gram constants; the variant sums to 9 and stays
        # nonnegative, but its m=1,2 values deviate (sqrt(3) vs 3 sqrt(3) on
        # the sine term), which is exactly what the benchmark tables use.
        for alpha in np.linspace(0.0, 6.0, 25):
            variant = norm_constants(3, alpha, "closed-form")
            exact = norm_constants(3, alpha)
            assert abs(variant[0] - exact[0]) < 1e-12
            assert abs(variant.sum() - 9.0) < 1e-12
            assert variant.min() > -1e-12

    def test_d3_benchmark_values(self):
        alpha = 1.2 * np.sqrt(1 - np.exp(-5 / 22))
        variant = norm_constants(3, alpha, "closed-form")
        # frozen from a 40-digit evaluation of the trig forms
        assert np.allclose(variant, [6.74398616, 0.84797104, 1.40804279], atol=1e-8)
        assert np.allclose(variant / 9, [0.7494, 0.0942, 0.1564], atol=1e-4)

    def test_other_d_delegates(self):
        for d in (4, 5, 8):
            assert np.array_equal(norm_constants(d, 0.9, "closed-form"), norm_constants(d, 0.9))


class TestGramMatrix:
    def test_zero_amplitude_all_ones(self):
        assert np.allclose(gram_matrix(3, 0.0), np.ones((3, 3)), atol=1e-14)

    def test_hermitian_unit_diagonal_psd(self):
        g = gram_matrix(4, 0.9)
        assert np.allclose(g, g.conj().T, atol=1e-14)
        assert np.allclose(np.diag(g), 1.0)
        assert np.linalg.eigvalsh(g).min() > -1e-12

    def test_eigenvalues_are_norm_constants(self):
        for d, alpha in ((2, 0.4), (3, 0.8), (5, 1.3)):
            ev = np.sort(d * np.linalg.eigvalsh(gram_matrix(d, alpha)))
            assert np.allclose(ev, np.sort(norm_constants(d, alpha)), atol=1e-10)

    def test_large_amplitude_identity(self):
        g = gram_matrix(3, 6.0)
        assert np.max(np.abs(g - np.eye(3))) < 1e-10


class TestRingToOrthonormal:
    def test_normalized(self):
        for d, alpha in ((2, 0.5), (3, 1.1), (4, 0.2)):
            for k in range(d):
                c = ring_to_orthonormal(d, alpha)[k]
                assert abs(np.vdot(c, c).real - 1.0) < 1e-10

    def test_inner_products_reproduce_overlaps(self):
        s = ring_states(3, 0.9)
        for k in range(3):
            for kp in range(3):
                ck = ring_to_orthonormal(3, 0.9)[k]
                ckp = ring_to_orthonormal(3, 0.9)[kp]
                assert abs(np.vdot(ck, ckp) - overlap(s[k], s[kp])) < 1e-10

    def test_d2_cat_expansion(self):
        # |+-alpha> = (sqrt(N_u)|u> +- sqrt(N_v)|v>)/2
        alpha = 0.7
        n = norm_constants(2, alpha)
        assert np.allclose(ring_to_orthonormal(2, alpha)[0], np.sqrt(n) / 2, atol=1e-12)
        assert np.allclose(ring_to_orthonormal(2, alpha)[1],
                           np.array([np.sqrt(n[0]), -np.sqrt(n[1])]) / 2, atol=1e-12)

    def test_zero_amplitude(self):
        for k in range(3):
            assert np.allclose(ring_to_orthonormal(3, 0.0)[k], [1, 0, 0], atol=1e-14)


class TestArrayCalls:
    @pytest.mark.parametrize("model", WEIGHT_MODELS)
    @pytest.mark.parametrize("d", range(2, 7))
    def test_array_call_equals_per_amplitude_calls(self, d, model):
        alphas = np.linspace(0.0, 3.0, 13).reshape(13, 1) * [1.0, 0.37]
        whole = norm_constants(d, alphas, model)
        assert whole.shape == (13, 2, d)
        for idx in np.ndindex(alphas.shape):
            assert np.array_equal(whole[idx], norm_constants(d, alphas[idx], model))
            assert np.array_equal(whole[idx], norm_constants(d, float(alphas[idx]), model))

    def test_ring_states(self):
        s = ring_states(3, 0.9)
        assert s.shape == (3,)
        assert np.allclose(s, [0.9 * np.exp(2j * np.pi * k / 3) for k in range(3)], atol=1e-15)
        grid = ring_states(4, [0.5, 1.0])
        assert grid.shape == (2, 4)
        assert np.array_equal(grid[1], ring_states(4, 1.0))


class TestDftFactorCache:
    def test_matches_uncached_oracle_bit_for_bit(self):
        # most calls at d <= 8, where the cache hits, a fifth over the whole
        # range, where it mostly misses and evicts
        rng = np.random.default_rng(31)
        for _ in range(5000):
            d = int(rng.integers(2, RING_MAX_D + 1 if rng.random() < 0.2 else 9))
            size = int(rng.integers(1, 4))
            alphas = np.exp(rng.uniform(np.log(1e-6), np.log(40.0), size))
            alphas[rng.random(size) < 0.1] = 0.0
            call = float(alphas[0]) if size == 1 else alphas
            try:
                want = norm_constants_uncached(d, call)
            except ArithmeticError as exc:
                with pytest.raises(ArithmeticError, match=str(exc)):
                    norm_constants(d, call)
                continue
            got = norm_constants(d, call)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (d, call)
        info = coherent._dft_factors.cache_info()
        assert info.maxsize == 16 and info.currsize <= 16 and info.hits > 0

    def test_cached_factors_refuse_writes(self):
        ring, dft = coherent._dft_factors(5)
        for factor, index in ((ring, 1), (dft, (1, 1))):
            with pytest.raises(ValueError, match="read-only"):
                factor[index] = 0.0
        assert np.array_equal(norm_constants(5, 0.7), norm_constants_uncached(5, 0.7))

    def test_residue_check_sees_a_patched_twiddle(self, monkeypatch):
        ring, dft = coherent._dft_factors(3)
        monkeypatch.setattr(coherent, "_dft_factors", lambda d: (ring + 1e-3j, dft))
        with pytest.raises(ArithmeticError, match="non-real residue"):
            norm_constants(3, 1.0)


class TestValidation:
    @pytest.mark.parametrize("call", [ring_states, norm_constants])
    @pytest.mark.parametrize("d, alpha", [(1, 0.5), (0, 0.5), (3, -0.1), (3, np.nan),
                                          (3, np.inf), (3, [0.5, -1.0])])
    def test_rejects_bad_ring(self, call, d, alpha):
        with pytest.raises(ValueError, match="dimension|amplitude"):
            call(d, alpha)

    def test_ring_dimension_cap(self):
        # at the cap the DFT passes its residue check on an alpha grid over [0, 40]
        alphas = np.concatenate([[0.001, 0.01, 0.1], np.linspace(0.0, 40.0, 401)])
        for chunk in np.array_split(alphas, 8):
            n = norm_constants(RING_MAX_D, chunk)
            assert np.abs(n.sum(axis=-1) - RING_MAX_D ** 2).max() <= 1e-10 * RING_MAX_D ** 2
        for d in (RING_MAX_D + 1, 10 ** 7):
            with pytest.raises(ValueError, match=rf"\[2, {RING_MAX_D}\], got {d}"):
                norm_constants(d, 0.5)

    def test_unknown_model_raises_in_coherent(self):
        with pytest.raises(ValueError, match="unknown weight model 'bogus'") as info:
            norm_constants(3, 1.0, "bogus")
        assert info.traceback[-1].path.name == pathlib.Path(coherent.__file__).name
