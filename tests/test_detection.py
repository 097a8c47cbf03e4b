from dataclasses import astuple
from typing import NamedTuple

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from hqrsim import detection
from hqrsim.coherent import norm_constants, ring_states
from hqrsim.detection import (_cross_integrals, _measured_ring, _pair_integrals,
                              homodyne_report, quadrature_wavefunction,
                              usd_bound, window_geometry, window_stats)
from hqrsim.states import ChannelParams
from oracles import (gram_matrix, offdiag_bound_loop, overlap, quadrature_mean, quadrature_pdf,
                     window_mass)
from oracles import quadrature_wavefunction as oracle_wavefunction

# the library reads p of beta as x of -1j beta
TURN = {"x": 1, "p": -1j}


class Row(NamedTuple):
    window_probs: tuple
    window_fidelities: tuple
    p_succ: float
    f_av: float


def window_row(d, alpha, channel, delta_frac) -> Row:
    """The scalar `window_stats` row: the window numbers without the off-diagonal bound."""
    [(_, _, probs, fids, p_succ, f_av)] = window_stats(d, alpha, channel, delta_frac)
    return Row(tuple(probs), tuple(fids), p_succ, f_av)


def window_max(d, alpha, gamma, delta_frac, w):
    """Largest |cross integral| over window w, one window of the maximum
    that `homodyne_report` reports as `offdiag_bound`."""
    bounds = window_geometry(d, alpha, gamma, delta_frac).bounds
    return np.abs(_pair_integrals(_measured_ring(d, alpha, gamma), [bounds[w]], 1e-10)).max()


class TestQuadraturePdf:
    def test_peak_value(self):
        beta = 1.3 + 0.4j
        assert quadrature_pdf(beta, "x", beta.real) == pytest.approx(np.sqrt(2 / np.pi))
        assert quadrature_pdf(beta, "p", beta.imag) == pytest.approx(np.sqrt(2 / np.pi))

    def test_normalized(self):
        val, _ = quad(lambda x: quadrature_pdf(0.7 - 0.2j, "x", x), -np.inf, np.inf,
                      epsabs=1e-12)
        assert abs(val - 1.0) < 1e-10

    def test_rotated_state_p_mean(self):
        g = np.exp(-5 / 22)
        beta = np.sqrt(g) * 0.9 * np.exp(2j * np.pi / 3)
        # density peaks at p = (sqrt(3)/2) sqrt(gamma) alpha
        peak = np.sqrt(3) / 2 * np.sqrt(g) * 0.9
        assert quadrature_pdf(beta, "p", peak) == pytest.approx(np.sqrt(2 / np.pi))

    def test_unknown_quadrature(self):
        with pytest.raises(ValueError):
            quadrature_pdf(1.0, "q", 0.0)


class TestWavefunction:
    def test_whole_line_identity_both_quadratures(self):
        rng = np.random.default_rng(3)
        for quadr in ("x", "p"):
            for _ in range(5):
                a, b = (complex(*rng.uniform(-2, 2, 2)) * TURN[quadr] for _ in range(2))
                re = quad(lambda t: (quadrature_wavefunction(a, t)
                                     * np.conj(quadrature_wavefunction(b, t))).real,
                          -np.inf, np.inf, epsabs=1e-12)[0]
                im = quad(lambda t: (quadrature_wavefunction(a, t)
                                     * np.conj(quadrature_wavefunction(b, t))).imag,
                          -np.inf, np.inf, epsabs=1e-12)[0]
                assert abs(complex(re, im) - overlap(b, a)) < 1e-8

    def test_magnitude_matches_pdf(self):
        beta = 0.8 + 0.5j
        for quadr in ("x", "p"):
            for t in (-1.0, 0.0, 0.4):
                assert abs(quadrature_wavefunction(TURN[quadr] * beta, t)) ** 2 == \
                    pytest.approx(quadrature_pdf(beta, quadr, t), abs=1e-12)

    def test_turned_state_is_p_wavefunction_exactly(self):
        # x of -1j beta is the p wavefunction of beta term by term, so the
        # quarter turn moves no bit of any result
        rng = np.random.default_rng(14)
        beta = rng.uniform(-30, 30, 200) + 1j * rng.uniform(-30, 30, 200)
        t = rng.uniform(-40, 40, 200)
        assert np.array_equal(quadrature_wavefunction(-1j * beta, t),
                              oracle_wavefunction(beta, "p", t))
        assert np.array_equal(quadrature_wavefunction(beta, t), oracle_wavefunction(beta, "x", t))


class TestWindowGeometry:
    def test_d2_full_width_tiles_line(self):
        ws = window_geometry(2, 1.0, np.exp(-5 / 22), 1.0)
        assert ws.bounds[0][0] == pytest.approx(0.0)
        assert ws.bounds[1][1] == pytest.approx(0.0)
        # the failure gap between the windows is degenerate
        assert ws.bounds[0][0] - ws.bounds[1][1] == pytest.approx(0.0)

    def test_d3_geometry(self):
        g = np.exp(-5 / 22)
        ws = window_geometry(3, 1.0, g, 1.0)
        c1 = np.sqrt(3) / 2 * np.sqrt(g)
        assert ws.bounds[0] == (pytest.approx(-c1 / 2), pytest.approx(c1 / 2))
        # at the maximum width the failure gaps close to zero measure
        assert ws.bounds[1][0] - ws.bounds[0][1] == pytest.approx(0.0)
        assert ws.bounds[0][0] - ws.bounds[2][1] == pytest.approx(0.0)

    def test_d4_middle_states_unassigned(self):
        ws = window_geometry(4, 1.0, 0.8, 0.5)
        assert ws.dominant_ring == (0, 2)
        assert len(ws.bounds) == 2  # the +-i alpha states get no window

    def test_validation(self):
        with pytest.raises(ValueError):
            window_geometry(5, 1.0, 0.8, 0.5)
        # a vanishing damped amplitude collapses every window onto the origin
        for alpha, gamma in ((0.0, 0.8), (1.0, 0.0)):
            with pytest.raises(ValueError, match="alpha > 0"):
                window_geometry(3, alpha, gamma, 0.2)
        with pytest.raises(ValueError):
            window_geometry(3, 1.0, 0.8, 0.0)
        with pytest.raises(ValueError):
            window_geometry(3, 1.0, 0.8, 1.2)


class TestWindowStats:
    """The amplitude-array pass behind `homodyne_report` and the rates."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_elements_equal_scalar_reports(self, d):
        # batched norm constants and rings change no bit of any amplitude's numbers
        # against the scalar row (`homodyne_report`'s window numbers, next test)
        ch = ChannelParams(7.0)
        alphas = np.linspace(0.2, 3.0, 12)
        for alpha, (_, _, probs, fids, p_succ, f_av) in zip(alphas,
                                                             window_stats(d, alphas, ch, 0.3)):
            want = Row(tuple(probs), tuple(fids), p_succ, f_av)
            assert window_row(d, float(alpha), ch, 0.3) == want

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_report_is_scalar_row(self, d):
        rep = homodyne_report(d, 1.3, ChannelParams(7.0), 0.3)
        assert Row(*astuple(rep)[:4]) == window_row(d, 1.3, ChannelParams(7.0), 0.3)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_probabilities_are_window_mass_sums(self, d):
        # the per-window, per-state erf loop, summed in the same order
        ch = ChannelParams(5.0)
        rep = window_row(d, 1.1, ch, 0.25)
        means = _measured_ring(d, 1.1, ch.gamma).real.tolist()
        bounds = window_geometry(d, 1.1, ch.gamma, 0.25).bounds
        assert rep.window_probs == tuple(sum(window_mass(b, c) for c in means) / d
                                         for b in bounds)


class TestHomodyneReport:
    def test_d3_operating_point(self):
        # frozen from a 40-digit erf evaluation of the window integrals
        rep = window_row(3, 1.0, ChannelParams(5.0), 0.2)
        assert rep.window_probs[0] == pytest.approx(0.0659831157903435, abs=1e-12)
        assert rep.window_probs[1] == pytest.approx(0.215046275145199, abs=1e-12)
        assert rep.window_fidelities[0] == pytest.approx(0.507206635905806, abs=1e-12)
        assert rep.window_fidelities[1] == pytest.approx(0.71114947230081, abs=1e-12)
        assert rep.p_succ == pytest.approx(0.496075666080742, abs=1e-12)
        assert rep.f_av == pytest.approx(0.684022998037764, abs=1e-12)
        # the mean fidelity sits in the claimed band; the total acceptance
        # probability lands just below 0.5 (not the folklore 0.4)
        assert 0.65 <= rep.f_av <= 0.75

    def test_d2_symmetric_windows(self):
        rep = window_row(2, 1.2, ChannelParams(5.0), 0.5)
        assert rep.window_probs[0] == pytest.approx(rep.window_probs[1], abs=1e-14)
        assert rep.p_succ == pytest.approx(0.85859363645997, abs=1e-12)
        assert rep.f_av == pytest.approx(0.777820524065525, abs=1e-12)

    def test_d2_full_width_unit_success(self):
        rep = window_row(2, 1.0, ChannelParams(5.0), 1.0)
        assert abs(rep.p_succ - 1.0) < 1e-10

    def test_d4_report(self):
        rep = window_row(4, 1.2, ChannelParams(5.0), 0.5)
        assert rep.p_succ == pytest.approx(0.571359284604291, abs=1e-12)
        assert rep.f_av == pytest.approx(0.560416432159028, abs=1e-12)
        assert rep.p_succ < 1.0  # the +-i alpha states mostly miss the windows

    def test_large_amplitude_fidelity_third(self):
        rep = window_row(3, 6.0, ChannelParams(5.0), 0.2)
        assert rep.f_av == pytest.approx(1 / 3, abs=1e-3)

    def test_probabilities_bounded(self):
        for d in (2, 3, 4):
            rep = window_row(d, 0.8, ChannelParams(10.0), 0.7)
            assert 0 <= rep.p_succ <= 1 + 1e-12
            assert all(0 <= p <= 1 for p in rep.window_probs)
            assert all(0 <= f <= 1 for f in rep.window_fidelities)

    def test_narrow_window_limits(self):
        # only the bounded center window vanishes as delta -> 0; the
        # half-line windows keep finite acceptance mass
        rep = window_row(3, 1.0, ChannelParams(5.0), 1e-6)
        assert rep.window_probs[0] < 1e-6
        assert rep.window_probs[1] > 0.18

    def test_unsupported_dimension(self):
        with pytest.raises(ValueError):
            homodyne_report(5, 1.0, ChannelParams(5.0), 0.2)


class TestOffdiagWeight:
    def test_whole_line_recovers_overlap(self):
        # stretching the window over the whole line turns the cross term
        # into the plain coherent overlap
        ch = ChannelParams(5.0)
        ring = -1j * ring_states(3, np.sqrt(ch.gamma) * 1.0)  # p read as x
        got = window_max(3, 1.0, ch.gamma, 1.0 - 1e-12, 1)
        # window w1 at full width starts at half the ring's p spacing;
        # compare against the largest half-line cross integral computed directly
        best = max(abs(_cross_integrals(ring[i], ring[j],
                                        np.sqrt(3) / 4 * np.sqrt(ch.gamma), np.inf, 1e-10))
                   for i in range(3) for j in range(3) if i != j)
        assert got == pytest.approx(best, abs=1e-10)

    def test_equal_amplitudes_reduce_to_window_mass(self):
        beta = 0.6 + 0.3j
        for bounds in ((-0.5, 0.5), (0.2, np.inf)):
            val = _cross_integrals(-1j * beta, -1j * beta, *bounds, 1e-10)
            assert abs(val.imag) < 1e-10
            assert val.real == pytest.approx(window_mass(bounds, beta.imag), abs=1e-10)

    def test_whole_line_overlap_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            a, b = (complex(*rng.uniform(-1.5, 1.5, 2)) for _ in range(2))
            val = _cross_integrals(a, b, -np.inf, np.inf, 1e-10)
            assert abs(val - overlap(b, a)) < 1e-8

    def test_reference_window_value(self):
        # frozen cross-term magnitude at the 5 km qutrit operating point;
        # about half of the dominant diagonal mass, so the diagonal
        # approximation is only marginal here.  It cannot affect the
        # reported probabilities or fidelities (orthogonal Bell states
        # sandwich the coherences to zero) but matters when modelling the
        # post-selected state for purification.
        ch = ChannelParams(5.0)
        val = window_max(3, 1.0, ch.gamma, 0.2, 0)
        assert val == pytest.approx(0.0672762660207136, abs=1e-10)
        diag = window_mass((-0.2 * np.sqrt(3) / 4 * np.sqrt(ch.gamma),
                            0.2 * np.sqrt(3) / 4 * np.sqrt(ch.gamma)), 0.0)
        assert val / diag == pytest.approx(0.5476, abs=1e-3)

    def test_halved_pairs_match_all_ordered_pairs(self):
        # |integral psi_i psi_j*| is symmetric in (i, j); the i < j loop must
        # still find the maximum over every ordered pair
        for d, alpha in ((2, 1.1), (3, 1.1), (3, 5.0), (4, 2.0)):
            ch = ChannelParams(5.0)
            ws = window_geometry(d, alpha, ch.gamma, 0.2)
            ring = _measured_ring(d, alpha, ch.gamma)
            for w, bounds in enumerate(ws.bounds):
                direct = max(abs(_cross_integrals(ring[i], ring[j], *bounds, 1e-10))
                             for i in range(d) for j in range(d) if i != j)
                assert window_max(d, alpha, ch.gamma, 0.2, w) == pytest.approx(direct, abs=1e-14)

    def test_unconverged_quadrature_raises(self):
        with pytest.raises(ArithmeticError, match="did not converge"):
            _cross_integrals(1.0 + 0.5j, -1.0 + 0.5j, -1.0, 1.0, -1.0)


def _mp_cross_integral(beta_i, beta_j, quadrature, bounds):
    """The window cross integral by mpmath tanh-sinh quadrature at 30 digits,
    from the closed-form x and p wavefunctions (`oracles.quadrature_wavefunction`)."""
    with mpmath.workdps(30):
        bi, bj = mpmath.mpc(beta_i), mpmath.mpc(beta_j)
        if quadrature == "p":
            phase = 1j * (bi.real * bi.imag - bj.real * bj.imag)
            mi, mj, k = bi.imag, bj.imag, -2j * (bi.real - bj.real)
        else:
            phase = -1j * (bi.real * bi.imag - bj.real * bj.imag)
            mi, mj, k = bi.real, bj.real, 2j * (bi.imag - bj.imag)
        f = lambda q: mpmath.exp(phase - (q - mi) ** 2 - (q - mj) ** 2 + k * q)
        lo, hi = (mpmath.mpf(x) for x in bounds)
        c = (mi + mj) / 2
        points = [lo] + [c + s for s in (-3, 0, 3) if lo < c + s < hi] + [hi]
        return complex(mpmath.sqrt(2 / mpmath.pi) * mpmath.quad(f, points))


class TestCrossIntegralOracle:
    @pytest.mark.parametrize("alpha", [1.1, 5.0])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_mpmath(self, d, alpha):
        # the reference reads the qutrit ring on p directly, unturned
        ch = ChannelParams(5.0)
        ws = window_geometry(d, alpha, ch.gamma, 0.2)
        ring = ring_states(d, np.sqrt(ch.gamma) * alpha)
        measured = _measured_ring(d, alpha, ch.gamma)
        quadrature = "p" if d == 3 else "x"
        for bounds in ws.bounds:
            for i in range(d):
                for j in range(i + 1, d):
                    got = _cross_integrals(measured[i], measured[j], *bounds, 1e-10)
                    ref = _mp_cross_integral(ring[i], ring[j], quadrature, bounds)
                    assert abs(got - ref) < 1e-12

    @pytest.mark.parametrize("sa", [10.0, 35.0, 90.0])
    def test_fast_oscillation_matches_dawson(self, sa):
        # the +-i sa pair of d = 4 shares x-mean 0 and oscillates as
        # exp(4i sa x); over x >= 0 the integral is
        # exp(-k^2/8)/2 + i D(k/(2 sqrt 2))/sqrt(pi), k = 4 sa, D = Dawson
        got = _cross_integrals(1j * sa, -1j * sa, 0.0, np.inf, 1e-10)
        with mpmath.workdps(30):
            x = 4 * mpmath.mpf(sa) / (2 * mpmath.sqrt(2))
            dawson = mpmath.sqrt(mpmath.pi) / 2 * mpmath.exp(-x ** 2) * mpmath.erfi(x)
            ref = complex(mpmath.exp(-x ** 2) / 2 + 1j * dawson / mpmath.sqrt(mpmath.pi))
        assert abs(got - ref) < 1e-12


def _quad_cross_integral(beta_i, beta_j, quadrature, bounds):
    """The window cross integral by scipy quad over the part of the window
    within 7 of the envelope center (mi + mj)/2, where the magnitude
    sqrt(2/pi) exp(-2 (q - c)^2 - (mi - mj)^2 / 2) is above 1e-42.  The
    wavefunctions are the oracle's own x and p ones."""
    c = (quadrature_mean(beta_i, quadrature) + quadrature_mean(beta_j, quadrature)) / 2
    lo, hi = max(bounds[0], c - 7.0), min(bounds[1], c + 7.0)
    if lo >= hi:
        return 0j
    f = lambda q: (oracle_wavefunction(beta_i, quadrature, q)
                   * np.conj(oracle_wavefunction(beta_j, quadrature, q)))
    re = quad(lambda q: f(q).real, lo, hi, epsabs=1e-13, epsrel=0, limit=500)[0]
    im = quad(lambda q: f(q).imag, lo, hi, epsabs=1e-13, epsrel=0, limit=500)[0]
    return complex(re, im)


@pytest.fixture
def wavefunction_calls(monkeypatch):
    """Records the value-array shape of every quadrature_wavefunction call."""
    shapes = []

    def spy(beta, value):
        shapes.append(np.shape(value))
        return quadrature_wavefunction(beta, value)

    monkeypatch.setattr(detection, "quadrature_wavefunction", spy)
    return shapes


class TestBatchedCrossIntegrals:
    @pytest.mark.parametrize("alpha", [1.1, 5.0])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_every_window_pair_matches_quad(self, d, alpha, wavefunction_calls):
        ch = ChannelParams(5.0)
        ws = window_geometry(d, alpha, ch.gamma, 0.2)
        ring = ring_states(d, np.sqrt(ch.gamma) * alpha)
        got = _pair_integrals(_measured_ring(d, alpha, ch.gamma), ws.bounds, 1e-10)
        assert got.shape == (len(ws.bounds), d * (d - 1) // 2)
        quadrature = "p" if d == 3 else "x"  # the unturned ring, read directly
        for w, bounds in enumerate(ws.bounds):
            for p, (i, j) in enumerate(zip(*np.triu_indices(d, 1))):
                ref = _quad_cross_integral(ring[i], ring[j], quadrature, bounds)
                assert abs(got[w, p] - ref) < 1e-12
        if d > 2 and alpha == 5.0:
            # k * width > 64 here, so some integral has several panels
            assert wavefunction_calls[0][0] > got.size

    def test_integrals_converging_at_different_orders(self, wavefunction_calls):
        # a wide non-oscillating window needs order 256; the fast +-10i pair
        # converges at 128 over five panels and then drops out of the batch
        beta_i = np.array([2.0 + 0j, 10j, 0.3 + 0.2j])
        beta_j = np.array([2.0 + 0j, -10j, -0.4 + 1j])
        lo, hi = np.array([-30.0, 0.0, -1.0]), np.array([30.0, np.inf, 0.5])
        got = detection._cross_integrals(beta_i, beta_j, lo, hi, 1e-10)
        rows = [shape[0] for shape in wavefunction_calls[::2]]
        orders = [shape[1] for shape in wavefunction_calls[::2]]
        assert orders == [64, 128, 256] and rows == [7, 7, 1]
        for k in range(3):
            ref = _quad_cross_integral(beta_i[k], beta_j[k], "x", (lo[k], hi[k]))
            assert abs(got[k] - ref) < 1e-12
            alone = _cross_integrals(beta_i[k], beta_j[k], lo[k], hi[k], 1e-10)
            assert abs(got[k] - alone) < 1e-14

    @pytest.mark.parametrize("d, alpha", [(2, 1.1), (3, 1.1), (3, 5.0), (4, 2.0), (4, 5.0)])
    def test_offdiag_weight_is_batched_window_max(self, d, alpha):
        ch = ChannelParams(5.0)
        ws = window_geometry(d, alpha, ch.gamma, 0.3)
        ring = _measured_ring(d, alpha, ch.gamma)
        batch = np.abs(_pair_integrals(ring, ws.bounds, 1e-10))
        assert homodyne_report(d, alpha, ch, 0.3).offdiag_bound == batch.max()

    def test_bound_matches_per_integral_loop(self):
        # the grid the batched core was checked on against the loop it replaced
        for d in (2, 3, 4):
            for alpha in (0.5, 1.1, 3.0, 5.0):
                for L0 in (1.0, 5.0, 20.0):
                    ch = ChannelParams(L0)
                    for delta_frac in (0.1, 0.2, 0.5, 1.0):
                        got = homodyne_report(d, alpha, ch, delta_frac).offdiag_bound
                        ref = offdiag_bound_loop(d, alpha, ch, delta_frac)
                        assert abs(got - ref) <= 1e-14

    def test_bound_at_or_below_tolerance_reads_zero(self):
        d, alpha, ch, delta_frac = 4, 26.99, ChannelParams(2.144), 0.6703
        ws = window_geometry(d, alpha, ch.gamma, delta_frac)
        ring = _measured_ring(d, alpha, ch.gamma)
        noise = np.abs(_pair_integrals(ring, ws.bounds, 1e-10)).max()
        assert 0.0 < noise <= 1e-10
        assert homodyne_report(d, alpha, ch, delta_frac).offdiag_bound == 0.0

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_two_wavefunction_calls_per_order(self, d, wavefunction_calls):
        homodyne_report(d, 1.1, ChannelParams(5.0), 0.25)
        orders = {shape[-1] for shape in wavefunction_calls}
        assert len(wavefunction_calls) <= 2 * len(orders)

    def test_unconverged_report_raises(self, wavefunction_calls):
        with pytest.raises(ArithmeticError, match="did not converge"):
            homodyne_report(3, 1.0, ChannelParams(5.0), 0.2, quadrature_tol=-1.0)
        # every order up to GL_MAX_ORDER was tried, twice each
        assert [shape[-1] for shape in wavefunction_calls] == [64, 64, 128, 128,
                                                                256, 256, 512, 512]


class TestUsdBound:
    def test_zero_amplitude(self):
        assert usd_bound(3, 0.0, 0.9) == 0.0

    def test_benchmark_values(self):
        assert usd_bound(3, 0.5, np.exp(-20 / 22)) == pytest.approx(0.0137597, abs=5e-8)
        p = usd_bound(3, 1.2, np.exp(-5 / 22))
        assert p == pytest.approx(0.6427, abs=5e-5)
        assert round(p, 2) == 0.64

    def test_equals_min_norm_constant_over_d(self):
        rng = np.random.default_rng(6)
        for d in (2, 3, 4, 5):
            for _ in range(5):
                alpha = rng.uniform(0.1, 3.0)
                gamma = rng.uniform(0.2, 1.0)
                direct = usd_bound(d, alpha, gamma)
                via_norms = np.min(norm_constants(d, np.sqrt(gamma) * alpha)) / d
                assert abs(direct - via_norms) < 1e-12
                # independent oracle: smallest Gram eigenvalue (Chefles-Barnett)
                assert abs(direct - np.linalg.eigvalsh(gram_matrix(d, np.sqrt(gamma) * alpha))[0]) < 1e-12

    def test_monotone_in_amplitude(self):
        for d in (2, 3, 4):
            vals = [usd_bound(d, a, 0.8) for a in np.linspace(0.0, 4.0, 81)]
            assert all(x <= y + 1e-12 for x, y in zip(vals, vals[1:]))

    def test_clamped(self):
        assert 0.0 <= usd_bound(2, 8.0, 1.0) <= 1.0
