import math
import warnings
from typing import NamedTuple

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import wofz

from hqrsim.coherent import AMPLITUDE_MAX, norm_constants, ring_states
from hqrsim.detection import _faddeeva, _pair_integrals, homodyne_report, usd_bound, window_stats
from hqrsim.states import ChannelParams
from oracles import (gram_matrix, homodyne_windows, offdiag_bound_loop, overlap, quadrature_mean,
                     quadrature_pdf, window_mass)
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


def geometry(d, alpha, channel, delta_frac):
    """(window bounds, measured ring) of the scalar `window_stats` row."""
    [(bounds, ring, *_)] = window_stats(d, alpha, channel, delta_frac)
    return bounds, ring


def window_max(d, alpha, channel, delta_frac, w):
    """Largest |cross integral| over window w, one window of the maximum
    that `homodyne_report` reports as `offdiag_bound`."""
    bounds, ring = geometry(d, alpha, channel, delta_frac)
    return np.abs(_pair_integrals(ring, [bounds[w]])).max()


def cross(beta_i, beta_j, lo, hi):
    """One cross integral over [lo, hi]: the only pair of a two-state ring."""
    return _pair_integrals(np.array([beta_i, beta_j]), [(lo, hi)])[0, 0]


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
    """The x and p wavefunctions that the quadrature references integrate."""

    def test_whole_line_identity_both_quadratures(self):
        rng = np.random.default_rng(3)
        for quadr in ("x", "p"):
            for _ in range(5):
                a, b = (complex(*rng.uniform(-2, 2, 2)) * TURN[quadr] for _ in range(2))
                re = quad(lambda t: (oracle_wavefunction(a, "x", t)
                                     * np.conj(oracle_wavefunction(b, "x", t))).real,
                          -np.inf, np.inf, epsabs=1e-12)[0]
                im = quad(lambda t: (oracle_wavefunction(a, "x", t)
                                     * np.conj(oracle_wavefunction(b, "x", t))).imag,
                          -np.inf, np.inf, epsabs=1e-12)[0]
                assert abs(complex(re, im) - overlap(b, a)) < 1e-8

    def test_magnitude_matches_pdf(self):
        beta = 0.8 + 0.5j
        for quadr in ("x", "p"):
            for t in (-1.0, 0.0, 0.4):
                assert abs(oracle_wavefunction(TURN[quadr] * beta, "x", t)) ** 2 == \
                    pytest.approx(quadrature_pdf(beta, quadr, t), abs=1e-12)

    def test_turned_state_is_p_wavefunction_exactly(self):
        # x of -1j beta is the p wavefunction of beta term by term, so the
        # library's quarter turn of the qutrit ring moves no bit of any result
        rng = np.random.default_rng(14)
        beta = rng.uniform(-30, 30, 200) + 1j * rng.uniform(-30, 30, 200)
        t = rng.uniform(-40, 40, 200)
        assert np.array_equal(oracle_wavefunction(-1j * beta, "x", t),
                              oracle_wavefunction(beta, "p", t))


class TestWindowGeometry:
    """The bounds and measured ring that each `window_stats` row carries."""

    def test_d2_full_width_tiles_line(self):
        bounds, _ = geometry(2, 1.0, ChannelParams(5.0), 1.0)
        assert bounds[0][0] == pytest.approx(0.0)
        assert bounds[1][1] == pytest.approx(0.0)
        # the failure gap between the windows is degenerate
        assert bounds[0][0] - bounds[1][1] == pytest.approx(0.0)

    def test_d3_geometry(self):
        g = np.exp(-5 / 22)
        bounds, _ = geometry(3, 1.0, ChannelParams(5.0), 1.0)
        c1 = np.sqrt(3) / 2 * np.sqrt(g)
        assert bounds[0] == (pytest.approx(-c1 / 2), pytest.approx(c1 / 2))
        # at the maximum width the failure gaps close to zero measure
        assert bounds[1][0] - bounds[0][1] == pytest.approx(0.0)
        assert bounds[0][0] - bounds[2][1] == pytest.approx(0.0)

    def test_d4_middle_states_unassigned(self):
        ch, alpha = ChannelParams(5.0), 1.0
        [(bounds, ring, probs, fids, *_)] = window_stats(4, alpha, ch, 0.5)
        assert len(bounds) == 2  # the +-i alpha states get no window
        assert np.abs(ring[[1, 3]].real).max() < 1e-15
        # window w0 keeps the mass of ring state 0, window w1 that of state 2
        lead = norm_constants(4, np.sqrt(1 - ch.gamma) * alpha)[0] / 16
        means = ring.real.tolist()
        for b, p, f, dom in zip(bounds, probs, fids, (0, 2)):
            assert f == pytest.approx(lead * window_mass(b, means[dom]) / 4 / p, rel=1e-14,
                                      abs=0.0)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_rows_match_definitions(self, d):
        # the windows as `homodyne_windows` writes them, and the ring as read on x
        ch = ChannelParams(7.0)
        alphas = np.linspace(0.05, 4.0, 9)
        for alpha, (bounds, ring, *_) in zip(alphas, window_stats(d, alphas, ch, 0.35)):
            sa = np.sqrt(ch.gamma) * alpha
            want = homodyne_windows(d, sa, 0.35)
            assert len(bounds) == len(want)
            for got, ref in zip(bounds, want):
                assert got == (pytest.approx(ref[0], rel=1e-14, abs=0.0),
                               pytest.approx(ref[1], rel=1e-14, abs=0.0))
            turn = -1j if d == 3 else 1  # p of beta is x of -1j beta
            assert np.allclose(ring, turn * sa * np.exp(2j * np.pi * np.arange(d) / d),
                               rtol=1e-15, atol=0)

    def test_validation(self):
        ch = ChannelParams(5.0)
        with pytest.raises(ValueError, match="d in"):
            window_stats(5, 1.0, ch, 0.5)
        # a vanishing damped amplitude collapses every window onto the origin;
        # gamma underflows to 0 at 10^5 km
        for alpha, channel in ((0.0, ch), (1.0, ChannelParams(1e5))):
            with pytest.raises(ValueError, match="alpha > 0"):
                window_stats(3, alpha, channel, 0.2)
        for delta_frac in (0.0, 1.2):
            with pytest.raises(ValueError, match="delta_frac"):
                window_stats(3, 1.0, ch, delta_frac)

    def test_checks_run_in_order_over_the_whole_array(self):
        # d, then delta_frac, then sqrt(gamma) alpha > 0, then the amplitude cap
        ch = ChannelParams(5.0)
        for args, match in (((5, [1.0, -1.0], 0.0), "d in"),
                            ((3, [1.0, -1.0], 0.0), "delta_frac"),
                            ((3, [1.0, -1.0, np.inf], 0.2), "alpha > 0"),
                            ((3, [1.0, np.nan], 0.2), "alpha > 0"),
                            ((3, [1.0, np.inf], 0.2), "amplitude must lie")):
            d, alphas, delta_frac = args
            with pytest.raises(ValueError, match=match):
                window_stats(d, np.array(alphas), ch, delta_frac)


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
        assert Row(*tuple(rep)[:4]) == window_row(d, 1.3, ChannelParams(7.0), 0.3)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_probabilities_are_window_mass_sums(self, d):
        # the per-window, per-state erf loop, summed in the same order
        ch = ChannelParams(5.0)
        rep = window_row(d, 1.1, ch, 0.25)
        bounds, ring = geometry(d, 1.1, ch, 0.25)
        means = ring.real.tolist()
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
        got = window_max(3, 1.0, ch, 1.0 - 1e-12, 1)
        # window w1 at full width starts at half the ring's p spacing;
        # compare against the largest half-line cross integral computed directly
        best = max(abs(cross(ring[i], ring[j], np.sqrt(3) / 4 * np.sqrt(ch.gamma), np.inf))
                   for i in range(3) for j in range(3) if i != j)
        assert got == pytest.approx(best, abs=1e-10)

    def test_equal_amplitudes_reduce_to_window_mass(self):
        beta = 0.6 + 0.3j
        for bounds in ((-0.5, 0.5), (0.2, np.inf)):
            val = cross(-1j * beta, -1j * beta, *bounds)
            assert abs(val.imag) < 1e-10
            assert val.real == pytest.approx(window_mass(bounds, beta.imag), abs=1e-10)

    def test_whole_line_overlap_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            a, b = (complex(*rng.uniform(-1.5, 1.5, 2)) for _ in range(2))
            val = cross(a, b, -np.inf, np.inf)
            assert abs(val - overlap(b, a)) < 1e-8

    def test_reference_window_value(self):
        # frozen cross-term magnitude at the 5 km qutrit operating point;
        # about half of the dominant diagonal mass, so the diagonal
        # approximation is only marginal here.  It cannot affect the
        # reported probabilities or fidelities (orthogonal Bell states
        # sandwich the coherences to zero) but matters when modelling the
        # post-selected state for purification.
        ch = ChannelParams(5.0)
        val = window_max(3, 1.0, ch, 0.2, 0)
        assert val == pytest.approx(0.0672762660207136, abs=1e-10)
        diag = window_mass((-0.2 * np.sqrt(3) / 4 * np.sqrt(ch.gamma),
                            0.2 * np.sqrt(3) / 4 * np.sqrt(ch.gamma)), 0.0)
        assert val / diag == pytest.approx(0.5476, abs=1e-3)

    def test_halved_pairs_match_all_ordered_pairs(self):
        # |integral psi_i psi_j*| is symmetric in (i, j); the i < j loop must
        # still find the maximum over every ordered pair
        for d, alpha in ((2, 1.1), (3, 1.1), (3, 5.0), (4, 2.0)):
            ch = ChannelParams(5.0)
            all_bounds, ring = geometry(d, alpha, ch, 0.2)
            for w, bounds in enumerate(all_bounds):
                direct = max(abs(cross(ring[i], ring[j], *bounds))
                             for i in range(d) for j in range(d) if i != j)
                assert window_max(d, alpha, ch, 0.2, w) == pytest.approx(direct, abs=1e-14)


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
        all_bounds, measured = geometry(d, alpha, ch, 0.2)
        ring = ring_states(d, np.sqrt(ch.gamma) * alpha)
        quadrature = "p" if d == 3 else "x"
        got = _pair_integrals(measured, all_bounds)
        for w, bounds in enumerate(all_bounds):
            for p, (i, j) in enumerate(zip(*np.triu_indices(d, 1))):
                ref = _mp_cross_integral(ring[i], ring[j], quadrature, bounds)
                assert abs(got[w, p] - ref) < 1e-12

    @pytest.mark.parametrize("sa", [10.0, 35.0, 90.0])
    def test_fast_oscillation_matches_dawson(self, sa):
        # the +-i sa pair of d = 4 shares x-mean 0 and oscillates as
        # exp(4i sa x); over x >= 0 the integral is
        # exp(-k^2/8)/2 + i D(k/(2 sqrt 2))/sqrt(pi), k = 4 sa, D = Dawson
        got = cross(1j * sa, -1j * sa, 0.0, np.inf)
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


class TestBatchedCrossIntegrals:
    @pytest.mark.parametrize("alpha", [1.1, 5.0])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_every_window_pair_matches_quad(self, d, alpha):
        ch = ChannelParams(5.0)
        all_bounds, measured = geometry(d, alpha, ch, 0.2)
        ring = ring_states(d, np.sqrt(ch.gamma) * alpha)
        got = _pair_integrals(measured, all_bounds)
        assert got.shape == (len(all_bounds), d * (d - 1) // 2)
        quadrature = "p" if d == 3 else "x"  # the unturned ring, read directly
        for w, bounds in enumerate(all_bounds):
            for p, (i, j) in enumerate(zip(*np.triu_indices(d, 1))):
                ref = _quad_cross_integral(ring[i], ring[j], quadrature, bounds)
                assert abs(got[w, p] - ref) < 1e-12

    @pytest.mark.parametrize("d, alpha", [(2, 1.1), (3, 1.1), (3, 5.0), (4, 2.0), (4, 5.0)])
    def test_offdiag_weight_is_batched_window_max(self, d, alpha):
        ch = ChannelParams(5.0)
        bounds, ring = geometry(d, alpha, ch, 0.3)
        batch = np.abs(_pair_integrals(ring, bounds))
        assert homodyne_report(d, alpha, ch, 0.3).offdiag_bound == batch.max()

    def test_bound_matches_per_integral_loop(self):
        # the closed form against adaptive Gauss-Legendre sums, one integral at a time
        for d in (2, 3, 4):
            for alpha in (0.5, 1.1, 3.0, 5.0):
                for L0 in (1.0, 5.0, 20.0):
                    ch = ChannelParams(L0)
                    for delta_frac in (0.1, 0.2, 0.5, 1.0):
                        got = homodyne_report(d, alpha, ch, delta_frac).offdiag_bound
                        ref = offdiag_bound_loop(d, alpha, ch, delta_frac)
                        assert abs(got - ref) <= 1e-13

    def test_bound_at_or_below_tolerance_reads_zero(self):
        # the largest cross integral here is about 3e-65, below the 1e-10 floor
        d, alpha, ch, delta_frac = 4, 26.99, ChannelParams(2.144), 0.6703
        bounds, ring = geometry(d, alpha, ch, delta_frac)
        tiny = np.abs(_pair_integrals(ring, bounds)).max()
        assert 0.0 < tiny <= 1e-10
        assert homodyne_report(d, alpha, ch, delta_frac).offdiag_bound == 0.0


class TestFaddeeva:
    def test_matches_scipy_wofz(self):
        # the upper half-plane at |z| from 1e-4 to 5e153, then the real axis
        rng = np.random.default_rng(21)
        r = 10 ** rng.uniform(-4, np.log10(5e153), 100_000)
        z = r * np.exp(1j * rng.uniform(0, np.pi, r.size))
        x = np.concatenate([np.sign(rng.uniform(-1, 1, 10_000)) * r[:10_000], [0.0]]) + 0j
        for points in (z, x):
            ref = wofz(points)
            assert (abs(_faddeeva(points) - ref) / abs(ref)).max() < 2e-14

    def test_just_above_real_axis_matches_mpmath(self):
        # scipy's wofz itself is off by up to 3.5e-14 relative here
        rng = np.random.default_rng(22)
        z = rng.uniform(-12, 12, 200) + 1j * 10 ** rng.uniform(-20, 0, 200)
        with mpmath.workdps(30):
            ref = np.array([complex(mpmath.exp(-mpmath.mpc(v) ** 2)
                                    * mpmath.erfc(-1j * mpmath.mpc(v))) for v in z])
        assert (abs(_faddeeva(z) - ref) / abs(ref)).max() < 2e-15


def _mp_pair_max(ring, bounds):
    """Largest |<beta_j|beta_i> (erf(sqrt(2) (hi - mu)) - erf(sqrt(2) (lo - mu))) / 2|
    over windows and i < j pairs, by 60-digit mpmath.erf of complex argument
    on the given float ring; an infinite edge is erf = +-1."""
    best = mpmath.mpf(0)
    with mpmath.workdps(60):
        for lo, hi in bounds:
            for i, j in zip(*np.triu_indices(len(ring), 1)):
                bi, bj = mpmath.mpc(ring[i]), mpmath.mpc(ring[j])
                mu = (bi.real + bj.real) / 2 + 1j * (bi.imag - bj.imag) / 2
                ov = mpmath.exp(-abs(bi - bj) ** 2 / 2
                                + 1j * (bj.real * bi.imag - bi.real * bj.imag))

                def erf(x):
                    if math.isinf(x):
                        return math.copysign(1, x)
                    return mpmath.erf(mpmath.sqrt(2) * (x - mu))
                best = max(best, abs(ov * (erf(hi) - erf(lo)) / 2))
    return float(best)


class TestLargeAmplitude:
    """The d = 4 +-i alpha pair at full width, where the Gauss-Legendre
    bound this closed form replaced did not converge."""

    @staticmethod
    def pair_closed_form(alpha):
        """The +-i alpha pair over the half-line x >= 0: 1 / (2 sqrt(2 pi) alpha)."""
        return 1.0 / (2.0 * math.sqrt(2.0 * math.pi) * alpha)

    @pytest.mark.parametrize("alpha, want", [(2e3, 9.97356e-05), (1e5, 1.99471e-06),
                                             (2.16e8, 9.23478e-10), (2.5e16, 7.97885e-18)])
    def test_largest_pair_integral_matches_mpmath(self, alpha, want):
        bounds, ring = geometry(4, alpha, ChannelParams(0.0), 1.0)
        got = np.abs(_pair_integrals(ring, bounds)).max()
        assert got == pytest.approx(_mp_pair_max(ring, bounds), rel=1e-6, abs=0.0)
        assert float(f"{got:.6g}") == float(f"{self.pair_closed_form(alpha):.6g}") == want

    def test_bound_below_floor_reads_zero(self):
        # Gauss-Legendre noise read 1.03334e-10 here
        alpha, ch = 2.5061179977470604e16, ChannelParams(0.0)
        bounds, ring = geometry(4, alpha, ch, 1.0)
        assert _mp_pair_max(ring, bounds) == pytest.approx(self.pair_closed_form(alpha),
                                                           rel=1e-6, abs=0.0)
        assert homodyne_report(4, alpha, ch, 1.0).offdiag_bound == 0.0

    def test_quarter_turns_split_the_windows_evenly(self):
        # with e^{i pi/2} from np.exp the +-i alpha states sat at x = 6.1e-17 alpha
        # and -1.8e-16 alpha, and the windows read 0.472441 / 0.527559, F_w0 0.529166
        alpha, ch = 1e16, ChannelParams(0.0)
        _, ring = geometry(4, alpha, ch, 1.0)
        assert ring.real[1] == ring.real[3] == 0.0
        rep = homodyne_report(4, alpha, ch, 1.0)
        assert rep.window_probs == rep.window_fidelities == (0.5, 0.5)

    @settings(max_examples=300, deadline=None)
    @given(d=st.sampled_from([2, 3, 4]),
           alpha=st.floats(min_value=0.0, max_value=AMPLITUDE_MAX, exclude_min=True),
           L0=st.floats(min_value=0.0, max_value=300.0),
           delta_frac=st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
    def test_bound_is_finite_probability_amplitude(self, d, alpha, L0, delta_frac):
        ch = ChannelParams(L0)
        if not math.sqrt(ch.gamma) * alpha > 0.0:  # windows collapse; window_stats rejects it
            return
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            bound = homodyne_report(d, alpha, ch, delta_frac).offdiag_bound
        assert 0.0 <= bound <= 1.0


class TestUsdBound:
    def test_zero_amplitude(self):
        assert usd_bound(3, 0.0, ChannelParams(2.0)) == 0.0

    def test_benchmark_values(self):
        assert usd_bound(3, 0.5, ChannelParams(20.0)) == pytest.approx(0.0137597, abs=5e-8)
        p = usd_bound(3, 1.2, ChannelParams(5.0))
        assert p == pytest.approx(0.6427, abs=5e-5)
        assert round(p, 2) == 0.64

    def test_equals_min_norm_constant_over_d(self):
        rng = np.random.default_rng(6)
        for d in (2, 3, 4, 5):
            for _ in range(5):
                alpha = rng.uniform(0.1, 3.0)
                # gamma = exp(-L0 / 22) in [0.2, 1]
                ch = ChannelParams(rng.uniform(0.0, 22.0 * math.log(5.0)))
                direct = usd_bound(d, alpha, ch)
                via_norms = np.min(norm_constants(d, np.sqrt(ch.gamma) * alpha)) / d
                assert abs(direct - via_norms) < 1e-12
                # independent oracle: smallest Gram eigenvalue (Chefles-Barnett)
                gram = gram_matrix(d, np.sqrt(ch.gamma) * alpha)
                assert abs(direct - np.linalg.eigvalsh(gram)[0]) < 1e-12

    def test_monotone_in_amplitude(self):
        for d in (2, 3, 4):
            vals = [usd_bound(d, a, ChannelParams(5.0)) for a in np.linspace(0.0, 4.0, 81)]
            assert all(x <= y + 1e-12 for x, y in zip(vals, vals[1:]))

    def test_clamped(self):
        assert 0.0 <= usd_bound(2, 8.0, ChannelParams(0.0)) <= 1.0
