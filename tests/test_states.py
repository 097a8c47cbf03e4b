import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hqrsim.states as states
from hqrsim.cli import parse, run
from hqrsim.coherent import basis_amplitudes, basis_from_norms, norm_constants
from hqrsim.states import ChannelParams, PhaseMixtureWeights, loss_weights, negativity_scan
from oracles import matter_light_mixture, matter_light_pure, negativity, negativity_scan_whole


class TestChannelParams:
    def test_gamma(self):
        ch = ChannelParams(5.0)
        assert abs(ch.gamma - np.exp(-5 / 22)) < 1e-15
        assert ChannelParams(0.0).gamma == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelParams(-1.0)
        with pytest.raises(ValueError):
            ChannelParams(5.0, L_att_km=0.0)

    def test_fields_cannot_be_assigned(self):
        # a checked channel stays checked
        ch = ChannelParams(5.0)
        for name, value in (("L0_km", -1.0), ("L_att_km", 0.0), ("gamma", 2.0), ("other", 1)):
            with pytest.raises(AttributeError):
                setattr(ch, name, value)
        assert (ch.L0_km, ch.L_att_km) == (5.0, 22.0)


class TestPhaseMixtureWeights:
    def test_validation(self):
        with pytest.raises(ValueError):
            PhaseMixtureWeights(3, [0.5, 0.5, 0.5])
        with pytest.raises(ValueError):
            PhaseMixtureWeights(3, [1.2, -0.2, 0.0])
        w = PhaseMixtureWeights(2, [0.25, 0.75])
        assert w.p.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("bad", [[np.nan, 0.5, 0.5], [np.inf, 0.0, 0.0],
                                     [1.0 + 2e-12, -2e-12, 0.0], [0.5, 0.25, 0.25 + 2e-10],
                                     [0.5, 0.25, 0.25 - 2e-10]])
    def test_rejects_bad_vector_of_many(self, bad):
        p = np.array([[0.2, 0.3, 0.5], [1.0, 0.0, 0.0], bad, [0.5, 0.25, 0.25]])
        with pytest.raises(ValueError, match="must be nonnegative and sum to 1") as exc:
            PhaseMixtureWeights(3, p)
        assert str(p[2]) in str(exc.value)

    def test_accepts_many_vectors_and_clips(self):
        p = np.array([[[0.2, 0.3, 0.5], [1.0 + 1e-13, -1e-13, 0.0]]])
        w = PhaseMixtureWeights(3, p)
        assert w.p.shape == (1, 2, 3)
        assert w.p[0, 1, 1] == 0.0
        assert np.array_equal(w.p[0, 0], p[0, 0])

    @pytest.mark.parametrize("shape", [(), (2,), (3, 2)])
    def test_rejects_wrong_last_axis(self, shape):
        with pytest.raises(ValueError, match="expected 3 weights"):
            PhaseMixtureWeights(3, np.full(shape, 0.5))


class TestMatterLightPure:
    def test_d2_expansion(self):
        # (|0>|alpha> + |1>|-alpha>)/sqrt(2) in the even/odd cat basis
        alpha = 0.9
        state = matter_light_pure(2, alpha)
        n = norm_constants(2, alpha)
        expect = np.array([[np.sqrt(n[0]), np.sqrt(n[1])],
                           [np.sqrt(n[0]), -np.sqrt(n[1])]]) / (2 * np.sqrt(2))
        assert np.allclose(state.coefficient_matrix(), expect, atol=1e-12)

    def test_zero_amplitude_product(self):
        state = matter_light_pure(3, 0.0)
        c = state.coefficient_matrix()
        assert np.allclose(c[:, 0], 1 / np.sqrt(3))
        assert np.allclose(c[:, 1:], 0.0)

    @pytest.mark.parametrize("d,alpha", [(2, 0.6), (3, 1.2), (4, 0.4), (5, 2.0)])
    def test_normalized(self, d, alpha):
        v = matter_light_pure(d, alpha).statevector()
        assert abs(np.vdot(v, v).real - 1.0) < 1e-10


class TestMatterLightMixture:
    def test_lossless_is_pure(self):
        dm, w = matter_light_mixture(3, 1.0, ChannelParams(0.0))
        assert np.allclose(w.p, [1, 0, 0], atol=1e-12)
        ev = np.linalg.eigvalsh(dm.matrix)
        assert abs(ev[-1] - 1.0) < 1e-10

    def test_d2_weights(self):
        ch = ChannelParams(8.0)
        _, w = matter_light_mixture(2, 1.1, ch)
        n = norm_constants(2, np.sqrt(1 - ch.gamma) * 1.1)
        assert np.allclose(w.p, n / 4, atol=1e-12)

    def test_d3_default_weights(self):
        # leading weight 0.7494 at the 5 km / alpha 1.2 operating point
        _, w = matter_light_mixture(3, 1.2, ChannelParams(5.0))
        assert np.allclose(w.p, [0.749331796, 0.094219005, 0.156449199], atol=1e-9)
        assert np.allclose(w.p, [0.7494, 0.0942, 0.1564], atol=1e-4)

    def test_d3_gram_weights_differ(self):
        _, w = matter_light_mixture(3, 1.2, ChannelParams(5.0), model="gram")
        assert np.allclose(w.p, [0.749332, 0.031989, 0.218679], atol=5e-6)

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("alpha", [0.3, 1.0, 2.0])
    @pytest.mark.parametrize("L0", [2.0, 5.0, 10.0, 20.0])
    def test_density_matrix_invariants(self, d, alpha, L0):
        dm, _ = matter_light_mixture(d, alpha, ChannelParams(L0))
        m = dm.matrix
        assert np.max(np.abs(m - m.conj().T)) < 1e-10
        assert abs(np.trace(m).real - 1.0) < 1e-10
        assert np.linalg.eigvalsh(m).min() > -1e-9

    def test_spot_checked_entries(self):
        # six entries frozen from a 40-digit evaluation of the expansion
        # rho[(q,r),(q',r')] = sum_m w_m e^{-2 pi i (q-q') m / 3}/3 c_r^(q) conj(c_r'^(q'))
        dm, _ = matter_light_mixture(3, 1.2, ChannelParams(5.0))
        m = dm.matrix

        def entry(q, r, qp, rp):
            return m[q * 3 + r, qp * 3 + rp]

        assert entry(0, 0, 0, 0) == pytest.approx(0.132807504570838749, abs=1e-10)
        assert entry(0, 0, 1, 0) == pytest.approx(0.0828715766024365211 - 0.00715738546674012436j, abs=1e-10)
        assert entry(0, 1, 1, 1) == pytest.approx(-0.0189471599116727566 + 0.0405145195061614405j, abs=1e-10)
        assert entry(1, 1, 2, 2) == pytest.approx(0.0599174539445091131 - 0.00517490232053690053j, abs=1e-10)
        assert entry(0, 0, 2, 2) == pytest.approx(-0.0469674026519346923 + 0.0672355586133335605j, abs=1e-10)
        assert entry(2, 1, 0, 2) == pytest.approx(-0.0254771301005665587 + 0.054477488406297461j, abs=1e-10)


class TestMatterMatterComponents:
    """Component m of the matter-matter state carries `loss_weights` entry m;
    `entangle` pairs it with the Bell states of phase index (d - m) mod d."""

    def test_lossless_single_component(self):
        w = loss_weights(3, 0.8, ChannelParams(0.0))
        assert np.allclose(w.p, [1, 0, 0], atol=1e-12)
        assert entangle_rows(3, 0.8, 0.0)[0][2] == "0"

    def test_d3_benchmark_weights(self):
        w = loss_weights(3, 0.5, ChannelParams(20.0))
        assert w.p[0] == pytest.approx(0.861808, abs=1e-6)
        assert np.allclose(w.p, [0.8618077, 0.0492632, 0.0889291], atol=1e-7)

    def test_bell_pairing(self):
        # component m couples Bell phase index (d - m) mod d; for d=3 the
        # pairing is C0 -> phi_0j, C1 -> phi_2j, C2 -> phi_1j
        assert [r[2] for r in entangle_rows(3, 1.0, 5.0)] == ["0", "2", "1"]

    def test_d4_structure(self):
        rows = entangle_rows(4, 0.9, 10.0)
        assert [r[2] for r in rows] == ["0", "3", "2", "1"]
        w = loss_weights(4, 0.9, ChannelParams(10.0))
        assert abs(w.p.sum() - 1.0) < 1e-12
        assert [r[1] for r in rows] == [f"{x:.6g}" for x in w.p]

    @pytest.mark.parametrize("d,alpha,L0", [(2, 1.0, 5.0), (3, 1.2, 5.0), (4, 0.7, 15.0)])
    def test_weights_equal_mixture_weights(self, d, alpha, L0):
        # the second interaction is unitary, so the weights cannot change
        ch = ChannelParams(L0)
        _, w_light = matter_light_mixture(d, alpha, ch)
        assert np.allclose(w_light.p, loss_weights(d, alpha, ch).p, atol=1e-14)

    @pytest.mark.parametrize("model", ["closed-form", "gram"])
    @pytest.mark.parametrize("d", range(2, 9))
    def test_loss_weights_over_amplitudes(self, d, model):
        ch = ChannelParams(12.0)
        alphas = np.array([[0.0, 0.3, 1.1], [2.0, 4.5, 40.0]])
        w = loss_weights(d, alphas, ch, model)
        assert w.p.shape == (2, 3, d)
        for idx in np.ndindex(alphas.shape):
            assert np.array_equal(w.p[idx], loss_weights(d, float(alphas[idx]), ch, model).p)

    def test_loss_weights_model_switch(self):
        ch = ChannelParams(5.0)
        with pytest.raises(ValueError):
            loss_weights(3, 1.0, ch, model="bogus")


def entangle_rows(d, alpha, L0):
    """Rows (component, weight, bell_phase_index) printed by `hqrsim entangle`."""
    status, text = run(parse(["entangle", "--d", str(d), "--L0", str(L0),
                              "--alpha", str(alpha)]))
    assert status == 0
    return [line.split(",") for line in text.splitlines()[1:]]


class TestNegativityScan:
    def test_zero_amplitude_is_product(self):
        (_, n0), = negativity_scan(3, [0.0], ChannelParams(5.0))
        assert n0 <= 1e-9

    def test_lossless_large_amplitude_maximally_entangled(self):
        (_, n), = negativity_scan(3, [6.0], ChannelParams(0.0))
        assert abs(n - 1.0) < 1e-3

    def test_ten_km_beats_qubit_bell(self):
        pts = negativity_scan(3, np.linspace(0.0, 2.5, 100), ChannelParams(10.0))
        assert max(n for _, n in pts) > 0.5

    def test_monotone_in_distance(self):
        alphas = [0.5, 1.0, 1.5]
        prev = None
        for L0 in (2.0, 5.0, 10.0, 20.0):
            ns = np.array([n for _, n in negativity_scan(3, alphas, ChannelParams(L0))])
            if prev is not None:
                assert np.all(ns <= prev + 1e-9)
            prev = ns

    def test_matches_direct_negativity(self):
        ch = ChannelParams(5.0)
        dm, _ = matter_light_mixture(3, 1.0, ch, model="gram")
        (_, n), = negativity_scan(3, [1.0], ch)
        assert abs(n - negativity(dm)) < 1e-12

    @pytest.mark.parametrize("model", ["gram", "closed-form"])
    @pytest.mark.parametrize("d", range(2, 9))
    def test_matches_full_matrix_oracle(self, d, model):
        alphas = np.linspace(0.0, 3.0, 13)
        for L0 in (0.0, 1.0, 5.0, 10.0, 25.0):
            ch = ChannelParams(L0)
            pts = negativity_scan(d, alphas, ch, model)
            assert [a for a, _ in pts] == list(alphas)
            for a, n in pts:
                dm, _ = matter_light_mixture(d, a, ch, model=model)
                assert abs(n - negativity(dm)) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(2, 8), alpha=st.floats(0.0, 4.0), L0=st.floats(0.0, 60.0),
           model=st.sampled_from(["gram", "closed-form"]))
    def test_random_points_match_oracle(self, d, alpha, L0, model):
        (a, n), = negativity_scan(d, [alpha], ChannelParams(L0), model)
        # the scan checks only the trace; the oracle state also passes the
        # Hermiticity test and, beyond eigvalsh rounding, has no negative
        # eigenvalue (positivity_tol = 0)
        dm, _ = matter_light_mixture(d, alpha, ChannelParams(L0), model=model,
                                     positivity_tol=0.0)
        assert a == alpha
        assert n >= 0.0
        assert abs(n - negativity(dm)) < 1e-12

    def test_empty_grid(self):
        assert negativity_scan(4, [], ChannelParams(5.0)) == []

    def test_batches_do_not_change_results(self, monkeypatch):
        alphas = np.linspace(0.0, 3.0, 30)
        whole = negativity_scan(6, alphas, ChannelParams(10.0))
        monkeypatch.setattr(states, "SCAN_CHUNK_FLOATS", 7 * 6 ** 3)
        assert negativity_scan(6, alphas, ChannelParams(10.0)) == whole

    def test_chunk_holds_at_least_one_point(self, monkeypatch):
        # a budget below d^3 still takes one point per batch, and every point's
        # value is the same bit for bit: the batched eigvalsh is, and each
        # point's d^2 terms are summed as one row (a sum over the (points, d, d)
        # axes (1, 2) rounded by batch shape, up to 2.2e-16 at d = 4..7)
        alphas = np.linspace(0.0, 3.0, 5)
        for d in (2, 3, 4, 7, 16):
            monkeypatch.setattr(states, "SCAN_CHUNK_FLOATS", 5 * d ** 3)
            whole = np.array(negativity_scan(d, alphas, ChannelParams(10.0)))
            monkeypatch.setattr(states, "SCAN_CHUNK_FLOATS", 1)
            single = np.array(negativity_scan(d, alphas, ChannelParams(10.0)))
            assert np.array_equal(single[:, 0], alphas)
            assert np.array_equal(single, whole), d

    def test_largest_d_scans_and_next_is_refused_at_once(self):
        d = states.SCAN_MAX_D
        assert d >= 8
        (_, n), = negativity_scan(d, [1.0], ChannelParams(5.0))
        assert n > 0.0
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"d = {d + 1}"):
            negativity_scan(d + 1, np.linspace(0.0, 3.0, 10 ** 5), ChannelParams(5.0))
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("bad", [-0.5, np.nan, np.inf])
    def test_rejects_bad_amplitude(self, bad):
        for L0 in (0.0, 5.0):
            with pytest.raises(ValueError, match="amplitude"):
                negativity_scan(3, [0.5, bad, 1.0], ChannelParams(L0))

    def test_rejects_unknown_model(self):
        with pytest.raises(ValueError, match="model"):
            negativity_scan(3, [1.0], ChannelParams(5.0), model="bogus")

    def test_keeps_density_matrix_trace_test(self, monkeypatch):
        def inflated(d, norms):
            return 1.01 * basis_from_norms(d, norms)
        monkeypatch.setattr(states, "basis_from_norms", inflated)
        with pytest.raises(ValueError, match="trace"):
            negativity_scan(3, [0.5, 1.0], ChannelParams(5.0))

    def test_keeps_density_matrix_trace_test_closed_form(self, monkeypatch):
        # the d=3 closed-form weights take their own norm-constant call, and the
        # basis amplitudes theirs
        def inflated(d, amplitudes):
            return 1.01 * basis_amplitudes(d, amplitudes)
        monkeypatch.setattr(states, "basis_amplitudes", inflated)
        with pytest.raises(ValueError, match="trace"):
            negativity_scan(3, [0.5, 1.0], ChannelParams(5.0), "closed-form")

    def test_keeps_weight_conditions(self, monkeypatch):
        real = states.norm_constants

        def shifted(*args):
            n = real(*args)
            n[..., 0] += 1e-6 * n.shape[-1] ** 2  # weight 0 moves by 1e-6
            return n
        monkeypatch.setattr(states, "norm_constants", shifted)
        with pytest.raises(ValueError, match="sum to 1"):
            negativity_scan(3, [0.5, 1.0], ChannelParams(5.0))


class TestOnePassPerChunk:
    """The scan's one norm-constant pass per chunk for the lossy and the kept
    amplitudes changes nothing against the public functions it fuses."""

    @pytest.mark.parametrize("model", ["gram", "closed-form"])
    @pytest.mark.parametrize("d", range(2, states.SCAN_MAX_D + 1))
    def test_matches_public_function_oracle_bit_for_bit(self, monkeypatch, d, model):
        # 0 and 1e-6 lead a log grid of 40 points; chunks of 16 points, and
        # where it holds at most 300 points also the scan's own chunk, plus two
        step = max(1, states.SCAN_CHUNK_FLOATS // d ** 3)
        grids = [np.concatenate([[0.0, 1e-6], np.geomspace(1e-4, 3.5, 38)])]
        if step <= 300:
            grids.append(np.linspace(0.0, 3.0, step + 2))
        for L0 in (0.0, 5.0, 25.0, 1000.0):
            ch = ChannelParams(L0)
            for alphas in grids:
                want = negativity_scan_whole(d, alphas, ch, model)
                got = negativity_scan(d, alphas, ch, model)
                assert all(type(x) is float for pt in got for x in pt)
                assert np.array(got).tobytes() == np.array(want).tobytes(), (L0, len(alphas))
            with monkeypatch.context() as m:
                m.setattr(states, "SCAN_CHUNK_FLOATS", 16 * d ** 3)
                got = negativity_scan(d, grids[0], ch, model)
            assert np.array(got).tobytes() == np.array(
                negativity_scan_whole(d, grids[0], ch, model)).tobytes(), L0

    @pytest.mark.parametrize("model", ["gram", "closed-form"])
    @pytest.mark.parametrize("bad", [np.nan, -0.5, 1e200])
    def test_error_text_names_the_first_bad_amplitude(self, bad, model):
        for L0 in (0.0, 5.0):
            with pytest.raises(ValueError) as info:
                negativity_scan(3, [0.5, bad, -1.0, 1.0], ChannelParams(L0), model)
            assert str(info.value) == f"amplitude must lie in [0, 3.35195e+153], got {bad}"
