import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqrsim.logic import purify_step
from hqrsim.numerics import DensityMatrix
from hqrsim.states import PhaseMixtureWeights
from oracles import (BellLabel, bell_measure, bell_state,
                     cshift_decomposition_check, cshift_matrix, gates,
                     phase_bell_state, pre_rotations, purify_circuit_sim,
                     spin_cphase_local_decomposition, swap_phase_mixture)


def mixture(raw):
    raw = np.asarray(raw, dtype=float)
    return PhaseMixtureWeights(len(raw), raw / raw.sum())


def is_unitary(u):
    return np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) < 1e-10


class TestBellStates:
    def test_d2_standard_bell_basis(self):
        s = 1 / np.sqrt(2)
        assert np.allclose(bell_state(2, 0, 0), [s, 0, 0, s])        # phi+
        assert np.allclose(bell_state(2, 1, 0), [s, 0, 0, -s])       # phi-
        assert np.allclose(bell_state(2, 0, 1), [0, s, s, 0])        # psi+
        assert np.allclose(bell_state(2, 1, 1), [0, s, -s, 0])       # psi-

    def test_d3_symmetric_state(self):
        v = bell_state(3, 0, 0)
        expect = np.zeros(9)
        expect[[0, 4, 8]] = 1 / np.sqrt(3)
        assert np.allclose(v, expect)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_orthonormal_basis(self, d):
        basis = [bell_state(d, k, j) for k in range(d) for j in range(d)]
        g = np.array([[np.vdot(a, b) for b in basis] for a in basis])
        assert np.max(np.abs(g - np.eye(d * d))) < 1e-12

    def test_reduced_state_maximally_mixed(self):
        v = bell_state(3, 2, 1).reshape(3, 3)
        red = v @ v.conj().T
        assert np.allclose(red, np.eye(3) / 3, atol=1e-12)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            bell_state(3, 3, 0)

    def test_phase_bell_components(self):
        # C~_1 for d=3 carries phases (1, w^-1, w^-2) on |yy>
        v = phase_bell_state(3, 1)
        w = np.exp(-2j * np.pi / 3)
        expect = np.zeros(9, complex)
        expect[[0, 4, 8]] = np.array([1, w, w ** 2]) / np.sqrt(3)
        assert np.allclose(v, expect)


class TestGates:
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_all_unitary(self, d):
        for name, u in gates(d).items():
            assert is_unitary(u), name

    def test_d2_hadamard(self):
        h = gates(2)["H"]
        assert np.allclose(h, np.array([[1, 1], [1, -1]]) / np.sqrt(2))

    def test_x_cyclic(self):
        x = gates(3)["X"]
        assert np.allclose(np.linalg.matrix_power(x, 3), np.eye(3))
        assert np.allclose(x @ np.array([1, 0, 0]), [0, 1, 0])

    def test_canonical_cphase_phases(self):
        d = 3
        cp = gates(d)["cphase_canonical"]
        for x in range(d):
            for y in range(d):
                assert cp[x * d + y, x * d + y] == pytest.approx(
                    np.exp(-2j * np.pi * x * y / d))

    def test_spin_cphase_local_equivalence_d2(self):
        # spin form equals canonical CZ up to one diagonal local per qudit
        # and a global phase (explicit 4x4 factorization)
        phase, d1, d2, residual = spin_cphase_local_decomposition(2)
        assert residual < 1e-10
        g = gates(2)
        rebuilt = phase * np.kron(d1, d2) @ g["cphase_canonical"]
        assert np.max(np.abs(rebuilt - g["cphase_spin"])) < 1e-10

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_spin_cphase_local_equivalence_general(self, d):
        phase, d1, d2, residual = spin_cphase_local_decomposition(d)
        assert residual < 1e-10
        g = gates(d)
        rebuilt = phase * np.kron(d1, d2) @ g["cphase_canonical"]
        assert np.max(np.abs(rebuilt - g["cphase_spin"])) < 1e-10


class TestCshift:
    def test_permutation_action(self):
        d = 3
        cs = cshift_matrix(d)
        for x in range(d):
            for y in range(d):
                v = np.zeros(d * d)
                v[x * d + y] = 1.0
                out = cs @ v
                assert out[((x - y) % d) * d + y] == 1.0

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
    def test_decomposition(self, d):
        ok, residual = cshift_decomposition_check(d)
        assert ok and residual <= 1e-12

    def test_d2_is_cnot_conjugation(self):
        # for qubits the conjugated transform equals the plain Hadamard,
        # recovering CNOT = (H x 1) CZ (H x 1)
        g = gates(2)
        h1 = np.kron(g["H"], np.eye(2))
        assert np.max(np.abs(h1 @ g["cphase_canonical"] @ h1 - cshift_matrix(2))) < 1e-12


class TestPreRotations:
    def test_qutrit_component_images(self):
        # C~_0 -> (|00>+|11>+|22>)/sqrt(3), C~_1 -> (|01>+|12>+|20>)/sqrt(3),
        # C~_2 -> (|02>+|10>+|21>)/sqrt(3), up to global phase
        u1, u2 = pre_rotations(3)
        r = np.kron(u1, u2)
        targets = {
            0: [(0, 0), (1, 1), (2, 2)],
            1: [(0, 1), (1, 2), (2, 0)],
            2: [(0, 2), (1, 0), (2, 1)],
        }
        for j, pairs in targets.items():
            img = r @ phase_bell_state(3, j)
            expect = np.zeros(9, complex)
            for a, b in pairs:
                expect[a * 3 + b] = 1 / np.sqrt(3)
            assert abs(abs(np.vdot(expect, img)) - 1.0) < 1e-12


class TestPurification:
    def test_benchmark_step(self):
        w = PhaseMixtureWeights(3, [0.7494, 0.0942, 0.1564])
        succ, out = purify_step(w)
        assert succ == pytest.approx(0.59495, abs=1e-4)
        assert out.p[0] == pytest.approx(0.94393, abs=1e-4)

    def test_pure_input_fixed(self):
        succ, out = purify_step(PhaseMixtureWeights(3, [1.0, 0.0, 0.0]))
        assert succ == 1.0
        assert np.allclose(out.p, [1, 0, 0])

    def test_one_vector_only(self):
        # a sum over the whole (2, d) array would mix both vectors into one success probability
        with pytest.raises(ValueError):
            purify_step(PhaseMixtureWeights(3, [[0.8, 0.1, 0.1], [1.0, 0.0, 0.0]]))

    def test_uniform_fixed_point(self):
        for d in (2, 3, 5):
            w = PhaseMixtureWeights(d, np.full(d, 1 / d))
            succ, out = purify_step(w)
            assert succ == pytest.approx(1 / d)
            assert np.allclose(out.p, w.p)

    def test_d2_closed_form(self):
        succ, out = purify_circuit_sim(2, PhaseMixtureWeights(2, [0.9, 0.1]))
        assert succ == pytest.approx(0.82, abs=1e-12)
        assert out.p[0] == pytest.approx(81 / 82, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_circuit_oracle_matches_weight_law(self, d):
        rng = np.random.default_rng(17)
        for _ in range(50):
            p = rng.random(d)
            p /= p.sum()
            w = PhaseMixtureWeights(d, p)
            s_law, w_law = purify_step(w)
            s_sim, w_sim = purify_circuit_sim(d, w)
            assert abs(s_law - s_sim) < 1e-10
            assert np.max(np.abs(w_law.p - w_sim.p)) < 1e-10

    def test_fidelity_increases_under_stated_condition(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            d = int(rng.integers(2, 5))
            p = rng.random(d)
            p /= p.sum()
            lead = np.argmax(p)
            p[0], p[lead] = p[lead], p[0]
            if p[0] > 1 / d and np.all(p[1:] < p[0]):
                _, out = purify_step(PhaseMixtureWeights(d, p))
                assert out.p[0] > p[0]

    def test_unsupported_dimension(self):
        with pytest.raises(ValueError):
            purify_circuit_sim(4, PhaseMixtureWeights(4, [0.7, 0.1, 0.1, 0.1]))

    @settings(max_examples=200, deadline=None)
    @given(rest=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=11)
           .filter(lambda w: sum(w) > 1e-3), gap=st.floats(1e-3, 2.0))
    def test_raises_leading_weight(self, rest, gap):
        # p_0 above every other weight, hence above 1/d, and below 1
        w = mixture([max(rest) + gap, *rest])
        succ, out = purify_step(w)
        assert 0 < succ <= 1
        assert out.p[0] > w.p[0]


class TestSwap:
    @settings(max_examples=200, deadline=None)
    @given(d=st.integers(2, 8), data=st.data())
    def test_commutative_and_normalised(self, d, data):
        raw = st.lists(st.floats(0.0, 1.0), min_size=d, max_size=d).filter(lambda w: sum(w) > 1e-3)
        a, b = mixture(data.draw(raw)), mixture(data.draw(raw))
        ab, ba = swap_phase_mixture(a, b), swap_phase_mixture(b, a)
        assert np.allclose(ab.p, ba.p, rtol=0, atol=1e-15)
        assert abs(ab.p.sum() - 1.0) <= 1e-12

    def test_pure_stays_pure(self):
        a = PhaseMixtureWeights(3, [1, 0, 0])
        out = swap_phase_mixture(a, a)
        assert np.allclose(out.p, [1, 0, 0])

    def test_uniform_absorbs(self):
        rng = np.random.default_rng(2)
        b = rng.random(4)
        b /= b.sum()
        uniform = PhaseMixtureWeights(4, np.full(4, 0.25))
        out = swap_phase_mixture(uniform, PhaseMixtureWeights(4, b))
        assert np.allclose(out.p, 0.25)

    def test_leading_weight_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.random(3); a /= a.sum()
            b = rng.random(3); b /= b.sum()
            out = swap_phase_mixture(PhaseMixtureWeights(3, a), PhaseMixtureWeights(3, b))
            expect = a[0] * b[0] + sum(a[j] * b[3 - j] for j in (1, 2))
            assert out.p[0] == pytest.approx(expect, abs=1e-12)
            assert out.p[0] >= a[0] * b[0] - 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            swap_phase_mixture(PhaseMixtureWeights(2, [0.5, 0.5]),
                               PhaseMixtureWeights(3, [1, 0, 0]))

    def test_brute_force_bell_measurement_oracle(self):
        # full 4-qutrit simulation: project the middle pair on each Bell
        # outcome, apply the documented correction X^j then Z^k on the far
        # qutrit, and read the surviving weights; every outcome must
        # reproduce the cyclic convolution.
        d = 3
        rng = np.random.default_rng(41)
        a = rng.random(d); a /= a.sum()
        b = rng.random(d); b /= b.sum()
        conv = swap_phase_mixture(PhaseMixtureWeights(d, a), PhaseMixtureWeights(d, b))

        comps = [phase_bell_state(d, j) for j in range(d)]
        rho_a = sum(a[j] * np.outer(comps[j], comps[j].conj()) for j in range(d))
        rho_b = sum(b[j] * np.outer(comps[j], comps[j].conj()) for j in range(d))
        t = np.kron(rho_a, rho_b).reshape([d] * 8)

        g = gates(d)
        for kappa in range(d):
            for lam in range(d):
                phi = bell_state(d, kappa, lam).reshape(d, d)
                m = np.einsum("bc,abcdefgh,fg->adeh", phi.conj(), t, phi).reshape(d * d, d * d)
                prob = np.trace(m).real
                assert prob == pytest.approx(1 / d ** 2, abs=1e-12)
                corr = np.kron(np.eye(d),
                               np.linalg.matrix_power(g["Z"], kappa)
                               @ np.linalg.matrix_power(g["X"], lam))
                fixed = corr @ (m / prob) @ corr.conj().T
                got = np.array([np.vdot(c, fixed @ c).real for c in comps])
                assert np.max(np.abs(got - conv.p)) < 1e-10


class TestBellMeasure:
    def test_deterministic_on_bell_states(self):
        for d in (2, 3):
            for k in range(d):
                for j in range(d):
                    v = bell_state(d, k, j)
                    dm = DensityMatrix(np.outer(v, v.conj()), bipartition=(d, d))
                    res = bell_measure(dm)
                    assert res.probabilities[BellLabel(k, j)] == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_uniform(self):
        d = 3
        dm = DensityMatrix(np.eye(d * d) / d ** 2, bipartition=(d, d))
        res = bell_measure(dm)
        for p in res.probabilities.values():
            assert p == pytest.approx(1 / d ** 2, abs=1e-12)

    def test_swapping_recovers_phi00(self):
        # swap two phi_00 pairs; every outcome must be correctable back to
        # phi_00 on the far qudit using the reported correction powers
        d = 3
        g = gates(d)
        phi00 = bell_state(d, 0, 0)
        t = np.kron(np.outer(phi00, phi00.conj()),
                    np.outer(phi00, phi00.conj())).reshape([d] * 8)
        dm = DensityMatrix(np.eye(d * d) / d ** 2, bipartition=(d, d))
        corrections = bell_measure(dm).corrections
        for (k, j), (xp, zp) in corrections.items():
            phi = bell_state(d, k, j).reshape(d, d)
            m = np.einsum("bc,abcdefgh,fg->adeh", phi.conj(), t, phi).reshape(d * d, d * d)
            prob = np.trace(m).real
            corr = np.kron(np.eye(d),
                           np.linalg.matrix_power(g["Z"], zp)
                           @ np.linalg.matrix_power(g["X"], xp))
            fixed = corr @ (m / prob) @ corr.conj().T
            assert np.vdot(phi00, fixed @ phi00).real == pytest.approx(1.0, abs=1e-10)

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            bell_measure(DensityMatrix(np.eye(6) / 6, bipartition=(2, 3)))
