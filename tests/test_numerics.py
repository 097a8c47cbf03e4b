import numpy as np
import pytest

from hqrsim.numerics import DensityMatrix
from oracles import fidelity_with_pure, negativity, partial_transpose


def random_unitary(n, rng):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(n, rng, bipartition=None):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = a @ a.conj().T
    return DensityMatrix(m / np.trace(m), bipartition=bipartition)


def qudit_bell(d, k=0, j=0):
    v = np.zeros(d * d, complex)
    for y in range(d):
        v[y * d + (y - j) % d] = np.exp(2j * np.pi * k * y / d)
    return v / np.sqrt(d)


class TestDensityMatrix:
    def test_validation(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2))  # trace 2
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[0.5, 0.1j], [0.2j, 0.5]]))  # not Hermitian
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(4) / 4, bipartition=(3, 2))

    def test_accepts_valid(self):
        dm = DensityMatrix(np.eye(4) / 4, bipartition=(2, 2))
        assert dm.dim == 4

    @pytest.mark.parametrize("dim", [4, 9, 16, 64])
    def test_zero_positivity_tol_floor(self, dim):
        # pure states carry eigvalsh noise of a few ulps below zero; the floor
        # of 8 ulps of the trace accepts them, a real -1e-12 is still rejected
        rng = np.random.default_rng(dim)
        for _ in range(20):
            v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            DensityMatrix(np.outer(v, v.conj()) / np.vdot(v, v), positivity_tol=0.0)
        with pytest.raises(ValueError, match="below"):
            DensityMatrix(np.diag([1.0 + 1e-12, -1e-12] + [0.0] * (dim - 2)),
                          positivity_tol=0.0)


class TestPartialTranspose:
    def test_requires_bipartition(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            partial_transpose(random_density(4, rng))

    def test_product_state_transposes_first_factor(self):
        rng = np.random.default_rng(1)
        ra = random_density(2, rng).matrix
        rb = random_density(3, rng).matrix
        dm = DensityMatrix(np.kron(ra, rb), bipartition=(2, 3))
        assert np.allclose(partial_transpose(dm), np.kron(ra.T, rb), atol=1e-12)

    def test_involution(self):
        rng = np.random.default_rng(2)
        dm = random_density(6, rng, bipartition=(2, 3))
        once = partial_transpose(dm)
        twice = once.reshape(2, 3, 2, 3).transpose(2, 1, 0, 3).reshape(6, 6)
        assert np.allclose(twice, dm.matrix, atol=1e-14)

    def test_qutrit_bell_spectrum(self):
        v = qudit_bell(3)
        dm = DensityMatrix(np.outer(v, v.conj()), bipartition=(3, 3))
        w = np.sort(np.linalg.eigvalsh(partial_transpose(dm)))
        # brute-force eigendecomposition of the 9x9 partial transpose
        assert np.allclose(w[:3], -1 / 3, atol=1e-12)
        assert np.allclose(w[3:], 1 / 3, atol=1e-12)


class TestNegativity:
    def test_qubit_bell(self):
        v = qudit_bell(2)
        dm = DensityMatrix(np.outer(v, v.conj()), bipartition=(2, 2))
        assert abs(negativity(dm) - 0.5) < 1e-12

    def test_qutrit_bell(self):
        v = qudit_bell(3)
        dm = DensityMatrix(np.outer(v, v.conj()), bipartition=(3, 3))
        assert abs(negativity(dm) - 1.0) < 1e-12

    def test_product_state(self):
        rng = np.random.default_rng(3)
        ra = random_density(3, rng).matrix
        rb = random_density(3, rng).matrix
        dm = DensityMatrix(np.kron(ra, rb), bipartition=(3, 3))
        assert negativity(dm) < 1e-10

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(4)
        dm = random_density(9, rng, bipartition=(3, 3))
        n0 = negativity(dm)
        for _ in range(5):
            u = np.kron(random_unitary(3, rng), random_unitary(3, rng))
            rotated = DensityMatrix(u @ dm.matrix @ u.conj().T, bipartition=(3, 3))
            assert abs(negativity(rotated) - n0) < 1e-8


class TestTensorAndFidelity:
    def test_fidelity_pure_and_mixed(self):
        v = qudit_bell(3)
        dm = DensityMatrix(np.outer(v, v.conj()), bipartition=(3, 3))
        assert abs(fidelity_with_pure(dm, v) - 1.0) < 1e-12
        mixed = DensityMatrix(np.eye(9) / 9)
        assert abs(fidelity_with_pure(mixed, v) - 1 / 9) < 1e-12

    def test_fidelity_orthogonal_mixture(self):
        v0, v1 = qudit_bell(3, 0, 0), qudit_bell(3, 0, 1)
        dm = DensityMatrix(0.7 * np.outer(v0, v0.conj()) + 0.3 * np.outer(v1, v1.conj()),
                           bipartition=(3, 3))
        assert abs(fidelity_with_pure(dm, v0) - 0.7) < 1e-12

    def test_fidelity_input_checks(self):
        dm = DensityMatrix(np.eye(4) / 4)
        with pytest.raises(ValueError):
            fidelity_with_pure(dm, np.array([1.0, 1.0, 0, 0]))  # not normalized
        with pytest.raises(ValueError):
            fidelity_with_pure(dm, np.array([1.0, 0]))  # dimension mismatch

