"""Qudit gate algebra, Bell states and measurement, purification, swapping.

Conventions (documented because several sign choices are free):

* omega = e^{2 pi i / d}; H is the unitary Fourier matrix H[j,k] = omega^{jk}/sqrt(d).
* Bell states |phi_{kj}> = (1/sqrt(d)) sum_y omega^{k y} |y, (y - j) mod d>,
  all index arithmetic modulo d.
* CSHIFT is the subtraction permutation |x, y> -> |(x - y) mod d, y>
  (second qudit controls).  Its gate decomposition needs the inverse
  Fourier transform on one side, (H^dag x 1) CPHASE (H x 1); for d = 2
  H^dag = H and the familiar all-Hadamard CNOT identity is recovered.
* Bell measurement outcome (k, j) on |phi_{kj}> is deterministic; after
  entanglement swapping, outcome (k, j) is undone by X^j followed by Z^k
  on the unmeasured qudit of the second pair.

Phase-Bell mixture weights propagate analytically (squaring under
purification, cyclic convolution under swapping); the density-matrix
circuit simulations exist as oracles for those rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .numerics import DensityMatrix
from .states import PhaseMixtureWeights

__all__ = [
    "BellLabel",
    "bell_state",
    "phase_bell_state",
    "gates",
    "fourier_gate",
    "cshift_matrix",
    "cshift_decomposition_check",
    "spin_cphase_local_decomposition",
    "pre_rotations",
    "purify_step",
    "purify_circuit_sim",
    "swap_phase_mixture",
    "BellMeasurement",
    "bell_measure",
]


class BellLabel(NamedTuple):
    k: int  # phase index
    j: int  # cyclic shift index


def bell_state(d: int, k: int, j: int) -> np.ndarray:
    if not (0 <= k < d and 0 <= j < d):
        raise ValueError(f"Bell indices ({k}, {j}) out of range for d={d}")
    v = np.zeros(d * d, dtype=complex)
    for y in range(d):
        v[y * d + (y - j) % d] = np.exp(2j * np.pi * k * y / d)
    return v / np.sqrt(d)


def phase_bell_state(d: int, j: int) -> np.ndarray:
    """Phase-error component C~_j = |phi_{(d-j) mod d, 0}>."""
    return bell_state(d, (d - j) % d, 0)


def fourier_gate(d: int) -> np.ndarray:
    j, k = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    return np.exp(2j * np.pi * j * k / d) / np.sqrt(d)


def gates(d: int) -> dict[str, np.ndarray]:
    """X, Z, H and the two controlled-phase variants.

    `cphase_canonical` puts phase omega^{-x y} on |x, y>.  `cphase_spin` is
    exp(-(2 pi i / d) Sz Sz) built from the spin eigenvalues (2k-d+1)/2; it
    equals the canonical gate up to one diagonal local per qudit and a
    global phase (see `spin_cphase_local_decomposition`).
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    idx = np.arange(d)
    X = np.zeros((d, d), dtype=complex)
    X[(idx + 1) % d, idx] = 1.0
    Z = np.diag(np.exp(2j * np.pi * idx / d))
    x, y = np.meshgrid(idx, idx, indexing="ij")
    cp_canon = np.diag(np.exp(-2j * np.pi * (x * y).ravel() / d))
    s = (2 * idx - d + 1) / 2.0
    sx, sy = np.meshgrid(s, s, indexing="ij")
    cp_spin = np.diag(np.exp(-2j * np.pi * (sx * sy).ravel() / d))
    return {"X": X, "Z": Z, "H": fourier_gate(d),
            "cphase_canonical": cp_canon, "cphase_spin": cp_spin}


def cshift_matrix(d: int) -> np.ndarray:
    """Permutation |x, y> -> |(x - y) mod d, y>."""
    dim = d * d
    U = np.zeros((dim, dim))
    for x in range(d):
        for y in range(d):
            U[((x - y) % d) * d + y, x * d + y] = 1.0
    return U


def cshift_decomposition_check(d: int) -> tuple[bool, float]:
    """Verify CSHIFT = (H^dag x 1) CPHASE (H x 1) against the permutation.

    The conjugate transform on the outgoing side is what realizes the
    subtraction map |x, y> -> |x - y, y> for every d; with H on both sides
    the Fourier sign flips and the map becomes |y - x, y> instead (the two
    coincide only for d = 2).
    """
    g = gates(d)
    H1 = np.kron(g["H"], np.eye(d))
    built = H1.conj().T @ g["cphase_canonical"] @ H1
    residual = float(np.max(np.abs(built - cshift_matrix(d))))
    return residual <= 1e-12, residual


def spin_cphase_local_decomposition(d: int) -> tuple[complex, np.ndarray, np.ndarray, float]:
    """Write cphase_spin = phase * (D1 x D2) * cphase_canonical.

    Returns (global phase, diagonal local D1, diagonal local D2, residual).
    """
    g = gates(d)
    M = g["cphase_spin"] @ g["cphase_canonical"].conj().T  # diagonal by construction
    md = np.diag(M).reshape(d, d)
    phase = md[0, 0]
    d1 = md[:, 0] / phase
    d2 = md[0, :] / phase
    rebuilt = phase * np.einsum("i,j->ij", d1, d2)
    residual = float(np.max(np.abs(rebuilt - md)))
    return phase, np.diag(d1), np.diag(d2), residual


def pre_rotations(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Local rotations (first qudit, second qudit) taking the phase-Bell
    components to shift-Bell form: (conj(H) x H) maps C~_j to
    |psi_{(d-j) mod d}> = (1/sqrt(d)) sum_y |y, (y + j) mod d>."""
    H = fourier_gate(d)
    return H.conj(), H


def purify_step(w: PhaseMixtureWeights) -> tuple[float, PhaseMixtureWeights]:
    """Two-copy purification on equal-spin postselection.

    Success probability sum_j p_j^2; surviving weights p_j^2 / sum p_j^2.
    The leading weight strictly increases whenever 1/d < p_0 < 1 and
    every other p_i < p_0.
    """
    success = float(np.sum(w.p ** 2))
    return success, PhaseMixtureWeights(w.d, w.p ** 2 / success)


def _apply_two(state_dim: int, d: int, U2: np.ndarray, q1: int, q2: int, n: int) -> np.ndarray:
    """Embed a two-qudit unitary acting on qudits (q1, q2) of an n-qudit register."""
    U = np.zeros((state_dim, state_dim), dtype=complex)
    for idx in range(state_dim):
        digits = [(idx // d ** (n - 1 - i)) % d for i in range(n)]
        a, b = digits[q1], digits[q2]
        col = U2[:, a * d + b]
        for ab2 in np.nonzero(col)[0]:
            nd = digits.copy()
            nd[q1], nd[q2] = divmod(int(ab2), d)
            j = sum(v * d ** (n - 1 - i) for i, v in enumerate(nd))
            U[j, idx] += col[ab2]
    return U


def purify_circuit_sim(d: int, w: PhaseMixtureWeights) -> tuple[float, PhaseMixtureWeights]:
    """Brute-force density-matrix simulation of one purification round.

    Pre-rotates both copies, applies CSHIFT between the copies on each
    side (targets on copy one, controls on copy two), measures copy one in
    the computational basis and postselects on equal results.  Must agree
    with `purify_step` to 1e-10; kept as the oracle for that rule.
    """
    if d not in (2, 3):
        raise ValueError("circuit simulation is limited to d in {2, 3}")
    U1, U2 = pre_rotations(d)
    R = np.kron(U1, U2)
    comps = [phase_bell_state(d, j) for j in range(d)]
    rho = sum(w.p[j] * np.outer(comps[j], comps[j].conj()) for j in range(d))
    rho = R @ rho @ R.conj().T
    rho4 = np.kron(rho, rho)  # qudits (0,1) copy one, (2,3) copy two

    dim = d ** 4
    cs = cshift_matrix(d)
    U = _apply_two(dim, d, cs, 0, 2, 4) @ _apply_two(dim, d, cs, 1, 3, 4)
    rho4 = U @ rho4 @ U.conj().T

    T = rho4.reshape(d, d, d * d, d, d, d * d)
    sigma = np.zeros((d * d, d * d), dtype=complex)
    success = 0.0
    for m in range(d):
        blk = T[m, m, :, m, m, :]
        success += float(np.trace(blk).real)
        sigma += blk
    sigma /= success
    sigma = R.conj().T @ sigma @ R
    new = np.array([np.vdot(c, sigma @ c).real for c in comps])
    return success, PhaseMixtureWeights(d, new / new.sum())


def swap_phase_mixture(a: PhaseMixtureWeights, b: PhaseMixtureWeights) -> PhaseMixtureWeights:
    """Weights after connecting two segments by a Bell measurement.

    Phase-error indices add modulo d, so the weight vectors convolve
    cyclically: w_k = sum_j a_j b_{(k-j) mod d}.  The leading weight is
    a_0 b_0 + sum_{j != 0} a_j b_{d-j} >= a_0 b_0.
    """
    if a.d != b.d:
        raise ValueError("mixtures have different dimensions")
    d = a.d
    w = np.array([sum(a.p[j] * b.p[(k - j) % d] for j in range(d)) for k in range(d)])
    return PhaseMixtureWeights(d, w)


@dataclass(frozen=True)
class BellMeasurement:
    """Outcome distribution plus the per-outcome recovery operations.

    corrections[label] = (x_power, z_power): after swapping, apply
    X^x_power then Z^z_power on the far qudit to return the surviving pair
    to |phi_00>.
    """

    d: int
    probabilities: dict
    corrections: dict


def bell_measure(state: DensityMatrix) -> BellMeasurement:
    """Deterministic Bell analyzer.

    CSHIFT sends |phi_kj> to |j> (x) H|k>, so an inverse Fourier rotation
    on the second qudit followed by computational readout gives
    (m1, m2) = (j, k); the outcome is labelled (k, j) = (m2, m1).
    """
    d = int(round(np.sqrt(state.dim)))
    if d * d != state.dim:
        raise ValueError(f"state dimension {state.dim} is not a perfect square")
    H = fourier_gate(d)
    U = np.kron(np.eye(d), H.conj().T) @ cshift_matrix(d)
    m = U @ state.matrix @ U.conj().T
    diag = np.clip(np.diag(m).real, 0.0, None)
    probs, corrections = {}, {}
    for m1 in range(d):
        for m2 in range(d):
            label = BellLabel(m2, m1)
            probs[label] = float(diag[m1 * d + m2])
            corrections[label] = (label.j, label.k)
    total = sum(probs.values())
    if abs(total - 1.0) > 1e-9:
        raise ArithmeticError(f"Bell outcome probabilities sum to {total}")
    return BellMeasurement(d=d, probabilities=probs, corrections=corrections)
