"""Independent oracles that the tests compare the library against.

No library or CLI path calls these.  pytest does not collect this file;
tests import it as `oracles`.

Qudit conventions (documented because several sign choices are free):

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
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from hqrsim.coherent import basis_amplitudes, ring_states
from hqrsim.detection import window_stats
from hqrsim import rates
from hqrsim.numerics import DensityMatrix, _as_square_complex
from hqrsim.rates import (RepeaterConfig, initial_segment_state, monte_carlo_waiting,
                          purification_chain)
from hqrsim.states import ChannelParams, PhaseMixtureWeights, loss_weights

# Gauss-Legendre orders of `window_cross_integral_loop` (n and 2n from the
# first up to the cap) and its panel count cap
GL_FIRST_ORDER = 64
GL_MAX_ORDER = 512
GL_MAX_PANELS = 64


def overlap(a: complex, b: complex) -> complex:
    """<a|b> for coherent states: exp(-|a|^2/2 - |b|^2/2 + conj(a) b)."""
    a = complex(a)
    b = complex(b)
    return np.exp(-0.5 * abs(a) ** 2 - 0.5 * abs(b) ** 2 + np.conj(a) * b)


def gram_matrix(d: int, alpha: float) -> np.ndarray:
    """Gram matrix G[k, l] = overlap(ring state k, ring state l), each ring
    state alpha e^{2 pi i k / d} built here."""
    s = [alpha * np.exp(2j * np.pi * k / d) for k in range(d)]
    return np.array([[overlap(s[k], s[l]) for l in range(d)] for k in range(d)])


def ring_to_orthonormal(d: int, alpha: float) -> np.ndarray:
    """Expansion coefficients of every ring state in the orthonormal basis.

    Row k holds c_m e^{-2 pi i k m / d} with c = `basis_amplitudes`.
    """
    k = np.arange(d)[:, None]
    m = np.arange(d)
    return basis_amplitudes(d, alpha) * np.exp(-2j * np.pi * k * m / d)


def norm_constants_uncached(d: int, amplitudes) -> np.ndarray:
    """The "gram" constants N_{v_m} of `coherent.norm_constants` with both DFT
    factors built on every call: the reference that its per-d cache of the
    factors must reproduce bit for bit, residue check and clip included."""
    a = np.asarray(amplitudes, dtype=float)
    j = np.arange(d)
    g = np.exp(a[..., None] ** 2 * (np.exp(2j * np.pi * j / d) - 1.0))
    m = np.arange(d)[:, None]
    vals = d * (np.exp(2j * np.pi * j[None, :] * m / d) * g[..., None, :]).sum(axis=-1)
    if np.abs(vals.imag).max(initial=0.0) > 1e-9:
        raise ArithmeticError("norm constants have a non-real residue")
    return np.clip(vals.real, 0.0, None)


def negativity_scan_whole(d: int, alphas, channel: ChannelParams,
                          model: str) -> list[tuple[float, float]]:
    """`states.negativity_scan` in one batch from the public `loss_weights`,
    `basis_amplitudes` and `np.linalg.eigvalsh`: two norm-constant calls and no
    chunks, the operations of the scan's P_k blocks in the same order."""
    a = np.asarray(alphas, dtype=float)
    w = loss_weights(d, a, channel, model).p
    c = basis_amplitudes(d, np.sqrt(channel.gamma) * a)
    idx = (np.arange(d)[:, None, None] - np.arange(d)[:, None] - np.arange(d)) % d
    blocks = w[:, idx]
    blocks *= c[:, None, :, None] * c[:, None, None, :]
    ev = np.linalg.eigvalsh(blocks)
    neg = np.where(ev < 0, -ev, 0.0).reshape(len(a), -1).sum(axis=1)
    return [(float(x), float(n)) for x, n in zip(a, neg)]


def emit_per_cell(columns, rows, fmt: str) -> str:
    """The CLI's document text with every cell formatted on its own: floats
    (numpy's too) at six significant digits, every other value by str().  The
    reference for `cli._emit`, which formats CSV a column at a time."""
    def six_digits(value):
        if isinstance(value, float) or isinstance(value, np.floating):
            return f"{float(value):.6g}"
        return None

    if fmt == "json":
        doc = [{c: v if (text := six_digits(v)) is None else float(text)
                for c, v in zip(columns, row)} for row in rows]
        return json.dumps(doc, indent=2) + "\n"
    buf = io.StringIO()
    buf.write(",".join(columns) + "\n")
    for row in rows:
        buf.write(",".join(str(v) if (text := six_digits(v)) is None else text
                           for v in row) + "\n")
    return buf.getvalue()


def partial_transpose(rho: DensityMatrix) -> np.ndarray:
    """Transpose subsystem A of a bipartite density matrix.

    Block (i,j) <-> (j,i) on the first tensor factor; Hermiticity and
    trace are preserved.
    """
    if rho.bipartition is None:
        raise ValueError("partial transpose requires a bipartition")
    da, db = rho.bipartition
    t = rho.matrix.reshape(da, db, da, db)
    return t.transpose(2, 1, 0, 3).reshape(da * db, da * db)


def negativity(rho: DensityMatrix) -> float:
    """Entanglement negativity: absolute sum of the negative eigenvalues
    of the partial transpose, equivalently (||rho^T_A||_1 - 1) / 2."""
    ev = np.linalg.eigvalsh(partial_transpose(rho))
    neg = -float(ev[ev < 0].sum())
    return max(neg, 0.0)


def fidelity_with_pure(rho, psi, norm_tol: float = 1e-10) -> float:
    """<psi|rho|psi> for a normalized pure target state."""
    v = np.asarray(psi, dtype=complex).ravel()
    if abs(np.linalg.norm(v) - 1.0) > norm_tol:
        raise ValueError("target state is not normalized")
    m = rho.matrix if isinstance(rho, DensityMatrix) else _as_square_complex(rho)
    if m.shape[0] != v.size:
        raise ValueError(f"dimension mismatch: matrix {m.shape[0]} vs state {v.size}")
    val = np.vdot(v, m @ v)
    if abs(val.imag) > 1e-10:
        raise ValueError(f"fidelity has non-real value {val}")
    return float(val.real)


@dataclass(frozen=True)
class HybridPureState:
    """Pure matter-light state (1/sqrt(d)) sum_k |k>|alpha e^{2 pi i k / d}>."""

    d: int
    alpha: float

    def coefficient_matrix(self) -> np.ndarray:
        """C[k, m]: amplitude of |k> |v_m> in the orthonormal light basis."""
        return ring_to_orthonormal(self.d, self.alpha) / np.sqrt(self.d)

    def statevector(self) -> np.ndarray:
        """Flattened coefficients, matter index slow, light index fast."""
        return self.coefficient_matrix().ravel()


def matter_light_pure(d: int, alpha: float) -> HybridPureState:
    if d < 2:
        raise ValueError("d must be >= 2")
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    return HybridPureState(d=d, alpha=alpha)


def matter_light_mixture(d: int, alpha: float, channel: ChannelParams,
                         model: str = "closed-form",
                         positivity_tol: float = 1e-9) -> tuple[DensityMatrix, PhaseMixtureWeights]:
    """Effective d*d matter-light state after the loss channel.

    Returns the density matrix (bipartition matter|light, light in the
    damped orthonormal basis) together with the component weights.  In the
    matter X-basis with conjugate-Fourier convention
    |k~> = (1/sqrt(d)) sum_j e^{-2 pi i k j / d}|j> component m takes the
    form (1/d) sum_r sqrt(N_{v_r}) |(m+r) mod d ~> |v_r~>.
    """
    w = loss_weights(d, alpha, channel, model)
    damped = ring_to_orthonormal(d, np.sqrt(channel.gamma) * alpha)
    q = np.arange(d)[:, None]
    rho = np.zeros((d * d, d * d), dtype=complex)
    for m in range(d):
        # |chi_m> = (1/sqrt(d)) sum_q e^{-2 pi i q m / d} |q>|damped ring q>,
        # matter computational index slow, orthonormal light index fast
        chi = (np.exp(-2j * np.pi * q * m / d) / np.sqrt(d) * damped).ravel()
        rho += w.p[m] * np.outer(chi, chi.conj())
    dm = DensityMatrix(rho, bipartition=(d, d), positivity_tol=positivity_tol)
    return dm, w


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


def quadrature_mean(beta, quadrature: str):
    """Re(beta) for x, Im(beta) for p."""
    if quadrature == "x":
        return np.real(beta)
    if quadrature == "p":
        return np.imag(beta)
    raise ValueError(f"unknown quadrature {quadrature!r}")


def quadrature_pdf(beta: complex, quadrature: str, value: float) -> float:
    """sqrt(2/pi) exp(-2 (value - c)^2), c = Re(beta) for x, Im(beta) for p."""
    c = quadrature_mean(beta, quadrature)
    return float(np.sqrt(2.0 / np.pi) * np.exp(-2.0 * (value - c) ** 2))


def quadrature_wavefunction(beta, quadrature: str, value):
    """Full complex x or p wavefunction of a coherent state, each written
    out on its own: the x one carries exp(+2i Im(beta) x), the p one
    exp(-2i Re(beta) p), and the global phases make the whole-line integral
    of psi_beta psi*_beta' the coherent overlap <beta'|beta>."""
    value = np.asarray(value, dtype=float)
    a, b = np.real(beta), np.imag(beta)
    if quadrature == "x":
        return (2 / np.pi) ** 0.25 * np.exp(-1j * a * b) * np.exp(-(value - a) ** 2 + 2j * b * value)
    if quadrature == "p":
        return (2 / np.pi) ** 0.25 * np.exp(1j * a * b) * np.exp(-(value - b) ** 2 - 2j * a * value)
    raise ValueError(f"unknown quadrature {quadrature!r}")


def window_mass(bounds: tuple[float, float], center: float) -> float:
    """Integral of the quadrature pdf with the given mean over [lo, hi]."""
    lo, hi = bounds
    # math.erf(+-inf) is +-1, so half-line windows need no special case
    return 0.5 * (math.erf(math.sqrt(2.0) * (hi - center))
                  - math.erf(math.sqrt(2.0) * (lo - center)))


def window_cross_integral_loop(beta_i: complex, beta_j: complex, quadrature: str,
                               bounds: tuple[float, float], tol: float) -> complex:
    """One window cross integral by adaptive composite Gauss-Legendre sums
    over the oracle's wavefunctions, independent of the closed form in
    `detection._pair_integrals`: clip at 8 + |means| (beyond it the integrand
    is below 1e-25), panels of k * width <= 64 for an integrand oscillating
    as exp(i k x), orders n and 2n from GL_FIRST_ORDER until they agree
    within `tol`."""
    cut = 8.0 + max(abs(quadrature_mean(beta_i, quadrature)),
                    abs(quadrature_mean(beta_j, quadrature)))
    lo, hi = max(bounds[0], -cut), min(bounds[1], cut)
    if lo >= hi:
        return 0.0 + 0.0j
    conjugate = "x" if quadrature == "p" else "p"
    k = 2.0 * abs(quadrature_mean(beta_i, conjugate) - quadrature_mean(beta_j, conjugate))
    panels = min(GL_MAX_PANELS, max(1, math.ceil(k * (hi - lo) / 64.0)))
    edges = np.linspace(lo, hi, panels + 1)
    mids, halves = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)

    def gauss_legendre(n):
        nodes, weights = np.polynomial.legendre.leggauss(n)
        q = mids[:, None] + halves[:, None] * nodes
        v = quadrature_wavefunction(beta_i, quadrature, q) * \
            np.conj(quadrature_wavefunction(beta_j, quadrature, q))
        return complex(halves @ (v @ weights))

    n, coarse = GL_FIRST_ORDER, gauss_legendre(GL_FIRST_ORDER)
    while True:
        fine = gauss_legendre(2 * n)
        if abs(fine - coarse) <= tol:
            return fine
        if 2 * n >= GL_MAX_ORDER:
            raise ArithmeticError("window quadrature did not converge")
        n, coarse = 2 * n, fine


def homodyne_windows(d: int, sa: float, delta_frac: float) -> list[tuple[float, float]]:
    """The acceptance windows at damped amplitude sa = sqrt(gamma) alpha, from
    their definitions, window i owned by ring state i (d = 4: states 0 and 2).

    d = 2, 4, on x: the half-lines beyond +-(1 - delta_frac) sa.  d = 3, on p
    of the unturned ring, whose means are 0 and +-s with s = (sqrt 3 / 2) sa:
    the interval of half-width delta = delta_frac * s / 2 around 0 and the
    half-lines beyond +-(s - delta).
    """
    if d == 3:
        s = math.sqrt(3.0) * sa / 2.0
        delta = delta_frac * s / 2.0
        return [(-delta, delta), (s - delta, math.inf), (-math.inf, delta - s)]
    edge = (1.0 - delta_frac) * sa
    return [(edge, math.inf), (-math.inf, -edge)]


def offdiag_bound_loop(d: int, alpha: float, channel: ChannelParams, delta_frac: float,
                       tol: float = 1e-10) -> float:
    """`homodyne_report`'s offdiag_bound from one integral at a time,
    0.0 when at or below `tol`.  The qutrit windows are read on p of the
    unturned ring, so this checks the library's quarter turn to x, and the
    windows are `homodyne_windows`, not the library's."""
    sa = math.sqrt(channel.gamma) * alpha
    ring = ring_states(d, sa)
    quadrature = "p" if d == 3 else "x"
    bound = max(abs(window_cross_integral_loop(ring[i], ring[j], quadrature, bounds, tol))
                for bounds in homodyne_windows(d, sa, delta_frac)
                for i in range(d) for j in range(i + 1, d))
    return bound if bound > tol else 0.0


def homodyne_table_state_loop(L0_km: float, target_f0: float) -> tuple[float, PhaseMixtureWeights]:
    """The Table III/IV homodyne segment state from one scalar `window_stats`
    row per amplitude of the 41-point grid: the first row whose F_av is nearest
    the target, as P0 = P_succ and weights (F_av, rest split equally)."""
    ch = ChannelParams(L0_km)
    *_, p_succ, f_av = min((window_stats(3, float(alpha), ch, 0.001)[0]
                            for alpha in np.linspace(0.9, 1.1, 41)),
                           key=lambda row: abs(row[-1] - target_f0))
    return p_succ, PhaseMixtureWeights(3, [f_av] + 2 * [(1.0 - f_av) / 2])


def z_attempts_series(n: int, p: float) -> float:
    """Literal inclusion-exclusion sum for Z_n; equals `z_attempts`.

    Kept as the small-n oracle: the terms cancel catastrophically once
    2^n is large.
    """
    if not 0 < p <= 1:
        raise ValueError(f"probability must lie in (0, 1], got {p}")
    segments = 2 ** int(n)
    q = 1.0 - p
    total = 0.0
    for j in range(1, segments + 1):
        total += (-1.0) ** (j + 1) * math.comb(segments, j) / (1.0 - q ** j)
    return total


def monte_carlo_attempts(config: RepeaterConfig, trials: int, seed: int) -> tuple[float, float]:
    """Monte Carlo validation of the waiting-time model for a full config."""
    p0, weights = initial_segment_state(config)
    chain = purification_chain(p0, weights, config.purification_rounds)
    round_probs = tuple(st.success_probability for st in chain[1:])
    return monte_carlo_waiting(config.n, p0, round_probs, trials, seed)


def monte_carlo_waiting_reduceat(n: int, p0: float, round_probs, trials: int, seed: int,
                                 retries: bool = False) -> tuple[float, float]:
    """`monte_carlo_waiting` with each element's attempts laid out together and summed
    with `np.add.reduceat` between the int64 `[0, cumsum(K)]` bounds, into fresh arrays.

    By default every element draws its attempt count K ~ geometric(p_round), as the
    sampler did before it drew only the retries: the same distribution, other seeded
    values with rounds.  With `retries` the counts come from `rates._retries`, the
    sampler's own draws, and the attempts are gathered from its layout (first attempts,
    then the extras by id), so seeded results are equal below 2^53.  Same stream and
    chunks (`rates.MC_CHUNK`).  Takes valid arguments only: no checks and no work cap.
    """
    segments = 2 ** n
    round_log2 = sum(math.log2(2 / p) for p in round_probs)
    per_chunk = min(max(1, int(rates.MC_CHUNK / 2 ** (n + round_log2))), trials)
    sum_x = sum_x2 = 0.0
    rng = np.random.default_rng([int(seed), 0])
    for done in range(0, trials, per_chunk):
        count = min(per_chunk, trials - done) * segments
        bounds, orders = [], []
        for p_round in reversed(round_probs):
            if retries:
                ids, extra = rates._retries(rng, p_round, count)
                k = np.ones(count)
                k[ids] += np.diff(extra)
                owner = np.concatenate((np.arange(count), np.repeat(ids, np.diff(extra))))
                orders.append(np.argsort(owner, kind="stable"))  # first attempt first
            else:
                k = rates._geometric(rng, p_round, np.empty(count))
                orders.append(slice(None))
            bounds.append(np.concatenate(([0], np.cumsum(k, dtype=np.int64))))
            count = 2 * int(bounds[-1][-1])
        if round_probs:  # the maximum of two geometric(p0) waits from one uniform
            waits = rates._geometric(rng, p0, np.empty(count // 2), np.empty(count // 2))
        else:
            waits = rates._geometric(rng, p0, np.empty(count))
        for depth, (bound, order) in enumerate(zip(reversed(bounds), reversed(orders))):
            if depth:
                waits = np.maximum(waits[0::2], waits[1::2])
            waits = np.add.reduceat(waits[order], bound[:-1])
        for _ in range(n):
            waits = np.maximum(waits[0::2], waits[1::2])
        sum_x += float(waits.sum())
        sum_x2 += float(np.einsum("i,i->", waits, waits))
    mean = sum_x / trials
    var = max(sum_x2 - trials * mean ** 2, 0.0) / (trials - 1) if trials > 1 else math.nan
    return mean, math.sqrt(var / trials)
