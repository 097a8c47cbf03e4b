"""Protocol state construction.

A matter qudit interacts dispersively with a coherent pulse (phase kick
2 pi / d per level), the pulse crosses a lossy fiber segment, and a second
matter qudit applies the inverse interaction.  Tracing the loss mode turns
the pure hybrid state into a d-component mixture whose weights are
normalization constants evaluated at the loss amplitude sqrt(1-gamma)*alpha.

The light mode always lives in the <= d dimensional span of the damped ring
states and is represented in the orthonormal superposition basis, so no
Fock-space truncation is involved anywhere.

Two weight models are available for the d=3 mixture (see
`coherent.norm_constants_closed_form`): "closed-form" keeps the benchmark
tables reproducible and is the default for the mixture constructors;
"gram" is the Gram-exact channel output and is the default for the
negativity scan, which probes the physical entanglement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coherent import RingSpec, norm_constants, norm_constants_closed_form, ring_to_orthonormal
from .numerics import DensityMatrix, negativity

__all__ = [
    "ChannelParams",
    "PhaseMixtureWeights",
    "WEIGHT_MODELS",
    "loss_weights",
    "HybridPureState",
    "matter_light_pure",
    "matter_light_mixture",
    "MatterMatterMixture",
    "matter_matter_components",
    "negativity_scan",
]

WEIGHT_MODELS = ("closed-form", "gram")

# largest |sum - 1| a phase-mixture weight vector may have
WEIGHT_SUM_TOL = 1e-10


@dataclass(frozen=True)
class ChannelParams:
    """Fiber segment of length L0 with attenuation length L_att (telecom ~22 km)."""

    L0_km: float
    L_att_km: float = 22.0

    def __post_init__(self):
        if not (math.isfinite(self.L0_km) and self.L0_km >= 0):
            raise ValueError("segment length must be finite and nonnegative")
        if not (math.isfinite(self.L_att_km) and self.L_att_km > 0):
            raise ValueError("attenuation length must be finite and positive")

    @property
    def gamma(self) -> float:
        """Intensity transmittance exp(-L0/L_att)."""
        return float(np.exp(-self.L0_km / self.L_att_km))


class PhaseMixtureWeights:
    """Probability vector over the d phase-Bell mixture components."""

    def __init__(self, d: int, p):
        p = np.asarray(p, dtype=float)
        if p.shape != (d,):
            raise ValueError(f"expected {d} weights, got shape {p.shape}")
        if not np.all(np.isfinite(p)):
            raise ValueError(f"weights must be finite, got {p}")
        if p.min() < -1e-12:
            raise ValueError(f"negative weight {p.min()}")
        if abs(p.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {p.sum()}, not 1")
        self.d = d
        self.p = np.clip(p, 0.0, None)

    def __repr__(self) -> str:  # pragma: no cover
        return f"PhaseMixtureWeights(d={self.d}, p={np.array2string(self.p, precision=6)})"


def loss_weights(d: int, alpha: float, channel: ChannelParams,
                 model: str = "closed-form") -> PhaseMixtureWeights:
    """Mixture weights N_{v_m}(sqrt(1-gamma)*alpha) / d^2 after the loss trace."""
    if model not in WEIGHT_MODELS:
        raise ValueError(f"unknown weight model {model!r}")
    a_loss = np.sqrt(max(1.0 - channel.gamma, 0.0)) * alpha
    ring = RingSpec(d, a_loss)
    n = norm_constants_closed_form(ring) if model == "closed-form" else norm_constants(ring)
    return PhaseMixtureWeights(d, n / d ** 2)


@dataclass(frozen=True)
class HybridPureState:
    """Pure matter-light state (1/sqrt(d)) sum_k |k>|alpha e^{2 pi i k / d}>."""

    d: int
    alpha: float

    def coefficient_matrix(self) -> np.ndarray:
        """C[k, m]: amplitude of |k> |v_m> in the orthonormal light basis."""
        return ring_to_orthonormal(RingSpec(self.d, self.alpha)) / np.sqrt(self.d)

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
    damped = ring_to_orthonormal(RingSpec(d, np.sqrt(channel.gamma) * alpha))
    q = np.arange(d)[:, None]
    rho = np.zeros((d * d, d * d), dtype=complex)
    for m in range(d):
        # |chi_m> = (1/sqrt(d)) sum_q e^{-2 pi i q m / d} |q>|damped ring q>,
        # matter computational index slow, orthonormal light index fast
        chi = (np.exp(-2j * np.pi * q * m / d) / np.sqrt(d) * damped).ravel()
        rho += w.p[m] * np.outer(chi, chi.conj())
    dm = DensityMatrix(rho, bipartition=(d, d), positivity_tol=positivity_tol)
    return dm, w


@dataclass(frozen=True)
class MatterMatterMixture:
    """Mixture over components |T_m>, each pairing d Bell states with ring states.

    Component m carries weight N_{v_m}(sqrt(1-gamma)*alpha)/d^2 and couples
    the Bell state with phase index (d - m) mod d and shift index j to ring
    state j:  |T_m> = (1/sqrt(d)) sum_j |phi_{(d-m) mod d, j}> |ring j>.
    """

    d: int
    weights: PhaseMixtureWeights

    def bell_phase_index(self, m: int) -> int:
        return (self.d - m) % self.d

    def pairing_table(self) -> list[tuple[int, float, int]]:
        """(component m, weight, Bell phase index); shift j pairs ring j."""
        return [(m, float(self.weights.p[m]), self.bell_phase_index(m))
                for m in range(self.d)]


def matter_matter_components(d: int, alpha: float, channel: ChannelParams,
                             model: str = "closed-form") -> MatterMatterMixture:
    """Matter-matter component structure after the inverse interaction.

    The second interaction is unitary on matter (x) light, so the component
    weights are exactly those of `matter_light_mixture`.
    """
    return MatterMatterMixture(d=d, weights=loss_weights(d, alpha, channel, model))


def negativity_scan(d: int, L0_km: float, alphas, model: str = "gram",
                    L_att_km: float = 22.0,
                    positivity_tol: float = 1e-9) -> list[tuple[float, float]]:
    """Negativity of the effective matter-light state over an amplitude grid.

    Defaults to the Gram-exact weight model: the scan quantifies physical
    channel entanglement, for which the closed-form d=3 variant slightly
    underestimates the 10 km curve.
    """
    ch = ChannelParams(L0_km, L_att_km)
    out = []
    for a in np.asarray(alphas, dtype=float):
        dm, _ = matter_light_mixture(d, float(a), ch, model=model,
                                     positivity_tol=positivity_tol)
        out.append((float(a), negativity(dm)))
    return out
