"""Algebra of d coherent states on a phase ring.

The ring states |alpha e^{2 pi i k/d}> are not orthogonal; their
orthonormal companions are the discrete-Fourier superpositions

    |v_m> ~ sum_k e^{2 pi i k m / d} |alpha e^{2 pi i k / d}>,

with normalization constants N_{v_m}.  Everything is handled analytically
through overlaps and these constants; no numerical Gram-Schmidt is ever
performed (it would be badly conditioned at small amplitude where the
ring states are nearly parallel).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "RingSpec",
    "norm_constants",
    "norm_constants_closed_form",
    "ring_amplitudes",
    "ring_norm_constants",
    "ring_norm_constants_closed_form",
    "basis_amplitudes",
    "NEGLIGIBLE_NORM",
]

# Below this, a basis direction carries no meaningful population and is
# treated as absent (its expansion coefficient is set to exactly zero).
NEGLIGIBLE_NORM = 1e-12


def ring_amplitudes(d: int, amplitudes) -> np.ndarray:
    """Amplitudes as a float array, after RingSpec's checks on d and on each value."""
    if d < 2:
        raise ValueError(f"ring dimension must be >= 2, got {d}")
    a = np.asarray(amplitudes, dtype=float)
    bad = ~(np.isfinite(a) & (a >= 0))
    if bad.any():
        raise ValueError(f"amplitude must be finite and nonnegative, got {a[bad][0]}")
    return a


@dataclass(frozen=True)
class RingSpec:
    """Dimension d and real amplitude of the d phase-rotated coherent states."""

    d: int
    amplitude: float

    def __post_init__(self):
        ring_amplitudes(self.d, self.amplitude)

    def phases(self) -> np.ndarray:
        return np.exp(2j * np.pi * np.arange(self.d) / self.d)

    def states(self) -> np.ndarray:
        """Complex amplitudes of the d ring states."""
        return self.amplitude * self.phases()


def norm_constants(ring: RingSpec) -> np.ndarray:
    """Normalization constants N_{v_m} of the orthonormal superposition basis.

    Evaluated as the DFT of the ring-state overlaps,

        N_{v_m} = d * sum_j e^{2 pi i j m / d} exp(alpha^2 (e^{2 pi i j / d} - 1)),

    which equals the Gram double sum and the eigenvalues of d * Gram.
    Tiny negative rounding noise is clipped to zero; the values sum to d^2.
    """
    return ring_norm_constants(ring.d, ring.amplitude)


def ring_norm_constants(d: int, amplitudes) -> np.ndarray:
    """`norm_constants` for every amplitude at once: shape amplitudes.shape + (d,)."""
    a = ring_amplitudes(d, amplitudes)
    j = np.arange(d)
    g = np.exp(a[..., None] ** 2 * (np.exp(2j * np.pi * j / d) - 1.0))
    m = np.arange(d)[:, None]
    vals = d * (np.exp(2j * np.pi * j[None, :] * m / d) * g[..., None, :]).sum(axis=-1)
    if np.abs(vals.imag).max(initial=0.0) > 1e-9:
        raise ArithmeticError("norm constants have a non-real residue")
    return np.clip(vals.real, 0.0, None)


def norm_constants_closed_form(ring: RingSpec) -> np.ndarray:
    """Trigonometric closed forms of the d=2 and d=3 constants.

    For d=2 this coincides with `norm_constants` exactly:
    2(1 +- e^{-2 alpha^2}).  For d=3 the m=0 value also coincides, but the
    m=1,2 values here carry sqrt(3) on the sine term where the Gram-derived
    constants carry 3*sqrt(3); the two variants agree only in their sum.
    The bundled benchmark tables (see `hqrsim.tables`) and every
    purification/fidelity chain printed there are built on this variant, so
    it is kept verbatim as the default weight model of the mixture
    constructors.  Use `norm_constants` wherever actual orthonormal-basis
    algebra (expansions, overlaps, discrimination bounds) is required.

    For d not in {2, 3} there is no closed-form variant and this delegates
    to `norm_constants`.
    """
    return ring_norm_constants_closed_form(ring.d, ring.amplitude)


def ring_norm_constants_closed_form(d: int, amplitudes) -> np.ndarray:
    """`norm_constants_closed_form` for every amplitude at once."""
    a2 = ring_amplitudes(d, amplitudes) ** 2
    if d == 2:
        e = np.exp(-2.0 * a2)
        return np.stack([2.0 * (1.0 + e), 2.0 * (1.0 - e)], axis=-1)
    if d == 3:
        e = np.exp(-1.5 * a2)
        th = np.sqrt(0.75) * a2
        return np.stack([
            3.0 + 6.0 * e * np.cos(th),
            3.0 - e * (3.0 * np.cos(th) + np.sqrt(3.0) * np.sin(th)),
            3.0 - e * (3.0 * np.cos(th) - np.sqrt(3.0) * np.sin(th)),
        ], axis=-1)
    return ring_norm_constants(d, amplitudes)


def basis_amplitudes(d: int, amplitudes) -> np.ndarray:
    """c_m = sqrt(N_{v_m}) / d for every amplitude: shape amplitudes.shape + (d,).

    Directions with N_{v_m} < NEGLIGIBLE_NORM are dropped (c_m exactly zero).
    """
    n = ring_norm_constants(d, amplitudes)
    n = np.where(n < NEGLIGIBLE_NORM, 0.0, n)
    return np.sqrt(n) / d
