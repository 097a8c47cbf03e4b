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

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RingSpec",
    "overlap",
    "norm_constants",
    "norm_constants_closed_form",
    "gram_matrix",
    "ring_to_orthonormal",
    "NEGLIGIBLE_NORM",
]

# Below this, a basis direction carries no meaningful population and is
# treated as absent (its expansion coefficient is set to exactly zero).
NEGLIGIBLE_NORM = 1e-12


@dataclass(frozen=True)
class RingSpec:
    """Dimension d and real amplitude of the d phase-rotated coherent states."""

    d: int
    amplitude: float

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"ring dimension must be >= 2, got {self.d}")
        if not (math.isfinite(self.amplitude) and self.amplitude >= 0):
            raise ValueError(f"amplitude must be finite and nonnegative, got {self.amplitude}")

    def phases(self) -> np.ndarray:
        return np.exp(2j * np.pi * np.arange(self.d) / self.d)

    def states(self) -> np.ndarray:
        """Complex amplitudes of the d ring states."""
        return self.amplitude * self.phases()


def overlap(a: complex, b: complex) -> complex:
    """<a|b> for coherent states: exp(-|a|^2/2 - |b|^2/2 + conj(a) b)."""
    a = complex(a)
    b = complex(b)
    return np.exp(-0.5 * abs(a) ** 2 - 0.5 * abs(b) ** 2 + np.conj(a) * b)


def norm_constants(ring: RingSpec) -> np.ndarray:
    """Normalization constants N_{v_m} of the orthonormal superposition basis.

    Evaluated as the DFT of the ring-state overlaps,

        N_{v_m} = d * sum_j e^{2 pi i j m / d} exp(alpha^2 (e^{2 pi i j / d} - 1)),

    which equals the Gram double sum and the eigenvalues of d * Gram.
    Tiny negative rounding noise is clipped to zero; the values sum to d^2.
    """
    d = ring.d
    j = np.arange(d)
    g = np.exp(ring.amplitude ** 2 * (np.exp(2j * np.pi * j / d) - 1.0))
    m = np.arange(d)[:, None]
    vals = d * (np.exp(2j * np.pi * j[None, :] * m / d) * g[None, :]).sum(axis=1)
    if np.max(np.abs(vals.imag)) > 1e-9:
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
    a2 = ring.amplitude ** 2
    if ring.d == 2:
        e = np.exp(-2.0 * a2)
        return np.array([2.0 * (1.0 + e), 2.0 * (1.0 - e)])
    if ring.d == 3:
        e = np.exp(-1.5 * a2)
        th = np.sqrt(0.75) * a2
        return np.array([
            3.0 + 6.0 * e * np.cos(th),
            3.0 - e * (3.0 * np.cos(th) + np.sqrt(3.0) * np.sin(th)),
            3.0 - e * (3.0 * np.cos(th) - np.sqrt(3.0) * np.sin(th)),
        ])
    return norm_constants(ring)


def gram_matrix(ring: RingSpec) -> np.ndarray:
    """Gram matrix G[k, l] = overlap(ring state k, ring state l)."""
    s = ring.states()
    return np.array([[overlap(s[k], s[l]) for l in range(ring.d)] for k in range(ring.d)])


def ring_to_orthonormal(ring: RingSpec) -> np.ndarray:
    """Expansion coefficients of every ring state in the orthonormal basis.

    Row k holds c_m = sqrt(N_{v_m}) / d * e^{-2 pi i k m / d}; directions
    with N_{v_m} < NEGLIGIBLE_NORM are dropped (coefficient exactly zero).
    """
    n = norm_constants(ring)
    n = np.where(n < NEGLIGIBLE_NORM, 0.0, n)
    k = np.arange(ring.d)[:, None]
    m = np.arange(ring.d)
    return np.sqrt(n) / ring.d * np.exp(-2j * np.pi * k * m / ring.d)
