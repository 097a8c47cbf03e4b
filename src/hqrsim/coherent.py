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

from functools import lru_cache

import numpy as np

__all__ = [
    "WEIGHT_MODELS",
    "norm_constants",
    "ring_amplitudes",
    "ring_states",
    "basis_amplitudes",
    "basis_from_norms",
    "NEGLIGIBLE_NORM",
]

# "gram": the Gram-exact constants; "closed-form": the d=3 trigonometric
# form the benchmark tables are built on (see `norm_constants`)
WEIGHT_MODELS = ("closed-form", "gram")

# Below this, a basis direction carries no meaningful population and is
# treated as absent (its expansion coefficient is set to exactly zero).
NEGLIGIBLE_NORM = 1e-12
# about 3.35e153, where 16 alpha^2 is still finite: no exponent or squared
# quadrature distance formed from alpha (at most about 8 alpha^2) overflows
AMPLITUDE_MAX = float(np.sqrt(np.finfo(float).max)) / 4
# every d up to here passes the DFT's residue check on an alpha grid over [0, 40]
RING_MAX_D = 195


def ring_amplitudes(d: int, amplitudes) -> np.ndarray:
    """Amplitudes as a float array, after checking 2 <= d <= RING_MAX_D and
    that each value lies in [0, AMPLITUDE_MAX]."""
    if not 2 <= d <= RING_MAX_D:
        raise ValueError(f"ring dimension must lie in [2, {RING_MAX_D}], got {d}")
    a = np.asarray(amplitudes, dtype=float)
    good = (a >= 0) & (a <= AMPLITUDE_MAX)  # NaN fails both
    if not good.all():
        raise ValueError(f"amplitude must lie in [0, {AMPLITUDE_MAX:.6g}], got {a[~good][0]}")
    return a


def ring_states(d: int, amplitude) -> np.ndarray:
    """Complex amplitudes alpha e^{2 pi i k / d} of the d ring states:
    shape amplitude.shape + (d,); the quarter turns (4k/d an integer) are
    exactly 1, i, -1 and -i, so no x- or p-mean is rounding noise for 0."""
    a = ring_amplitudes(d, amplitude)
    k = np.arange(d)
    quarter = np.array([1, 1j, -1, -1j])[4 * k // d % 4]
    return a[..., None] * np.where(4 * k % d == 0, quarter, np.exp(2j * np.pi * k / d))


def norm_constants(d: int, amplitudes, model: str = "gram") -> np.ndarray:
    """Normalization constants N_{v_m} for every amplitude at once: shape
    amplitudes.shape + (d,).

    "gram" evaluates the DFT of the ring-state overlaps (factors cached per d),

        N_{v_m} = d * sum_j e^{2 pi i j m / d} exp(alpha^2 (e^{2 pi i j / d} - 1)),

    which equals the Gram double sum and the eigenvalues of d * Gram.
    Tiny negative rounding noise is clipped to zero; the values sum to d^2.

    "closed-form" gives the trigonometric closed form of the d=3 constants:
    the m=0 value coincides with "gram", but the m=1,2 values here carry
    sqrt(3) on the sine term where the Gram-derived constants carry
    3*sqrt(3); the two variants agree only in their sum.
    The bundled benchmark tables (see `hqrsim.tables`) and every
    purification/fidelity chain printed there are built on this variant, so
    it is kept verbatim as the default weight model of `states.loss_weights`.
    Use "gram" wherever actual orthonormal-basis algebra (expansions,
    overlaps, discrimination bounds) is required.  For d != 3 the models
    coincide: at d=2 the DFT already is 2(1 +- e^{-2 alpha^2}).
    """
    if model not in WEIGHT_MODELS:
        raise ValueError(f"unknown weight model {model!r}")
    a = ring_amplitudes(d, amplitudes)
    if model == "closed-form" and d == 3:
        a2 = a ** 2
        e = np.exp(-1.5 * a2)
        th = np.sqrt(0.75) * a2
        return np.stack([
            3.0 + 6.0 * e * np.cos(th),
            3.0 - e * (3.0 * np.cos(th) + np.sqrt(3.0) * np.sin(th)),
            3.0 - e * (3.0 * np.cos(th) - np.sqrt(3.0) * np.sin(th)),
        ], axis=-1)
    ring, dft = _dft_factors(d)
    vals = d * (dft * np.exp(a[..., None] ** 2 * ring)[..., None, :]).sum(axis=-1)
    if np.abs(vals.imag).max(initial=0.0) > 1e-9:
        raise ArithmeticError("norm constants have a non-real residue")
    return np.clip(vals.real, 0.0, None)


@lru_cache(maxsize=16)  # read-only ring factors e^{2 pi i j/d} - 1 and DFT e^{2 pi i jm/d}[m, j]
def _dft_factors(d: int) -> tuple[np.ndarray, np.ndarray]:
    j = np.arange(d)
    ring, dft = np.exp(2j * np.pi * j / d) - 1.0, np.exp(2j * np.pi * j[None, :] * j[:, None] / d)
    ring.flags.writeable = dft.flags.writeable = False
    return ring, dft


def basis_amplitudes(d: int, amplitudes) -> np.ndarray:
    """c_m = sqrt(N_{v_m}) / d for every amplitude: shape amplitudes.shape + (d,)."""
    return basis_from_norms(d, norm_constants(d, amplitudes))


def basis_from_norms(d: int, n: np.ndarray) -> np.ndarray:
    """c_m = sqrt(N_{v_m}) / d of constants n, exactly 0 where N_{v_m} < NEGLIGIBLE_NORM."""
    return np.sqrt(np.where(n < NEGLIGIBLE_NORM, 0.0, n)) / d
