"""Protocol state construction.

A matter qudit interacts dispersively with a coherent pulse (phase kick
2 pi / d per level), the pulse crosses a lossy fiber segment, and a second
matter qudit applies the inverse interaction.  Tracing the loss mode turns
the pure hybrid state into a d-component mixture whose weights are
normalization constants evaluated at the loss amplitude sqrt(1-gamma)*alpha.

The light mode always lives in the <= d dimensional span of the damped ring
states and is represented in the orthonormal superposition basis, so no
Fock-space truncation is involved anywhere.  `negativity_scan` works in the
Z_d symmetry blocks of the matter-light state, for many amplitudes at once;
the full d^2 x d^2 density matrix is built only by the test oracle
`matter_light_mixture` in `tests/oracles.py`.  `loss_weights` and its
`PhaseMixtureWeights` hold one amplitude's weights or many, shape (..., d):
the rate chain, the scan and the homodyne window pass share them.  The
segment functions here and in `detection` take (d, alpha(s), ChannelParams).

Two weight models are available for the d=3 mixture (the `model` of
`coherent.norm_constants`): "closed-form" keeps the benchmark tables
reproducible and is the default of `loss_weights`; "gram" is the
Gram-exact channel output and is the default for the negativity scan,
which probes the physical entanglement.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .coherent import (basis_amplitudes, basis_from_norms, norm_constants, ring_amplitudes,
                       weights_from_norms)

__all__ = [
    "ChannelParams",
    "PhaseMixtureWeights",
    "loss_weights",
    "negativity_scan",
]

# attenuation length of telecom fiber, the default of every channel; light's speed in it
L_ATT_KM = 22.0
FIBER_SPEED_KM_S = 2.0e5

# largest |sum - 1| a phase-mixture weight vector may have
WEIGHT_SUM_TOL = 1e-10

# largest |trace - 1| of the scan's blocks; also numerics.DensityMatrix's default
TRACE_TOL = 1e-10

# floats in the (points, d, d, d) block array of one negativity_scan batch,
# 1 MB: a batch holds max(1, SCAN_CHUNK_FLOATS // d^3) grid points
SCAN_CHUNK_FLOATS = 256 * 8 ** 3
# largest d negativity_scan accepts: on a 2-vCPU machine a point costs about
# 0.05 ms at d = 8, 0.24 ms at d = 16 and 1.8 ms at d = 32, so a scan of
# cli.ALPHA_RANGE_MAX_COUNT points takes about 5 s, 24 s and 3 min
SCAN_MAX_D = 16


class ChannelParams:
    """Fiber segment of length L0 with attenuation length L_att (telecom ~22 km);
    immutable: assigning to a field raises AttributeError."""

    __slots__ = ("L0_km", "L_att_km")

    def __init__(self, L0_km: float, L_att_km: float = L_ATT_KM):
        object.__setattr__(self, "L0_km", L0_km)
        object.__setattr__(self, "L_att_km", L_att_km)
        if not (math.isfinite(self.L0_km) and self.L0_km >= 0):
            raise ValueError("segment length must be finite and nonnegative")
        if not (math.isfinite(self.L_att_km) and self.L_att_km > 0):
            raise ValueError("attenuation length must be finite and positive")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    @property
    def gamma(self) -> float:
        """Intensity transmittance exp(-L0/L_att)."""
        return float(np.exp(-self.L0_km / self.L_att_km))


class PhaseMixtureWeights:
    """Probability vectors p[..., :] over the d phase-Bell mixture components:
    each weight >= -1e-12 and each sum within WEIGHT_SUM_TOL of 1 (NaN and
    +-inf fail), or a ValueError names the first bad vector; then clipped at 0."""

    def __init__(self, d: int, p):
        p = np.asarray(p, dtype=float)
        if p.shape[-1:] != (d,):
            raise ValueError(f"expected {d} weights, got shape {p.shape}")
        good = (p.min(axis=-1) >= -1e-12) & (abs(p.sum(axis=-1) - 1.0) <= WEIGHT_SUM_TOL)
        if not good.all():
            raise ValueError(f"weights {p[~good][0]} must be nonnegative and sum to 1")
        self.d = d
        self.p = np.clip(p, 0.0, None)

    def __repr__(self) -> str:  # pragma: no cover
        return f"PhaseMixtureWeights(d={self.d}, p={np.array2string(self.p, precision=6)})"


def loss_weights(d: int, alpha, channel: ChannelParams,
                 model: str = "closed-form") -> PhaseMixtureWeights:
    """Mixture weights N_{v_m}(sqrt(1-gamma)*alpha) / d^2 after the loss trace,
    for a float alpha (p of shape (d,)) or an amplitude array (p of shape
    alpha.shape + (d,)).

    The inverse interaction is unitary on matter (x) light, so these are
    also the matter-matter weights: component m pairs the Bell state with
    phase index (d - m) mod d and shift index j with ring state j.
    """
    # checked before damping, which maps a negative amplitude to -0.0 when gamma = 1
    a_loss = math.sqrt(1.0 - channel.gamma) * ring_amplitudes(d, alpha)
    return PhaseMixtureWeights(d, weights_from_norms(d, norm_constants(d, a_loss, model)))


def negativity_scan(d: int, alphas, channel: ChannelParams,
                    model: str = "gram") -> list[tuple[float, float]]:
    """Negativity of the effective matter-light state over an amplitude grid.

    Defaults to the Gram-exact weight model: the scan quantifies physical
    channel entanglement, for which the closed-form d=3 variant slightly
    underestimates the 10 km curve.

    The full d^2 x d^2 state is never built.  With the matter
    qudit in the Fourier basis |f_s> = d^{-1/2} sum_q e^{-2 pi i q s / d}|q>
    and c = `basis_amplitudes` at the damped amplitude, component m is
    |chi_m> = sum_r c_r |f_{m+r}>|v_r>, so rho is the direct sum of the
    rank-one blocks w_m c c^T.  Its partial transpose on matter, taken in
    the f basis, is the direct sum over k of the real symmetric d x d
    blocks P_k[r, r'] = w_{(k-r-r') mod d} c_r c_r'.  A transpose in another
    local basis is unitarily equivalent, so these blocks carry the
    negativity of the full matrix, which stays the test oracle.
    Each chunk of SCAN_CHUNK_FLOATS // d^3 points takes one norm-constant pass
    (two for the d=3 closed form) and one batched eigvalsh; d <= SCAN_MAX_D.
    Every grid point passes `ring_amplitudes`' check, the
    PhaseMixtureWeights conditions and DensityMatrix's trace test (on the
    blocks w_m c c^T, same tolerance).  The blocks are Hermitian and
    positive semidefinite by construction: c_r c_r' and c_r' c_r are the
    same float product, and w_m c c^T >= 0 for real c and the clipped
    w >= 0, so only the trace is checked.
    """
    if d > SCAN_MAX_D:
        raise ValueError(f"negativity scan supports d <= {SCAN_MAX_D}, got d = {d}")
    a = ring_amplitudes(d, alphas)
    neg = np.empty(len(a))
    step = max(1, SCAN_CHUNK_FLOATS // d ** 3)
    for s in range(0, len(a), step):
        neg[s:s + step] = _block_negativities(d, a[s:s + step], channel, model)
    return list(zip(a.tolist(), neg.tolist()))


def _block_negativities(d: int, a: np.ndarray, ch: ChannelParams, model: str) -> np.ndarray:
    """Negativity at every amplitude of a, from one batched eigvalsh of all P_k blocks."""
    if d == 3 and model == "closed-form":  # the weights' own constants
        w, c = loss_weights(d, a, ch, model).p, basis_amplitudes(d, math.sqrt(ch.gamma) * a)
    else:  # one DFT pass for the lossy and the kept amplitudes
        n = norm_constants(d, np.outer([math.sqrt(1.0 - ch.gamma), math.sqrt(ch.gamma)], a), model)
        w, c = PhaseMixtureWeights(d, weights_from_norms(d, n[0])).p, basis_from_norms(d, n[1])
    tr = w.sum(axis=1) * (c * c).sum(axis=1)  # trace of (+)_m w_m c c^T
    bad = tr[abs(tr - 1.0) > TRACE_TOL]
    if bad.size:
        raise ValueError(f"density matrix trace {bad[0]} is not 1 within tolerance")
    blocks = w[:, _hankel_index(d)]
    blocks *= c[:, None, :, None] * c[:, None, None, :]
    ev = np.linalg.eigvalsh(blocks)
    # each point's d^2 terms summed as one contiguous row: a sum over axes
    # (1, 2) rounds differently with the number of points in the batch
    return np.where(ev < 0, -ev, 0.0).reshape(len(a), -1).sum(axis=1)


@lru_cache(maxsize=SCAN_MAX_D)  # [k, r, r'] = (k - r - r') mod d, the index into w of P_k[r, r']
def _hankel_index(d: int) -> np.ndarray:
    return (np.arange(d)[:, None, None] - np.arange(d)[:, None] - np.arange(d)) % d
