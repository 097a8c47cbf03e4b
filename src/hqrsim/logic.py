"""Purification and swapping on phase-Bell mixture weights.

Phase-Bell mixture weights propagate analytically: they square under
purification and convolve cyclically under swapping.  The density-matrix
circuit simulation and the Bell analyzer that check these rules are test
oracles (`tests/oracles.py`), together with the qudit gate and Bell-state
conventions they use.
"""

from __future__ import annotations

import numpy as np

from .states import PhaseMixtureWeights

__all__ = [
    "purify_step",
    "swap_phase_mixture",
]


def purify_step(w: PhaseMixtureWeights) -> tuple[float, PhaseMixtureWeights]:
    """Two-copy purification on equal-spin postselection.

    Success probability sum_j p_j^2; surviving weights p_j^2 / sum p_j^2.
    The leading weight strictly increases whenever 1/d < p_0 < 1 and
    every other p_i < p_0.
    """
    success = float(np.sum(w.p ** 2))
    return success, PhaseMixtureWeights(w.d, w.p ** 2 / success)


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
