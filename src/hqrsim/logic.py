"""Purification on phase-Bell mixture weights.

Phase-Bell mixture weights propagate analytically: they square under
purification and convolve cyclically under swapping.  The rate model
bounds the swapped chain by F^(2^n) (`rates`), so the convolution itself,
the density-matrix circuit simulation and the Bell analyzer that check
these rules are test oracles (`tests/oracles.py`), together with the
qudit gate and Bell-state conventions they use.
"""

from __future__ import annotations

import numpy as np

from .states import PhaseMixtureWeights

__all__ = [
    "purify_step",
]


def purify_step(w: PhaseMixtureWeights) -> tuple[float, PhaseMixtureWeights]:
    """Two-copy purification on equal-spin postselection.

    Success probability sum_j p_j^2; surviving weights p_j^2 / sum p_j^2.
    The leading weight strictly increases whenever 1/d < p_0 < 1 and
    every other p_i < p_0.
    """
    success = float(np.sum(w.p ** 2))
    return success, PhaseMixtureWeights(w.d, w.p ** 2 / success)
