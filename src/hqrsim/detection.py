"""Measurement back-ends on the qubus mode.

Quadrature convention: x = (a + a^dag)/2, p = (a - a^dag)/(2i), vacuum
variance 1/4, fixed by the quadrature density sqrt(2/pi) exp(-2 (q - c)^2)
with c = Re(beta) for x and Im(beta) for p.

Windowed homodyne discrimination is supported for d in {2, 3, 4}; the
one window pass, `window_stats`, owns the geometry and reads the leading
mixture weight of every amplitude from one `states.loss_weights` call:

  d=2: x-quadrature, two half-line windows around +-sqrt(gamma) alpha.
  d=3: p-quadrature, symmetric interval around 0 plus two half-lines.
  d=4: x-quadrature, same two windows as d=2; the two +-i alpha ring
       states sit at x = 0 and are never assigned to a window.

A p measurement of |beta> is an x measurement of |-i beta>, so the qutrit
ring is turned a quarter and every window is read on x.  The x wavefunction
of beta = a + ib is psi_beta(x) = (2/pi)^(1/4) exp(-iab - (x - a)^2 + 2ibx),
whose global phase makes the whole-line integral of psi_beta psi*_beta' the
coherent overlap <beta'|beta>.  Window masses and the windowed cross
integrals behind the off-diagonal bound are both erf differences: the
latter at a complex centre, through the Faddeeva function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .coherent import norm_constants, ring_amplitudes, ring_states
from .states import ChannelParams, loss_weights

__all__ = [
    "DetectionReport",
    "homodyne_report",
    "window_stats",
    "usd_bound",
]

HOMODYNE_DIMS = (2, 3, 4)
# `offdiag_bound` reads 0.0 at or below this, the floor the printed bound has
# always had, so that no printed zero moves
OFFDIAG_FLOOR = 1e-10
# beyond this distance from a pair's mean real part its integrand is below
# exp(-2 * 27^2), which underflows to 0.0
EDGE_CLIP = 27.0
# terms of Weideman's rational approximation of the Faddeeva function
FADDEEVA_TERMS = 40


@dataclass(frozen=True)
class DetectionReport:
    window_probs: tuple[float, ...]
    window_fidelities: tuple[float, ...]
    p_succ: float
    f_av: float
    offdiag_bound: float


def homodyne_report(d: int, alpha: float, channel: ChannelParams,
                    delta_frac: float) -> DetectionReport:
    """Window probabilities, fidelities, total success and average fidelity of
    one amplitude (the `window_stats` row), plus the off-diagonal bound.

    Off-diagonal leakage (coherences between Bell components inside a
    window) does not enter the window numbers at all; its magnitude, the
    largest |cross integral| over windows and ring-state pairs, is reported
    separately as `offdiag_bound`, which reads 0.0 at or below OFFDIAG_FLOOR.
    """
    [(bounds, ring, probs, fids, p_succ, f_av)] = window_stats(d, alpha, channel, delta_frac)
    bound = float(np.max(abs(_pair_integrals(ring, bounds))))
    return DetectionReport(tuple(probs), tuple(fids), p_succ, f_av,
                           bound if bound > OFFDIAG_FLOOR else 0.0)


def window_stats(d: int, alphas, channel: ChannelParams, delta_frac: float) -> list:
    """(window bounds, measured ring, window probabilities and fidelities,
    success probability, average fidelity) for each amplitude of a float or 1-D array.

    Window i is a closed interval on x (d = 3: on p, read as x of the ring
    turned a quarter) owned by ring state i (d = 4: states 0 and 2); the gaps
    between windows are discarded and shrink to points at delta_frac = 1.
    p_{w_i} sums the quadrature masses of all d ring states over window i;
    the fidelity of window i keeps the leading mixture component
    N_{v_0}(sqrt(1-gamma) alpha)/d^2 and the window's own dominant-state
    mass.

    d, delta_frac and sqrt(gamma) alpha > 0 (else the windows collapse onto
    the origin) are checked once per call, then the amplitude cap.  Norm
    constants and rings take one numpy pass over all amplitudes.  Window
    masses, (erf(sqrt(2) (hi - c)) - erf(sqrt(2) (lo - c))) / 2 at mean c,
    are floats: numpy has no erf, and on a few elements its calls cost more.
    """
    if d not in HOMODYNE_DIMS:
        raise ValueError(f"windowed homodyne discrimination supports d in {HOMODYNE_DIMS}")
    if not 0.0 < delta_frac <= 1.0:
        raise ValueError("delta_frac must lie in (0, 1]")
    root2, alphas = math.sqrt(2.0), np.asarray(alphas, dtype=float)
    sa = math.sqrt(channel.gamma) * alphas
    if not (sa > 0.0).all():
        raise ValueError("homodyne windows need sqrt(gamma) * alpha > 0")
    leads = loss_weights(d, alphas, channel, "gram").p[..., 0]  # names a bad alpha undamped
    rings = ring_states(d, sa)
    rings = (-1j * rings if d == 3 else rings).reshape(-1, d)  # p of beta is x of -1j beta
    dominant = (0, 1, 2) if d == 3 else (0, d // 2)
    stats = []
    for s, ring, lead, means in zip(sa.reshape(-1).tolist(), rings, leads.reshape(-1).tolist(),
                                    rings.real.tolist()):
        if d == 3:
            c1 = math.sqrt(3.0) / 2.0 * s
            delta = delta_frac * (0.5 * c1)
            bounds = ((-delta, delta), (c1 - delta, math.inf), (-math.inf, -(c1 - delta)))
        else:
            edge = s - delta_frac * s
            bounds = ((edge, math.inf), (-math.inf, -edge))
        probs, fids = [], []
        for (lo, hi), dom in zip(bounds, dominant):
            # math.erf(+-inf) is +-1, so half-line windows need no special case
            masses = [0.5 * (math.erf(root2 * (hi - c)) - math.erf(root2 * (lo - c)))
                      for c in means]
            p = sum(masses) / d
            probs.append(p)
            fids.append(lead * (masses[dom] / d) / p if p > 0 else 0.0)
        p_succ = sum(probs)
        f_av = sum(p * f for p, f in zip(probs, fids)) / p_succ if p_succ > 0 else 0.0
        stats.append((bounds, ring, probs, fids, p_succ, f_av))
    return stats


def _pair_integrals(ring, bounds) -> np.ndarray:
    """Cross integrals of psi_{ring[i]} psi*_{ring[j]} over each window in
    `bounds` for every i < j pair of `ring`, shape (windows, pairs), pairs in
    np.triu_indices order; the (j, i) integral is the conjugate of the (i, j) one.

    With beta = a + ib the product is a Gaussian at the complex centre
    mu = (a_i + a_j)/2 + i(b_i - b_j)/2, so the integral over [lo, hi] is
    <beta_j|beta_i> (erf(sqrt(2) (hi - mu)) - erf(sqrt(2) (lo - mu))) / 2.
    Each erf is sg (1 - exp(-z^2) w(i sg z)), sg the sign of Re z, and
    exp(-z^2) <beta_j|beta_i> is the integrand's own exponent at the edge,
    at most 1 in magnitude.  Edges are clipped to (a_i + a_j)/2 +- EDGE_CLIP,
    where that exponent underflows, so a half-line window needs no special case.
    """
    i, j = np.triu_indices(len(ring), 1)
    ai, bi, aj, bj = ring[i].real, ring[i].imag, ring[j].real, ring[j].imag
    mid, db = (ai + aj) / 2, bi - bj
    x = np.clip(np.array(bounds, dtype=float).T[:, :, None], mid - EDGE_CLIP, mid + EDGE_CLIP)
    z = math.sqrt(2.0) * (x - (mid + 0.5j * db))
    sg = np.where(z.real < 0.0, -1.0, 1.0)
    overlap = np.exp(-((ai - aj) ** 2 + db ** 2) / 2 + 1j * (aj * bi - ai * bj))
    at_edge = np.exp(-(x - ai) ** 2 - (x - aj) ** 2 + 1j * (2 * db * x - (ai * bi - aj * bj)))
    erfs = sg * (overlap - at_edge * _faddeeva(1j * sg * z))  # <beta_j|beta_i> erf(z)
    return 0.5 * (erfs[1] - erfs[0])


@cache
def _faddeeva_coefficients() -> tuple[float, np.ndarray]:
    """(L, polynomial coefficients, highest degree first) of Weideman's
    approximation: the cosine transform of exp(-t^2) (L^2 + t^2) over
    t = L tan(theta / 2), theta = k pi / m for |k| < m = 2 FADDEEVA_TERMS."""
    n, m = FADDEEVA_TERMS, 2 * FADDEEVA_TERMS
    length = math.sqrt(n / math.sqrt(2.0))
    k = np.arange(1 - m, m)
    t = length * np.tan(k * np.pi / (2 * m))
    f = np.exp(-t ** 2) * (length ** 2 + t ** 2)
    a = np.cos(np.outer(np.arange(1, n + 1), k) * (np.pi / m)) @ f / (2 * m)
    return length, a[::-1]


def _faddeeva(z) -> np.ndarray:
    """w(z) = exp(-z^2) erfc(-iz) for Im z >= 0, by Weideman's rational
    approximation (SIAM J. Numer. Anal. 31, 1497 (1994)):
    w = (pi^(-1/2) + 2 p(Z) / (L - iz)) / (L - iz), Z = (L + iz) / (L - iz)."""
    length, coefficients = _faddeeva_coefficients()
    u = length - 1j * z
    return (1.0 / math.sqrt(math.pi) + 2.0 * np.polyval(coefficients, (length + 1j * z) / u) / u) / u


def usd_bound(d: int, alpha: float, channel: ChannelParams) -> float:
    """Optimal success probability for unambiguously discriminating the
    d symmetric coherent states at the channel's damped amplitude sqrt(gamma) alpha.

    For symmetric pure states this is the smallest Gram eigenvalue,
    min_m N_{v_m} / d (Chefles & Barnett, Phys. Lett. A 250, 223 (1998)),
    clamped to [0, 1].
    """
    a = ring_amplitudes(d, alpha)  # checked before gamma = 0 could map it to -0.0
    n = norm_constants(d, math.sqrt(channel.gamma) * a)
    return float(min(np.min(n) / d, 1.0))
