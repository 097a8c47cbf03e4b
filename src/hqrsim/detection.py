"""Measurement back-ends on the qubus mode.

Quadrature convention: x = (a + a^dag)/2, p = (a - a^dag)/(2i), vacuum
variance 1/4, fixed by the quadrature density sqrt(2/pi) exp(-2 (q - c)^2)
with c = Re(beta) for x and Im(beta) for p.

Windowed homodyne discrimination is supported for d in {2, 3, 4}:

  d=2: x-quadrature, two half-line windows around +-sqrt(gamma) alpha.
  d=3: p-quadrature, symmetric interval around 0 plus two half-lines.
  d=4: x-quadrature, same two windows as d=2; the two +-i alpha ring
       states sit at x = 0 and are never assigned to a window.

A p measurement of |beta> is an x measurement of |-i beta>, so the qutrit
ring is turned a quarter and every window is read on x.  The full complex
x wavefunction (needed only for the off-diagonal bound) carries the phase
exp(+2i Im(beta) x) and a global phase fixed so that the whole-line
integral of psi_beta psi*_beta' equals the coherent overlap <beta'|beta>.
Window masses are erf differences; the windowed cross integrals are
Gauss-Legendre sums whose order doubles until two successive orders agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .coherent import norm_constants, ring_amplitudes, ring_states
from .states import ChannelParams, _loss_probabilities

__all__ = [
    "WindowSet",
    "DetectionReport",
    "quadrature_wavefunction",
    "window_geometry",
    "homodyne_report",
    "window_stats",
    "usd_bound",
]

HOMODYNE_DIMS = (2, 3, 4)
# Gauss-Legendre orders tried by _cross_integrals (n and 2n from the
# first up to the cap) and its panel count cap; the two caps bound the work
GL_FIRST_ORDER = 64
GL_MAX_ORDER = 512
GL_MAX_PANELS = 64


@dataclass(frozen=True)
class WindowSet:
    """Acceptance windows on x (for d = 3 on p, read as x of the turned ring).

    `bounds[i]` is the closed acceptance interval for window i (infinite
    endpoints allowed); `dominant_ring[i]` is the ring state it projects
    onto.  The gaps between the windows are discarded; at delta_frac = 1
    they degenerate to single points (zero measure, every result accepted).
    """

    bounds: tuple[tuple[float, float], ...]
    dominant_ring: tuple[int, ...]


@dataclass(frozen=True)
class DetectionReport:
    window_probs: tuple[float, ...]
    window_fidelities: tuple[float, ...]
    p_succ: float
    f_av: float
    offdiag_bound: float


def quadrature_wavefunction(beta, value):
    """Full complex x-quadrature wavefunction of a coherent state; beta and
    value broadcast against each other.  The p wavefunction of beta is this
    one at -1j * beta."""
    value = np.asarray(value, dtype=float)
    a, b = np.real(beta), np.imag(beta)
    return (2 / np.pi) ** 0.25 * np.exp(-1j * a * b) * np.exp(-(value - a) ** 2 + 2j * b * value)


def window_geometry(d: int, alpha: float, gamma: float, delta_frac: float) -> WindowSet:
    """Acceptance-window geometry for the supported dimensions."""
    if d not in HOMODYNE_DIMS:
        raise ValueError(f"windowed homodyne discrimination supports d in {HOMODYNE_DIMS}")
    if not 0.0 < delta_frac <= 1.0:
        raise ValueError("delta_frac must lie in (0, 1]")
    sa = float(math.sqrt(gamma) * alpha)
    if not sa > 0.0:
        # every ring state then sits at the origin and the windows collapse
        raise ValueError("homodyne windows need sqrt(gamma) * alpha > 0")
    if d in (2, 4):
        edge = sa - delta_frac * sa
        return WindowSet(
            bounds=((edge, np.inf), (-np.inf, -edge)),
            dominant_ring=(0, d // 2),
        )
    c1 = math.sqrt(3.0) / 2.0 * sa
    delta = delta_frac * (0.5 * c1)
    return WindowSet(
        bounds=((-delta, delta), (c1 - delta, np.inf), (-np.inf, -(c1 - delta))),
        dominant_ring=(0, 1, 2),
    )


def homodyne_report(d: int, alpha: float, channel: ChannelParams, delta_frac: float,
                    quadrature_tol: float = 1e-10) -> DetectionReport:
    """Window probabilities, fidelities, total success and average fidelity of
    one amplitude (the `window_stats` row), plus the off-diagonal bound.

    Off-diagonal leakage (coherences between Bell components inside a
    window) does not enter the window numbers at all; its magnitude is
    reported separately as `offdiag_bound`, which reads 0.0 when it is at or
    below `quadrature_tol`: the quadrature fixes no digit of such a value.
    """
    [(ws, ring, probs, fids, p_succ, f_av)] = window_stats(d, alpha, channel, delta_frac)
    bound = float(np.max(abs(_pair_integrals(ring, ws.bounds, quadrature_tol))))
    return DetectionReport(tuple(probs), tuple(fids), p_succ, f_av,
                           bound if bound > quadrature_tol else 0.0)


def window_stats(d: int, alphas, channel: ChannelParams, delta_frac: float) -> list:
    """(window geometry, measured ring, window probabilities and fidelities,
    success probability, average fidelity) for each amplitude of a float or 1-D array.

    p_{w_i} sums the quadrature masses of all d ring states over window i;
    the fidelity of window i keeps the leading mixture component
    N_{v_0}(sqrt(1-gamma) alpha)/d^2 and the window's own dominant-state
    mass.

    Norm constants and rings take one numpy pass over all amplitudes.  Window
    masses, (erf(sqrt(2) (hi - c)) - erf(sqrt(2) (lo - c))) / 2 at mean c, are
    floats: numpy has no erf, and on a few elements its calls cost more.
    """
    gamma, root2, alphas = channel.gamma, math.sqrt(2.0), np.asarray(alphas, dtype=float)
    windows = [window_geometry(d, a, gamma, delta_frac) for a in alphas.reshape(-1).tolist()]
    leads = _loss_probabilities(d, alphas, channel, "gram")[..., 0]  # names a bad alpha undamped
    rings = _measured_ring(d, alphas, gamma).reshape(-1, d)
    stats = []
    for ws, ring, lead, means in zip(windows, rings, leads.reshape(-1).tolist(),
                                     rings.real.tolist()):
        probs, fids = [], []
        for (lo, hi), dom in zip(ws.bounds, ws.dominant_ring):
            # math.erf(+-inf) is +-1, so half-line windows need no special case
            masses = [0.5 * (math.erf(root2 * (hi - c)) - math.erf(root2 * (lo - c)))
                      for c in means]
            p = sum(masses) / d
            probs.append(p)
            fids.append(lead * (masses[dom] / d) / p if p > 0 else 0.0)
        p_succ = sum(probs)
        f_av = sum(p * f for p, f in zip(probs, fids)) / p_succ if p_succ > 0 else 0.0
        stats.append((ws, ring, probs, fids, p_succ, f_av))
    return stats


def _measured_ring(d: int, alpha: float, gamma: float) -> np.ndarray:
    """The damped ring states as read on x: the qutrit ring, measured on p,
    turned a quarter (p of beta is x of -1j beta)."""
    ring = ring_states(d, math.sqrt(gamma) * alpha)
    return -1j * ring if d == 3 else ring


@cache
def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def _cross_integrals(beta_i, beta_j, lo, hi, tol: float) -> np.ndarray:
    """integral_lo^hi psi_{beta_i}(x) psi*_{beta_j}(x) dx, elementwise over the
    broadcast arguments.

    Composite Gauss-Legendre sums of orders n and 2n on a clipped interval,
    n doubling from GL_FIRST_ORDER until they differ by at most `tol`
    (absolute); the Gaussian magnitudes make any contribution beyond
    |x| = 8 + |Re beta| smaller than 1e-25.  The integrand oscillates as
    exp(i k x) with k twice the difference of Im beta, so the interval is
    cut into panels of k * width <= 64 (about ten periods each); at the
    paper's amplitudes that is a single panel.  Each order evaluates the
    panels of every integral still open in one pass; an integral drops out
    at its first converged order.
    """
    zero = np.zeros(np.broadcast(beta_i, beta_j, lo, hi).shape)  # flatten to one shape
    beta_i, beta_j, lo, hi = ((a + zero).ravel() for a in (beta_i, beta_j, lo, hi))
    m = zero.size
    cut = 8.0 + np.maximum(abs(beta_i.real), abs(beta_j.real))
    lo, hi = np.maximum(lo, -cut), np.minimum(hi, cut)
    k = 2.0 * abs(beta_i.imag - beta_j.imag)
    panels = np.clip(np.ceil(k * (hi - lo) / 64.0), 1, GL_MAX_PANELS).astype(int)
    panels[lo >= hi] = 0  # an empty window after the clip
    owner = np.repeat(np.arange(m), panels)  # the integral each panel belongs to
    panel = np.arange(owner.size) - (np.cumsum(panels) - panels)[owner]  # index within it
    halves = 0.5 * (hi - lo)[owner] / panels[owner]
    mids = lo[owner] + (2 * panel + 1) * halves

    result, todo = np.zeros(m, complex), np.ones(m, bool)
    n, coarse = GL_FIRST_ORDER, None
    while True:
        nodes, weights = _legendre_rule(n)
        sel = todo[owner]
        q = mids[sel, None] + halves[sel, None] * nodes
        v = quadrature_wavefunction(beta_i[owner[sel], None], q) * \
            np.conj(quadrature_wavefunction(beta_j[owner[sel], None], q))
        v = halves[sel] * (v @ weights)
        fine = np.bincount(owner[sel], v.real, m) + 1j * np.bincount(owner[sel], v.imag, m)
        if coarse is not None:
            diff = abs(fine - coarse)
            done = todo & (diff <= tol)
            result[done], todo = fine[done], todo & ~done
            if not todo.any():
                return result.reshape(zero.shape)
            if n >= GL_MAX_ORDER:
                raise ArithmeticError(f"window quadrature did not converge to {tol} "
                                      f"(difference {diff[todo].max()})")
        n, coarse = 2 * n, fine


def _pair_integrals(ring, bounds, tol: float) -> np.ndarray:
    """Cross integrals of every i < j pair of `ring` over each window in
    `bounds`, shape (windows, pairs), pairs in np.triu_indices order; the
    (j, i) integral is the conjugate of the (i, j) one."""
    i, j = np.triu_indices(len(ring), 1)
    lo, hi = np.array(bounds, dtype=float).T[:, :, None]
    return _cross_integrals(ring[i], ring[j], lo, hi, tol)


def usd_bound(d: int, alpha: float, gamma: float) -> float:
    """Optimal success probability for unambiguously discriminating the
    d symmetric coherent states at damped amplitude sqrt(gamma) alpha.

    For symmetric pure states this is the smallest Gram eigenvalue,
    min_m N_{v_m} / d (Chefles & Barnett, Phys. Lett. A 250, 223 (1998)),
    clamped to [0, 1].
    """
    a = ring_amplitudes(d, alpha)  # checked before gamma = 0 could map it to -0.0
    n = norm_constants(d, np.sqrt(gamma) * a)
    return float(min(np.min(n) / d, 1.0))
