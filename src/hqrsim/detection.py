"""Measurement back-ends on the qubus mode.

Quadrature convention: x = (a + a^dag)/2, p = (a - a^dag)/(2i), vacuum
variance 1/4, fixed by the quadrature density sqrt(2/pi) exp(-2 (q - c)^2)
with c = Re(beta) for x and Im(beta) for p.

Windowed homodyne discrimination is supported for d in {2, 3, 4}:

  d=2: x-quadrature, two half-line windows around +-sqrt(gamma) alpha.
  d=3: p-quadrature, symmetric interval around 0 plus two half-lines.
  d=4: x-quadrature, same two windows as d=2; the two +-i alpha ring
       states sit at x = 0 and are never assigned to a window.

Full complex wavefunctions (needed only for the off-diagonal bound) carry
the phase factor exp(-2i Re(beta) p) for p and exp(+2i Im(beta) x) for x,
plus a value-independent global phase fixed so that the whole-line
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
    "window_mass",
    "window_geometry",
    "homodyne_report",
    "offdiag_weight",
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
    """Quadrature choice plus acceptance-window geometry.

    `bounds[i]` is the closed acceptance interval for window i (infinite
    endpoints allowed); `dominant_ring[i]` is the ring state it projects
    onto.  The gaps between the windows are discarded; at delta = delta_max
    they degenerate to single points (zero measure, every result accepted).
    """

    quadrature: str
    delta_max: float
    bounds: tuple[tuple[float, float], ...]
    dominant_ring: tuple[int, ...]


@dataclass(frozen=True)
class DetectionReport:
    window_probs: tuple[float, ...]
    window_fidelities: tuple[float, ...]
    p_succ: float
    f_av: float
    offdiag_bound: float


def _mean(beta, quadrature: str):
    if quadrature == "x":
        return np.real(beta)
    if quadrature == "p":
        return np.imag(beta)
    raise ValueError(f"unknown quadrature {quadrature!r}")


def quadrature_wavefunction(beta, quadrature: str, value):
    """Full complex quadrature wavefunction of a coherent state; beta and
    value broadcast against each other."""
    value = np.asarray(value, dtype=float)
    a, b = np.real(beta), np.imag(beta)
    if quadrature == "p":
        return (2 / np.pi) ** 0.25 * np.exp(1j * a * b) * np.exp(-(value - b) ** 2 - 2j * a * value)
    if quadrature == "x":
        return (2 / np.pi) ** 0.25 * np.exp(-1j * a * b) * np.exp(-(value - a) ** 2 + 2j * b * value)
    raise ValueError(f"unknown quadrature {quadrature!r}")


def window_mass(bounds: tuple[float, float], center: float) -> float:
    """Integral of the quadrature pdf with the given mean over [lo, hi]."""
    lo, hi = bounds
    # math.erf(+-inf) is +-1, so half-line windows need no special case
    return 0.5 * (math.erf(math.sqrt(2.0) * (hi - center))
                  - math.erf(math.sqrt(2.0) * (lo - center)))


def window_geometry(d: int, alpha: float, gamma: float, delta_frac: float) -> WindowSet:
    """Acceptance-window geometry for the supported dimensions."""
    if d not in HOMODYNE_DIMS:
        raise ValueError(f"windowed homodyne discrimination supports d in {HOMODYNE_DIMS}")
    if not 0.0 < delta_frac <= 1.0:
        raise ValueError("delta_frac must lie in (0, 1]")
    sa = float(np.sqrt(gamma) * alpha)
    if not sa > 0.0:
        # every ring state then sits at the origin and the windows collapse
        raise ValueError("homodyne windows need sqrt(gamma) * alpha > 0")
    if d in (2, 4):
        edge = sa - delta_frac * sa
        return WindowSet(
            quadrature="x",
            delta_max=sa,
            bounds=((edge, np.inf), (-np.inf, -edge)),
            dominant_ring=(0, d // 2),
        )
    c1 = np.sqrt(3.0) / 2.0 * sa
    delta_max = 0.5 * c1
    delta = delta_frac * delta_max
    return WindowSet(
        quadrature="p",
        delta_max=delta_max,
        bounds=((-delta, delta), (c1 - delta, np.inf), (-np.inf, -(c1 - delta))),
        dominant_ring=(0, 1, 2),
    )


def homodyne_report(d: int, alpha: float, channel: ChannelParams, delta_frac: float,
                    include_offdiag: bool = True,
                    quadrature_tol: float = 1e-10) -> DetectionReport:
    """Window probabilities, fidelities, total success and average fidelity.

    p_{w_i} sums the quadrature masses of all d ring states over window i;
    the fidelity of window i keeps the leading mixture component
    N_{v_0}(sqrt(1-gamma) alpha)/d^2 and the window's own dominant-state
    mass.  Off-diagonal leakage (coherences between Bell components inside a
    window) does not enter these numbers at all; its magnitude is reported
    separately as `offdiag_bound`, which reads 0.0 when it is at or below
    `quadrature_tol`: the quadrature fixes no digit of such a value.
    """
    gamma = channel.gamma
    ws = window_geometry(d, alpha, gamma, delta_frac)
    lead = _loss_probabilities(d, alpha, channel, "gram")[0]  # names a bad alpha undamped
    ring = ring_states(d, np.sqrt(gamma) * alpha)
    means = _mean(ring, ws.quadrature).tolist()

    probs, fids = [], []
    for bounds, dom in zip(ws.bounds, ws.dominant_ring):
        p = sum(window_mass(bounds, c) for c in means) / d
        f = lead * (window_mass(bounds, means[dom]) / d) / p if p > 0 else 0.0
        probs.append(p)
        fids.append(f)
    p_succ = float(sum(probs))
    f_av = float(sum(p * f for p, f in zip(probs, fids)) / p_succ) if p_succ > 0 else 0.0

    bound = 0.0
    if include_offdiag:
        bound = _offdiag_max(ring, ws.quadrature, ws.bounds, quadrature_tol)
    return DetectionReport(tuple(probs), tuple(fids), p_succ, f_av, bound)


@cache
def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def _cross_integrals(beta_i, beta_j, quadrature: str, lo, hi, tol: float) -> np.ndarray:
    """integral_lo^hi psi_{beta_i}(q) psi*_{beta_j}(q) dq, elementwise over the
    broadcast arguments.

    Composite Gauss-Legendre sums of orders n and 2n on a clipped interval,
    n doubling from GL_FIRST_ORDER until they differ by at most `tol`
    (absolute); the Gaussian magnitudes make any contribution beyond
    |q| = 8 + |means| smaller than 1e-25.  The integrand oscillates as
    exp(i k q) with k twice the difference of the conjugate-quadrature
    means, so the interval is cut into panels of k * width <= 64 (about ten
    periods each); at the paper's amplitudes that is a single panel.  Each
    order evaluates the panels of every integral still open in one pass;
    an integral drops out at its first converged order.
    """
    zero = np.zeros(np.broadcast(beta_i, beta_j, lo, hi).shape)  # flatten to one shape
    beta_i, beta_j, lo, hi = ((a + zero).ravel() for a in (beta_i, beta_j, lo, hi))
    m = zero.size
    cut = 8.0 + np.maximum(abs(_mean(beta_i, quadrature)), abs(_mean(beta_j, quadrature)))
    lo, hi = np.maximum(lo, -cut), np.minimum(hi, cut)
    conjugate = "x" if quadrature == "p" else "p"
    k = 2.0 * abs(_mean(beta_i, conjugate) - _mean(beta_j, conjugate))
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
        v = quadrature_wavefunction(beta_i[owner[sel], None], quadrature, q) * \
            np.conj(quadrature_wavefunction(beta_j[owner[sel], None], quadrature, q))
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


def _pair_integrals(ring, quadrature: str, bounds, tol: float) -> np.ndarray:
    """Cross integrals of every i < j pair of `ring` over each window in
    `bounds`, shape (windows, pairs), pairs in np.triu_indices order; the
    (j, i) integral is the conjugate of the (i, j) one."""
    i, j = np.array([(i, j) for i in range(len(ring)) for j in range(i + 1, len(ring))]).T
    lo, hi = np.array(bounds, dtype=float).T[:, :, None]
    return _cross_integrals(ring[i], ring[j], quadrature, lo, hi, tol)


def _offdiag_max(ring, quadrature: str, bounds, tol: float) -> float:
    """Largest |cross integral| of `_pair_integrals`; 0.0 at or below `tol`,
    where the quadrature fixes no digit of the value."""
    bound = float(np.max(abs(_pair_integrals(ring, quadrature, bounds, tol))))
    return bound if bound > tol else 0.0


def offdiag_weight(d: int, alpha: float, channel: ChannelParams, window: int,
                   delta_frac: float, quadrature_tol: float = 1e-10) -> float:
    """Largest cross term |integral psi_beta psi*_beta'| over one window.

    Bounds the coherences the diagonal-mixture approximation drops; taking
    the whole line as the window recovers |overlap(beta', beta)|.  The
    (j, i) integral is the conjugate of the (i, j) one, so only i < j is
    evaluated.  Like `homodyne_report`'s bound, it reads 0.0 at or below
    `quadrature_tol`.
    """
    ws = window_geometry(d, alpha, channel.gamma, delta_frac)
    if not 0 <= window < len(ws.bounds):
        raise ValueError(f"window index {window} out of range")
    ring = ring_states(d, np.sqrt(channel.gamma) * alpha)
    return _offdiag_max(ring, ws.quadrature, [ws.bounds[window]], quadrature_tol)


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
