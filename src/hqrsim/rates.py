"""Repeater performance: waiting times, purification recursion, rates.

Every chain starts from one segment state, `initial_segment_state`: P0 and
the phase-Bell weights from the USD bound and the loss mixture, or from one
`detection.window_stats` row.  `predict` and `tables.reproduce_table` both read it.

A span of 2^n elementary segments is filled by repeated heralded attempts
(per-segment success probability P); the expected number of attempt rounds
until every segment holds a pair is

    Z_n(P) = sum_{j=1}^{2^n} (-1)^{j+1} C(2^n, j) / (1 - (1-P)^j),

the mean of the maximum of 2^n geometric variables.  The alternating sign
is essential: without it Z_n(1) would be 2^{2^n} - 1 instead of 1.  The sum
cancels catastrophically for many segments, so `z_attempts` never forms it:
up to four segments it is one fraction in q = 1 - P with positive terms;
above, the positive tail series sum_{t>=0} [1 - (1 - q^t)^{2^n}], by its
Euler-Maclaurin sum wherever a computed error bound allows; bounded work at any P.

Each purification round multiplies the effective per-segment probability by
P_round * (2 - Q)/(3 - 2Q): a round consumes two pairs (mean waiting is the
max of two geometrics) and succeeds with probability P_round.

The rate over span 2^n L0 is 1 / (T0 Z_n(Q)) with T0 = 2 L0 / c (c = 2e5 km/s
in fiber by default); `span_model(chain, config)` reads n, L0 and c from the
`RepeaterConfig`, whose check is the one place where span / L0 becomes n.

`monte_carlo_waiting` checks this model with a flat, chunked sampler; its
docstring says which seeded results it keeps.
"""

from __future__ import annotations

import math
from functools import cache
from typing import NamedTuple

import numpy as np

from .detection import usd_bound, window_stats
from .logic import purify_step
from .states import FIBER_SPEED_KM_S, L_ATT_KM, ChannelParams, PhaseMixtureWeights, loss_weights

__all__ = [
    "RepeaterConfig",
    "RoundStats",
    "RateResult",
    "z_attempts",
    "effective_probability",
    "initial_segment_state",
    "purification_chain",
    "span_model",
    "predict",
    "monte_carlo_waiting",
]

EULER_GAMMA = 0.5772156649015329

# most rounds purification_chain runs, at about 70 us each; from Q_0 = 1 (`purify`)
# Q_k >= (2 / 3d)^k stays a positive float for d up to about 7e4
MAX_PURIFICATION_ROUNDS = 64

# expected geometric(p0) waits per monte_carlo_waiting chunk, whatever the rounds
# and trials; seeded results with rounds depend on it; 2^17 was the fastest in process
MC_CHUNK = 2 ** 17

# largest expected number of geometric(p0) waits monte_carlo_waiting accepts for
# min(trials, max(1, 2^14 / 2^n)) trials; a chunk that large peaks near 0.45 GB (README)
MC_MAX_WAITS = 2 ** 25
# and over all trials of one call; 2^32 waits take 20-41 s of CPU (README)
MC_MAX_TOTAL_WAITS = 2 ** 32

# smallest p0 monte_carlo_waiting accepts: a wait, at most about 37 / p0, stays
# below 2^53, so every draw is an exact integer as a float
MC_MIN_P0 = 1e-13

SCHEMES = ("usd", "homodyne")


class RepeaterConfig:
    """A span of 2^n segments of L0; immutable: assigning to a field raises AttributeError."""

    __slots__ = ("d", "L0_km", "span_km", "alpha", "scheme", "delta_frac",
                 "purification_rounds", "L_att_km", "fiber_speed_km_s")

    def __init__(self, d: int, L0_km: float, span_km: float, alpha: float, scheme: str,
                 delta_frac: float = 0.2, purification_rounds: int = 0,
                 L_att_km: float = L_ATT_KM, fiber_speed_km_s: float = FIBER_SPEED_KM_S):
        fields = locals()
        for name in self.__slots__:
            object.__setattr__(self, name, fields[name])
        if self.d < 2:
            raise ValueError("d must be >= 2")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")
        if not (math.isfinite(self.fiber_speed_km_s) and self.fiber_speed_km_s > 0):
            raise ValueError("fiber speed must be finite and positive")
        if not 0 < self.delta_frac <= 1:
            raise ValueError("delta_frac must lie in (0, 1]")
        if not (math.isfinite(self.L0_km) and self.L0_km > 0):
            raise ValueError("segment length must be finite and positive")
        if not (math.isfinite(self.t0) and self.t0 > 0):
            raise ValueError(f"segment time T0 = 2 L0 / c = {self.t0} is not finite and positive")
        ratio = self.span_km / self.L0_km
        n = self.n if math.isfinite(ratio) and ratio > 0 else -1
        if not 0 <= n <= 1023 or abs(ratio - 2 ** n) > 1e-9 * ratio:
            raise ValueError(f"span/L0 = {ratio} is not a power of two")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    @property
    def n(self) -> int:
        return round(math.log2(self.span_km / self.L0_km))  # span = 2^n L0

    @property
    def t0(self) -> float:
        return 2.0 * self.L0_km / self.fiber_speed_km_s  # segment time T0 = 2 L0 / c


class RoundStats(NamedTuple):
    round: int
    weights: PhaseMixtureWeights
    success_probability: float  # P_k; P_0 is the generation probability
    effective_probability: float  # Q_k

    @property
    def fidelity(self) -> float:
        return float(self.weights.p[0])


class RateResult(NamedTuple):
    rounds: tuple[RoundStats, ...]
    z: float
    rate_hz: float
    final_fidelity_bound: float


def z_attempts(n: int, p: float) -> float:
    """Expected attempt rounds until all S = 2^n segments hold a pair.

    With lam = -log(1-p) this is the tail series sum_{t>=0} f(t),
    f(t) = 1 - (1 - e^{-lam t})^S.  For S <= 4 the alternating sum over j of
    (-1)^{j+1} C(S, j) / (1 - q^j) is one fraction N(q) / (p D(q)) with only
    positive coefficients, so nothing cancels.  Above, Euler-Maclaurin gives
    H_S / lam + 1/2 (f(0) = 1, f^(k)(0) = 0 for 0 < k < S) wherever the k = 1
    Poisson-summation term, relative (lam / (pi H_S)) |phi(2 pi)|, is at most
    2^-56; phi is the characteristic function of the maximum of S Exp(lam)
    waits, |phi(w)| = prod_{j<=S} (1 + (w / (j lam))^2)^(-1/2).  H_S > ln S +
    gamma and the first min(S, 64) factors can only enlarge the bound.  Else
    lam is large: the series runs in one pass until a term (<= S e^{-lam t}) is
    below 1e-18, (42 + ln S) / lam terms, at most 2,768 (n = 1023 at its switch
    point), with q^t as e^{-lam t}, not a rounded q = 1 - p.  Raises
    OverflowError if Z overflows.
    """
    if not 0 < p <= 1:
        raise ValueError(f"probability must lie in (0, 1], got {p}")
    # RepeaterConfig forms n <= 1023 (span / L0 < 2^1024); checked before 2 ** n exists
    if not 0 <= n <= 1023 or int(n) != n:
        raise ValueError(f"n must be an integer in [0, 1023], got {n}")
    if p == 1.0:
        return 1.0
    segments = 2 ** int(n)
    lam = -math.log1p(-p)
    if segments <= 4:
        q = 1.0 - p
        z = (1.0, (1 + 2 * q) / (1 + q), (1 + q * (5 + q * (3 + q * (10 + q * (2 + 4 * q)))))
             / ((1 + q) * (1 + q * q) * (1 + q + q * q)))[int(n)] / p
    else:
        x, limit = 2 * math.pi / lam, -56 * math.log(2)  # x may be inf, which is fine
        log_error = math.log(lam / (math.pi * (math.log(segments) + EULER_GAMMA)))
        for j in range(1, min(segments, 64) + 1):  # factors after j: product > exp(-x^2 / 2j)
            log_error -= math.log(math.hypot(1.0, x / j))
            if log_error <= limit or log_error - x * x / (2 * j) > limit:
                break
        if log_error > limit:
            return _tail_series(segments, lam)
        z = _harmonic(segments) / lam + 0.5
    if not math.isfinite(z):
        raise OverflowError(f"expected attempts overflow at p = {p:g}")
    return z


def _tail_series(segments: int, lam: float) -> float:
    # f(0) = 1, then f(t) <= S e^{-lam t} up to e^-42 < 1e-18 at the last t
    ts = np.arange(1, math.ceil((42 + math.log(segments)) / lam) + 1, dtype=float)
    return 1.0 + float((-np.expm1(float(segments) * np.log1p(-np.exp(-lam * ts)))).sum())


@cache  # one value per n; a fresh sum up to s = 1024 costs about 0.1 ms
def _harmonic(s: int) -> float:
    """H_s = sum_{k<=s} 1/k, summed to s = 1024, then its asymptotic series (next term < 1e-20)."""
    if s <= 1024:
        return math.fsum(1.0 / k for k in range(1, s + 1))
    inv = 1.0 / s
    return math.log(s) + EULER_GAMMA + inv / 2 - inv * inv / 12 + inv ** 4 / 120


def effective_probability(q_prev: float, p_round: float) -> float:
    """One purification round: Q = Q_prev P_round (2 - Q_prev)/(3 - 2 Q_prev)."""
    if not 0 < q_prev <= 1 or not 0 < p_round <= 1:
        raise ValueError("probabilities must lie in (0, 1]")
    return q_prev * p_round * (2.0 - q_prev) / (3.0 - 2.0 * q_prev)


def initial_segment_state(config: RepeaterConfig) -> tuple[float, PhaseMixtureWeights]:
    """Generation probability P0 and initial mixture weights for one segment: the USD
    bound and the loss mixture, or the windows' P_succ and (F_av, rest split equally)."""
    d, ch = config.d, ChannelParams(config.L0_km, config.L_att_km)
    if config.scheme == "usd":
        return usd_bound(d, config.alpha, ch), loss_weights(d, config.alpha, ch)
    [(*_, p_succ, f_av)] = window_stats(d, config.alpha, ch, config.delta_frac)
    p = np.full(d, (1.0 - f_av) / (d - 1))
    p[0] = f_av
    return p_succ, PhaseMixtureWeights(d, p)


def purification_chain(p0: float, weights: PhaseMixtureWeights,
                       rounds: int) -> list[RoundStats]:
    """Round 0 (generation) plus `rounds` purification rounds.

    Each round purifies the previous weights and updates the effective
    per-segment probability with `effective_probability`.
    """
    if not 0 <= rounds <= MAX_PURIFICATION_ROUNDS:
        raise ValueError(f"purification rounds must lie in [0, {MAX_PURIFICATION_ROUNDS}], "
                         f"got {rounds}")
    stats = [RoundStats(0, weights, p0, p0)]
    for k in range(1, rounds + 1):
        pk, weights = purify_step(weights)
        q = effective_probability(stats[-1].effective_probability, pk)
        stats.append(RoundStats(k, weights, pk, q))
    return stats


def span_model(chain, config: RepeaterConfig) -> list:
    """(Z, rate, fidelity bound) of every round of `chain` over the config's 2^n segments:
    Z = z_attempts(n, Q), rate = 1 / (T0 Z) with T0 = 2 L0 / c, bound F^(2^n)."""
    n, t0 = config.n, config.t0
    zs = [z_attempts(n, st.effective_probability) for st in chain]
    return [(z, 1.0 / (t0 * z), st.fidelity ** (2 ** n)) for z, st in zip(zs, chain)]


def predict(config: RepeaterConfig) -> RateResult:
    p0, weights = initial_segment_state(config)
    if p0 <= 0:
        raise ArithmeticError("generation probability is zero for this configuration")
    stats = purification_chain(p0, weights, config.purification_rounds)
    [(z, rate, bound)] = span_model(stats[-1:], config)
    return RateResult(rounds=tuple(stats), z=z, rate_hz=rate, final_fidelity_bound=bound)


def monte_carlo_waiting(n: int, p0: float, round_probs=(), trials: int = 10 ** 5,
                        seed: int = 0) -> tuple[float, float]:
    """Empirical mean attempts (and standard error) until all segments are filled.

    Each segment waits a geometric(p0) time per pair; every purification round consumes two
    pairs (max of two independent waits) and repeats on failure (probability 1 - p_round).

    Flat sampler: a trial stands for w = 2^n prod_r(2/p_r) expected geometric(p0) waits, and
    a chunk holds max(1, MC_CHUNK // w) trials.  Going down rounds R..1, `_retries` draws only
    the retried elements and their extra attempts; a depth holds each element's first attempt
    at its index, then the extras by id.  A depth-1 attempt, the maximum of two geometric(p0)
    waits, is max(1, ceil(log(1 - sqrt(u)) / log q)) of one uniform u.  Going up, a retried
    element adds the sum of its extras (`np.add.reduceat`, in turn; exact below 2^53, README)
    to its first attempt; pair maxima form the attempts above and each trial's maximum, in two
    pooled arrays.  Raises ValueError before any draw for p0 < MC_MIN_P0 or work above
    MC_MAX_WAITS per chunk or MC_MAX_TOTAL_WAITS in all.  Without rounds the draws are one
    geometric(p0) stream for any chunking, so seeded results equal the replaced recursive
    sampler's; with rounds only the distribution does.
    """
    for name, value, low in (("n", n, 0), ("trials", trials, 1), ("seed", seed, 0)):
        # the range first: int() of inf overflows and int() of nan names no argument
        if not low <= value < math.inf or int(value) != value:
            raise ValueError(f"{name} must be an integer >= {low}")
    n, trials = int(n), int(trials)
    if not MC_MIN_P0 <= p0 <= 1:
        raise ValueError(f"p0 must lie in [{MC_MIN_P0:g}, 1]")
    for p in round_probs:
        if not 0 < p <= 1:
            raise ValueError("round probabilities must lie in (0, 1]")
    round_log2 = sum(math.log2(2 / p) for p in round_probs)  # log2 waits per segment
    # work cap, in log2 and checked before 2 ** n exists, so a huge n costs nothing
    waits_log2 = min(max(n, 14), n + math.log2(trials)) + round_log2
    if waits_log2 > math.log2(MC_MAX_WAITS):
        raise ValueError(f"one chunk would draw about 2^{waits_log2:.1f} waits, above "
                         f"MC_MAX_WAITS = {MC_MAX_WAITS}: lower n or raise the round "
                         "probabilities")
    if (total_log2 := n + math.log2(trials) + round_log2) > math.log2(MC_MAX_TOTAL_WAITS):
        raise ValueError(f"the run would draw about 2^{total_log2:.1f} waits, above "
                         f"MC_MAX_TOTAL_WAITS = {MC_MAX_TOTAL_WAITS}: lower trials or n")
    segments = 2 ** n
    per_chunk = min(max(1, int(MC_CHUNK / 2 ** (n + round_log2))), trials)
    log_q = math.log1p(-p0) if p0 < 1 else -math.inf
    pool = {}  # zeroed chunk arrays by key, allocated only when a chunk needs more

    def buffer(key, size):
        if key not in pool or pool[key].size < size:
            pool[key] = np.zeros(size + size // 8)
        return pool[key][:size]

    sum_x = sum_x2 = 0.0
    rng = np.random.default_rng([int(seed), 0])  # [seed, 0], not seed: same seeded results
    for done in range(0, trials, per_chunk):
        count = min(per_chunk, trials - done) * segments
        retries = []  # per round, top first: element count, retried ids, bounds of their extras
        for p_round in reversed(round_probs):
            ids, bounds = _retries(rng, p_round, count)
            retries.append((count, ids, bounds))
            count = 2 * (count + int(bounds[-1]))  # two pairs per attempt
        spare = buffer("spare", count // 2)
        if round_probs:  # depth-1 attempts: 1 - sqrt(u) = (1 - u) / (1 + sqrt(u)), and 1 - u > 0
            waits = rng.random(out=buffer("u", count // 2))
            np.add(np.sqrt(waits, out=spare), 1.0, out=spare)
            np.log(np.divide(np.subtract(1.0, waits, out=waits), spare, out=waits), out=waits)
            np.maximum(np.ceil(np.divide(waits, log_q, out=waits), out=waits), 1.0, out=waits)
        else:
            waits = _geometric(rng, p0, buffer("u", count))
        for depth, (elements, ids, bounds) in enumerate(reversed(retries)):
            if depth:  # pair maxima go to the free buffer, which then holds the old waits
                waits, spare = np.maximum(waits[0::2], waits[1::2],
                                          out=spare[:waits.size // 2]), waits
            waits[ids] += np.add.reduceat(waits[elements:], bounds[:-1])
            waits = waits[:elements]
        for _ in range(n):
            waits, spare = np.maximum(waits[0::2], waits[1::2], out=spare[:waits.size // 2]), waits
        sum_x += float(waits.sum())
        # einsum, not waits @ waits: BLAS may thread a long dot product
        sum_x2 += float(np.einsum("i,i->", waits, waits))
    mean = sum_x / trials
    var = max(sum_x2 - trials * mean ** 2, 0.0) / (trials - 1) if trials > 1 else math.nan
    return mean, math.sqrt(var / trials)


def _retries(rng, p: float, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Ids of the `count` elements that retry a round of success probability p, and the
    [0, cumsum(E)] bounds of their extra attempts E ~ geometric(p), both intp."""
    found, last = [np.empty(0)], -1.0  # ids: running sums of geometric(1 - p) gaps, minus 1
    while p < 1 and last < count - 1:  # batches of the expected number of retries plus 4 sd
        expected = (count - 1 - last) * (1 - p)
        ids = _geometric(rng, 1 - p, np.empty(int(expected + 4 * math.sqrt(expected)) + 1))
        ids[0] += last
        last = np.cumsum(ids, out=ids)[-1]
        found.append(ids[:np.searchsorted(ids, count)])
    ids = np.concatenate(found).astype(np.intp)
    extras = _geometric(rng, p, np.empty(ids.size))
    return ids, np.concatenate(([0.0], np.cumsum(extras, out=extras))).astype(np.intp)


def _geometric(rng, p: float, out: np.ndarray) -> np.ndarray:
    """`rng.geometric(p, out.size)` as floats in `out`: numpy's exponential inversion for p < 1/3,
    else ceil(log1p(-u) / log q) of numpy's one uniform u, which differs from numpy's search on u
    only where u ties one of the search's rounded partial sums (README)."""
    log_q = math.log1p(-p) if p < 1 else -math.inf
    if p < 1 / 3:
        return np.ceil(np.divide(rng.standard_exponential(out=out), -log_q, out=out), out=out)
    np.divide(np.log1p(np.negative(rng.random(out=out), out=out), out=out), log_q, out=out)
    return np.maximum(np.ceil(out, out=out), 1.0, out=out)

