"""Repeater performance: waiting times, purification recursion, rates.

A span of 2^n elementary segments is filled by repeated heralded attempts
(per-segment success probability P); the expected number of attempt rounds
until every segment holds a pair is

    Z_n(P) = sum_{j=1}^{2^n} (-1)^{j+1} C(2^n, j) / (1 - (1-P)^j),

the mean of the maximum of 2^n geometric variables.  The alternating sign
is essential: without it Z_n(1) would be 2^{2^n} - 1 instead of 1.  The
engine evaluates the numerically stable positive tail series
sum_{t>=0} [1 - (1 - q^t)^{2^n}] instead of the alternating binomial sum,
which cancels catastrophically for many segments, and replaces the series
by its Euler-Maclaurin sum at small P (see `z_attempts`).

Each purification round multiplies the effective per-segment probability by
P_round * (2 - Q)/(3 - 2Q): a round consumes two pairs (mean waiting is the
max of two geometrics) and succeeds with probability P_round.

The rate over span 2^n L0 is 1 / (T0 Z_n(Q)) with T0 = 2 L0 / c and
c = 2e5 km/s in fiber.

`monte_carlo_waiting` checks this model with a flat, chunked sampler; its
docstring says which seeded results it keeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detection import homodyne_report, usd_bound
from .logic import purify_step
from .states import ChannelParams, PhaseMixtureWeights, matter_matter_components
from .tables import CellComparison, ROUNDS, TABLES, grade_cell

__all__ = [
    "FIBER_SPEED_KM_S",
    "RepeaterConfig",
    "RoundStats",
    "RateResult",
    "z_attempts",
    "z_attempts_series",
    "effective_probability",
    "initial_segment_state",
    "purification_chain",
    "predict",
    "monte_carlo_attempts",
    "monte_carlo_waiting",
    "reproduce_table",
]

FIBER_SPEED_KM_S = 2.0e5

# largest p at which z_attempts uses the Euler-Maclaurin closed form
EM_MAX_P = 1e-4

# expected geometric(p0) waits per monte_carlo_waiting chunk, whatever the
# rounds and trials; with rounds, 2^15 ran 5% faster than 2^14 and 20-30%
# faster than 2^16 or 2^17, whose temporaries page-fault
MC_CHUNK = 2 ** 15

# largest expected number of geometric(p0) waits monte_carlo_waiting accepts
# for min(trials per shard, max(1, 2^14 / 2^n)) trials; about 400 MB drawn at once
MC_MAX_WAITS = 2 ** 25

# smallest p0 monte_carlo_waiting accepts: a wait, at most about 37 / p0,
# stays below 2^53, so no sum loses integers and int64 draws cannot saturate
MC_MIN_P0 = 1e-13

SCHEMES = ("usd", "homodyne")


@dataclass(frozen=True)
class RepeaterConfig:
    d: int
    L0_km: float
    span_km: float
    alpha: float
    scheme: str
    delta_frac: float = 0.2
    purification_rounds: int = 0
    L_att_km: float = 22.0
    fiber_speed_km_s: float = FIBER_SPEED_KM_S

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("d must be >= 2")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")
        if not (math.isfinite(self.fiber_speed_km_s) and self.fiber_speed_km_s > 0):
            raise ValueError("fiber speed must be finite and positive")
        if self.purification_rounds < 0:
            raise ValueError("purification rounds must be >= 0")
        if not (math.isfinite(self.L0_km) and self.L0_km > 0):
            raise ValueError("segment length must be finite and positive")
        ratio = self.span_km / self.L0_km
        n = round(math.log2(ratio)) if math.isfinite(ratio) and ratio > 0 else -1
        if n < 0 or abs(ratio - 2 ** n) > 1e-9 * ratio:
            raise ValueError(f"span/L0 = {ratio} is not a power of two")

    @property
    def n(self) -> int:
        return round(math.log2(self.span_km / self.L0_km))

    @property
    def channel(self) -> ChannelParams:
        return ChannelParams(self.L0_km, self.L_att_km)


@dataclass(frozen=True)
class RoundStats:
    round: int
    fidelity: float
    success_probability: float  # P_k; P_0 is the generation probability
    effective_probability: float  # Q_k


@dataclass(frozen=True)
class RateResult:
    config: RepeaterConfig
    rounds: tuple[RoundStats, ...]
    z: float
    rate_hz: float
    final_fidelity_bound: float

    @property
    def initial_fidelity(self) -> float:
        return self.rounds[0].fidelity

    @property
    def final_fidelity(self) -> float:
        return self.rounds[-1].fidelity


def z_attempts(n: int, p: float) -> float:
    """Expected attempt rounds until all 2^n segments hold a pair.

    n = 0 is the geometric mean 1/p.  For S = 2^n >= 2 segments and
    p <= EM_MAX_P the tail series sum_t f(t), f(t) = 1 - (1 - e^{-lam t})^S
    with lam = -log(1-p), is summed by Euler-Maclaurin: f(0) = 1 and
    f^(k)(0) = 0 for 0 < k < S, so it equals H_S / lam + 1/2 up to a
    relative O(lam^4) <= 1e-16.  Otherwise the series is summed until a term
    is below 1e-18, which f(t) <= S e^{-lam t} bounds by (42 + ln S) / lam
    terms: the first chunk has that many, capped at 4096 like later chunks.
    """
    if not 0 < p <= 1:
        raise ValueError(f"probability must lie in (0, 1], got {p}")
    if int(n) != n or n < 0:
        raise ValueError("n must be a nonnegative integer")
    if p == 1.0:
        return 1.0
    if n == 0:
        return 1.0 / p
    segments = 2 ** int(n)
    if p <= EM_MAX_P:
        return _harmonic(segments) / -math.log1p(-p) + 0.5
    q = 1.0 - p
    total = 1.0  # t = 0 term: P(T > 0) = 1
    t = 1
    chunk = min(4096, math.ceil((42 + math.log(segments)) / -math.log1p(-p)))
    while True:
        ts = np.arange(t, t + chunk, dtype=float)
        terms = -np.expm1(segments * np.log1p(-(q ** ts)))
        total += float(terms.sum())
        if terms[-1] < 1e-18:
            return total
        t += chunk
        chunk = 4096


def _harmonic(s: int) -> float:
    """H_s = sum_{k<=s} 1/k, summed up to s = 1024 and from its asymptotic
    series above (first omitted term below 1e-20)."""
    if s <= 1024:
        return math.fsum(1.0 / k for k in range(1, s + 1))
    euler_gamma = 0.5772156649015329
    return (math.log(s) + euler_gamma + 1.0 / (2 * s) - 1.0 / (12 * s ** 2)
            + 1.0 / (120 * s ** 4))


def z_attempts_series(n: int, p: float) -> float:
    """Literal inclusion-exclusion sum for Z_n; equals `z_attempts`.

    Kept as the small-n oracle: the terms cancel catastrophically once
    2^n is large.
    """
    if not 0 < p <= 1:
        raise ValueError(f"probability must lie in (0, 1], got {p}")
    segments = 2 ** int(n)
    q = 1.0 - p
    total = 0.0
    for j in range(1, segments + 1):
        total += (-1.0) ** (j + 1) * math.comb(segments, j) / (1.0 - q ** j)
    return total


def effective_probability(q_prev: float, p_round: float) -> float:
    """One purification round: Q = Q_prev P_round (2 - Q_prev)/(3 - 2 Q_prev)."""
    if not 0 < q_prev <= 1 or not 0 < p_round <= 1:
        raise ValueError("probabilities must lie in (0, 1]")
    return q_prev * p_round * (2.0 - q_prev) / (3.0 - 2.0 * q_prev)


def initial_segment_state(config: RepeaterConfig) -> tuple[float, PhaseMixtureWeights]:
    """Generation probability P0 and initial mixture weights for one segment."""
    ch = config.channel
    if config.scheme == "usd":
        p0 = usd_bound(config.d, config.alpha, ch.gamma)
        weights = matter_matter_components(config.d, config.alpha, ch).weights
        return p0, weights
    report = homodyne_report(config.d, config.alpha, ch, config.delta_frac,
                             include_offdiag=False)
    # effective-state model: leading weight F_av, remainder split equally
    rest = (1.0 - report.f_av) / (config.d - 1)
    p = np.full(config.d, rest)
    p[0] = report.f_av
    return report.p_succ, PhaseMixtureWeights(config.d, p)


def purification_chain(p0: float, weights: PhaseMixtureWeights,
                       rounds: int) -> list[RoundStats]:
    """Round 0 (generation) plus `rounds` purification rounds.

    Each round purifies the previous weights and updates the effective
    per-segment probability with `effective_probability`.
    """
    stats = [RoundStats(0, float(weights.p[0]), p0, p0)]
    for k in range(1, rounds + 1):
        pk, weights = purify_step(weights)
        q = effective_probability(stats[-1].effective_probability, pk)
        stats.append(RoundStats(k, float(weights.p[0]), pk, q))
    return stats


def predict(config: RepeaterConfig) -> RateResult:
    p0, weights = initial_segment_state(config)
    if p0 <= 0:
        raise ArithmeticError("generation probability is zero for this configuration")
    stats = purification_chain(p0, weights, config.purification_rounds)
    z = z_attempts(config.n, stats[-1].effective_probability)
    t0 = 2.0 * config.L0_km / config.fiber_speed_km_s
    rate = 1.0 / (t0 * z)
    bound = stats[-1].fidelity ** (2 ** config.n)
    return RateResult(config=config, rounds=tuple(stats), z=z,
                      rate_hz=rate, final_fidelity_bound=bound)


def monte_carlo_waiting(n: int, p0: float, round_probs=(), trials: int = 10 ** 5,
                        seed: int = 0, shards: int = 1) -> tuple[float, float]:
    """Empirical mean attempts (and standard error) until all segments are filled.

    Each segment waits a geometric(p0) time per pair; every purification
    round consumes two pairs (max of two independent waits) and repeats on
    failure (probability 1 - p_round).  Trials are split into `shards`
    independently seeded batches; results are identical for a fixed
    (seed, shards) pair.

    Flat sampler: a trial stands for w = 2^n prod_r(2/p_r) expected
    geometric(p0) waits, and a chunk holds max(1, MC_CHUNK // w) trials.
    Draw the attempt counts K ~ geometric(p_round) of rounds R..1 top-down
    (depth d - 1 has 2 K.sum() elements), then each depth-1 attempt, the
    maximum of two geometric(p0) waits, by inversion from one uniform u:
    M = max(1, ceil(log(1 - sqrt(u)) / log q)).  Sum bottom-up with
    `np.add.reduceat` and pair maxima, up to each trial's maximum.  Raises
    ValueError before any draw for p0 < MC_MIN_P0 or work above MC_MAX_WAITS.
    Without rounds the draws are one geometric(p0) stream for any chunking
    and the sums exact integers below 2^53, so seeded results equal those of
    the recursive sampler this replaced; with rounds (`mc --round-p`) they
    have its distribution but other values.
    """
    for name, value, low in (("n", n, 0), ("trials", trials, 1), ("shards", shards, 1)):
        if int(value) != value or value < low:
            raise ValueError(f"{name} must be an integer >= {low}")
    n, trials, shards = int(n), int(trials), int(shards)
    if not MC_MIN_P0 <= p0 <= 1:
        raise ValueError(f"p0 must lie in [{MC_MIN_P0:g}, 1]")
    for p in round_probs:
        if not 0 < p <= 1:
            raise ValueError("round probabilities must lie in (0, 1]")
    segments = 2 ** n
    per_shard = -(-trials // shards)
    round_log2 = sum(math.log2(2 / p) for p in round_probs)  # log2 waits per segment
    # work cap, in log2 so that a huge n cannot overflow
    waits_log2 = math.log2(min(max(segments, 2 ** 14), per_shard * segments)) + round_log2
    if waits_log2 > math.log2(MC_MAX_WAITS):
        raise ValueError(f"one chunk would draw about 2^{waits_log2:.1f} waits, above "
                         f"MC_MAX_WAITS = {MC_MAX_WAITS}: lower n or raise the round "
                         "probabilities")
    per_chunk = min(max(1, int(MC_CHUNK / 2 ** (n + round_log2))), per_shard)
    log_q = math.log1p(-p0) if p0 < 1 else -math.inf

    def sample(rng, count):
        if not round_probs:
            return rng.geometric(p0, size=count)
        starts = []  # first attempt of every element, top depth first
        for p_round in reversed(round_probs):
            k = rng.geometric(p_round, size=count)
            starts.append(np.cumsum(k))
            count = 2 * int(starts[-1][-1])
            starts[-1] -= k
        # depth-1 attempts: 1 - sqrt(u) = (1 - u) / (1 + sqrt(u)), and 1 - u > 0
        u = rng.random(count // 2)
        root = np.sqrt(u)
        root += 1.0
        waits = np.log(np.divide(np.subtract(1.0, u, out=u), root, out=u), out=u)
        waits /= log_q
        np.maximum(np.ceil(waits, out=waits), 1.0, out=waits)
        for depth, first in enumerate(reversed(starts)):
            if depth:
                waits = np.maximum(waits[0::2], waits[1::2])
            waits = np.add.reduceat(waits, first)
        return waits

    sum_x = sum_x2 = 0.0
    for s in range(shards):
        rng = np.random.default_rng([int(seed), s])
        batch = trials // shards + (s < trials % shards)
        for done in range(0, batch, per_chunk):
            waits = sample(rng, min(per_chunk, batch - done) * segments)
            for _ in range(n):
                waits = np.maximum(waits[0::2], waits[1::2])
            waits = waits.astype(float, copy=False)
            sum_x += float(waits.sum())
            # einsum, not waits @ waits: BLAS may thread a long dot product
            sum_x2 += float(np.einsum("i,i->", waits, waits))
    mean = sum_x / trials
    var = max(sum_x2 - trials * mean ** 2, 0.0) / (trials - 1) if trials > 1 else math.nan
    return mean, math.sqrt(var / trials)


def monte_carlo_attempts(config: RepeaterConfig, trials: int, seed: int,
                         shards: int = 1) -> tuple[float, float]:
    """Monte Carlo validation of the waiting-time model for a full config."""
    p0, weights = initial_segment_state(config)
    chain = purification_chain(p0, weights, config.purification_rounds)
    round_probs = tuple(st.success_probability for st in chain[1:])
    return monte_carlo_waiting(config.n, p0, round_probs, trials, seed, shards)


# --- benchmark-table reproduction -------------------------------------------

def _homodyne_table_alpha(L0_km: float, target_f0: float) -> tuple[float, float, float]:
    """Pick alpha in [0.9, 1.1] whose effective-state fidelity best hits the
    printed initial fidelity.

    The printed homodyne operating points correspond to the narrow-window
    limit (they are reproduced at delta_frac -> 0, not at 0.2), so the scan
    runs at delta_frac = 0.001.  Returns (alpha, P0, F_av).
    """
    best = None
    ch = None
    for alpha in np.linspace(0.9, 1.1, 41):
        cfg = RepeaterConfig(d=3, L0_km=L0_km, span_km=L0_km, alpha=float(alpha),
                             scheme="homodyne", delta_frac=0.001)
        p0, w = initial_segment_state(cfg)
        miss = abs(w.p[0] - target_f0)
        if best is None or miss < best[0]:
            best = (miss, float(alpha), p0, float(w.p[0]))
    _, alpha, p0, f0 = best
    return alpha, p0, f0


def reproduce_table(table_id: str) -> list[CellComparison]:
    """Recompute one benchmark table cell by cell and grade the agreement."""
    if table_id not in TABLES:
        raise ValueError(f"unknown table {table_id!r}; choose from {sorted(TABLES)}")
    spec = TABLES[table_id]
    rounds = spec["rounds"]
    labels = ROUNDS[:rounds]

    if spec["scheme"] == "homodyne":
        alpha, p0, f0 = _homodyne_table_alpha(spec["L0_km"], spec["initial_fidelity"][0])
        weights = PhaseMixtureWeights(3, [f0, (1 - f0) / 2, (1 - f0) / 2])
    else:
        alpha = spec["alpha"]
        cfg0 = RepeaterConfig(d=3, L0_km=spec["L0_km"], span_km=spec["L0_km"],
                              alpha=alpha, scheme="usd")
        p0, weights = initial_segment_state(cfg0)

    chain = purification_chain(p0, weights, rounds - 1)
    fidelities = [st.fidelity for st in chain]
    qs = [st.effective_probability for st in chain]

    out = []
    for i, label in enumerate(labels):
        out.append(CellComparison(table_id, "initial_fidelity", None, label,
                                  spec["initial_fidelity"][i], fidelities[i],
                                  grade_cell(table_id, "initial_fidelity", None, label,
                                             spec["initial_fidelity"][i], fidelities[i])))
    for i, label in enumerate(labels):
        out.append(CellComparison(table_id, "effective_probability", None, label,
                                  spec["effective_probability"][i], qs[i],
                                  grade_cell(table_id, "effective_probability", None, label,
                                             spec["effective_probability"][i], qs[i])))
    t0 = 2.0 * spec["L0_km"] / FIBER_SPEED_KM_S
    for span, row in spec["rate_hz"].items():
        n = round(math.log2(span / spec["L0_km"]))
        for i, label in enumerate(labels):
            computed = 1.0 / (t0 * z_attempts(n, qs[i]))
            out.append(CellComparison(table_id, "rate_hz", span, label, row[i], computed,
                                      grade_cell(table_id, "rate_hz", span, label,
                                                 row[i], computed)))
    for span, row in spec["fidelity"].items():
        n = round(math.log2(span / spec["L0_km"]))
        for i, label in enumerate(labels):
            computed = fidelities[i] ** (2 ** n)
            out.append(CellComparison(table_id, "fidelity", span, label, row[i], computed,
                                      grade_cell(table_id, "fidelity", span, label,
                                                 row[i], computed)))
    return out
