import math
import random
import time
import tracemalloc
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hqrsim import rates
from hqrsim.rates import (MAX_PURIFICATION_ROUNDS, MC_MIN_P0, RepeaterConfig,
                          effective_probability, initial_segment_state, monte_carlo_waiting,
                          predict, purification_chain, z_attempts)
from hqrsim import detection, tables
from hqrsim.detection import window_stats
from hqrsim.states import ChannelParams, PhaseMixtureWeights
from hqrsim.tables import TABLES, reproduce_table
from oracles import (homodyne_table_state_loop, monte_carlo_attempts,
                     monte_carlo_waiting_reduceat, swap_phase_mixture, z_attempts_series)


def takes_series(n, p):
    """Whether z_attempts(n, p) sums the tail series rather than a closed form."""
    with mock.patch.object(rates, "_tail_series", wraps=rates._tail_series) as series:
        z_attempts(n, p)
    return series.called


def switch_point(n):
    """Largest p at which z_attempts(n, p) takes a closed form; above it, the series."""
    lo, hi = 1e-300, 1.0 - 2 ** -53
    assert not takes_series(n, lo) and takes_series(n, hi)
    while math.nextafter(lo, 1.0) < hi:
        mid = math.sqrt(lo * hi) if hi > 4 * lo else 0.5 * (lo + hi)
        lo, hi = (lo, mid) if takes_series(n, mid) else (mid, hi)
    return lo


# n <= 2 has no series branch; every larger n switches once
SWITCH_P = {n: switch_point(n) for n in range(3, 10)}


class TestZAttempts:
    def test_single_segment_geometric_mean(self):
        for p in (0.05, 0.3, 0.9):
            assert z_attempts(0, p) == pytest.approx(1 / p, abs=1e-9)

    def test_certain_success_is_one(self):
        for n in range(6):
            assert z_attempts(n, 1.0) == 1.0

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_matches_alternating_series(self, n):
        for p in (0.05, 0.3, 0.6427, 0.95):
            assert z_attempts(n, p) == pytest.approx(z_attempts_series(n, p), rel=1e-12, abs=0)

    def test_two_segment_closed_form(self):
        # E[max(G1, G2)] = 2/p - 1/(1 - (1-p)^2)
        p = 0.6427
        expect = 2 / p - 1 / (1 - (1 - p) ** 2)
        assert z_attempts(1, p) == pytest.approx(expect, abs=1e-12)
        assert expect == pytest.approx(1.9655, abs=1e-4)

    def test_growth_and_bound(self):
        for p in (0.1, 0.5):
            vals = [z_attempts(n, p) for n in range(5)]
            assert vals[0] == pytest.approx(1 / p, abs=1e-9)
            assert all(a < b for a, b in zip(vals, vals[1:]))
            assert all(v >= 1 / p - 1e-9 for v in vals)

    @pytest.mark.parametrize("p", [1e-4, 1e-5, 1e-7, 1e-9, 1.01e-4, 3.3e-4, 1.7e-3, 0.0137, 0.3,
                                   0.958, *np.logspace(-12, math.log10(0.999), 40).tolist()])
    @pytest.mark.parametrize("n", range(9))
    def test_small_p_matches_mpmath(self, n, p):
        # inclusion-exclusion, exact in the binary value of p, with digits to spare
        # over the cancellation of C(S, S/2); in floats, the alternating sum over
        # j <= 4 lost 1.1e-15 near p = 0.958, and the series with a rounded
        # q = 1 - p 2e-13 just above 1e-4
        s = 2 ** n
        with mpmath.workdps(40 + math.log10(math.comb(s, s // 2))):
            q = 1 - mpmath.mpf(p)
            want = float(mpmath.fsum((-1) ** (j + 1) * mpmath.binomial(s, j) / (1 - q ** j)
                                     for j in range(1, s + 1)))
        assert z_attempts(n, p) == pytest.approx(want, rel=1e-15, abs=0)

    def test_largest_reachable_n(self):
        # span / L0 reaches at most 2^1023; H_S ~ ln S + gamma, and no int passes 2^1024
        lam = -math.log1p(-1e-5)
        want = (1023 * math.log(2) + 0.5772156649015329) / lam + 0.5
        assert z_attempts(1023, 1e-5) == pytest.approx(want, rel=1e-15, abs=0)
        for p in (1e-300, 1e-5, 0.2, 0.5, 0.999):
            assert math.isfinite(z_attempts(1023, p))

    def test_series_work_is_one_chunk(self):
        # the series runs only where lam is large: its one pass of (42 + ln S) / lam
        # terms is longest at the switch point and grows with n, to 2,768 terms at
        # n = 1023 (bisection over every n = 3..1023 gives no larger count)
        terms = {}
        for n in [*range(3, 64), 64, 100, 127, 128, 255, 256, 383, 511, 512, 767, 1000, 1022, 1023]:
            p = SWITCH_P[n] if n in SWITCH_P else switch_point(n)
            lam = -math.log1p(-math.nextafter(p, 1.0))
            terms[n] = math.ceil((42 + n * math.log(2)) / lam)
            assert not takes_series(n, p) and takes_series(n, math.nextafter(p, 1.0))
        assert max(terms.values()) == terms[1023] == 2768
        for n in range(3):
            assert not any(takes_series(n, float(p)) for p in np.logspace(-300, -1e-9, 50))

    @pytest.mark.parametrize("n", [0, 3])
    def test_overflow_raises(self, n):
        # Z ~ 1/p (n = 0) or H_8 / p is not a finite float
        with pytest.raises(OverflowError):
            z_attempts(n, 1e-320)

    def test_small_p_work_is_bounded(self):
        start = time.perf_counter()
        z = z_attempts(10, 1e-9)
        assert time.perf_counter() - start < 0.05
        assert z == pytest.approx(sum(1 / k for k in range(1, 1025)) / 1e-9, rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            z_attempts(1, 0.0)
        with pytest.raises(ValueError):
            z_attempts(-1, 0.5)

    @pytest.mark.parametrize("n", [1024, 10 ** 15, math.inf])
    def test_n_beyond_reachable_range_rejected_at_once(self, n):
        # rejected before 2 ** n (or int(inf)) is formed: no OverflowError, no huge int
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"\[0, 1023\]"):
            z_attempts(n, 1e-5)
        assert time.perf_counter() - start < 0.1


def at_switch_points(**kwargs):
    """An example on each side of every n's switch point."""
    def add_examples(test):
        for n, p in SWITCH_P.items():
            test = example(case=(n, p), **kwargs)(test)
            test = example(case=(n, p * (1 + 1e-9)), **kwargs)(test)
        return test
    return add_examples


@st.composite
def near_switch(draw):
    """(n, p): p anywhere in [1e-7, 1], or within a factor 4 of the switch point of n
    (for test_non_decreasing_in_n also of n + 1), so the draws cross every branch boundary."""
    n = draw(st.integers(0, 8))
    switches = [SWITCH_P[m] for m in (n, n + 1) if m in SWITCH_P]
    if not switches or draw(st.booleans()):
        return n, draw(st.floats(1e-7, 1.0))
    p = draw(st.sampled_from(switches))
    return n, draw(st.floats(p / 4, min(4 * p, 1.0)))


class TestZAttemptsProperties:
    @settings(max_examples=200, deadline=None)
    @given(case=near_switch(), ratio=st.floats(1 + 1e-9, 4.0))
    @at_switch_points(ratio=1 + 1e-9)
    def test_non_increasing_in_p(self, case, ratio):
        # a relative step of 1e-9 in p moves Z far more than the sums' rounding
        n, p = case
        assert z_attempts(n, min(1.0, p * ratio)) <= z_attempts(n, p)

    @settings(max_examples=200, deadline=None)
    @given(case=near_switch())
    @at_switch_points()
    def test_non_decreasing_in_n(self, case):
        n, p = case
        assert z_attempts(n + 1, p) >= z_attempts(n, p)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(0, 3), p=st.floats(0.01, 1.0))
    def test_matches_series(self, n, p):
        # below p ~ 0.01 the series' 1 - q^j loses digits, not z_attempts
        assert z_attempts(n, p) == pytest.approx(z_attempts_series(n, p), rel=1e-12, abs=0)


class TestPurificationChain:
    def test_fidelity_is_leading_weight(self):
        w = PhaseMixtureWeights(3, [0.7, 0.2, 0.1])
        for st in purification_chain(0.5, w, 3):
            assert st.fidelity == st.weights.p[0]
        assert st.round == 3

    def test_rounds_cap(self):
        w = PhaseMixtureWeights(2, [0.5, 0.5])  # a fixed point: every P_k = 1/2
        chain = purification_chain(1.0, w, MAX_PURIFICATION_ROUNDS)
        assert len(chain) == MAX_PURIFICATION_ROUNDS + 1
        assert chain[-1].effective_probability > 0
        with pytest.raises(ValueError, match="rounds"):
            purification_chain(1.0, w, MAX_PURIFICATION_ROUNDS + 1)


class TestEffectiveProbability:
    def test_identity_at_certainty(self):
        assert effective_probability(1.0, 1.0) == pytest.approx(1.0)

    def test_benchmark_chain(self):
        q1 = effective_probability(0.6427, 0.59495)
        assert q1 == pytest.approx(0.6427 * 0.59495 * (2 - 0.6427) / (3 - 2 * 0.6427),
                                   abs=1e-14)
        assert q1 == pytest.approx(0.302641, abs=1e-4)

    def test_strictly_decreasing(self):
        q = 0.8
        for p_round in (0.9, 0.7, 0.99):
            q_next = effective_probability(q, p_round)
            assert q_next < q
            q = q_next

    def test_validation(self):
        with pytest.raises(ValueError):
            effective_probability(0.0, 0.5)


class TestRepeaterConfig:
    def test_power_of_two_span(self):
        RepeaterConfig(d=3, L0_km=5, span_km=5, alpha=1.0, scheme="usd")
        RepeaterConfig(d=3, L0_km=5, span_km=640, alpha=1.0, scheme="usd")
        with pytest.raises(ValueError):
            RepeaterConfig(d=3, L0_km=5, span_km=15, alpha=1.0, scheme="usd")

    def test_other_validation(self):
        with pytest.raises(ValueError):
            RepeaterConfig(d=1, L0_km=5, span_km=5, alpha=1.0, scheme="usd")
        with pytest.raises(ValueError):
            RepeaterConfig(d=3, L0_km=5, span_km=5, alpha=1.0, scheme="heterodyne")
        with pytest.raises(ValueError):
            RepeaterConfig(d=3, L0_km=5, span_km=5, alpha=1.0, scheme="usd",
                           fiber_speed_km_s=0.0)
        for delta_frac in (0.0, -0.1, 1.5, 5.0, float("nan")):
            with pytest.raises(ValueError, match="delta_frac"):
                RepeaterConfig(d=3, L0_km=5, span_km=5, alpha=1.0, scheme="usd",
                               delta_frac=delta_frac)

    def test_segment_count(self):
        cfg = RepeaterConfig(d=3, L0_km=5, span_km=40, alpha=1.0, scheme="usd")
        assert cfg.n == 3

    def test_fields_cannot_be_assigned(self):
        # span_km = 15 would fail the power-of-two check
        cfg = RepeaterConfig(d=3, L0_km=5, span_km=40, alpha=1.0, scheme="usd")
        for name, value in (("span_km", 15.0), ("d", 1), ("scheme", "heterodyne")):
            with pytest.raises(AttributeError):
                setattr(cfg, name, value)
        assert (cfg.span_km, cfg.n, cfg.L_att_km, cfg.fiber_speed_km_s) == (40, 3, 22.0, 2.0e5)

    def test_segment_time_sets_the_rate(self):
        # T0 = 2 L0 / c, and predict's rate is 1 / (T0 Z)
        cfg = RepeaterConfig(d=3, L0_km=5, span_km=40, alpha=1.0, scheme="usd",
                             fiber_speed_km_s=1.6e5)
        assert cfg.t0 == 2 * 5 / 1.6e5
        result = predict(cfg)
        assert result.rate_hz == 1 / (cfg.t0 * result.z)

    def test_segment_count_range(self):
        # a ratio near 2^1024 rounds to n = 1024, whose 2 ** n overflows a float
        with pytest.raises(ValueError, match="not a power of two"):
            RepeaterConfig(d=3, L0_km=1e-300, span_km=1.7e8, alpha=1.2, scheme="usd")
        cfg = RepeaterConfig(d=3, L0_km=1e-300, span_km=math.ldexp(1e-300, 1023), alpha=1.2,
                             scheme="usd")
        assert cfg.n == 1023
        assert math.isfinite(predict(cfg).z)


class TestPredict:
    def test_usd_two_rounds_benchmark(self):
        cfg = RepeaterConfig(d=3, L0_km=5, span_km=10, alpha=1.2, scheme="usd",
                             purification_rounds=2)
        res = predict(cfg)
        fids = [r.fidelity for r in res.rounds]
        assert fids[0] == pytest.approx(0.75, abs=1e-3)
        assert fids[1] == pytest.approx(0.94393, abs=1e-4)
        assert fids[2] == pytest.approx(0.997854, abs=1e-5)
        assert res.rate_hz == pytest.approx(2647, rel=1e-3)

    def test_usd_long_haul_bound(self):
        cfg = RepeaterConfig(d=3, L0_km=20, span_km=80, alpha=0.5, scheme="usd",
                             purification_rounds=1)
        res = predict(cfg)
        assert res.rate_hz == pytest.approx(17, rel=0.05)
        assert res.final_fidelity_bound == pytest.approx(0.986275 ** 4, abs=1e-4)

    def test_no_purification_bound(self):
        cfg = RepeaterConfig(d=3, L0_km=5, span_km=20, alpha=1.2, scheme="usd")
        res = predict(cfg)
        assert res.final_fidelity_bound == pytest.approx(0.315, abs=1e-3)

    def test_homodyne_effective_state(self):
        cfg = RepeaterConfig(d=3, L0_km=5, span_km=10, alpha=1.0, scheme="homodyne",
                             delta_frac=0.2, purification_rounds=1)
        p0, w = initial_segment_state(cfg)
        assert w.p[1] == pytest.approx(w.p[2], abs=1e-14)
        assert w.p[0] == pytest.approx(1 - 2 * w.p[1], abs=1e-12)
        res = predict(cfg)
        assert res.rounds[0].success_probability == pytest.approx(p0)

    def test_homodyne_dimension_guard(self):
        cfg = RepeaterConfig(d=5, L0_km=5, span_km=10, alpha=1.0, scheme="homodyne")
        with pytest.raises(ValueError):
            predict(cfg)

    def test_bound_below_exact_convolution(self):
        # the (F0)^(2^n) bound never exceeds the exact convolution fidelity
        cfg = RepeaterConfig(d=3, L0_km=5, span_km=5, alpha=1.2, scheme="usd",
                             purification_rounds=1)
        _, w = initial_segment_state(cfg)
        _, w = __import__("hqrsim.logic", fromlist=["purify_step"]).purify_step(w)
        for n in (1, 2, 3):
            chained = w
            for _ in range(2 ** n - 1):
                chained = swap_phase_mixture(chained, w)
            assert w.p[0] ** (2 ** n) <= chained.p[0] + 1e-12


class TestMonteCarlo:
    def test_deterministic_given_seed(self):
        a = monte_carlo_waiting(1, 0.3, trials=20000, seed=42)
        b = monte_carlo_waiting(1, 0.3, trials=20000, seed=42)
        assert a == b
        c = monte_carlo_waiting(1, 0.3, trials=20000, seed=43)
        assert a != c

    def test_single_geometric(self):
        mean, se = monte_carlo_waiting(0, 0.5, trials=10 ** 5, seed=1)
        assert abs(mean - 2.0) <= 3 * se

    def test_certain_success(self):
        mean, se = monte_carlo_waiting(1, 1.0, trials=10 ** 4, seed=2)
        assert mean == 1.0 and se == 0.0

    def test_one_round_pairing_identity(self):
        # P0 = 0.5, P1 = 1: mean attempts = (3 - 2 P0)/(P0 (2 - P0)) = 8/3
        mean, se = monte_carlo_waiting(0, 0.5, round_probs=(1.0,),
                                       trials=2 * 10 ** 5, seed=3)
        q1 = effective_probability(0.5, 1.0)
        assert abs(mean - 1 / q1) <= 3 * se

    def test_retrying_round(self):
        # with P1 < 1 the round repeats; the mean is 1/P1 pair-generations
        mean, se = monte_carlo_waiting(0, 0.4, round_probs=(0.5,),
                                       trials=2 * 10 ** 5, seed=4)
        expect = (3 - 2 * 0.4) / (0.4 * (2 - 0.4)) / 0.5
        assert abs(mean - expect) <= 3 * se

    def test_config_wrapper(self):
        cfg = RepeaterConfig(d=3, L0_km=5, span_km=10, alpha=1.2, scheme="usd",
                             purification_rounds=0)
        mean, se = monte_carlo_attempts(cfg, trials=10 ** 5, seed=5)
        assert abs(mean - z_attempts(1, 0.642697)) <= 3 * se

    def test_validation(self):
        with pytest.raises(ValueError):
            monte_carlo_waiting(0, 0.5, trials=0, seed=0)
        with pytest.raises(ValueError):
            monte_carlo_waiting(0, 0.0, trials=10, seed=0)
        for bad in ({"n": -1}, {"n": 1.5}, {"trials": 2.5}, {"trials": -3}):
            kwargs = {"n": 1, "p0": 0.5, "trials": 10, "seed": 0, **bad}
            with pytest.raises(ValueError):
                monte_carlo_waiting(**kwargs)

    @pytest.mark.parametrize("name", ["n", "trials", "seed"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_counts_name_the_argument(self, name, value):
        # int(inf) raised OverflowError and int(nan) a ValueError naming no argument
        kwargs = {"n": 1, "p0": 0.5, "trials": 10, "seed": 0, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= "):
            monte_carlo_waiting(**kwargs)

    @pytest.mark.parametrize("round_probs", [(), (0.5,)])
    def test_vanishing_p0(self, round_probs):
        # below MC_MIN_P0 a wait could pass 2^53, where float draws and sums
        # stop being exact integers; at 1e-300 the depth-1 inversion overflows
        for p0 in (1e-300, MC_MIN_P0 / 2):
            with pytest.raises(ValueError, match="p0"):
                monte_carlo_waiting(0, p0, round_probs, trials=10, seed=1)
        # exponential limit: mean 1/p0, or (1.5/p0) / 0.5 with one round at 0.5
        mean, se = monte_carlo_waiting(0, MC_MIN_P0, round_probs, trials=1000, seed=1)
        assert mean * MC_MIN_P0 == pytest.approx(3.0 if round_probs else 1.0, rel=0.15)
        assert 0 < se < mean

    def test_work_cap(self):
        # the cap counts 2^14 trials at round p 0.01, 0.01: about 6.6e8 waits
        for n, round_probs, trials in ((0, (0.01, 0.01), 2 ** 14), (26, (), 1),
                                       (2000, (), 1)):
            with pytest.raises(ValueError, match="MC_MAX_WAITS"):
                monte_carlo_waiting(n, 0.5, round_probs, trials=trials, seed=0)
        # the cap is checked before 2 ** n is formed: at n = 1e15 that int
        # would need about 125 TB
        start = time.perf_counter()
        with pytest.raises(ValueError, match="MC_MAX_WAITS"):
            monte_carlo_waiting(10 ** 15, 0.5, trials=2, seed=0)
        assert time.perf_counter() - start < 0.1
        # the cap counts at most the trials of the call: one trial is about 4e4 waits
        mean, _ = monte_carlo_waiting(0, 1.0, (0.01, 0.01), trials=1, seed=0)
        assert mean >= 1.0

    def test_total_work_cap(self):
        # every chunk fits, but 10^18 waits at several ns each would take centuries;
        # refused before any draw, in log2, however large trials is
        start = time.perf_counter()
        with mock.patch.object(rates, "_geometric", side_effect=AssertionError("drew")):
            for n, round_probs, trials in ((0, (), 10 ** 18), (0, (), 2 ** 32 + 1),
                                           (10, (0.5,), 2 ** 21), (1, (0.01,), 10 ** 300)):
                with pytest.raises(ValueError, match="MC_MAX_TOTAL_WAITS"):
                    monte_carlo_waiting(n, 0.5, round_probs, trials=trials, seed=0)
        assert time.perf_counter() - start < 0.1

    # perfbench's mc shapes, at their lowest round probability; the golden argv run in
    # test_cli_golden.py
    @pytest.mark.parametrize("n, round_probs, trials", [
        (1, (), 10 ** 4), (2, (), 10 ** 5), (2, (0.75,), 10 ** 5), (1, (0.75,) * 2, 10 ** 5),
        (1, (0.75,) * 3, 10 ** 5)])
    def test_total_work_cap_accepts_workload_shapes(self, n, round_probs, trials):
        mean, se = monte_carlo_waiting(n, 0.5, round_probs, trials=trials, seed=1)
        assert mean >= 1.0 and 0 < se < mean

    @pytest.mark.parametrize("p0, round_probs", [
        (0.3, (0.7,)),
        (0.05, (0.8,)),
        (0.05, (0.8, 0.6)),
        (0.4, (0.9, 0.75)),
        (0.5, (0.9, 0.75, 0.6)),
        (0.05, (0.85, 0.8, 0.9)),
    ])
    @pytest.mark.parametrize("n", [0, 2, 3])
    def test_matches_recursive_oracle(self, n, p0, round_probs):
        trials = 100_000 if len(round_probs) < 3 or n < 3 else 20_000
        seed = hash((n, p0, round_probs)) % 2 ** 32  # independent streams per case
        mean, se = monte_carlo_waiting(n, p0, round_probs, trials=trials, seed=seed)
        want, want_se = recursive_waiting(n, p0, round_probs, trials, seed=seed + 1)
        assert abs(mean - want) <= 4 * math.hypot(se, want_se), (mean, want, se, want_se)

    @pytest.mark.parametrize("p0", [0.05, 0.3, 0.8])
    def test_max_of_two_variance(self, p0):
        # at p_round = 1 a wait is one maximum M of two geometric(p0) waits:
        # P(M > t) = 2 q^t - q^{2t}, so E[M] = 2/p - 1/(1 - q^2) and
        # E[M^2] = sum_t (2t + 1) P(M > t) = 2(1 + q)/p^2 - (1 + q^2)/(1 - q^2)^2
        q = 1 - p0
        mean_m = 2 / p0 - 1 / (1 - q * q)
        var_m = 2 * (1 + q) / p0 ** 2 - (1 + q * q) / (1 - q * q) ** 2 - mean_m ** 2
        trials = 400_000
        mean, se = monte_carlo_waiting(0, p0, (1.0,), trials=trials, seed=9)
        assert abs(mean - mean_m) <= 4 * se
        assert se ** 2 * trials == pytest.approx(var_m, rel=0.03)

    @pytest.mark.parametrize("n", [0, 2])
    def test_certain_generation_with_rounds(self, n):
        assert monte_carlo_waiting(n, 1.0, (1.0, 1.0, 1.0), trials=5000, seed=1) == (1.0, 0.0)

    def test_chunking_bounds_memory(self):
        def peak(trials):
            tracemalloc.start()
            try:
                monte_carlo_waiting(1, 0.4, (0.8, 0.85), trials=trials, seed=2)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak(200_000) <= 1.5 * peak(20_000)

    @pytest.mark.parametrize("n", [0, 2, 3])
    def test_no_rounds_independent_of_chunk_size(self, monkeypatch, n):
        # one geometric(p0) stream and exact integer sums, whatever the chunk
        results = set()
        for chunk in (2 ** 10, 2 ** 15, 2 ** 17):
            monkeypatch.setattr(rates, "MC_CHUNK", chunk)
            results.add(monte_carlo_waiting(n, 0.3, trials=30_001, seed=5))
        assert len(results) == 1

    def test_rounds_do_not_grow_memory(self):
        # a chunk holds about MC_CHUNK expected waits whatever the rounds
        def peak(round_probs):
            tracemalloc.start()
            try:
                monte_carlo_waiting(1, 0.4, round_probs, trials=100_000, seed=3)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak((0.75, 0.75, 0.75)) <= 1.5 * peak((0.75,))


def _sum_sweep(count):
    """(n, p0, round_probs, trials, seed) with n 0-4, 0-3 rounds, p0 >= 1e-6 and
    round p >= 0.05, at most about 2^18 expected waits a call."""
    rng = random.Random(1605)
    cases = []
    while len(cases) < count:
        n, rounds = rng.randrange(5), rng.randrange(4)
        p0 = 10 ** rng.uniform(-6, 0)
        round_probs = tuple(rng.uniform(0.05, 1.0) for _ in range(rounds))
        trials = rng.choice((2, 3, 100, 2000, 20_000))
        if trials * 2 ** n * math.prod(2 / p for p in round_probs) <= 2 ** 18:
            cases.append((n, p0, round_probs, trials, rng.randrange(10 ** 6)))
    return cases


class TestOwnerIdSums:
    # the sampler's draws summed two ways: its first attempts plus np.add.reduceat
    # of each retried id's extras, against every element's attempts gathered
    # together and summed with np.add.reduceat over int64 [0, cumsum(K)] bounds;
    # below 2^53 every sum is an exact integer in any order, so results are equal
    @pytest.mark.parametrize("args", [
        (n, p0, round_probs, 100_000, seed)  # the waiting workload's mc shapes
        for n, p0, round_probs in ((2, 0.3, ()), (2, 0.4, (0.82,)), (1, 0.4, (0.8, 0.85)),
                                   (1, 0.4, (0.8, 0.85, 0.8)))
        for seed in (0, 41, 977)
    ] + [
        (1, 0.4, (0.8, 0.85, 0.8), 100_000, 3),  # golden mc_rounds3
        (2, 0.25, (0.3, 0.9), 20_000, 5),  # golden mc_rounds2_exponential
    ] + _sum_sweep(48))
    def test_equals_reduceat(self, args):
        assert monte_carlo_waiting(*args) == monte_carlo_waiting_reduceat(*args, retries=True)

    def test_sums_past_2_53(self):
        # at p0 = 1e-13 an attempt is about 1.5e13 and round p 0.001 sums about
        # 1,000 of them, past 2^53, where a sum rounds: the sampler adds each
        # retried element's extras in turn and then its first attempt, the
        # gathered sum adds them all in turn, so the last bits may differ
        args = (0, 1e-13, (0.001,), 50, 1)
        got = monte_carlo_waiting(*args)
        want = monte_carlo_waiting_reduceat(*args, retries=True)
        assert got == pytest.approx(want, rel=1e-14, abs=0)
        assert want[0] > 2 ** 53


class TestRetriedAttempts:
    """Drawing only the retried attempts against drawing K for every element.

    Without rounds both are one geometric(p0) stream, so seeded results are
    equal; with rounds the seeded values differ and the means agree within
    4 combined standard errors.
    """

    @pytest.mark.parametrize("n, p0, round_probs, trials", [
        (2, 0.3, (), 100_000),  # the waiting workload's mc shapes
        (2, 0.4, (0.82,), 100_000),
        (1, 0.4, (0.8, 0.85), 100_000),
        (1, 0.4, (0.8, 0.85, 0.8), 100_000),  # and golden mc_rounds3 at seed 3
        (2, 0.25, (0.3, 0.9), 20_000),  # golden mc_rounds2_exponential at seed 5
        (0, 0.4, (0.3,), 50_000),
        (1, 0.3, (0.5, 0.5), 50_000),
        (0, 0.4, (0.3, 0.3, 0.3), 20_000),
    ])
    @pytest.mark.parametrize("seed", [3, 5, 41])
    def test_matches_every_element_draw(self, n, p0, round_probs, trials, seed):
        got = monte_carlo_waiting(n, p0, round_probs, trials, seed)
        want = monte_carlo_waiting_reduceat(n, p0, round_probs, trials, seed)
        if not round_probs:
            assert got == want
        assert abs(got[0] - want[0]) <= 4 * math.hypot(got[1], want[1]), (got, want)

    @pytest.mark.parametrize("p", [0.3, 0.82, 1.0])
    def test_each_element_retries_alike(self, p):
        # TestOwnerIdSums shares these draws with its reference, so check them
        # here: every element retries with probability 1 - p, the first and the
        # last too, and a retried element draws 1/p extra attempts on average
        rng, count, draws = np.random.default_rng(8), 5, 20_000
        hits, extras = np.zeros(count), []
        for _ in range(draws):
            ids, bounds = rates._retries(rng, p, count)
            assert ids.dtype == bounds.dtype == np.intp and bounds[0] == 0
            assert np.all(np.diff(ids) > 0) and np.all((0 <= ids) & (ids < count))
            hits[ids] += 1
            extras.append(np.diff(bounds))
        assert np.all(np.abs(hits / draws - (1 - p)) <= 4 * math.sqrt(p * (1 - p) / draws))
        extras = np.concatenate(extras)
        assert extras.size == hits.sum() and np.all(extras >= 1)
        if p < 1:
            assert abs(extras.mean() - 1 / p) <= 4 * extras.std() / math.sqrt(extras.size)

    @pytest.mark.parametrize("sampler", [monte_carlo_waiting, monte_carlo_waiting_reduceat])
    @pytest.mark.parametrize("p0, p1", [(0.4, 0.3), (0.25, 0.5), (0.4, 0.82)])
    def test_one_round_mean(self, sampler, p0, p1):
        # n = 0, one round: an attempt is the maximum M of two geometric(p0) waits,
        # E[M] = 2/p0 - 1/(1 - q0^2), and the round takes geometric(p1) attempts
        q0 = 1 - p0
        mean, se = sampler(0, p0, (p1,), 100_000, 11)
        assert abs(mean - (2 / p0 - 1 / (1 - q0 * q0)) / p1) <= 4 * se


class TestGeometricDraws:
    # numpy inverts a standard exponential for p < 1/3 and searches on one
    # uniform from 1/3 up; if a numpy release changes either, seeded mc
    # results change, and this names the cause
    @pytest.mark.parametrize("p", [1e-6, 0.05, 0.3, float(np.nextafter(1 / 3, 0)), 1 / 3, 0.5,
                                   0.6427, 0.9, 1.0])
    def test_equals_numpy_geometric(self, p):
        ours, numpys = np.random.default_rng([17, 0]), np.random.default_rng([17, 0])
        got = rates._geometric(ours, p, np.empty(10 ** 5))
        want = numpys.geometric(p, 10 ** 5)
        assert got.dtype == float and np.array_equal(got, want)
        assert ours.random() == numpys.random()  # both streams consumed alike


def recursive_waiting(n, p0, round_probs, trials, seed):
    """Per-retry recursive sampler: the oracle for `monte_carlo_waiting`.

    Every round of every element is retried with one uniform draw per
    attempt; each attempt pairs two fresh waits from the round below.
    """
    rng = np.random.default_rng(seed)
    segments = 2 ** n

    def sample_round(count, depth):
        if depth == 0:
            return rng.geometric(p0, size=count).astype(np.int64)
        total = np.zeros(count, dtype=np.int64)
        idx = np.arange(count)
        while idx.size:
            total[idx] += np.maximum(sample_round(idx.size, depth - 1),
                                     sample_round(idx.size, depth - 1))
            idx = idx[rng.random(idx.size) >= round_probs[depth - 1]]
        return total

    waits = sample_round(trials * segments, len(round_probs))
    waits = waits.reshape(trials, segments).max(axis=1).astype(float)
    return waits.mean(), waits.std(ddof=1) / math.sqrt(trials)


def homodyne_table_state(L0, target):
    """The table's segment state: `initial_segment_state` at the searched alpha."""
    alpha = tables._homodyne_table_alpha(L0, target)
    return initial_segment_state(RepeaterConfig(d=3, L0_km=L0, span_km=L0, alpha=alpha,
                                                scheme="homodyne", delta_frac=0.001))


class TestHomodyneTableSearch:
    """The table's homodyne segment state against one scalar window pass per
    amplitude, under ==."""

    @pytest.mark.parametrize("table_id", ["III", "IV"])
    def test_tables(self, table_id):
        spec = TABLES[table_id]
        args = (spec["L0_km"], spec["initial_fidelity"][0])
        (p0, weights), (want_p0, want) = homodyne_table_state(*args), \
            homodyne_table_state_loop(*args)
        assert p0 == want_p0 and weights.p.tolist() == want.p.tolist()

    @pytest.mark.parametrize("L0", [2.0, 5.0, 10.0, 20.0])
    def test_target_sweep(self, L0):
        f_av = [window_stats(3, float(a), ChannelParams(L0), 0.001)[0][-1]
                for a in np.linspace(0.9, 1.1, 41)]
        for target in np.linspace(min(f_av), max(f_av), 10):
            (p0, weights), (want_p0, want) = homodyne_table_state(L0, target), \
                homodyne_table_state_loop(L0, target)
            assert p0 == want_p0 and weights.p.tolist() == want.p.tolist(), target

    def test_one_grid_pass_and_one_segment_pass(self):
        # one window pass over the 41-point grid (in tables), one at the chosen
        # alpha (in rates.initial_segment_state), and no homodyne_report (whose
        # off-diagonal bound the tables never read)
        for table_id in ("III", "IV"):
            with mock.patch.object(tables, "window_stats", wraps=window_stats) as grid_pass, \
                    mock.patch.object(rates, "window_stats", wraps=window_stats) as segment, \
                    mock.patch.object(detection, "homodyne_report") as report:
                reproduce_table(table_id)
            [grid], [chosen] = ([call.args[1] for call in stats.call_args_list]
                                for stats in (grid_pass, segment))
            spec = TABLES[table_id]
            assert np.asarray(grid).shape == (41,) and chosen == \
                tables._homodyne_table_alpha(spec["L0_km"], spec["initial_fidelity"][0])
            assert report.call_count == 0
            assert "homodyne_report" not in vars(rates) and "homodyne_report" not in vars(tables)


class TestReproduceTable:
    def test_unknown_id(self):
        with pytest.raises(ValueError):
            reproduce_table("VI")

    def test_table_i_pinned_cells(self):
        cells = {(c.section, c.span_km, c.round_label): c for c in reproduce_table("I")}
        assert cells[("initial_fidelity", None, "no")].computed == pytest.approx(0.75, abs=1e-3)
        assert cells[("effective_probability", None, "one")].computed == \
            pytest.approx(0.302641, abs=1e-3)
        assert cells[("rate_hz", 10, "no")].status == "match"
        # documented factor-two column stays flagged
        assert cells[("rate_hz", 10, "three")].status == "unresolved"
        assert cells[("rate_hz", 10, "three")].computed == pytest.approx(2 * 900, rel=0.01)
        assert cells[("fidelity", 20, "three")].status == "known-typo"

    def test_table_v_flags(self):
        cells = {(c.section, c.span_km, c.round_label): c for c in reproduce_table("V")}
        for r in ("no", "one", "two"):
            assert cells[("rate_hz", 40, r)].status == "unresolved"
        for span in (20, 40, 80, 160, 320, 640, 1280):
            assert cells[("fidelity", span, "no")].status == "known-typo"

    def test_table_iii_initial_point(self):
        cells = {(c.section, c.span_km, c.round_label): c for c in reproduce_table("III")}
        f0 = cells[("initial_fidelity", None, "no")].computed
        assert f0 == pytest.approx(0.73, abs=0.005)
        f1 = cells[("initial_fidelity", None, "one")].computed
        assert f1 == pytest.approx(f0 ** 2 / (f0 ** 2 + 2 * ((1 - f0) / 2) ** 2), abs=1e-12)

    def test_match_fractions(self):
        # the overwhelming majority of cells must reproduce
        for tid, minimum in (("I", 0.85), ("II", 0.95), ("III", 0.9), ("IV", 0.75),
                             ("V", 0.65)):
            cells = reproduce_table(tid)
            frac = sum(c.status == "match" for c in cells) / len(cells)
            assert frac >= minimum, (tid, frac)


@pytest.mark.parametrize("record, fields", [
    (lambda: predict(RepeaterConfig(d=3, L0_km=5, span_km=20, alpha=1.2, scheme="usd",
                                    purification_rounds=1)).rounds[1],
     ("round", "weights", "success_probability", "effective_probability")),
    (lambda: predict(RepeaterConfig(d=3, L0_km=5, span_km=20, alpha=1.2, scheme="usd")),
     ("rounds", "z", "rate_hz", "final_fidelity_bound")),
    (lambda: detection.homodyne_report(3, 1.0, ChannelParams(5.0), 0.2),
     ("window_probs", "window_fidelities", "p_succ", "f_av", "offdiag_bound")),
    (lambda: reproduce_table("I")[0],
     ("table", "section", "span_km", "round_label", "printed", "computed", "status")),
])
def test_result_records_are_read_only(record, fields):
    rec = record()
    assert tuple(getattr(rec, f) for f in fields) == tuple(rec)  # every field, by name
    for attr in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(rec, attr, None)
