"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here, not tuned: table probabilities carry
the stated absolute/relative bounds, rate cells carry their stated
percentage plus the print-quantization allowance of the benchmark data
(integer-rounded cells only pin the true value to +-0.5).

Criterion 4's success-probability clause is known-red: with the acceptance
windows defined in `detection.window_geometry` and the full ring-state sum
in the window probabilities, P_succ at delta = 0.2 delta_max stays in
[0.48, 0.51] for every amplitude in [0.9, 1.1]; the (F_av, P_succ) pair
(0.7, 0.4) quoted for that operating point is instead reproduced in the
narrow-window limit (delta -> 0 gives F_av = 0.727, P_succ = 0.375 at 5 km
and 0.60 / 0.39 at 10 km).  The criterion is asserted as stated and fails
on that clause; see the repository notes for the full analysis.
"""

import time

import numpy as np
import pytest
from scipy.integrate import quad

from hqrsim.coherent import norm_constants
from hqrsim.detection import quadrature_wavefunction, usd_bound, window_stats
from hqrsim.logic import purify_step
from hqrsim.rates import monte_carlo_waiting, reproduce_table, z_attempts
from hqrsim.states import ChannelParams, PhaseMixtureWeights, negativity_scan
from oracles import (bell_state, cshift_decomposition_check, gates, overlap,
                     phase_bell_state, purify_circuit_sim, swap_phase_mixture)


def report(criterion, name):
    def deco(fn):
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {criterion} ({name}): FAIL")
                raise
            print(f"ACCEPTANCE {criterion} ({name}): PASS")
        wrapper.__name__ = fn.__name__
        return wrapper
    return deco


def table_cells(table_id):
    return {(c.section, c.span_km, c.round_label): c for c in reproduce_table(table_id)}


@report(1, "Table I reproduction")
def test_criterion_01_table_i():
    start = time.perf_counter()
    cells = table_cells("I")

    assert cells[("initial_fidelity", None, "no")].computed == pytest.approx(0.75, abs=1e-3)
    printed_q = (0.6427, 0.302641, 0.19154, 0.1318)
    for label, expect in zip(("no", "one", "two", "three"), printed_q):
        assert cells[("effective_probability", None, label)].computed == \
            pytest.approx(expect, abs=1e-3)
    printed_f = (0.94393, 0.997854, 0.999996)
    for label, expect in zip(("one", "two", "three"), printed_f):
        assert cells[("initial_fidelity", None, label)].computed == \
            pytest.approx(expect, abs=1e-4)

    # rates for purification rounds 0..2, all spans, within 1 percent
    from hqrsim.tables import TABLES
    for span, row in TABLES["I"]["rate_hz"].items():
        for i, label in enumerate(("no", "one", "two")):
            cell = cells[("rate_hz", span, label)]
            assert abs(cell.computed - row[i]) <= 0.01 * row[i], (span, label, cell)

    # excluded as documented inconsistencies: flagged, not matched
    for span in TABLES["I"]["rate_hz"]:
        assert cells[("rate_hz", span, "three")].status == "unresolved"
    assert cells[("fidelity", 20, "three")].status == "known-typo"
    assert time.perf_counter() - start < 1.0


@report(2, "Table V reproduction")
def test_criterion_02_table_v():
    start = time.perf_counter()
    cells = table_cells("V")

    f0 = cells[("initial_fidelity", None, "no")].computed
    assert abs(f0 - 0.861808) / 0.861808 < 1e-4
    printed_q = (0.0137597, 0.0069238, 0.0044958)
    for label, expect in zip(("no", "one", "two"), printed_q):
        got = cells[("effective_probability", None, label)].computed
        assert abs(got - expect) / expect < 1e-4, (label, got)

    # rates for every span from 80 km out, within 5 percent plus the
    # +-0.5 quantization of the integer-printed cells
    from hqrsim.tables import TABLES
    for span, row in TABLES["V"]["rate_hz"].items():
        if span < 80:
            continue
        for i, label in enumerate(("no", "one", "two")):
            cell = cells[("rate_hz", span, label)]
            assert abs(cell.computed - row[i]) <= 0.05 * row[i] + 0.5, (span, label, cell)

    # flagged, not matched
    for label in ("no", "one", "two"):
        assert cells[("rate_hz", 40, label)].status == "unresolved"
    for span in (20, 40, 80, 160, 320, 640, 1280):
        assert cells[("fidelity", span, "no")].status == "known-typo"
    assert time.perf_counter() - start < 1.0


@report(3, "Table II reproduction at alpha 1.1")
def test_criterion_03_table_ii():
    cells = table_cells("II")
    assert cells[("initial_fidelity", None, "no")].computed == pytest.approx(0.652, abs=1e-3)
    printed_q = (0.414, 0.147, 0.078, 0.051)
    for label, expect in zip(("no", "one", "two", "three"), printed_q):
        assert cells[("effective_probability", None, label)].computed == \
            pytest.approx(expect, abs=2e-3)
    cell = cells[("rate_hz", 20, "three")]
    assert abs(cell.computed - 343) <= 0.01 * 343


@report(4, "homodyne operating point")
def test_criterion_04_homodyne_operating_point():
    # clause 1+2: an amplitude in [0.9, 1.1] with F_av in [0.65, 0.75] AND
    # P_succ in [0.35, 0.45] at delta = 0.2 delta_max, 5 km segments
    ch = ChannelParams(5.0)
    found_f, found_joint = False, False
    for alpha in np.linspace(0.9, 1.1, 21):
        [(*_, p_succ, f_av)] = window_stats(3, float(alpha), ch, 0.2)
        if 0.65 <= f_av <= 0.75:
            found_f = True
            if 0.35 <= p_succ <= 0.45:
                found_joint = True

    # clause 3: Table III's one-round fidelity from the effective-state
    # recursion, within 0.01 of the printed 0.93
    cells = table_cells("III")
    f1 = cells[("initial_fidelity", None, "one")].computed
    assert abs(f1 - 0.93) <= 0.01

    assert found_f, "no amplitude reaches the stated F_av band"
    assert found_joint, (
        "no amplitude in [0.9, 1.1] at delta = 0.2 delta_max has "
        "P_succ in [0.35, 0.45]; the window-sum success probability stays "
        "near 0.5 there (the quoted operating point matches the "
        "narrow-window limit instead)")


@report(5, "negativity scan")
def test_criterion_05_negativity():
    start = time.perf_counter()
    grid = np.linspace(0.0, 2.5, 100)
    maxima = []
    for L0 in (2.0, 5.0, 8.0, 10.0):
        pts = negativity_scan(3, L0, grid)
        by_alpha = dict(pts)
        assert by_alpha[0.0] <= 1e-9
        maxima.append(max(n for _, n in pts))
    assert all(m > 0.5 for m in maxima), maxima
    assert all(a > b for a, b in zip(maxima, maxima[1:])), maxima
    assert time.perf_counter() - start < 5.0


@report(6, "property suite")
def test_criterion_06_properties():
    # norm-constant sum rule
    for d in (2, 3, 4, 5, 8):
        for alpha in np.linspace(0.0, 6.0, 20):
            n = norm_constants(d, float(alpha))
            assert abs(n.sum() - d ** 2) < 1e-10

    # discrimination bound equals min norm constant over d (independent paths)
    rng = np.random.default_rng(60)
    for d in (2, 3, 4, 5):
        for _ in range(10):
            alpha = float(rng.uniform(0.05, 3.0))
            gamma = float(rng.uniform(0.1, 1.0))
            lhs = usd_bound(d, alpha, gamma)
            rhs = float(np.min(norm_constants(d, np.sqrt(gamma) * alpha)) / d)
            assert abs(lhs - rhs) < 1e-12

    # purification law against the circuit oracle
    for d in (2, 3):
        for _ in range(50):
            p = rng.random(d)
            p /= p.sum()
            w = PhaseMixtureWeights(d, p)
            s1, w1 = purify_step(w)
            s2, w2 = purify_circuit_sim(d, w)
            assert abs(s1 - s2) < 1e-10
            assert np.max(np.abs(w1.p - w2.p)) < 1e-10

    # swapping convolution against the brute-force Bell projection, all outcomes
    d = 3
    a = rng.random(d); a /= a.sum()
    b = rng.random(d); b /= b.sum()
    conv = swap_phase_mixture(PhaseMixtureWeights(d, a), PhaseMixtureWeights(d, b))
    comps = [phase_bell_state(d, j) for j in range(d)]
    rho = np.kron(sum(a[j] * np.outer(comps[j], comps[j].conj()) for j in range(d)),
                  sum(b[j] * np.outer(comps[j], comps[j].conj()) for j in range(d)))
    t = rho.reshape([d] * 8)
    g = gates(d)
    for kappa in range(d):
        for lam in range(d):
            phi = bell_state(d, kappa, lam).reshape(d, d)
            m = np.einsum("bc,abcdefgh,fg->adeh", phi.conj(), t, phi).reshape(d * d, d * d)
            corr = np.kron(np.eye(d), np.linalg.matrix_power(g["Z"], kappa)
                           @ np.linalg.matrix_power(g["X"], lam))
            fixed = corr @ (m / np.trace(m).real) @ corr.conj().T
            got = np.array([np.vdot(c, fixed @ c).real for c in comps])
            assert np.max(np.abs(got - conv.p)) < 1e-10

    # the power bound never exceeds the exact convolution fidelity
    w = PhaseMixtureWeights(3, [0.8, 0.15, 0.05])
    for n in (1, 2, 3):
        chained = w
        for _ in range(2 ** n - 1):
            chained = swap_phase_mixture(chained, w)
        assert w.p[0] ** (2 ** n) <= chained.p[0] + 1e-12

    # gate decomposition residual
    for d in range(2, 8):
        ok, residual = cshift_decomposition_check(d)
        assert ok and residual <= 1e-12


@report(7, "Monte Carlo vs analytic waiting times")
def test_criterion_07_monte_carlo():
    start = time.perf_counter()
    for n in (0, 1, 2, 3):
        assert z_attempts(n, 1.0) == 1.0
        for p in (0.05, 0.3, 0.6427, 1.0):
            mean, se = monte_carlo_waiting(n, p, trials=10 ** 6, seed=1000 + n)
            z = z_attempts(n, p)
            if p == 1.0:
                assert mean == 1.0 and z == 1.0
            else:
                assert abs(mean - z) <= 3 * se, (n, p, mean, z, se)
    assert time.perf_counter() - start < 60.0


@report(8, "wavefunction phase convention")
def test_criterion_08_wavefunction_convention():
    rng = np.random.default_rng(88)
    checked = 0
    while checked < 20:
        b1 = complex(*rng.uniform(-3, 3, 2))
        b2 = complex(*rng.uniform(-3, 3, 2))
        if abs(b1) > 3 or abs(b2) > 3:
            continue
        # p of beta is read as x of -1j beta
        re = quad(lambda p: (quadrature_wavefunction(-1j * b1, p)
                             * np.conj(quadrature_wavefunction(-1j * b2, p))).real,
                  -np.inf, np.inf, epsabs=1e-12, limit=200)[0]
        im = quad(lambda p: (quadrature_wavefunction(-1j * b1, p)
                             * np.conj(quadrature_wavefunction(-1j * b2, p))).imag,
                  -np.inf, np.inf, epsabs=1e-12, limit=200)[0]
        assert abs(complex(re, im) - overlap(b2, b1)) < 1e-8
        checked += 1
