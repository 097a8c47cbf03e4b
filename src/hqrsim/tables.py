"""Bundled benchmark tables and the cell-comparison machinery.

Five rate/fidelity tables for the d=3 repeater ship with the package as
frozen reference data; `reproduce_table` recomputes every cell with the
`rates` model and grades it against these numbers.

Statuses:

  match       computed value agrees within the table tolerance plus the
              print-resolution allowance (one unit in the last printed
              digit: printed cells are rounded, sometimes truncated).
  known-typo  catalogued internal inconsistency of the benchmark data
              (e.g. Table V's no-purification fidelity column duplicates
              Table IV's homodyne column), never matched.
  unresolved  systematic discrepancy without an identified cause.  The
              three-round rate column of Table I sits at exactly half the
              pipeline value, and Table V's 40 km rates correspond to an
              elementary time L0/c instead of the 2 L0/c used everywhere
              else; both are reported, not matched.
"""

from __future__ import annotations

from dataclasses import replace
from typing import NamedTuple

import numpy as np

from .detection import window_stats
from .rates import RepeaterConfig, initial_segment_state, purification_chain, span_model
from .states import ChannelParams

__all__ = [
    "TABLES",
    "TABLE_SETTINGS",
    "KNOWN_TYPOS",
    "UNRESOLVED",
    "CellComparison",
    "print_resolution",
    "grade_cell",
    "reproduce_table",
]

ROUNDS = ("no", "one", "two", "three")
TABLE_DELTA_FRAC = 0.001  # delta / delta_max of every table; only homodyne ones read it

# Each table: caption metadata, header rows (per purification round), and
# the rate/fidelity grids keyed by total span in km.
TABLES = {
    "I": {
        "scheme": "usd", "L0_km": 5.0, "alpha": 1.2, "rounds": 4,
        "initial_fidelity": (0.75, 0.94393, 0.997854, 0.999996),
        "effective_probability": (0.64, 0.302641, 0.19154, 0.1318),
        "rate_hz": {
            10: (10175, 4290, 2647, 900),
            20: (7936, 3185, 1942, 656),
            40: (6366, 2488, 1506, 507),
            80: (5285, 2024, 1220, 409),
            160: (4501, 1701, 1021, 342),
            320: (3914, 1464, 877, 294),
            640: (3461, 1284, 768, 257),
        },
        "fidelity": {
            10: (0.56, 0.891, 0.9957, 0.99999265),
            20: (0.315, 0.793, 0.9914, 0.999998531),
            40: (0.09, 0.63, 0.983, 0.99997061),
            80: (0.0, 0.397, 0.966, 0.99994123),
            160: (0.0, 0.158, 0.934, 0.99988246),
            320: (0.0, 0.02, 0.872, 0.99976494),
            640: (0.0, 0.0, 0.761, 0.99952994),
        },
    },
    "II": {
        # Caption says alpha = 1.2, but every printed cell reproduces at
        # alpha = 1.1 (initial fidelity 0.652 and probability 0.414 match
        # to all printed digits); reproduction therefore runs at 1.1.
        "scheme": "usd", "L0_km": 10.0, "alpha": 1.1, "rounds": 4,
        "initial_fidelity": (0.652, 0.87, 0.987, 0.999),
        "effective_probability": (0.414, 0.147, 0.078, 0.05),
        "rate_hz": {
            20: (3020, 1010, 524, 343),
            40: (2271, 738, 380, 248),
            80: (1788, 570, 293, 191),
            160: (1463, 461, 236, 156),
            320: (1234, 385, 197, 128),
            640: (1065, 331, 169, 110),
            1280: (936, 289, 147, 96),
        },
        "fidelity": {
            20: (0.420, 0.76, 0.974, 0.999),
            40: (0.18, 0.57, 0.95, 0.999),
            80: (0.03, 0.33, 0.9, 0.999),
            160: (0.001, 0.1, 0.814, 0.998),
            320: (0.0, 0.01, 0.66, 0.996),
            640: (0.0, 0.0, 0.436, 0.992),
            1280: (0.0, 0.0, 0.19, 0.984),
        },
    },
    "III": {
        "scheme": "homodyne", "L0_km": 5.0, "alpha": None, "rounds": 4,
        "initial_fidelity": (0.73, 0.93, 0.997, 0.999997),
        "effective_probability": (0.38, 0.15, 0.09, 0.0619534),
        "rate_hz": {
            10: (5496, 2056, 1219, 835),
            20: (4117, 1502, 885, 605),
            40: (3233, 1161, 682, 465),
            80: (2641, 939, 550, 375),
            160: (2225, 785, 459, 313),
            320: (1919, 674, 394, 267),
            640: (1686, 589, 344, 234),
        },
        "fidelity": {
            10: (0.53, 0.86, 0.995, 0.999994),
            20: (0.28, 0.75, 0.990, 0.999987),
            40: (0.08, 0.56, 0.980, 0.999975),
            80: (0.01, 0.31, 0.961, 0.99995),
            160: (0.00, 0.10, 0.923, 0.9999),
            320: (0.00, 0.01, 0.852, 0.9998),
            640: (0.00, 0.00, 0.726, 0.9996),
        },
    },
    "IV": {
        "scheme": "homodyne", "L0_km": 10.0, "alpha": None, "rounds": 4,
        "initial_fidelity": (0.6, 0.81, 0.974, 0.9996),
        "effective_probability": (0.39, 0.12, 0.057, 0.037),
        "rate_hz": {
            20: (2828, 817, 384, 246),
            40: (2121, 595, 278, 178),
            80: (1667, 460, 214, 137),
            160: (1362, 371, 172, 110),
            320: (1148, 310, 144, 92),
            640: (990, 266, 123, 79),
            1280: (870, 233, 107, 69),
        },
        "fidelity": {
            20: (0.360, 0.656, 0.949, 0.999),
            40: (0.130, 0.430, 0.900, 0.999),
            80: (0.017, 0.185, 0.810, 0.997),
            160: (0.000, 0.034, 0.656, 0.994),
            320: (0.000, 0.001, 0.430, 0.989),
            640: (0.0, 0.0, 0.184, 0.978),
            1280: (0.0, 0.0, 0.03, 0.957),
        },
    },
    "V": {
        "scheme": "usd", "L0_km": 20.0, "alpha": 0.5, "rounds": 3,
        "initial_fidelity": (0.861808, 0.986275, 0.999876),
        "effective_probability": (0.0137597, 0.0069238, 0.0044958),
        "rate_hz": {
            40: (92, 46, 30),
            80: (33, 17, 11),
            160: (26, 13, 9),
            320: (21, 11, 7),
            640: (17, 9, 6),
            1280: (15, 8, 5),
        },
        "fidelity": {
            20: (0.360, 0.656, 0.949),
            40: (0.130, 0.973, 0.9997),
            80: (0.017, 0.946, 0.9995),
            160: (0.000, 0.895, 0.9990),
            320: (0.09, 0.802, 0.9980),
            640: (0.0, 0.0, 0.9960),
            1280: (0.0, 0.0, 0.9921),
        },
    },
}

# Per-table relative tolerance for grading "match" (on top of the
# print-resolution allowance).  Tables III/IV rest on the effective-state
# model with an amplitude only specified as "about 1", so they get slack;
# their residual drift (a handful of cells a few percent outside the
# envelope) traces to that underspecification and to chains the benchmark
# evidently ran from rounded two-digit intermediates, and is graded
# unresolved rather than papered over.
TABLE_SETTINGS = {
    "I": {"rtol": 0.01},
    "II": {"rtol": 0.01},
    "III": {"rtol": 0.05},
    "IV": {"rtol": 0.05},
    "V": {"rtol": 0.05},
}

# Catalogued inconsistencies, never compared numerically.
KNOWN_TYPOS = {
    # Twenty-km three-round fidelity has one digit too many nines; the
    # bound F3^4 gives 0.99998531.
    ("I", "fidelity", 20, "three"),
    # Table V's no-purification fidelity column and its whole 20 km row
    # duplicate Table IV's homodyne values; one-round cells at 640 and
    # 1280 km print 0 where the bound is far from zero.
    ("V", "fidelity", 20, "no"), ("V", "fidelity", 20, "one"), ("V", "fidelity", 20, "two"),
    ("V", "fidelity", 40, "no"), ("V", "fidelity", 80, "no"), ("V", "fidelity", 160, "no"),
    ("V", "fidelity", 320, "no"), ("V", "fidelity", 640, "no"), ("V", "fidelity", 1280, "no"),
    ("V", "fidelity", 640, "one"), ("V", "fidelity", 1280, "one"),
}

# Systematic discrepancies without an identified cause.
UNRESOLVED = (
    {("I", "rate_hz", span, "three") for span in TABLES["I"]["rate_hz"]}
    | {("V", "rate_hz", 40, r) for r in ("no", "one", "two")}
)


class CellComparison(NamedTuple):
    table: str
    section: str  # initial_fidelity | effective_probability | rate_hz | fidelity
    span_km: float | None
    round_label: str
    printed: float
    computed: float
    status: str


def print_resolution(printed: float) -> float:
    """One unit in the last digit of `repr(printed)` (integers: 1).

    A full unit rather than half: several benchmark cells are truncated
    instead of rounded (0.0994 prints as 0.09), so the printed text only
    pins the value to within one last-digit step.  The repr has lost the
    printed trailing zeros: 0.430 gets the 0.01 of "0.43", and one grade
    rests on that (README, "Known benchmark inconsistencies").
    """
    text = repr(float(printed))
    decimals = len(text.split(".")[1]) if "." in text else 0
    if float(printed).is_integer() and abs(printed) >= 1:
        decimals = 0
    return 10.0 ** (-decimals)


def grade_cell(table: str, section: str, span, round_label: str,
               printed: float, computed: float) -> str:
    key = (table, section, span, round_label)
    if key in KNOWN_TYPOS:
        return "known-typo"
    if key in UNRESOLVED:
        return "unresolved"
    tol = TABLE_SETTINGS[table]["rtol"] * abs(printed) + print_resolution(printed)
    return "match" if abs(computed - printed) <= tol else "unresolved"


def _homodyne_table_alpha(L0_km: float, target_f0: float) -> float:
    """The first alpha of 41 in [0.9, 1.1] whose effective-state fidelity F_av
    at TABLE_DELTA_FRAC is nearest the printed initial fidelity.

    The printed homodyne operating points correspond to the narrow-window
    limit (they are reproduced at delta_frac -> 0, not at 0.2).
    """
    alphas = np.linspace(0.9, 1.1, 41)
    f_av = [stats[-1] for stats in window_stats(3, alphas, ChannelParams(L0_km), TABLE_DELTA_FRAC)]
    return min(zip(f_av, alphas.tolist()), key=lambda fa: abs(fa[0] - target_f0))[1]


def reproduce_table(table_id: str) -> list[CellComparison]:
    """Recompute one benchmark table cell by cell and grade the agreement."""
    if table_id not in TABLES:
        raise ValueError(f"unknown table {table_id!r}; choose from {sorted(TABLES)}")
    spec = TABLES[table_id]
    L0 = spec["L0_km"]
    alpha = (spec["alpha"] if spec["scheme"] == "usd"
             else _homodyne_table_alpha(L0, spec["initial_fidelity"][0]))
    config = RepeaterConfig(d=3, L0_km=L0, span_km=L0, alpha=alpha, scheme=spec["scheme"],
                            delta_frac=TABLE_DELTA_FRAC)
    chain = purification_chain(*initial_segment_state(config), spec["rounds"] - 1)
    # (Z, rate, bound) per round, once per span of either section
    spans = {span: span_model(chain, replace(config, span_km=span))
             for span in spec["rate_hz"].keys() | spec["fidelity"].keys()}

    # (section, span, printed row, computed row); a row has one value per round
    sections = [("initial_fidelity", None, spec["initial_fidelity"],
                 [st.fidelity for st in chain]),
                ("effective_probability", None, spec["effective_probability"],
                 [st.effective_probability for st in chain])]
    sections += [(section, span, row, [cell[column] for cell in spans[span]])
                 for column, section in ((1, "rate_hz"), (2, "fidelity"))
                 for span, row in spec[section].items()]
    return [CellComparison(table_id, section, span, label, printed, computed,
                           grade_cell(table_id, section, span, label, printed, computed))
            for section, span, row, values in sections
            for label, printed, computed in zip(ROUNDS, row, values)]
