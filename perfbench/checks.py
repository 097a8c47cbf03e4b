"""Output checks: every operation's document must parse and obey its invariants.

Floats in hqrsim output carry six significant digits, so a printed value
may sit up to half a unit in its sixth digit away from the exact one.
Sums and comparisons below allow for exactly that rounding on top of the
stated tolerance.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

ROUNDING = 5e-6  # relative rounding of a value printed with six significant digits
SUM_TOL = 1e-6
TABLE_STATUS = json.loads((Path(__file__).with_name("table_status.json")).read_text())
HOMODYNE_WINDOWS = {2: 2, 3: 3, 4: 2}


class CheckError(ValueError):
    """An operation's output broke the format or an invariant."""


def _require(cond: bool, message: str):
    if not cond:
        raise CheckError(message)


def parse(text: str, fmt: str) -> tuple[list[str], list[dict]]:
    """Columns and rows of one CSV or JSON document; CSV fields stay strings."""
    if fmt == "json":
        rows = json.loads(text)
        _require(isinstance(rows, list) and rows, "json document is not a non-empty list")
        return list(rows[0]), rows
    _require(text.endswith("\n") and "\r" not in text, "csv must end with LF and use LF only")
    reader = csv.DictReader(io.StringIO(text))
    rows = list(reader)
    _require(bool(rows), "csv document has no rows")
    return list(reader.fieldnames), rows


def _num(value) -> float:
    try:
        x = float(value)
    except (TypeError, ValueError):
        raise CheckError(f"not a number: {value!r}") from None
    _require(math.isfinite(x), f"non-finite value {value!r}")
    return x


def _prob(x: float, what: str):
    _require(0.0 <= x <= 1.0, f"{what}={x} outside [0, 1]")


def _weights(values, what: str):
    _require(all(w >= 0 for w in values), f"negative {what}")
    tol = SUM_TOL + ROUNDING * sum(values)
    _require(abs(sum(values) - 1.0) <= tol, f"{what} sum to {sum(values)}, not 1")


def _close(a: float, b: float, what: str, rel: float = 4 * ROUNDING):
    _require(abs(a - b) <= rel * max(abs(a), abs(b)) + 1e-12, f"{what}: {a} != {b}")


def _quantities(columns, rows) -> dict:
    _require(columns == ["quantity", "value"], f"unexpected columns {columns}")
    return {row["quantity"]: _num(row["value"]) for row in rows}


def _expect_keys(q: dict, keys):
    _require(list(q) == list(keys), f"quantities {list(q)}, expected {list(keys)}")


def check_constants(op, columns, rows):
    d = op.params["d"]
    _require(columns == ["m", "norm_constant", "weight_fraction"], f"columns {columns}")
    _require([int(_num(r["m"])) for r in rows] == list(range(d)), "m is not 0..d-1")
    fractions = [_num(r["weight_fraction"]) for r in rows]
    _weights(fractions, "weight fractions")
    for r, f in zip(rows, fractions):
        _close(_num(r["norm_constant"]) / d ** 2, f, "norm_constant / d^2 vs weight_fraction")


def check_entangle(op, columns, rows):
    d = op.params["d"]
    _require(columns == ["component", "weight", "bell_phase_index"], f"columns {columns}")
    _require([int(_num(r["component"])) for r in rows] == list(range(d)), "components")
    _weights([_num(r["weight"]) for r in rows], "component weights")
    _require([int(_num(r["bell_phase_index"])) for r in rows] == [(d - m) % d for m in range(d)],
             "bell phase index is not (d - m) mod d")


def check_negativity(op, columns, rows):
    d = op.params["d"]
    start, stop, count = op.params["grid"]
    _require(columns == ["alpha", "negativity"], f"columns {columns}")
    _require(len(rows) == count, f"{len(rows)} grid points, expected {count}")
    for i, r in enumerate(rows):
        alpha = start + (stop - start) * i / (count - 1)
        _require(abs(_num(r["alpha"]) - alpha) <= ROUNDING * abs(alpha) + 1e-12,
                 f"grid point {i} is {r['alpha']}, expected {alpha}")
        neg = _num(r["negativity"])
        _require(0.0 <= neg <= (d - 1) / 2 * (1 + ROUNDING), f"negativity {neg} outside [0, (d-1)/2]")


def check_homodyne(op, columns, rows):
    windows = HOMODYNE_WINDOWS[op.params["d"]]
    q = _quantities(columns, rows)
    _expect_keys(q, [f"p_w{i}" for i in range(windows)] + [f"F_w{i}" for i in range(windows)]
                 + ["P_succ", "F_av", "offdiag_bound"])
    probs = [q[f"p_w{i}"] for i in range(windows)]
    for name, value in q.items():
        _prob(value, name)
    _close(sum(probs), q["P_succ"], "P_succ vs sum of window probabilities")


def check_usd(op, columns, rows):
    q = _quantities(columns, rows)
    _expect_keys(q, ["gamma", "usd_probability", "min_norm_constant_over_d"])
    _require(0.0 < q["gamma"] <= 1.0, f"gamma {q['gamma']} outside (0, 1]")
    _prob(q["usd_probability"], "usd_probability")
    _close(q["usd_probability"], min(q["min_norm_constant_over_d"], 1.0),
           "usd_probability vs min norm constant / d")


def check_purify(op, columns, rows):
    d, rounds = op.params["d"], op.params["rounds"]
    weights = [f"w{j}" for j in range(d)]
    _require(columns == ["round", "success_probability", "leading_weight"] + weights,
             f"columns {columns}")
    _require([int(_num(r["round"])) for r in rows] == list(range(rounds + 1)), "rounds")
    leading = []
    for r in rows:
        _prob(_num(r["success_probability"]), "success_probability")
        w = [_num(r[c]) for c in weights]
        _weights(w, "purified weights")
        _require(_num(r["leading_weight"]) == w[0], "leading_weight != w0")
        leading.append(w[0])
    _require(leading == sorted(leading), "purification lowered the leading weight")


def check_rate(op, columns, rows):
    rounds = op.params["rounds"]
    q = _quantities(columns, rows)
    keys = ["segments"]
    for k in range(rounds + 1):
        keys += [f"fidelity_round_{k}", f"P_{k}", f"Q_{k}"]
    _expect_keys(q, keys + ["z_attempts", "rate_hz", "final_fidelity_bound"])
    _require(q["segments"] == op.params["segments"], f"segments {q['segments']}")
    for name in keys[1:] + ["final_fidelity_bound"]:
        _prob(q[name], name)
    _require(q["Q_0"] == q["P_0"], "Q_0 != P_0")
    _require(q["z_attempts"] >= 1.0, f"z_attempts {q['z_attempts']} < 1")
    _require(q["rate_hz"] > 0.0, f"rate_hz {q['rate_hz']} <= 0")


def check_mc(op, columns, rows):
    q = _quantities(columns, rows)
    keys = ["mean_attempts", "standard_error", "trials"]
    _expect_keys(q, keys + ([] if op.params["rounds"] else ["analytic_mean"]))
    _require(q["trials"] == op.params["trials"], f"trials {q['trials']}")
    _require(q["mean_attempts"] >= 1.0, f"mean_attempts {q['mean_attempts']} < 1")
    _require(q["standard_error"] >= 0.0, "negative standard error")
    if not op.params["rounds"]:
        gap = abs(q["mean_attempts"] - q["analytic_mean"])
        allowed = 5 * q["standard_error"] + ROUNDING * (q["mean_attempts"] + q["analytic_mean"])
        _require(gap <= allowed, f"MC mean {q['mean_attempts']} is more than 5 standard "
                                 f"errors from analytic_mean {q['analytic_mean']}")


def table_cells(columns, rows) -> list[list[str]]:
    """(section, span_km, rounds, status) per cell, in output order."""
    _require(columns == ["section", "span_km", "rounds", "printed", "computed", "status"],
             f"columns {columns}")
    cells = []
    for r in rows:
        _num(r["printed"]), _num(r["computed"])
        span = r["span_km"]
        span = "" if span == "" else str(int(_num(span)))
        cells.append([r["section"], span, r["rounds"], r["status"]])
    return cells


def check_table(op, columns, rows):
    cells = table_cells(columns, rows)
    frozen = TABLE_STATUS[op.params["id"]]
    _require(len(cells) == len(frozen), f"{len(cells)} cells, expected {len(frozen)}")
    for cell, want in zip(cells, frozen):
        _require(cell == want, f"table {op.params['id']} cell {cell} differs from frozen {want}")


CHECKS = {
    "constants": check_constants,
    "entangle": check_entangle,
    "negativity-scan": check_negativity,
    "homodyne": check_homodyne,
    "usd": check_usd,
    "purify": check_purify,
    "rate": check_rate,
    "mc": check_mc,
    "table": check_table,
}


def check(op, text: str):
    """Raise CheckError unless `text` is a valid output of `op`."""
    try:
        columns, rows = parse(text, op.fmt)
    except (json.JSONDecodeError, csv.Error) as exc:
        raise CheckError(f"unparsable {op.fmt}: {exc}") from None
    CHECKS[op.kind](op, columns, rows)
