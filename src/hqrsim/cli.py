"""Command-line front end.

One analysis per invocation; results are emitted as CSV (default) or JSON
with all floating-point values at six significant digits.  Output is
buffered and written atomically (temp file + rename for --out, single
print for stdout), so error paths never leave partial documents behind.

Each subcommand is one `COMMANDS` entry: its help, its arguments and a
function (params, settings) -> (columns, rows).  Those functions look the
library up through this module's globals at call time, so whatever rebinds
a name here (a tracer, a monkeypatch) sees every call.  The library checks
every input; the parser keeps only the checks whose messages name a flag.

The argparse tree is built once per process (`_build_parser` is cached) and
reused by every `parse`/`main` call, so it must hold no per-call state: no
mutable defaults, and a failed parse or `--help` leaves it as it was.

Exit status: 0 success, 1 numerical failure, 2 malformed input.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field, fields
from functools import cache
from typing import Callable, NamedTuple

import numpy as np

from .coherent import RING_MAX_D, WEIGHT_MODELS, norm_constants
from .detection import HOMODYNE_DIMS, homodyne_report, usd_bound
from .rates import (FIBER_SPEED_KM_S, SCHEMES, RepeaterConfig, monte_carlo_waiting, predict,
                    purification_chain, reproduce_table, z_attempts)
from .states import (L_ATT_KM, SCAN_MAX_D, ChannelParams, PhaseMixtureWeights, WEIGHT_SUM_TOL,
                     loss_weights, negativity_scan)

__all__ = ["Settings", "RunSpec", "load_config", "parse", "run", "main"]

# largest --alpha-range COUNT: a d=8 scan of 10^5 points takes about 6 s and
# peaks at about 56 MB on a 2-vCPU machine, 10^6 points about 63 s and 277 MB
ALPHA_RANGE_MAX_COUNT = 10 ** 5


@dataclass
class Settings:
    l_att_km: float = L_ATT_KM
    fiber_speed_km_s: float = FIBER_SPEED_KM_S
    quadrature_tol: float = 1e-10


CONFIG_KEYS = tuple(f.name for f in fields(Settings))


@dataclass
class RunSpec:
    command: str
    params: dict = field(default_factory=dict)
    out: str | None = None
    format: str = "csv"
    settings: Settings = field(default_factory=Settings)


class UsageError(ValueError):
    """Malformed input; maps to exit status 2."""


def load_config(path: str) -> dict:
    """Line-oriented `key = value` overrides; '#' starts a comment."""
    overrides = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in CONFIG_KEYS:
                raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                overrides[key] = float(value)
            except ValueError:
                raise UsageError(f"{path}:{lineno}: invalid number {value!r}") from None
            # NaN fails both comparisons, so it is rejected with inf
            if key == "quadrature_tol" and not 0.0 < overrides[key] < np.inf:
                raise UsageError(f"{path}:{lineno}: quadrature_tol must be finite and > 0")
    return overrides


def _alpha_range(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected START:STOP:COUNT")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError("expected numeric START:STOP:COUNT") from None
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise argparse.ArgumentTypeError("START and STOP must be finite")
    if not 2 <= count <= ALPHA_RANGE_MAX_COUNT:
        raise argparse.ArgumentTypeError(f"COUNT must lie in [2, {ALPHA_RANGE_MAX_COUNT}]")
    return np.linspace(start, stop, count)


def _numbers(text: str):
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma-separated numbers") from None


def _weights(text: str):
    w = _numbers(text)
    if any(x < 0 for x in w) or abs(sum(w) - 1.0) > WEIGHT_SUM_TOL:
        raise argparse.ArgumentTypeError("must be nonnegative and sum to 1")
    return w


def _int_at_least(low: int):
    def parse_int(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse_int.__name__ = "int"  # argparse names it in "invalid int value: 'x'"
    return parse_int


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one-line diagnostic, exit status 2
        raise UsageError(message)


def _add_global_flags(p, suppress_defaults: bool):
    # the subcommand copies must not re-apply defaults over values already
    # parsed by the main parser
    kw = {"default": argparse.SUPPRESS} if suppress_defaults else {}
    p.add_argument("--format", choices=("csv", "json"),
                   **(kw or {"default": "csv"}))
    p.add_argument("--out", metavar="PATH", **(kw or {"default": None}))
    p.add_argument("--config", metavar="PATH", **(kw or {"default": None}))


def _make_subparser(**kwargs) -> "_Parser":
    p = _Parser(**kwargs)
    _add_global_flags(p, suppress_defaults=True)
    return p


def _constants(p, s):
    vals = norm_constants(p["d"], p["alpha"], p["model"])
    return (["m", "norm_constant", "weight_fraction"],
            [[m, float(v), float(v) / p["d"] ** 2] for m, v in enumerate(vals)])


def _entangle(p, s):
    d = p["d"]
    w = loss_weights(d, p["alpha"], ChannelParams(p["L0"], s.l_att_km), p["model"])
    # component m pairs the Bell state with phase index (d - m) mod d
    return (["component", "weight", "bell_phase_index"],
            [[m, float(x), (d - m) % d] for m, x in enumerate(w.p)])


def _negativity_scan(p, s):
    pts = negativity_scan(p["d"], p["L0"], p["alpha_range"], model=p["model"],
                          L_att_km=s.l_att_km)
    return ["alpha", "negativity"], [list(pt) for pt in pts]


def _homodyne(p, s):
    rep = homodyne_report(p["d"], p["alpha"], ChannelParams(p["L0"], s.l_att_km),
                          p["delta_frac"], quadrature_tol=s.quadrature_tol)
    rows = [["p_w%d" % i, v] for i, v in enumerate(rep.window_probs)]
    rows += [["F_w%d" % i, v] for i, v in enumerate(rep.window_fidelities)]
    rows += [["P_succ", rep.p_succ], ["F_av", rep.f_av], ["offdiag_bound", rep.offdiag_bound]]
    return ["quantity", "value"], rows


def _usd(p, s):
    ch = ChannelParams(p["L0"], s.l_att_km)
    # usd_bound is min_m N_{v_m} / d; both rows print that one value
    prob = usd_bound(p["d"], p["alpha"], ch.gamma)
    return (["quantity", "value"],
            [["gamma", ch.gamma], ["usd_probability", prob], ["min_norm_constant_over_d", prob]])


def _purify(p, s):
    w = PhaseMixtureWeights(len(p["weights"]), p["weights"])
    cols = ["round", "success_probability", "leading_weight"] + [f"w{j}" for j in range(w.d)]
    return cols, [[st.round, st.success_probability, st.fidelity] + st.weights.p.tolist()
                  for st in purification_chain(1.0, w, p["rounds"])]


def _rate(p, s):
    cfg = RepeaterConfig(d=p["d"], L0_km=p["L0"], span_km=p["span"], alpha=p["alpha"],
                         scheme=p["scheme"], delta_frac=p["delta_frac"],
                         purification_rounds=p["rounds"], L_att_km=s.l_att_km,
                         fiber_speed_km_s=s.fiber_speed_km_s)
    res = predict(cfg)
    rows = [["segments", 2 ** cfg.n]]
    for st in res.rounds:
        rows += [[f"fidelity_round_{st.round}", st.fidelity],
                 [f"P_{st.round}", st.success_probability],
                 [f"Q_{st.round}", st.effective_probability]]
    rows += [["z_attempts", res.z], ["rate_hz", res.rate_hz],
             ["final_fidelity_bound", res.final_fidelity_bound]]
    return ["quantity", "value"], rows


def _mc(p, s):
    mean, stderr = monte_carlo_waiting(p["n"], p["p"], tuple(p["round_p"]), trials=p["trials"],
                                       seed=p["seed"])
    rows = [["mean_attempts", mean], ["standard_error", stderr], ["trials", p["trials"]]]
    if not p["round_p"]:
        rows.append(["analytic_mean", z_attempts(p["n"], p["p"])])
    return ["quantity", "value"], rows


def _table(p, s):
    rows = [[c.section, "" if c.span_km is None else c.span_km, c.round_label,
             c.printed, c.computed, c.status] for c in reproduce_table(p["id"])]
    return ["section", "span_km", "rounds", "printed", "computed", "status"], rows


class Command(NamedTuple):
    help: str
    args: tuple  # (flag, add_argument keywords) per argument, in help order
    run: Callable  # (params, settings) -> (columns, rows)


_D, _D_SCAN, _D_HOMODYNE, _D_RATE = (
    ("--d", {"type": _int_at_least(2), "required": True, "help": f"qudit dimension {dims}"})
    for dims in (f"2 to {RING_MAX_D}", f"2 to {SCAN_MAX_D}", f"in {HOMODYNE_DIMS}",
                 f"2 to {RING_MAX_D}, or in {HOMODYNE_DIMS} with --scheme homodyne"))
_L0 = ("--L0", {"type": float, "required": True})
_ALPHA = ("--alpha", {"type": float, "required": True})
_ALPHA_RANGE = ("--alpha-range", {"type": _alpha_range, "required": True, "metavar": "A:B:N"})
_DELTA_FRAC = ("--delta-frac", {"type": float, "default": 0.2})


def _model(default):
    return ("--model", {"choices": WEIGHT_MODELS, "default": default})


COMMANDS = {
    "constants": Command("orthonormal-basis normalization constants",
                         (_D, _ALPHA, _model("gram")), _constants),
    "entangle": Command("matter-matter mixture components",
                        (_D, _L0, _ALPHA, _model("closed-form")), _entangle),
    "negativity-scan": Command("entanglement negativity over an amplitude grid",
                               (_D_SCAN, _L0, _ALPHA_RANGE, _model("gram")), _negativity_scan),
    "homodyne": Command("windowed homodyne probabilities and fidelities",
                        (_D_HOMODYNE, _L0, _ALPHA, _DELTA_FRAC), _homodyne),
    "usd": Command("unambiguous-discrimination success bound", (_D, _L0, _ALPHA), _usd),
    "purify": Command("iterate two-copy purification on a weight vector",
                      (("--weights", {"type": _weights, "required": True, "metavar": "W0,W1,..."}),
                       ("--rounds", {"type": _int_at_least(0), "default": 1})), _purify),
    "rate": Command("repeater rate and fidelity prediction",
                    (_D_RATE, ("--scheme", {"choices": SCHEMES, "required": True}),
                     _L0, _ALPHA, ("--span", {"type": float, "required": True}),
                     ("--rounds", {"type": int, "default": 0}), _DELTA_FRAC), _rate),
    "mc": Command("Monte Carlo waiting-time validation",
                  (("--n", {"type": int, "required": True, "help": "log2 of the segment count"}),
                   ("--p", {"type": float, "required": True}),
                   ("--round-p", {"type": _numbers, "default": (), "metavar": "P1,P2,..."}),
                   ("--trials", {"type": _int_at_least(2), "required": True}),
                   ("--seed", {"type": int, "required": True})), _mc),
    "table": Command("benchmark-table reproduction with per-cell status",
                     (("--id", {"choices": ("I", "II", "III", "IV", "V"), "required": True}),),
                     _table),
}


@cache
def _build_parser() -> _Parser:
    # global flags are accepted both before and after the subcommand
    parser = _Parser(prog="hqrsim", description="Qudit hybrid-repeater analysis")
    _add_global_flags(parser, suppress_defaults=False)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_make_subparser)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag, kwargs in command.args:
            p.add_argument(flag, **kwargs)
    return parser


def parse(argv) -> RunSpec:
    parser = _build_parser()
    ns = parser.parse_args(list(argv))
    settings = Settings()
    if ns.config is not None:
        if not os.path.exists(ns.config):
            raise UsageError(f"--config: no such file: {ns.config}")
        for key, value in load_config(ns.config).items():
            setattr(settings, key, value)
    params = {k: v for k, v in vars(ns).items()
              if k not in ("command", "format", "out", "config")}
    return RunSpec(command=ns.command, params=params, out=ns.out,
                   format=ns.format, settings=settings)


def _six_digits(value) -> str | None:
    """A float's six-significant-digit text (CSV prints it, JSON rounds to it); else None."""
    if isinstance(value, float) or isinstance(value, np.floating):
        return f"{float(value):.6g}"
    return None


def _emit(columns, rows, fmt: str) -> str:
    if fmt == "json":
        doc = [{c: v if (text := _six_digits(v)) is None else float(text)
                for c, v in zip(columns, row)} for row in rows]
        return json.dumps(doc, indent=2) + "\n"
    buf = io.StringIO()
    buf.write(",".join(columns) + "\n")
    for row in rows:
        buf.write(",".join(str(v) if (text := _six_digits(v)) is None else text
                           for v in row) + "\n")
    return buf.getvalue()


def run(spec: RunSpec) -> tuple[int, str]:
    """Execute a parsed run; returns (exit status, document text)."""
    try:
        columns, rows = COMMANDS[spec.command].run(spec.params, spec.settings)
    except ValueError as exc:
        return 2, f"hqrsim: invalid input: {exc}\n"
    except ArithmeticError as exc:
        return 1, f"hqrsim: numerical failure: {exc}\n"
    return 0, _emit(columns, rows, spec.format)


def _write_atomic(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".hqrsim-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        spec = parse(argv)
        status, text = run(spec)
    except UsageError as exc:
        print(f"hqrsim: error: {exc}", file=sys.stderr)
        return 2
    if status != 0:
        sys.stderr.write(text)
        return status
    if spec.out:
        _write_atomic(spec.out, text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
