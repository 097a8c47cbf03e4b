"""Command-line front end.

One analysis per invocation; results are emitted as CSV (default) or JSON
with all floating-point values at six significant digits.  Output is
buffered and written atomically (temp file + rename for --out, single
print for stdout), so error paths never leave partial documents behind.

Each subcommand is one `COMMANDS` entry: its help, its arguments and a
function params -> (columns, rows) of one mapping, the parsed arguments and
the `CONFIG_DEFAULTS` keys.  Both load the library as they run, so a fresh
process loads only what its subcommand uses, and whatever rebinds a library
name (a tracer, a monkeypatch) sees every call.  The library checks every
input; the parser keeps only the checks whose messages name a flag.

One parser per command: `parse` builds a tree of only the subcommand argv
names, or of all nine for help before the command and for every error text.
Each tree is built once per process (`_build_parser` is cached) and reused
by every `parse`/`main` call, so it must hold no per-call state: no
mutable defaults, and a failed parse or `--help` leaves it as it was.

Exit status: 0 success, 1 numerical failure, 2 malformed input (also a
--config file that cannot be read or an --out path that cannot be written).
"""

from __future__ import annotations

import argparse
import errno
import gc
import math
import os
import sys
import tempfile
from functools import cache
from typing import Callable, NamedTuple

import numpy as np

from .coherent import RING_MAX_D, WEIGHT_MODELS
from .states import FIBER_SPEED_KM_S, L_ATT_KM, SCAN_MAX_D, WEIGHT_SUM_TOL

__all__ = ["RunSpec", "load_config", "parse", "run", "main", "process_main"]

# largest --alpha-range COUNT: a d=8 scan of 10^5 points takes about 6 s and
# peaks at about 56 MB on a 2-vCPU machine, 10^6 points about 63 s and 277 MB
ALPHA_RANGE_MAX_COUNT = 10 ** 5


# the keys a --config file may set, at their library defaults; `run` lays the
# params over them, so a RunSpec without these keys runs at the defaults
CONFIG_DEFAULTS = {"l_att_km": L_ATT_KM, "fiber_speed_km_s": FIBER_SPEED_KM_S}


class RunSpec(NamedTuple):
    command: str
    params: dict  # arguments and --config overrides
    out: str | None = None
    format: str = "csv"


class UsageError(ValueError):
    """Malformed input; maps to exit status 2."""


def load_config(path: str) -> dict:
    """Line-oriented `key = value` overrides; '#' starts a comment."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else "not UTF-8 text"
        raise UsageError(f"--config: cannot read {path}: {reason}") from None
    overrides = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_DEFAULTS:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            overrides[key] = float(value)
        except ValueError:
            raise UsageError(f"{path}:{lineno}: invalid number {value!r}") from None
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
    if len(w) < 2:  # d >= 2, as every other subcommand requires
        raise argparse.ArgumentTypeError("expected at least two weights")
    if any(not x >= 0 for x in w) or abs(sum(w) - 1.0) > WEIGHT_SUM_TOL:
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


def _add_global_flags(p):
    # defaults come from `parse`, so no subparser overwrites a flag given before it
    p.add_argument("--format", choices=("csv", "json"), default=argparse.SUPPRESS)
    p.add_argument("--out", metavar="PATH", default=argparse.SUPPRESS)
    p.add_argument("--config", metavar="PATH", default=argparse.SUPPRESS)


def _constants(p):
    from .coherent import norm_constants, weights_from_norms
    d, vals = p["d"], norm_constants(p["d"], p["alpha"], p["model"])
    return (["m", "norm_constant", "weight_fraction"],
            list(zip(range(d), vals.tolist(), weights_from_norms(d, vals).tolist())))


def _entangle(p):
    from .states import ChannelParams, loss_weights
    d = p["d"]
    w = loss_weights(d, p["alpha"], ChannelParams(p["L0"], p["l_att_km"]), p["model"])
    # component m pairs the Bell state with phase index (d - m) mod d
    return (["component", "weight", "bell_phase_index"],
            [[m, float(x), (d - m) % d] for m, x in enumerate(w.p)])


def _negativity_scan(p):
    from .states import ChannelParams, negativity_scan
    return ["alpha", "negativity"], negativity_scan(
        p["d"], p["alpha_range"], ChannelParams(p["L0"], p["l_att_km"]), p["model"])


def _homodyne(p):
    from .detection import homodyne_report
    from .states import ChannelParams
    rep = homodyne_report(p["d"], p["alpha"], ChannelParams(p["L0"], p["l_att_km"]),
                          p["delta_frac"])
    rows = [["p_w%d" % i, v] for i, v in enumerate(rep.window_probs)]
    rows += [["F_w%d" % i, v] for i, v in enumerate(rep.window_fidelities)]
    rows += [["P_succ", rep.p_succ], ["F_av", rep.f_av], ["offdiag_bound", rep.offdiag_bound]]
    return ["quantity", "value"], rows


def _usd(p):
    from .detection import usd_bound
    from .states import ChannelParams
    ch = ChannelParams(p["L0"], p["l_att_km"])
    # usd_bound is min_m N_{v_m} / d; both rows print that one value
    prob = usd_bound(p["d"], p["alpha"], ch)
    return (["quantity", "value"],
            [["gamma", ch.gamma], ["usd_probability", prob], ["min_norm_constant_over_d", prob]])


def _purify(p):
    from .rates import purification_chain
    from .states import PhaseMixtureWeights
    w = PhaseMixtureWeights(len(p["weights"]), p["weights"])
    cols = ["round", "success_probability", "leading_weight"] + [f"w{j}" for j in range(w.d)]
    return cols, [[st.round, st.success_probability, st.fidelity] + st.weights.p.tolist()
                  for st in purification_chain(1.0, w, p["rounds"])]


def _rate(p):
    from .rates import RepeaterConfig, predict
    cfg = RepeaterConfig(d=p["d"], L0_km=p["L0"], span_km=p["span"], alpha=p["alpha"],
                         scheme=p["scheme"], delta_frac=p["delta_frac"], L_att_km=p["l_att_km"],
                         purification_rounds=p["rounds"], fiber_speed_km_s=p["fiber_speed_km_s"])
    res = predict(cfg)
    rows = [["segments", 2 ** cfg.n]]
    for st in res.rounds:
        rows += [[f"fidelity_round_{st.round}", st.fidelity],
                 [f"P_{st.round}", st.success_probability],
                 [f"Q_{st.round}", st.effective_probability]]
    rows += [["z_attempts", res.z], ["rate_hz", res.rate_hz],
             ["final_fidelity_bound", res.final_fidelity_bound]]
    return ["quantity", "value"], rows


def _mc(p):
    from .rates import monte_carlo_waiting, z_attempts
    mean, stderr = monte_carlo_waiting(p["n"], p["p"], tuple(p["round_p"]), trials=p["trials"],
                                       seed=p["seed"])
    rows = [["mean_attempts", mean], ["standard_error", stderr], ["trials", p["trials"]]]
    if not p["round_p"]:
        rows.append(["analytic_mean", z_attempts(p["n"], p["p"])])
    return ["quantity", "value"], rows


def _table(p):
    from .tables import reproduce_table
    rows = [[c.section, "" if c.span_km is None else c.span_km, c.round_label,
             c.printed, c.computed, c.status] for c in reproduce_table(p["id"])]
    return ["section", "span_km", "rounds", "printed", "computed", "status"], rows


class Command(NamedTuple):
    help: str
    args: Callable  # () -> (flag, add_argument keywords) per argument, in help order
    run: Callable  # params -> (columns, rows)


def _d(dims: str):
    return "--d", {"type": _int_at_least(2), "required": True, "help": f"qudit dimension {dims}"}


_D, _D_SCAN = _d(f"2 to {RING_MAX_D}"), _d(f"2 to {SCAN_MAX_D}")
_L0 = ("--L0", {"type": float, "required": True})
_ALPHA = ("--alpha", {"type": float, "required": True})
_ALPHA_RANGE = ("--alpha-range", {"type": _alpha_range, "required": True, "metavar": "A:B:N"})
_DELTA_FRAC = ("--delta-frac", {"type": float, "default": 0.2})


def _model(default):
    return ("--model", {"choices": WEIGHT_MODELS, "default": default})


def _lib(module: str, name: str):  # loaded on first use, as `__init__.__getattr__` does
    return getattr(__import__(f"{__package__}.{module}", fromlist=[name]), name)


COMMANDS = {
    "constants": Command("orthonormal-basis normalization constants",
                         lambda: (_D, _ALPHA, _model("gram")), _constants),
    "entangle": Command("matter-matter mixture components",
                        lambda: (_D, _L0, _ALPHA, _model("closed-form")), _entangle),
    "negativity-scan": Command("entanglement negativity over an amplitude grid", lambda: (
        _D_SCAN, _L0, _ALPHA_RANGE, _model("gram")), _negativity_scan),
    "homodyne": Command("windowed homodyne probabilities and fidelities", lambda: (
        _d(f"in {_lib('detection', 'HOMODYNE_DIMS')}"), _L0, _ALPHA, _DELTA_FRAC), _homodyne),
    "usd": Command("unambiguous-discrimination success bound", lambda: (_D, _L0, _ALPHA), _usd),
    "purify": Command("iterate two-copy purification on a weight vector", lambda: (
        ("--weights", {"type": _weights, "required": True, "metavar": "W0,W1,..."}),
        ("--rounds", {"type": _int_at_least(0), "default": 1})), _purify),
    "rate": Command("repeater rate and fidelity prediction", lambda: (
        _d(f"2 to {RING_MAX_D}, or in {_lib('detection', 'HOMODYNE_DIMS')} "
           "with --scheme homodyne"),
        ("--scheme", {"choices": _lib("rates", "SCHEMES"), "required": True}),
        _L0, _ALPHA, ("--span", {"type": float, "required": True}),
        ("--rounds", {"type": int, "default": 0}), _DELTA_FRAC), _rate),
    "mc": Command("Monte Carlo waiting-time validation", lambda: (
        ("--n", {"type": int, "required": True, "help": "log2 of the segment count"}),
        ("--p", {"type": float, "required": True}),
        ("--round-p", {"type": _numbers, "default": (), "metavar": "P1,P2,..."}),
        ("--trials", {"type": _int_at_least(2), "required": True}),
        ("--seed", {"type": int, "required": True})), _mc),
    "table": Command("benchmark-table reproduction with per-cell status", lambda: (
        ("--id", {"choices": ("I", "II", "III", "IV", "V"), "required": True}),), _table),
}


@cache
def _build_parser(names: tuple) -> _Parser:
    # global flags are accepted both before and after the subcommand
    parser = _Parser(prog="hqrsim", description="Qudit hybrid-repeater analysis")
    _add_global_flags(parser)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name in names:
        p = sub.add_parser(name, help=COMMANDS[name].help)
        _add_global_flags(p)
        for flag, kwargs in COMMANDS[name].args():
            p.add_argument(flag, **kwargs)
    return parser


def parse(argv) -> RunSpec:
    argv, i = list(argv), 0
    while i < len(argv) and argv[i].startswith("--") and not argv[i].startswith("--h"):
        i += 1 if "=" in argv[i] else 2  # a global flag, and its value unless joined by =
    named = (argv[i],) if i < len(argv) and argv[i] in COMMANDS else tuple(COMMANDS)
    try:  # the named command's tree; all nine for help before it or no command named
        params = vars(_build_parser(named).parse_args(argv))
    except UsageError:  # raised again in the full tree's words
        params = vars(_build_parser(tuple(COMMANDS)).parse_args(argv))
    if (config := params.pop("config", None)) is not None:
        params.update(load_config(config))
    return RunSpec(command=params.pop("command"), out=params.pop("out", None),
                   format=params.pop("format", "csv"), params=params)


def _six_digits(value) -> str | None:
    """A float's six-significant-digit text (CSV prints it, JSON rounds to it); else None."""
    return f"{float(value):.6g}" if isinstance(value, (float, np.floating)) else None


def _emit(columns, rows, fmt: str) -> str:
    if fmt == "json":
        import json  # only JSON output loads it
        doc = [{c: v if (text := _six_digits(v)) is None else float(text)
                for c, v in zip(columns, row)} for row in rows]
        return json.dumps(doc, indent=2) + "\n"
    cols = [map("{:.6g}".format, col) if (kinds := set(map(type, col))) == {float}
            else col if kinds == {str} else [_six_digits(v) or str(v) for v in col]
            for col in zip(*rows)]
    return "".join(",".join(row) + "\n" for row in (columns, *zip(*cols)))


def run(spec: RunSpec) -> tuple[int, str]:
    """Execute a parsed run; returns (exit status, document text)."""
    try:
        columns, rows = COMMANDS[spec.command].run({**CONFIG_DEFAULTS, **spec.params})
    except ValueError as exc:
        return 2, f"hqrsim: invalid input: {exc}\n"
    except ArithmeticError as exc:
        return 1, f"hqrsim: numerical failure: {exc}\n"
    return 0, _emit(columns, rows, spec.format)


def _write_atomic(path: str, text: str):
    if not path:  # else the temp file lands in dirname(abspath("")), the parent of the cwd
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
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
    try:
        spec = parse(sys.argv[1:] if argv is None else argv)
        status, text = run(spec)
    except UsageError as exc:
        print(f"hqrsim: error: {exc}", file=sys.stderr)
        return 2
    if status != 0:
        sys.stderr.write(text)
        return status
    if spec.out is not None:
        try:
            _write_atomic(spec.out, text)
        except OSError as exc:  # no such directory, a directory, no permission
            print(f"hqrsim: error: --out: cannot write {spec.out}: {exc.strerror}",
                  file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


def process_main() -> int:
    """`main()` as a whole process, then `gc.freeze()`: the exit-time collection skips the heap."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(process_main())
