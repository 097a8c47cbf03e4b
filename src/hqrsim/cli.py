"""Command-line front end.

One analysis per invocation; results are emitted as CSV (default) or JSON
with all floating-point values at six significant digits.  Output is
buffered and written atomically (temp file + rename for --out, single
print for stdout), so error paths never leave partial documents behind.

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
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .coherent import RingSpec, norm_constants, norm_constants_closed_form
from .detection import homodyne_report, usd_bound
from .logic import purify_step
from .rates import (RepeaterConfig, monte_carlo_waiting, predict,
                    reproduce_table, z_attempts)
from .states import (ChannelParams, PhaseMixtureWeights, WEIGHT_MODELS, WEIGHT_SUM_TOL,
                     matter_matter_components, negativity_scan)

__all__ = ["Settings", "RunSpec", "load_config", "parse", "run", "main"]

CONFIG_KEYS = ("l_att_km", "fiber_speed_km_s", "positivity_tol", "quadrature_tol")


@dataclass
class Settings:
    l_att_km: float = 22.0
    fiber_speed_km_s: float = 2.0e5
    positivity_tol: float = 1e-9
    quadrature_tol: float = 1e-10


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
            if key == "positivity_tol" and not 0.0 <= overrides[key] < np.inf:
                raise UsageError(f"{path}:{lineno}: positivity_tol must be finite and >= 0")
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
    if count < 2:
        raise argparse.ArgumentTypeError("COUNT must be >= 2")
    return np.linspace(start, stop, count)


def _weights_list(text: str):
    try:
        vals = [float(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma-separated numbers") from None
    return vals


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


@cache
def _build_parser() -> _Parser:
    # global flags are accepted both before and after the subcommand
    parser = _Parser(prog="hqrsim", description="Qudit hybrid-repeater analysis")
    _add_global_flags(parser, suppress_defaults=False)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_make_subparser)

    def add_d(p):
        p.add_argument("--d", type=int, required=True, help="qudit dimension (>= 2)")

    p = sub.add_parser("constants", help="orthonormal-basis normalization constants")
    add_d(p)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--model", choices=WEIGHT_MODELS, default="gram")

    p = sub.add_parser("entangle", help="matter-matter mixture components")
    add_d(p)
    p.add_argument("--L0", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--model", choices=WEIGHT_MODELS, default="closed-form")

    p = sub.add_parser("negativity-scan", help="entanglement negativity over an amplitude grid")
    add_d(p)
    p.add_argument("--L0", type=float, required=True)
    p.add_argument("--alpha-range", type=_alpha_range, required=True, metavar="A:B:N")
    p.add_argument("--model", choices=WEIGHT_MODELS, default="gram")

    p = sub.add_parser("homodyne", help="windowed homodyne probabilities and fidelities")
    add_d(p)
    p.add_argument("--L0", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--delta-frac", type=float, default=0.2)

    p = sub.add_parser("usd", help="unambiguous-discrimination success bound")
    add_d(p)
    p.add_argument("--L0", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)

    p = sub.add_parser("purify", help="iterate two-copy purification on a weight vector")
    p.add_argument("--weights", type=_weights_list, required=True, metavar="W0,W1,...")
    p.add_argument("--rounds", type=int, default=1)

    p = sub.add_parser("rate", help="repeater rate and fidelity prediction")
    add_d(p)
    p.add_argument("--scheme", choices=("usd", "homodyne"), required=True)
    p.add_argument("--L0", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--span", type=float, required=True)
    p.add_argument("--rounds", type=int, default=0)
    p.add_argument("--delta-frac", type=float, default=0.2)

    p = sub.add_parser("mc", help="Monte Carlo waiting-time validation")
    p.add_argument("--n", type=int, required=True, help="log2 of the segment count")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--round-p", type=_weights_list, default=(), metavar="P1,P2,...")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--shards", type=int, default=1)

    p = sub.add_parser("table", help="benchmark-table reproduction with per-cell status")
    p.add_argument("--id", choices=("I", "II", "III", "IV", "V"), required=True)
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
    _validate(ns.command, params)
    return RunSpec(command=ns.command, params=params, out=ns.out,
                   format=ns.format, settings=settings)


def _validate(command: str, params: dict):
    d = params.get("d")
    if d is not None and d < 2:
        raise UsageError(f"--d: dimension must be >= 2, got {d}")
    if params.get("L0") is not None and params["L0"] < 0:
        raise UsageError("--L0: length must be nonnegative")
    if params.get("alpha") is not None and params["alpha"] < 0:
        raise UsageError("--alpha: amplitude must be nonnegative")
    if command in ("homodyne", "rate") and not 0 < params["delta_frac"] <= 1:
        raise UsageError("--delta-frac: must lie in (0, 1]")
    if command == "purify":
        w = params["weights"]
        if any(x < 0 for x in w) or abs(sum(w) - 1.0) > WEIGHT_SUM_TOL:
            raise UsageError("--weights: must be nonnegative and sum to 1")
        if params["rounds"] < 0:
            raise UsageError("--rounds: must be >= 0")
    if command == "mc":
        if params["n"] < 0:
            raise UsageError("--n: must be >= 0")
        if not 0 < params["p"] <= 1:
            raise UsageError("--p: must lie in (0, 1]")
        if params["trials"] < 2:
            raise UsageError("--trials: must be >= 2")
        if params["shards"] <= 0:
            raise UsageError("--shards: must be positive")
        for p in params["round_p"]:
            if not 0 < p <= 1:
                raise UsageError("--round-p: probabilities must lie in (0, 1]")


def _fmt(value) -> str:
    if isinstance(value, float) or isinstance(value, np.floating):
        return f"{float(value):.6g}"
    return str(value)


def _emit(columns, rows, fmt: str) -> str:
    if fmt == "json":
        doc = [{c: (float(f"{v:.6g}") if isinstance(v, (float, np.floating)) else v)
                for c, v in zip(columns, row)} for row in rows]
        return json.dumps(doc, indent=2) + "\n"
    buf = io.StringIO()
    buf.write(",".join(columns) + "\n")
    for row in rows:
        buf.write(",".join(_fmt(v) for v in row) + "\n")
    return buf.getvalue()


def _execute(spec: RunSpec) -> tuple[list, list]:
    p = spec.params
    s = spec.settings
    if spec.command == "constants":
        ring = RingSpec(p["d"], p["alpha"])
        fn = norm_constants if p["model"] == "gram" else norm_constants_closed_form
        vals = fn(ring)
        return (["m", "norm_constant", "weight_fraction"],
                [[m, float(vals[m]), float(vals[m]) / p["d"] ** 2] for m in range(p["d"])])
    if spec.command == "entangle":
        ch = ChannelParams(p["L0"], s.l_att_km)
        mix = matter_matter_components(p["d"], p["alpha"], ch, model=p["model"])
        return (["component", "weight", "bell_phase_index"],
                [list(row) for row in mix.pairing_table()])
    if spec.command == "negativity-scan":
        pts = negativity_scan(p["d"], p["L0"], p["alpha_range"], model=p["model"],
                              L_att_km=s.l_att_km, positivity_tol=s.positivity_tol)
        return ["alpha", "negativity"], [list(pt) for pt in pts]
    if spec.command == "homodyne":
        ch = ChannelParams(p["L0"], s.l_att_km)
        rep = homodyne_report(p["d"], p["alpha"], ch, p["delta_frac"],
                              quadrature_tol=s.quadrature_tol)
        rows = [["p_w%d" % i, v] for i, v in enumerate(rep.window_probs)]
        rows += [["F_w%d" % i, v] for i, v in enumerate(rep.window_fidelities)]
        rows += [["P_succ", rep.p_succ], ["F_av", rep.f_av],
                 ["offdiag_bound", rep.offdiag_bound]]
        return ["quantity", "value"], rows
    if spec.command == "usd":
        ch = ChannelParams(p["L0"], s.l_att_km)
        # usd_bound is min_m N_{v_m} / d; both rows print that one value
        prob = usd_bound(p["d"], p["alpha"], ch.gamma)
        return (["quantity", "value"],
                [["gamma", ch.gamma], ["usd_probability", prob],
                 ["min_norm_constant_over_d", prob]])
    if spec.command == "purify":
        w = PhaseMixtureWeights(len(p["weights"]), np.array(p["weights"]))
        cols = ["round", "success_probability", "leading_weight"] + \
               [f"w{j}" for j in range(w.d)]
        rows = [[0, 1.0, float(w.p[0])] + [float(x) for x in w.p]]
        for k in range(1, p["rounds"] + 1):
            succ, w = purify_step(w)
            rows.append([k, succ, float(w.p[0])] + [float(x) for x in w.p])
        return cols, rows
    if spec.command == "rate":
        cfg = RepeaterConfig(d=p["d"], L0_km=p["L0"], span_km=p["span"],
                             alpha=p["alpha"], scheme=p["scheme"],
                             delta_frac=p["delta_frac"],
                             purification_rounds=p["rounds"],
                             L_att_km=s.l_att_km,
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
    if spec.command == "mc":
        mean, stderr = monte_carlo_waiting(p["n"], p["p"], tuple(p["round_p"]),
                                           trials=p["trials"], seed=p["seed"],
                                           shards=p["shards"])
        rows = [["mean_attempts", mean], ["standard_error", stderr],
                ["trials", p["trials"]]]
        if not p["round_p"]:
            rows.append(["analytic_mean", z_attempts(p["n"], p["p"])])
        return ["quantity", "value"], rows
    if spec.command == "table":
        cells = reproduce_table(p["id"])
        rows = [[c.section, "" if c.span_km is None else c.span_km, c.round_label,
                 c.printed, c.computed, c.status] for c in cells]
        return ["section", "span_km", "rounds", "printed", "computed", "status"], rows
    raise UsageError(f"unknown command {spec.command!r}")  # pragma: no cover


def run(spec: RunSpec) -> tuple[int, str]:
    """Execute a parsed run; returns (exit status, document text)."""
    try:
        columns, rows = _execute(spec)
    except UsageError:
        raise
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
