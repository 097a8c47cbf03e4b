"""Seeded argv blocks for the three benchmark workloads.

A workload is an endless sequence of blocks. Block `b` of workload `w` at
seed `s` is a fixed list of operations drawn from `random.Random("w/s/b")`,
so the same seed always gives the same argv lists. Every block of a
workload has the same shape (subcommands, dimensions, grid sizes, rounds,
trials); the seed only moves continuous parameters inside narrow bands.
That keeps the cost of a block, and therefore every timing, nearly
independent of the seed, and it keeps every `*.calls` count identical
across seeds. No two blocks repeat an argv, so a cache keyed on the
inputs cannot turn later blocks into free repeats.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

TABLE_IDS = ("I", "II", "III", "IV", "V")


@dataclass(frozen=True)
class Op:
    """One CLI invocation plus what the output check needs to know."""

    kind: str  # the subcommand
    argv: tuple[str, ...]
    fmt: str = "csv"
    out: str | None = None  # --out path relative to the checkout root
    params: dict = field(default_factory=dict)


def _num(x: float) -> str:
    return f"{x:.4f}"


def _op(kind, args, params, fmt="csv", out=None) -> Op:
    argv = [kind] + [str(a) for a in args]
    if fmt != "csv":
        argv = ["--format", fmt] + argv
    if out is not None:
        argv = ["--out", out] + argv
    return Op(kind, tuple(argv), fmt, out, params)


# Each helper returns a (subcommand, args, params) spec; `_op` turns it into an Op.

def _constants(rng, d, alpha):
    return "constants", ["--d", d, "--alpha", _num(rng.uniform(*alpha))], {"d": d}


def _entangle(rng, alpha):
    return ("entangle", ["--d", 3, "--L0", _num(rng.uniform(5.0, 40.0)),
                         "--alpha", _num(rng.uniform(*alpha))], {"d": 3})


def _usd(rng):
    return ("usd", ["--d", 3, "--L0", _num(rng.uniform(5.0, 40.0)),
                    "--alpha", _num(rng.uniform(0.3, 1.2))], {"d": 3})


def _negativity(rng, d, model, points):
    L0 = rng.uniform(1.0, 25.0)
    a0, a1 = _num(rng.uniform(0.0, 0.5)), _num(rng.uniform(2.0, 3.0))
    return ("negativity-scan",
            ["--d", d, "--L0", _num(L0), "--alpha-range", f"{a0}:{a1}:{points}",
             "--model", model],
            {"d": d, "grid": (float(a0), float(a1), points)})


def _homodyne(rng, d):
    return ("homodyne",
            ["--d", d, "--L0", _num(rng.uniform(2.0, 15.0)),
             "--alpha", _num(rng.uniform(0.8, 1.4)),
             "--delta-frac", _num(rng.uniform(0.1, 0.4))],
            {"d": d})


def _rate(rng, scheme, L0, alpha, k, rounds, delta_frac=0.2):
    L0 = float(_num(rng.uniform(*L0)))
    return ("rate",
            ["--scheme", scheme, "--d", 3, "--L0", _num(L0),
             "--alpha", _num(rng.uniform(*alpha)), "--span", _num(L0 * 2 ** k),
             "--rounds", rounds, "--delta-frac", _num(delta_frac)],
            {"d": 3, "segments": 2 ** k, "rounds": rounds})


def _mc(rng, n, p, rounds, trials):
    args = ["--n", n, "--p", _num(rng.uniform(*p)), "--trials", trials,
            "--seed", rng.randrange(10 ** 6)]
    if rounds:
        args += ["--round-p", ",".join(_num(rng.uniform(0.75, 0.9)) for _ in range(rounds))]
    return "mc", args, {"rounds": rounds, "trials": trials}


def _purify(rng):
    w0 = float(_num(rng.uniform(0.6, 0.8)))
    w1 = float(_num((1.0 - w0) * rng.uniform(0.3, 0.7)))
    weights = ",".join(_num(w) for w in (w0, w1, 1.0 - w0 - w1))
    return "purify", ["--weights", weights, "--rounds", 3], {"d": 3, "rounds": 3}


def _table(table_id):
    return "table", ["--id", table_id], {"id": table_id}


def scan_block(rng: random.Random, b: int) -> list[Op]:
    """State-construction and detection sweeps (coherent, states, numerics, detection).

    Fifteen operations. The slowest two are the d=8 scans, so with six or
    more blocks the tail percentile lands inside that group; the median
    (8th of 15) lands inside the d=3 scan group.
    """
    specs = [_negativity(rng, d, model, 100)
             for model in ("gram", "closed-form") for d in (3, 4, 6, 8)]
    specs += [_homodyne(rng, d) for d in (2, 3, 3, 4)]
    specs += [_constants(rng, 5, (0.3, 1.5)), _entangle(rng, (0.3, 1.2)), _usd(rng)]
    return [_op(*s) for s in specs]


def waiting_block(rng: random.Random, b: int) -> list[Op]:
    """Waiting time, purification and table reproduction (rates, logic, tables).

    Seventeen operations. The usd rates reach generation probabilities from
    about 0.6 down to about 1e-5, so `z_attempts` does its 1/p work; the
    homodyne rates skip the off-diagonal bound, so the detection quadrature
    is never called here.
    """
    specs = [
        _rate(rng, "usd", (77.0, 79.0), (0.295, 0.305), 7, 0),  # P0 ~ 1e-5
        _rate(rng, "usd", (49.0, 51.0), (0.39, 0.41), 5, 1),    # Q ~ 1e-4
        _rate(rng, "usd", (19.0, 21.0), (0.48, 0.52), 4, 2),    # Table V regime
        _rate(rng, "usd", (4.5, 5.5), (1.15, 1.25), 6, 3),      # Table I regime
    ]
    specs += [_rate(rng, "homodyne", (4.0, 12.0), (0.9, 1.1), k, rounds,
                    delta_frac=rng.uniform(0.05, 0.3))
              for rounds, k in enumerate((3, 5, 7, 2))]
    specs += [_mc(rng, 2, (0.2, 0.4), 0, 100_000),
              _mc(rng, 2, (0.3, 0.5), 1, 100_000),
              _mc(rng, 1, (0.3, 0.5), 2, 100_000),
              _mc(rng, 1, (0.3, 0.5), 3, 100_000)]
    specs += [_table(t) for t in TABLE_IDS]
    return [_op(*s) for s in specs]


def cli_mix_block(rng: random.Random, b: int) -> list[Op]:
    """All nine subcommands at README-example scale, one fresh process each.

    Compute stays at or below about 15 ms per operation, so interpreter start
    and import dominate. Output alternates csv/json and stdout/--out over the
    whole run. Block b reproduces table TABLE_IDS[b % 5], so block 0 is
    always Table I.
    """
    specs = [
        _constants(rng, 3, (0.5, 1.5)),
        _entangle(rng, (0.3, 1.0)),
        _negativity(rng, 3, "gram", 10),
        _homodyne(rng, 2),
        _usd(rng),
        _purify(rng),
        _rate(rng, "usd", (4.5, 5.5), (1.15, 1.25), 3, 2),
        _mc(rng, 1, (0.5, 0.7), 0, 10_000),
        _table(TABLE_IDS[b % len(TABLE_IDS)]),
    ]
    ops = []
    for i, spec in enumerate(specs):
        n = b * len(specs) + i
        fmt = "json" if n % 2 else "csv"
        out = f"perfbench/out/tmp/op{n}.{fmt}" if (n // 2) % 2 else None
        ops.append(_op(*spec, fmt=fmt, out=out))
    return ops


WORKLOADS = {
    "cli-mix": cli_mix_block,
    "scan": scan_block,
    "waiting": waiting_block,
}


def block(workload: str, seed: int, b: int) -> list[Op]:
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}/{b}"), b)
