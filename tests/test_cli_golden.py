"""Golden CLI outputs: the README command lines, tables I-V and high-d
negativity scans, run in-process and as fresh `python -m hqrsim` processes
(which import the library as the subcommand runs).

Each case's stdout must match its file under `tests/golden/` cell by cell.
Cells compare as strings, except that two numbers both below 1e-12 in
magnitude count as equal (cancellation noise of an exact zero, e.g. the
negativity at alpha = 0).  The files were written from a known-good tree
with `python tests/test_cli_golden.py`; regenerate them only for an
intended output change.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from hqrsim.cli import main

GOLDEN = pathlib.Path(__file__).with_name("golden")
SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")
NOISE = 1e-12

CASES = {
    "constants": "constants --d 3 --alpha 0.8",
    "constants_closed_form": "constants --d 3 --alpha 0.8 --model closed-form",
    "constants_d2_closed_form": "constants --d 2 --alpha 0.6 --model closed-form",
    "constants_d5": "constants --d 5 --alpha 0.9",
    "entangle": "entangle --d 3 --L0 20 --alpha 0.5",
    "entangle_d4_gram": "entangle --d 4 --L0 10 --alpha 0.9 --model gram",
    "entangle_d2": "entangle --d 2 --L0 10 --alpha 0.7",
    "negativity_scan": "negativity-scan --d 3 --L0 5 --alpha-range 0:2.5:100",
    "negativity_scan_d8_gram":
        "negativity-scan --d 8 --L0 10 --alpha-range 0.1:2.9:100 --model gram",
    "negativity_scan_d8_closed_form":
        "negativity-scan --d 8 --L0 10 --alpha-range 0.1:2.9:100 --model closed-form",
    "negativity_scan_d4_closed_form":
        "negativity-scan --d 4 --L0 5 --alpha-range 0:2.5:50 --model closed-form",
    "negativity_scan_d2_gram":
        "negativity-scan --d 2 --L0 5 --alpha-range 0:2.5:100 --model gram",
    # 100 points at d = 16 fill four scan chunks of 32 points
    "negativity_scan_d16_gram":
        "negativity-scan --d 16 --L0 10 --alpha-range 0.1:2.9:100 --model gram",
    "homodyne": "homodyne --d 3 --L0 5 --alpha 1.0 --delta-frac 0.2",
    "homodyne_d2": "homodyne --d 2 --L0 5 --alpha 1.0 --delta-frac 0.2",
    "homodyne_d4": "homodyne --d 4 --L0 10 --alpha 1.3 --delta-frac 0.3",
    "usd": "usd --d 3 --L0 20 --alpha 0.5",
    "purify": "purify --weights 0.7494,0.0942,0.1564 --rounds 3",
    "rate": "rate --scheme usd --d 3 --L0 5 --alpha 1.2 --rounds 2 --span 10",
    "rate_homodyne": "rate --scheme homodyne --d 3 --L0 10 --alpha 1.0 --span 80 --rounds 3",
    "rate_n5_q2e-4": "rate --scheme usd --d 3 --L0 50 --alpha 0.4 --span 1600 --rounds 1",
    "rate_n1_q5e-4": "rate --scheme usd --d 3 --L0 40 --alpha 0.4 --span 80 --rounds 1",
    "rate_n2_q6e-3": "rate --scheme usd --d 3 --L0 30 --alpha 0.5 --span 120 --rounds 0",
    "rate_homodyne_n3": "rate --scheme homodyne --d 3 --L0 10 --alpha 1.0 --span 80 --rounds 2",
    "mc": "mc --n 1 --p 0.6427 --trials 1000000 --seed 7",
    "mc_rounds3": "mc --n 1 --p 0.4 --trials 100000 --seed 3 --round-p 0.8,0.85,0.8",
    "mc_rounds2_exponential": "mc --n 2 --p 0.25 --trials 20000 --seed 5 --round-p 0.3,0.9",
    "table_I": "table --id I",
    "table_II": "table --id II",
    "table_III": "table --id III",
    "table_IV": "table --id IV",
    "table_V": "table --id V",
    "usd_json": "--format json usd --d 3 --L0 20 --alpha 0.5",
    "purify_json": "--format json purify --weights 0.55,0.2,0.15,0.1 --rounds 4",
}


def golden_path(name: str) -> pathlib.Path:
    return GOLDEN / (name + (".json" if name.endswith("_json") else ".csv"))


def cells(name: str, text: str) -> list:
    if name.endswith("_json"):
        return [[k, v] for row in json.loads(text) for k, v in row.items()]
    return [line.split(",") for line in text.splitlines()]


def same_cell(a, b) -> bool:
    if a == b:
        return True
    try:
        return abs(float(a)) < NOISE and abs(float(b)) < NOISE
    except (TypeError, ValueError):
        return False


def run_python(*args, cwd=None):
    """A fresh interpreter that imports hqrsim from this checkout's src/."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          cwd=cwd)


def run_case(argv: str, capsys) -> str:
    assert main(argv.split()) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name, capsys):
    assert_matches_golden(name, run_case(CASES[name], capsys))


@pytest.mark.parametrize("name", sorted(CASES))
def test_fresh_process_matches_golden(name):
    # a fresh process takes code paths the in-process runs do not: the imports
    # its subcommand makes as it runs
    cp = run_python("-W", "error::RuntimeWarning", "-m", "hqrsim", *CASES[name].split())
    assert (cp.returncode, cp.stderr) == (0, "")
    assert_matches_golden(name, cp.stdout)


def assert_matches_golden(name: str, text: str):
    got = cells(name, text)
    want = cells(name, golden_path(name).read_text(encoding="utf-8"))
    assert [len(r) for r in got] == [len(r) for r in want]
    diffs = [(i, a, b) for i, (ra, rb) in enumerate(zip(got, want))
             for a, b in zip(ra, rb) if not same_cell(a, b)]
    assert not diffs, f"{name}: (row, got, golden) {diffs[:5]}"


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case, argv in CASES.items():
        assert main([*argv.split(), "--out", str(golden_path(case))]) == 0, case
