"""Golden CLI outputs: the README command lines, tables I-V and high-d
negativity scans, run in-process.

Each case's stdout must match its file under `tests/golden/` cell by cell.
Cells compare as strings, except that two numbers both below 1e-12 in
magnitude count as equal (cancellation noise of an exact zero, e.g. the
negativity at alpha = 0).  The files were written from a known-good tree
with `python tests/test_cli_golden.py`; regenerate them only for an
intended output change.
"""

import json
import pathlib

import pytest

from hqrsim.cli import main

GOLDEN = pathlib.Path(__file__).with_name("golden")
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
    "homodyne": "homodyne --d 3 --L0 5 --alpha 1.0 --delta-frac 0.2",
    "homodyne_d2": "homodyne --d 2 --L0 5 --alpha 1.0 --delta-frac 0.2",
    "homodyne_d4": "homodyne --d 4 --L0 10 --alpha 1.3 --delta-frac 0.3",
    "usd": "usd --d 3 --L0 20 --alpha 0.5",
    "purify": "purify --weights 0.7494,0.0942,0.1564 --rounds 3",
    "rate": "rate --scheme usd --d 3 --L0 5 --alpha 1.2 --rounds 2 --span 10",
    "rate_homodyne": "rate --scheme homodyne --d 3 --L0 10 --alpha 1.0 --span 80 --rounds 3",
    "mc": "mc --n 1 --p 0.6427 --trials 1000000 --seed 7",
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


def run_case(argv: str, capsys) -> str:
    assert main(argv.split()) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name, capsys):
    got = cells(name, run_case(CASES[name], capsys))
    want = cells(name, golden_path(name).read_text(encoding="utf-8"))
    assert [len(r) for r in got] == [len(r) for r in want]
    diffs = [(i, a, b) for i, (ra, rb) in enumerate(zip(got, want))
             for a, b in zip(ra, rb) if not same_cell(a, b)]
    assert not diffs, f"{name}: (row, got, golden) {diffs[:5]}"


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case, argv in CASES.items():
        assert main([*argv.split(), "--out", str(golden_path(case))]) == 0, case
