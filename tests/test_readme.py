"""The limits the README quotes, checked against the module constants that enforce them."""

import math
from pathlib import Path

import pytest

from hqrsim import cli, coherent, rates, states

README = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())


def _power(base: int, value: int) -> str:
    exponent = round(math.log(value, base))
    assert base ** exponent == value
    return f"{base}^{exponent}"


# (constant, the README phrase that quotes it, formed from the constant's own value)
QUOTES = [
    ("MC_CHUNK", f"`MC_CHUNK` is {_power(2, rates.MC_CHUNK)}"),
    ("MC_CHUNK", f"chunks of `max(1, {_power(2, rates.MC_CHUNK)} // w)`"),
    ("MC_MAX_WAITS", f"`MC_MAX_WAITS = {_power(2, rates.MC_MAX_WAITS)}`"),
    ("MC_MAX_TOTAL_WAITS", f"`MC_MAX_TOTAL_WAITS = {_power(2, rates.MC_MAX_TOTAL_WAITS)}`"),
    ("MC_MIN_P0", f"`p0 < {rates.MC_MIN_P0:g}` (`MC_MIN_P0`)"),
    ("RING_MAX_D", f"{coherent.RING_MAX_D} (`coherent.RING_MAX_D`"),
    ("SCAN_MAX_D", f"`--d` up to {states.SCAN_MAX_D} (`states.SCAN_MAX_D`"),
    ("ALPHA_RANGE_MAX_COUNT",
     f"2 to {_power(10, cli.ALPHA_RANGE_MAX_COUNT)} points (`ALPHA_RANGE_MAX_COUNT`"),
    ("MAX_PURIFICATION_ROUNDS", f"at most {rates.MAX_PURIFICATION_ROUNDS} purification rounds "
                                "(`rates.MAX_PURIFICATION_ROUNDS`"),
    ("AMPLITUDE_MAX", f"`[0, {coherent.AMPLITUDE_MAX:.6g}]` (`coherent.AMPLITUDE_MAX`"
     .replace("e+", "e")),
]


@pytest.mark.parametrize("name, phrase", QUOTES, ids=[f"{n}-{i}" for i, (n, _) in
                                                      enumerate(QUOTES)])
def test_readme_quotes_the_constant(name, phrase):
    assert phrase in README, f"README no longer quotes {name} as {phrase!r}"

