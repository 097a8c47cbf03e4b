"""The benchmark's tracer (`perfbench/tracer.py`) still fits the package.

The tracer wraps every function in the `__all__` of the eight hqrsim
modules, rebinds each module global bound to one of them and patches
`numerics.DensityMatrix.__init__`.  The `scan` workload reads the spans of
`states.negativity_scan`, `coherent.norm_constants` and
`detection.homodyne_report` under traced `cli.main` calls, which only exist
while the CLI reaches the library, and the library reaches `norm_constants`,
through module globals at call time.  Nothing else in the repository runs
perfbench automatically.
"""

import pathlib

import pytest

from hqrsim import cli
from test_cli_golden import CASES, cells, golden_path, same_cell

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    t = Tracer()
    try:
        t.install()
        yield t
    finally:
        t.uninstall()


@pytest.mark.parametrize("case, span", [("negativity_scan", "states.negativity_scan"),
                                        ("homodyne", "detection.homodyne_report")])
def test_traced_cli_matches_golden_and_counts_library_span(tracer, capsys, case, span):
    assert cli.main(CASES[case].split()) == 0
    got = cells(case, capsys.readouterr().out)
    want = cells(case, golden_path(case).read_text(encoding="utf-8"))
    assert [len(r) for r in got] == [len(r) for r in want]
    assert all(same_cell(a, b) for ra, rb in zip(got, want) for a, b in zip(ra, rb))
    counted = {name for _, name in tracer.take_stats()}
    assert {"cli.main", span} <= counted


@pytest.mark.parametrize("case", ["negativity_scan", "constants"])
def test_traced_cli_counts_norm_constants_span(tracer, capsys, case):
    # the scan reaches norm_constants from states and through basis_amplitudes
    assert cli.main(CASES[case].split()) == 0
    capsys.readouterr()
    assert "coherent.norm_constants" in {name for _, name in tracer.take_stats()}
