"""The benchmark's tracer (`perfbench/tracer.py`) still fits the package.

The tracer wraps every function in the `__all__` of the eight hqrsim
modules, rebinds each module global bound to one of them and patches
`numerics.DensityMatrix.__init__`.  The `scan` workload reads the spans of
`states.negativity_scan`, `coherent.norm_constants` and
`detection.homodyne_report` under traced `cli.main` calls, which only exist
while the CLI reaches the library, and the library reaches `norm_constants`,
through module globals at call time.  Nothing else in the repository runs
perfbench automatically.

Every other exported name has a caller in the package itself, so the
tracer's per-function counters count work the CLI and library do.
"""

import ast
import importlib
import math
import pathlib

import pytest

import hqrsim
from hqrsim import cli
from test_cli_golden import CASES, cells, golden_path, same_cell

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"

# only tests construct DensityMatrix; it stays exported because the tracer
# patches its __init__ (CLASS_INITS)
TRACER_ONLY = {("numerics", "DensityMatrix")}


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
                                        ("homodyne", "detection.homodyne_report"),
                                        ("table_I", "tables.reproduce_table")])
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


def test_exported_names_have_a_caller_in_the_package():
    # a name is used when some module other than __init__.py loads it, reads
    # it as an attribute or imports it; a name only tests use belongs in
    # tests/oracles.py
    src = pathlib.Path(hqrsim.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in src.glob("*.py") if path.name != "__init__.py"}
    used = set()
    for node in (n for tree in trees.values() for n in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    unused = {(module, name) for module in trees
              for name in getattr(importlib.import_module(f"hqrsim.{module}"), "__all__", ())
              if name not in used}
    assert unused == TRACER_ONLY


# defaulted parameters that no caller in the package sets: `main`'s argv is for
# tests and embedding (the process entry `process_main` passes none), and DensityMatrix
# has no caller at all (TRACER_ONLY)
UNSET_BY_DESIGN = {("cli", "main", "argv")} | {
    ("numerics", "DensityMatrix", name)
    for name in ("bipartition", "hermiticity_tol", "trace_tol", "positivity_tol")}


def test_defaulted_parameters_are_set_by_some_caller():
    # an option no caller in the package sets is an option nothing uses; a call
    # sets a parameter by keyword, by position or through *args / **kwargs
    src = pathlib.Path(hqrsim.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in src.glob("*.py")}
    calls = {}  # callee name -> (positional count, keyword names) per call
    for node in (n for tree in trees.values() for n in ast.walk(tree)):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            calls.setdefault(name, []).append(
                (math.inf if starred else len(node.args), {k.arg for k in node.keywords}))
    unset = set()
    for module, tree in trees.items():
        defs = [(node.name, node, 0) for node in tree.body
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
        defs += [(node.name, init, 1) for node in tree.body if isinstance(node, ast.ClassDef)
                 for init in node.body
                 if isinstance(init, ast.FunctionDef) and init.name == "__init__"]
        for name, fn, skip in defs:
            positional = fn.args.posonlyargs + fn.args.args
            defaulted = [(i - skip, a.arg) for i, a in
                         enumerate(positional[len(positional) - len(fn.args.defaults):],
                                   len(positional) - len(fn.args.defaults))]
            defaulted += [(math.inf, a.arg) for a, default in
                          zip(fn.args.kwonlyargs, fn.args.kw_defaults) if default is not None]
            for index, arg in defaulted:
                if not any(count > index or arg in keywords or None in keywords
                           for count, keywords in calls.get(name, ())):
                    unset.add((module, name, arg))
    assert unset == UNSET_BY_DESIGN
