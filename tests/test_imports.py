"""Modules of the package share only public names, the model never
imports the benchmark tables or the CLI, public functions take the
channel and the repeater span whole, and a fresh process loads neither
the test oracles' `numerics` nor, unless its run uses them, the benchmark
`tables` and `json`."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hqrsim

PACKAGE = Path(hqrsim.__file__).parent

# the repeater model; `tables` and `cli` build on it, never the reverse
MODEL_MODULES = ("coherent", "states", "detection", "logic", "numerics", "rates")

# fields of ChannelParams and RepeaterConfig, and the transmittance they give
CHANNEL_PARAMETERS = ("gamma", "L0_km", "L_att_km", "span_km", "speed", "fiber_speed_km_s")


def hqrsim_from_imports(path: Path):
    """`from <hqrsim module> import ...` statements in one source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        # module is None only in a relative "from . import name"
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("hqrsim")):
            yield node


def private_imports(path: Path):
    """`from <hqrsim module> import _name` statements in one source file."""
    for node in hqrsim_from_imports(path):
        for alias in node.names:
            if alias.name.startswith("_"):
                yield f"{path.name}: from {'.' * node.level}{node.module or ''} import {alias.name}"


def imported_modules(path: Path):
    """The hqrsim modules one source file imports from, by their last name."""
    for node in hqrsim_from_imports(path):
        if node.module in (None, "hqrsim"):  # from . import tables
            yield from (alias.name for alias in node.names)
        else:
            yield node.module.split(".")[-1]


def test_no_private_cross_module_imports():
    assert [line for path in sorted(PACKAGE.glob("*.py")) for line in private_imports(path)] == []


def test_model_imports_neither_tables_nor_cli():
    assert [f"{name} imports {module}" for name in MODEL_MODULES
            for module in imported_modules(PACKAGE / f"{name}.py")
            if module in ("tables", "cli")] == []


def loose_channel_parameters(path: Path):
    """`name(parameter)` for every public function of one source file that takes a
    channel or span quantity as its own parameter."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            args = node.args
            yield from (f"{path.name}: {node.name}({arg.arg})"
                        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs)
                        if arg.arg in CHANNEL_PARAMETERS)


def test_public_functions_take_channel_and_config():
    assert [line for path in sorted(PACKAGE.glob("*.py"))
            for line in loose_channel_parameters(path)] == []


def fresh_python(*args):
    """`python -X importtime ARGS` from this checkout's src/: exit status, stdout, the
    other stderr lines and the names of the modules it imported."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH"))))}
    cp = subprocess.run([sys.executable, "-X", "importtime", *args],
                        capture_output=True, text=True, env=env)
    lines, timed = cp.stderr.splitlines(), "import time:"
    return (cp.returncode, cp.stdout, [line for line in lines if not line.startswith(timed)],
            {line.rsplit("|", 1)[-1].strip() for line in lines if line.startswith(timed)})


def test_import_leaves_numerics_unloaded():
    # DensityMatrix is the test oracles' density matrix; no package module needs it.
    # The benchmark tables and json load only in the runs that read them.
    usd = ["usd", "--d", "3", "--L0", "10", "--alpha", "0.8"]
    runs = {"import": ["-c", "import hqrsim"],
            "usd": ["-m", "hqrsim", *usd],
            "json usd": ["-m", "hqrsim", "--format", "json", *usd],
            "table V": ["-m", "hqrsim", "table", "--id", "V"]}
    # every run loads rates, so an empty import log cannot pass
    watched = ("hqrsim.rates", "hqrsim.numerics", "hqrsim.tables", "json")
    loaded = {}
    for name, args in runs.items():
        status, _, errors, modules = fresh_python(*args)
        loaded[name] = (status, errors, [m for m in watched if m in modules])
    assert loaded == {"import": (0, [], ["hqrsim.rates"]), "usd": (0, [], ["hqrsim.rates"]),
                      "json usd": (0, [], ["hqrsim.rates", "json"]),
                      "table V": (0, [], ["hqrsim.rates", "hqrsim.tables"])}
    # the first access loads the tables and returns their function
    assert fresh_python("-c", "import sys, hqrsim; f = hqrsim.reproduce_table; "
                        "print(f is sys.modules['hqrsim.tables'].reproduce_table)")[:3] == (
        0, "True\n", [])


def test_package_reproduce_table_is_looked_up_on_every_access(monkeypatch):
    # nothing is cached in the package, so a rebinding in `tables` (a tracer) shows there
    from hqrsim import reproduce_table, tables
    assert reproduce_table is hqrsim.reproduce_table is tables.reproduce_table
    assert "reproduce_table" not in vars(hqrsim)
    monkeypatch.setattr(tables, "reproduce_table", stand_in := object())
    assert hqrsim.reproduce_table is stand_in
    with pytest.raises(AttributeError, match="no_such_name"):
        hqrsim.no_such_name
