"""Modules of the package share only public names, the model never
imports the benchmark tables or the CLI, public functions take the
channel and the repeater span whole, and a fresh process loads only the
modules its run uses: never the test oracles' `numerics` nor `dataclasses`,
and `detection`, `logic`, `rates`, `tables` and `json` only where its
subcommand and format call them."""

import ast
import importlib
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


# the names `from hqrsim import ...` gave when `import hqrsim` imported every
# model module, and the module each comes from
PACKAGE_NAMES = {
    "coherent": ("NEGLIGIBLE_NORM", "norm_constants", "ring_states"),
    "states": ("ChannelParams", "PhaseMixtureWeights", "loss_weights", "negativity_scan"),
    "detection": ("DetectionReport", "homodyne_report", "usd_bound"),
    "logic": ("purify_step",),
    "rates": ("RateResult", "RepeaterConfig", "effective_probability", "monte_carlo_waiting",
              "predict", "purification_chain", "z_attempts"),
    "tables": ("reproduce_table",),
}
OWNER = {name: module for module, names in PACKAGE_NAMES.items() for name in names}


def test_import_leaves_numerics_unloaded():
    # DensityMatrix is the test oracles' density matrix; no package module needs it,
    # and `import hqrsim` loads only the core
    status, _, errors, modules = fresh_python("-c", "import hqrsim")
    assert (status, errors) == (0, [])
    assert {m for m in modules if m.startswith("hqrsim")} == {
        "hqrsim", "hqrsim.coherent", "hqrsim.states"}
    # the first access loads the tables and returns their function
    assert fresh_python("-c", "import sys, hqrsim; f = hqrsim.reproduce_table; "
                        "print(f is sys.modules['hqrsim.tables'].reproduce_table)")[:3] == (
        0, "True\n", [])


USD = ["usd", "--d", "3", "--L0", "10", "--alpha", "0.8"]
# the package modules beyond the core and the cli that each fresh run loads
RUNS = {
    "constants": (["constants", "--d", "3", "--alpha", "0.8"], []),
    "entangle": (["entangle", "--d", "3", "--L0", "20", "--alpha", "0.5"], []),
    "negativity-scan": (["negativity-scan", "--d", "3", "--L0", "5", "--alpha-range",
                         "0:2.5:10"], []),
    "usd": (USD, ["detection"]),
    "json usd": (["--format", "json", *USD], ["detection", "json"]),
    "homodyne": (["homodyne", "--d", "2", "--L0", "5", "--alpha", "1.0"], ["detection"]),
    "purify": (["purify", "--weights", "0.7,0.2,0.1"], ["detection", "logic", "rates"]),
    "rate": (["rate", "--scheme", "usd", "--d", "3", "--L0", "5", "--alpha", "1.2",
              "--span", "10"], ["detection", "logic", "rates"]),
    "mc": (["mc", "--n", "1", "--p", "0.6", "--trials", "100", "--seed", "7"],
           ["detection", "logic", "rates"]),
    "table V": (["table", "--id", "V"], ["detection", "logic", "rates", "tables"]),
    "usd help": (["usd", "--help"], []),
    "rate help": (["rate", "--help"], ["detection", "logic", "rates"]),
    # an error is worded by the tree of all nine, whose homodyne and rate load their modules
    "usage error": (["usd", "--d", "1", "--L0", "5", "--alpha", "1"],
                    ["detection", "logic", "rates"]),
}
WATCHED = ("detection", "logic", "rates", "tables", "numerics", "json")


@pytest.fixture(scope="module")
def numpy_loads_dataclasses():
    return "dataclasses" in fresh_python("-c", "import numpy")[3]


@pytest.mark.parametrize("run", RUNS)
def test_fresh_run_loads_only_its_modules(run, numpy_loads_dataclasses):
    argv, expected = RUNS[run]
    status, _, errors, modules = fresh_python("-m", "hqrsim", *argv)
    assert (status, errors == []) == ((2, False) if run == "usage error" else (0, True))
    assert [m for m in WATCHED if m in modules or f"hqrsim.{m}" in modules] == expected
    assert "dataclasses" not in modules or numpy_loads_dataclasses


def test_every_package_name_still_resolves():
    # in a fresh process, so that no earlier test has loaded the modules; then the modules
    code = "\n".join(["import importlib, hqrsim"] + [
        f"from hqrsim import {name}\n"
        f"assert {name} is importlib.import_module('hqrsim.{module}').{name}, {name!r}"
        for module, names in PACKAGE_NAMES.items() for name in names] + [
        f"from hqrsim import {', '.join(PACKAGE_NAMES)}, numerics, cli"])
    assert fresh_python("-c", code)[:3] == (0, "", [])


@pytest.mark.parametrize("name", [n for n, m in OWNER.items() if m not in ("coherent", "states")])
def test_package_lazy_name_is_looked_up_on_every_access(monkeypatch, name):
    # nothing is cached in the package, so a rebinding in the module (a tracer) shows there
    module = importlib.import_module(f"hqrsim.{OWNER[name]}")
    assert getattr(hqrsim, name) is getattr(module, name)
    assert name not in vars(hqrsim)
    monkeypatch.setattr(module, name, stand_in := object())
    assert getattr(hqrsim, name) is stand_in
    with pytest.raises(AttributeError, match="no_such_name"):
        hqrsim.no_such_name
