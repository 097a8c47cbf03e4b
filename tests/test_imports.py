"""Modules of the package share only public names, the model never
imports the benchmark tables or the CLI, public functions take the
channel and the repeater span whole, and `import hqrsim` leaves the
test oracles' `numerics` unloaded."""

import ast
import os
import subprocess
import sys
from pathlib import Path

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


def test_import_leaves_numerics_unloaded():
    # DensityMatrix is the test oracles' density matrix; no package module needs it
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH"))))}
    cp = subprocess.run([sys.executable, "-c",
                         "import sys, hqrsim; print('hqrsim.numerics' in sys.modules)"],
                        capture_output=True, text=True, env=env)
    assert (cp.returncode, cp.stdout, cp.stderr) == (0, "False\n", "")
