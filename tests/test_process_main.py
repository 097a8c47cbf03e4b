"""The process entry `cli.process_main`: `python -m hqrsim` and the `hqrsim`
console script run it, and it freezes the heap once the run is over, so the
interpreter's exit-time collection skips it.  In-process `cli.main(argv)`
calls never freeze, and a fresh process prints what `main(argv)` prints.
"""

import gc
import importlib
import pathlib

import pytest

import hqrsim.cli as cli
from hqrsim.cli import main
from test_cli_golden import run_python

ROOT = pathlib.Path(__file__).resolve().parents[1]

# the freeze count a `python -m hqrsim` run leaves, read after the run ends
# (its SystemExit included) and written to a side file, so stdout and stderr
# stay the run's own
CHILD = """
import gc, runpy, sys
try:
    runpy.run_module("hqrsim", run_name="__main__", alter_sys=True)
finally:
    with open({freeze_file!r}, "w") as fh:
        fh.write(str(gc.get_freeze_count()))
"""

# argv and exit status
RUNS = {
    "success": ("usd --d 3 --L0 20 --alpha 0.5", 0),
    "usage_error": ("usd --d 1 --L0 20 --alpha 0.5", 2),
    "zero_generation_probability": ("rate --scheme usd --d 3 --L0 5 --span 10 --alpha 0", 1),
    "help": ("--help", 0),
    "subcommand_help": ("rate --help", 0),
}


def in_process(argv, capsys):
    try:
        status = main(argv)
    except SystemExit as exc:  # --help
        status = exc.code
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def fresh_process(argv, tmp_path):
    """(exit status, stdout, stderr, freeze count) of `python -m hqrsim ARGV` run by runpy."""
    freeze_file = tmp_path / "freeze_count"
    cp = run_python("-c", CHILD.format(freeze_file=str(freeze_file)), *argv, cwd=tmp_path)
    return cp.returncode, cp.stdout, cp.stderr, int(freeze_file.read_text())


@pytest.fixture(autouse=True)
def fixed_width(monkeypatch):
    # help text wraps at the terminal width; the child has no terminal
    monkeypatch.setenv("COLUMNS", "80")


@pytest.mark.parametrize("name", sorted(RUNS))
def test_fresh_process_freezes_and_prints_what_main_prints(name, tmp_path, capsys):
    argv, want_status = RUNS[name][0].split(), RUNS[name][1]
    status, out, err, frozen = fresh_process(argv, tmp_path)
    assert frozen > 0
    assert (status, out, err) == in_process(argv, capsys)
    assert status == want_status
    assert (out == "") == (status != 0)


def test_fresh_process_writes_what_main_writes(tmp_path, capsys):
    argv = "table --id II".split()
    (tmp_path / "child_dir").mkdir()
    *printed, frozen = fresh_process(["--out", "table.csv", *argv], tmp_path / "child_dir")
    assert frozen > 0
    assert tuple(printed) == in_process(["--out", str(tmp_path / "table.csv"), *argv], capsys)
    assert tuple(printed) == (0, "", "")
    assert (tmp_path / "child_dir" / "table.csv").read_bytes() == \
        (tmp_path / "table.csv").read_bytes()


def test_in_process_main_never_freezes(tmp_path, capsys):
    assert gc.get_freeze_count() == 0
    argvs = [argv.split() for argv, _ in RUNS.values()] + \
        [["--out", str(tmp_path / "usd.csv"), *RUNS["success"][0].split()]]
    for i in range(50):
        in_process(argvs[i % len(argvs)], capsys)
    assert gc.get_freeze_count() == 0


def test_console_script_is_the_module_entry():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["hqrsim"]
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr) is cli.process_main


def test_importing_the_main_module_runs_nothing():
    # argv that would be a usage error if the module ran the CLI
    cp = run_python("-c", "import gc, hqrsim.__main__ as m, hqrsim.cli as c; "
                          "print(m.process_main is c.process_main, gc.get_freeze_count())",
                    "usd", "--d", "1")
    assert (cp.returncode, cp.stdout, cp.stderr) == (0, "True 0\n", "")
