import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from hqrsim.cli import (ALPHA_RANGE_MAX_COUNT, UsageError, _build_parser, load_config, main,
                        parse, run)
from hqrsim.coherent import AMPLITUDE_MAX, RING_MAX_D
from hqrsim.rates import MAX_PURIFICATION_ROUNDS
from test_cli_golden import CASES, golden_path


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_python(*args):
    """A fresh interpreter that imports hqrsim from this checkout's src/."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def run_cli(*args):
    return run_python("-m", "hqrsim", *args)


def rows_of(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestParse:
    def test_defaults(self):
        spec = parse(["homodyne", "--d", "3", "--L0", "5", "--alpha", "1.0"])
        assert spec.format == "csv"
        assert spec.params["delta_frac"] == 0.2
        assert spec.settings.l_att_km == 22.0
        assert spec.settings.fiber_speed_km_s == 2.0e5

    def test_negativity_range(self):
        spec = parse(["negativity-scan", "--d", "3", "--L0", "5",
                      "--alpha-range", "0:2.5:100"])
        grid = spec.params["alpha_range"]
        assert len(grid) == 100
        assert grid[0] == 0.0 and grid[-1] == 2.5
        spec = parse(["negativity-scan", "--d", "3", "--L0", "5",
                      "--alpha-range", f"0:1:{ALPHA_RANGE_MAX_COUNT}"])
        assert len(spec.params["alpha_range"]) == ALPHA_RANGE_MAX_COUNT

    def test_rate_spec(self):
        spec = parse(["rate", "--scheme", "usd", "--d", "3", "--L0", "5",
                      "--alpha", "1.2", "--rounds", "2", "--span", "10"])
        assert spec.command == "rate"
        assert spec.params["rounds"] == 2

    def test_rejects_unknown_flag(self):
        with pytest.raises(UsageError):
            parse(["usd", "--d", "3", "--L0", "5", "--alpha", "1", "--bogus", "1"])

    def test_rejects_low_dimension(self):
        with pytest.raises(UsageError):
            parse(["usd", "--d", "1", "--L0", "5", "--alpha", "1"])

    def test_rejects_bad_weights(self):
        with pytest.raises(UsageError):
            parse(["purify", "--weights", "0.5,0.4"])
        with pytest.raises(UsageError, match="--weights"):
            parse(["purify", "--weights", "0.5,0.5000000005"])

    def test_round_p_default_is_not_shared(self):
        # the parser outlives each call, so a mutable default would be shared
        argv = ["mc", "--n", "1", "--p", "0.5", "--trials", "10", "--seed", "1"]
        assert parse(argv).params["round_p"] == ()
        assert parse([*argv, "--round-p", "0.9,0.8"]).params["round_p"] == [0.9, 0.8]
        assert parse(argv).params["round_p"] == ()

    @pytest.mark.parametrize("trials", ["1", "0", "-5"])
    def test_mc_needs_two_trials(self, trials):
        # one trial has no standard error, and NaN is not valid JSON
        with pytest.raises(UsageError, match="--trials"):
            parse(["--format", "json", "mc", "--n", "1", "--p", "0.5",
                   "--trials", trials, "--seed", "1"])

    @pytest.mark.parametrize("command, dims", [
        ("constants", "2 to 195"), ("usd", "2 to 195"), ("negativity-scan", "2 to 16"),
        ("homodyne", "in (2, 3, 4)"), ("rate", "2 to 195, or in (2, 3, 4)")])
    def test_d_help_states_the_range(self, command, dims, capsys):
        # the text is built from RING_MAX_D, SCAN_MAX_D and HOMODYNE_DIMS
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert f"qudit dimension {dims}" in " ".join(capsys.readouterr().out.split())


class TestParserReuse:
    # one golden argv per subcommand
    SUBCOMMAND_CASES = ("constants", "entangle", "negativity_scan_d8_gram", "homodyne",
                        "usd", "purify", "rate", "mc", "table_I")

    def test_parser_built_once_per_process(self, capsys):
        _build_parser.cache_clear()
        assert main(["usd", "--d", "3", "--L0", "20", "--alpha", "0.5", "--nope"]) == 2
        assert main(["mc", "--n", "1", "--p", "0.5", "--round-p", "x"]) == 2
        assert capsys.readouterr().out == ""
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: hqrsim")
        for name in self.SUBCOMMAND_CASES:
            assert main(CASES[name].split()) == 0, name
            assert capsys.readouterr().out == golden_path(name).read_text(encoding="utf-8"), name
        assert _build_parser.cache_info().misses == 1


class TestConfig:
    def test_roundtrip_defaults(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("# comment\nl_att_km = 22\nfiber_speed_km_s = 2.0e5\n")
        assert load_config(str(cfg)) == {"l_att_km": 22.0, "fiber_speed_km_s": 2.0e5}

    def test_rejects_unknown_key(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("bogus = 1\n")
        with pytest.raises(UsageError, match="cfg:1"):
            load_config(str(cfg))

    def test_rejects_bad_number(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("l_att_km = twenty\n")
        with pytest.raises(UsageError, match=":1"):
            load_config(str(cfg))

    @pytest.mark.parametrize("line", [
        "quadrature_tol = nan", "quadrature_tol = inf", "quadrature_tol = -1",
        "quadrature_tol = 0",
    ])
    def test_rejects_bad_tolerance(self, tmp_path, capsys, line):
        # a NaN quadrature_tol would make the quadrature never converge
        cfg = tmp_path / "cfg"
        cfg.write_text(line + "\n")
        key = line.split()[0]
        with pytest.raises(UsageError, match=f"cfg:1: {key}"):
            load_config(str(cfg))
        assert main(["--config", str(cfg), "homodyne", "--d", "3", "--L0", "5",
                     "--alpha", "1.0"]) == 2
        assert capsys.readouterr().out == ""

    def test_rejects_removed_positivity_tol(self, tmp_path, capsys):
        # the scan's blocks are positive semidefinite by construction, so no
        # eigenvalue tolerance is left to set
        cfg = tmp_path / "cfg"
        cfg.write_text("positivity_tol = 0\n")
        assert main(["--config", str(cfg), "negativity-scan", "--d", "3", "--L0", "5",
                     "--alpha-range", "0:2.5:5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown key 'positivity_tol'" in captured.err

    def test_config_keeps_benchmark_rates(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("fiber_speed_km_s = 2.0e5\n")
        spec = parse(["--config", str(cfg), "rate", "--scheme", "usd", "--d", "3",
                      "--L0", "5", "--alpha", "1.2", "--rounds", "0", "--span", "10"])
        _, text = run(spec)
        value = dict(r for r in (line.split(",") for line in text.strip().splitlines()[1:]))
        assert float(value["rate_hz"]) == pytest.approx(10175, rel=1e-3)


class TestRun:
    def test_usd_contains_benchmark_value(self):
        spec = parse(["usd", "--d", "3", "--L0", "20", "--alpha", "0.5"])
        status, text = run(spec)
        assert status == 0
        assert "0.0137597" in text

    def test_mc_certain_success(self):
        spec = parse(["mc", "--n", "1", "--p", "1.0", "--trials", "100000",
                      "--seed", "7"])
        status, text = run(spec)
        assert status == 0
        values = dict(line.split(",") for line in text.strip().splitlines()[1:])
        assert float(values["mean_attempts"]) == 1.0

    def test_mc_deterministic(self):
        args = ["mc", "--n", "1", "--p", "0.3", "--trials", "20000", "--seed", "11"]
        assert run(parse(args)) == run(parse(args))

    def test_table_has_status_column(self):
        status, text = run(parse(["table", "--id", "I"]))
        header, rows = rows_of(text)
        assert status == 0
        assert header == ["section", "span_km", "rounds", "printed", "computed", "status"]
        assert {r[5] for r in rows} <= {"match", "known-typo", "unresolved"}

    def test_constants_models(self):
        _, gram = run(parse(["constants", "--d", "3", "--alpha", "0.541061"]))
        _, closed = run(parse(["constants", "--d", "3", "--alpha", "0.541061",
                               "--model", "closed-form"]))
        assert "0.287" in gram  # Gram-derived m=1 constant
        assert "0.84797" in closed  # trig-variant m=1 constant

    def test_entangle_weights(self):
        status, text = run(parse(["entangle", "--d", "3", "--L0", "20",
                                  "--alpha", "0.5"]))
        header, rows = rows_of(text)
        assert header == ["component", "weight", "bell_phase_index"]
        assert float(rows[0][1]) == pytest.approx(0.861808, abs=1e-6)
        assert [r[2] for r in rows] == ["0", "2", "1"]

    def test_purify_rounds(self):
        status, text = run(parse(["purify", "--weights", "0.7494,0.0942,0.1564",
                                  "--rounds", "2"]))
        header, rows = rows_of(text)
        assert float(rows[1][2]) == pytest.approx(0.94394, abs=1e-4)
        assert float(rows[2][2]) == pytest.approx(0.99786, abs=1e-4)

    def test_homodyne_report_fields(self):
        status, text = run(parse(["homodyne", "--d", "3", "--L0", "5",
                                  "--alpha", "1.0", "--delta-frac", "0.2"]))
        values = dict(line.split(",") for line in text.strip().splitlines()[1:])
        assert float(values["P_succ"]) == pytest.approx(0.496076, abs=1e-5)
        assert float(values["F_av"]) == pytest.approx(0.684023, abs=1e-5)
        assert float(values["offdiag_bound"]) == pytest.approx(0.161099059629, abs=1e-6)

    def test_homodyne_offdiag_noise_prints_zero(self):
        # the cross integrals here are below quadrature_tol, rounding noise
        # that used to print as 2.75721e-158
        _, text = run(parse(["homodyne", "--d", "4", "--L0", "2.144", "--alpha", "26.99",
                             "--delta-frac", "0.6703"]))
        values = dict(line.split(",") for line in text.strip().splitlines()[1:])
        assert values["offdiag_bound"] == "0"

    def test_json_mirrors_csv(self):
        spec_csv = parse(["usd", "--d", "3", "--L0", "20", "--alpha", "0.5"])
        spec_json = parse(["--format", "json", "usd", "--d", "3", "--L0", "20",
                           "--alpha", "0.5"])
        _, text_csv = run(spec_csv)
        _, text_json = run(spec_json)
        doc = json.loads(text_json)
        csv_map = dict(line.split(",") for line in text_csv.strip().splitlines()[1:])
        assert {row["quantity"]: row["value"] for row in doc} == \
            {k: float(v) for k, v in csv_map.items()}

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_golden_argv_json_is_strict(self, name, capsys):
        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        assert main(["--format", "json", *CASES[name].split()]) == 0
        doc = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert doc and all(isinstance(row, dict) for row in doc)

    def test_negativity_scan_roundtrip_six_digits(self):
        spec = parse(["negativity-scan", "--d", "3", "--L0", "5",
                      "--alpha-range", "0:2.5:20"])
        _, text = run(spec)
        header, rows = rows_of(text)
        assert header == ["alpha", "negativity"]
        for row in rows:
            for cell in row:
                assert f"{float(cell):.6g}" == cell

    def test_table_roundtrip_six_digits(self):
        _, text = run(parse(["table", "--id", "V"]))
        _, rows = rows_of(text)
        for row in rows:
            for cell in (row[3], row[4]):
                assert f"{float(cell):.6g}" == cell


class TestMainProcess:
    def test_exit_zero_and_stdout(self):
        cp = run_cli("usd", "--d", "3", "--L0", "20", "--alpha", "0.5")
        assert cp.returncode == 0
        assert "0.0137597" in cp.stdout

    def test_usage_error_is_two(self):
        cp = run_cli("usd", "--d", "1", "--L0", "20", "--alpha", "0.5")
        assert cp.returncode == 2
        assert "--d" in cp.stderr
        assert cp.stdout == ""

    def test_unknown_flag_is_two(self):
        cp = run_cli("usd", "--d", "3", "--L0", "20", "--alpha", "0.5", "--nope")
        assert cp.returncode == 2
        assert cp.stdout == ""

    def test_out_file_atomic(self, tmp_path):
        out = tmp_path / "scan.csv"
        cp = run_cli("negativity-scan", "--d", "3", "--L0", "5",
                     "--alpha-range", "0:1:5", "--out", str(out))
        assert cp.returncode == 0
        assert out.exists()
        lines = out.read_text().splitlines()
        assert lines[0] == "alpha,negativity"
        assert len(lines) == 6
        assert not list(tmp_path.glob(".hqrsim-*"))

    @pytest.mark.parametrize("argv", [
        "rate --scheme usd --d 3 --L0 5 --alpha nan --span 10",
        "usd --d 3 --L0 5 --alpha nan",
        "usd --d 3 --L0 5 --alpha inf",
        "entangle --d 3 --L0 nan --alpha 1",
        "constants --d 3 --alpha nan",
    ])
    def test_non_finite_input_is_two(self, argv):
        cp = run_cli(*argv.split())
        assert cp.returncode == 2
        assert cp.stderr.startswith("hqrsim: invalid input:")
        assert cp.stdout == ""

    @pytest.mark.parametrize("argv", [
        "usd --d 3 --L0 -1 --alpha 1",
        "usd --d 3 --L0 5 --alpha -1",
        "constants --d 3 --alpha -1",
        "entangle --d 3 --L0 -1 --alpha 1",
        "negativity-scan --d 3 --L0 -2 --alpha-range 0:1:5",
        "homodyne --d 3 --L0 5 --alpha 1 --delta-frac 0",
        "homodyne --d 3 --L0 5 --alpha 1 --delta-frac 1.5",
        "homodyne --d 3 --L0 5 --alpha -1",
        "rate --scheme usd --d 3 --L0 5 --alpha 1.2 --span 10 --delta-frac 5",
        "rate --scheme usd --d 3 --L0 -5 --alpha 1.2 --span 10",
        "purify --weights 0.5,0.5 --rounds -1",
        "rate --scheme usd --d 3 --L0 5 --alpha 1.2 --span 10 --rounds -1",
        "mc --n -1 --p 0.5 --trials 10 --seed 1",
        "mc --n 1 --p 0 --trials 10 --seed 1",
        "mc --n 1 --p 1.5 --trials 10 --seed 1",
        "mc --n 1 --p 0.5 --trials 10 --seed 1 --round-p 0,0.5",
        # the damped amplitude is -0.0 here (gamma = 1, and gamma = 0)
        "entangle --d 3 --L0 0 --alpha -1",
        "usd --d 3 --L0 100000 --alpha -1",
    ])
    def test_out_of_domain_input_is_two(self, capsys, argv):
        assert main(argv.split()) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [
        "homodyne --d 3 --L0 5 --alpha 0 --delta-frac 0.2",
        "rate --scheme homodyne --d 3 --L0 5 --alpha 0 --span 10",
    ])
    def test_zero_amplitude_homodyne_is_two(self, capsys, argv):
        # the windows collapse at alpha = 0; this used to print P_succ = 1
        assert main(argv.split()) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("hqrsim: invalid input:")
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        "constants --d 3 --alpha 1e200",
        "usd --d 3 --L0 5 --alpha 1e200",
        "homodyne --d 3 --L0 5 --alpha 1e200",
        "rate --scheme usd --d 3 --L0 5 --alpha 1e200 --span 10",
        "entangle --d 3 --L0 5 --alpha 1e200",
        "negativity-scan --d 3 --L0 5 --alpha-range 0:1e200:3",
    ])
    def test_overflowing_amplitude_is_two(self, capsys, argv):
        # alpha^2 is not a finite float above about 1.34e154: this used to
        # print nan rows, fail to converge or blame the weights
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv.split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "amplitude" in captured.err

    @pytest.mark.parametrize("argv", [
        "constants --d 3 --alpha {a}",
        "constants --d 2 --model closed-form --alpha {a}",
        "usd --d 5 --L0 0 --alpha {a}",
        "homodyne --d 3 --L0 5 --alpha {a}",
        "rate --scheme usd --d 3 --L0 5 --alpha {a} --span 10",
        "negativity-scan --d 3 --L0 5 --alpha-range 0:{a}:3",
    ])
    def test_amplitude_cap_does_not_overflow(self, capsys, argv):
        # just below the old cap (1.34e154) these printed an overflow RuntimeWarning
        for alpha in (AMPLITUDE_MAX, 1.3e154):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                status = main(argv.format(a=repr(alpha)).split())
            captured = capsys.readouterr()
            if status == 0:
                header, rows = rows_of(captured.out)
                skip = header[0] == "quantity"  # a name, not a number
                assert all(math.isfinite(float(v)) for row in rows for v in row[skip:])
            else:
                assert status == 2
                assert captured.out == ""
                assert "amplitude" in captured.err
        assert status == 2  # 1.3e154 is above the cap

    @pytest.mark.parametrize("argv", [
        "purify --weights 1,0 --rounds 100000000",
        "rate --scheme usd --d 3 --L0 5 --alpha 1.2 --span 10 --rounds 100000000",
    ])
    def test_purification_rounds_cap_is_two(self, capsys, argv):
        # these ran for ever: Q stalls at 5e-324 and never reaches 0
        start = time.perf_counter()
        assert main(argv.split()) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("hqrsim: invalid input: purification rounds must lie in "
                                f"[0, {MAX_PURIFICATION_ROUNDS}], got 100000000\n")

    @pytest.mark.parametrize("argv", [
        "constants --d {d} --alpha 30",
        "usd --d {d} --L0 5 --alpha 30",
        "entangle --d {d} --L0 5 --alpha 30",
        "rate --scheme usd --d {d} --L0 5 --alpha 30 --span 10",
    ])
    def test_ring_dimension_cap(self, capsys, argv):
        # alpha^2 above the cap keeps the USD probability of the ring nonzero
        # d = 10^7 ended in a MemoryError traceback (a 1.4 PiB d x d array)
        for d in (RING_MAX_D + 1, 10 ** 7):
            start = time.perf_counter()
            assert main(argv.format(d=d).split()) == 2
            assert time.perf_counter() - start < 1.0
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == ("hqrsim: invalid input: ring dimension must lie in "
                                    f"[2, {RING_MAX_D}], got {d}\n")
        assert main(argv.format(d=RING_MAX_D).split()) == 0

    def test_purification_rounds_cap_is_reachable(self, capsys):
        start = time.perf_counter()
        assert main(["purify", "--weights", "0.5,0.5",
                     "--rounds", str(MAX_PURIFICATION_ROUNDS)]) == 0
        assert time.perf_counter() - start < 1.0
        _, rows = rows_of(capsys.readouterr().out)
        assert len(rows) == MAX_PURIFICATION_ROUNDS + 1

    def test_removed_shards_flag_is_two(self, capsys):
        # mc draws one seeded stream; there is no shard count to set
        assert main("mc --n 1 --p 0.5 --trials 10 --seed 1 --shards 2".split()) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("grid", ["-1:2:10", "nan:1:5", "0:inf:5", "0:1:1",
                                      f"0:1:{ALPHA_RANGE_MAX_COUNT + 1}", "0:1:10000000000000"])
    def test_bad_alpha_range_is_two(self, grid):
        # a grid of 1e13 points cannot be allocated: exit 2, not a MemoryError traceback
        cp = run_cli("negativity-scan", "--d", "3", "--L0", "5", f"--alpha-range={grid}")
        assert cp.returncode == 2
        assert cp.stdout == ""
        assert "Warning" not in cp.stderr

    def test_mc_work_cap_is_two(self, capsys):
        # the cap counts 2^13 trials here: about 6.6e10 depth-1 attempts
        start = time.perf_counter()
        assert main(["mc", "--n", "1", "--p", "0.5", "--round-p", "0.01,0.01,0.01",
                     "--trials", "100000", "--seed", "1"]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.err.startswith("hqrsim: invalid input:")
        assert "MC_MAX_WAITS" in captured.err
        assert captured.out == ""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("round_p", [[], ["--round-p", "0.5"]])
    def test_mc_vanishing_p_is_two(self, capsys, round_p):
        # a geometric(1e-300) draw saturates at int64 (mean 9.22e18, se 0)
        assert main(["mc", "--n", "0", "--p", "1e-300", *round_p,
                     "--trials", "10", "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("hqrsim: invalid input: p0")
        assert captured.out == ""

    def test_mc_negative_seed_names_seed(self, capsys):
        # numpy's own message, "expected non-negative integer", names no input
        assert main("mc --n 1 --p 0.5 --trials 10 --seed -1".split()) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("hqrsim: invalid input: seed")
        assert captured.out == ""

    def test_runtime_does_not_import_scipy(self):
        code = ("import sys, hqrsim.cli; "
                "hqrsim.cli.main(['homodyne', '--d', '3', '--L0', '5', '--alpha', '1.0']); "
                "print(sorted(m for m in sys.modules if m.startswith('scipy')), file=sys.stderr)")
        cp = run_python("-c", code)
        assert cp.returncode == 0
        assert "offdiag_bound," in cp.stdout
        assert cp.stderr.strip() == "[]"

    def test_missing_config_is_two(self):
        cp = run_cli("--config", "/nonexistent/cfg", "usd", "--d", "3",
                     "--L0", "20", "--alpha", "0.5")
        assert cp.returncode == 2
