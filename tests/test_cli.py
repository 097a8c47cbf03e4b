import argparse
import json
import math
import time
import warnings

import numpy as np
import pytest

import hqrsim.cli as cli
from hqrsim.cli import (ALPHA_RANGE_MAX_COUNT, UsageError, _build_parser, load_config, main,
                        parse, run)
from hqrsim.coherent import (AMPLITUDE_MAX, RING_MAX_D, WEIGHT_MODELS, norm_constants,
                             weights_from_norms)
from hqrsim import rates
from hqrsim.detection import homodyne_report, usd_bound
from hqrsim.rates import MAX_PURIFICATION_ROUNDS, RepeaterConfig, predict
from hqrsim.states import ChannelParams, loss_weights, negativity_scan
from oracles import emit_per_cell
from test_cli_golden import CASES, golden_path, run_python


def run_cli(*args, cwd=None):
    return run_python("-m", "hqrsim", *args, cwd=cwd)


def rows_of(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def six_digits(values):
    """Library values as the CLI prints them, read back as floats."""
    return [float(f"{float(v):.6g}") for v in values]


def rate_values(cfg):
    """`predict(cfg)` in the rows of `hqrsim rate`."""
    res = predict(cfg)
    return [2 ** cfg.n, *(v for st in res.rounds
                          for v in (st.fidelity, st.success_probability, st.effective_probability)),
            res.z, res.rate_hz, res.final_fidelity_bound]


def homodyne_values(ch):
    rep = homodyne_report(3, 1.0, ch, 0.2)
    return [*rep.window_probs, *rep.window_fidelities, rep.p_succ, rep.f_av, rep.offdiag_bound]


# argv at L0 = 5 km, and the library's values for its channel, in the order printed
CHANNEL_CASES = {
    "entangle": ("entangle --d 3 --L0 5 --alpha 1.2", lambda ch: loss_weights(3, 1.2, ch).p),
    "negativity-scan": ("negativity-scan --d 3 --L0 5 --alpha-range 0.5:2.5:5",
                        lambda ch: [n for _, n in negativity_scan(3, [0.5, 1.0, 1.5, 2.0, 2.5],
                                                                  ch)]),
    "homodyne": ("homodyne --d 3 --L0 5 --alpha 1.0", homodyne_values),
    "usd": ("usd --d 3 --L0 5 --alpha 1.2",
            lambda ch: [ch.gamma, usd_bound(3, 1.2, ch), usd_bound(3, 1.2, ch)]),
    "rate": ("rate --scheme usd --d 3 --L0 5 --span 20 --alpha 1.2 --rounds 1",
             lambda ch: rate_values(RepeaterConfig(d=3, L0_km=5, span_km=20, alpha=1.2,
                                                   scheme="usd", purification_rounds=1,
                                                   L_att_km=ch.L_att_km))),
}


class TestParse:
    def test_defaults(self, monkeypatch):
        spec = parse(["homodyne", "--d", "3", "--L0", "5", "--alpha", "1.0"])
        assert spec.format == "csv"
        assert spec.out is None
        assert spec.params["delta_frac"] == 0.2
        # without --config the command sees the library's channel constants
        seen = {}
        command = cli.COMMANDS["homodyne"]
        monkeypatch.setitem(cli.COMMANDS, "homodyne",
                            command._replace(run=lambda p: seen.update(p) or command.run(p)))
        assert run(spec)[0] == 0
        assert seen["l_att_km"] == 22.0
        assert seen["fiber_speed_km_s"] == 2.0e5

    def test_config_keys_are_no_argument_dests(self):
        # --config overrides join the parsed arguments in one mapping
        parser = _build_parser(tuple(cli.COMMANDS))
        [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert set(sub.choices) == set(cli.COMMANDS)
        dests = {a.dest for p in (parser, *sub.choices.values()) for a in p._actions}
        assert {"d", "L0", "alpha_range", "format", "config"} <= dests
        assert dests.isdisjoint(cli.CONFIG_DEFAULTS)

    def test_hand_built_spec_runs_at_the_defaults(self, capsys):
        assert main(["usd", "--d", "3", "--L0", "20", "--alpha", "0.5"]) == 0
        printed = capsys.readouterr().out
        assert run(cli.RunSpec("usd", {"d": 3, "L0": 20.0, "alpha": 0.5})) == (0, printed)

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
        for text in ("nan,1", "1,nan"):  # the parser's usage error, not the library's
            with pytest.raises(UsageError, match="--weights: must be nonnegative"):
                parse(["purify", "--weights", text])

    def test_purify_needs_two_weights(self, capsys):
        # one weight is a d = 1 chain, which every other subcommand refuses; it printed one
        assert main(["purify", "--weights", "1"]) == 2
        assert capsys.readouterr() == (
            "", "hqrsim: error: argument --weights: expected at least two weights\n")

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


# argv that the parser refuses, from the tests of this file
USAGE_ERRORS = [
    "usd --d 3 --L0 5 --alpha 1 --bogus 1", "usd --d 1 --L0 5 --alpha 1",
    "usd --d 3 --L0 20 --alpha 0.5 --nope", "purify --weights 0.5,0.4",
    "purify --weights 0.5,0.5000000005", "purify --weights nan,1", "purify --weights 1,nan",
    "purify --weights 1", "mc --n 1 --p 0.5 --round-p x",
    "mc --n 1 --p 0.5 --trials 10 --seed 1 --shards 2",
    *(f"--format json mc --n 1 --p 0.5 --trials {t} --seed 1" for t in ("1", "0", "-5")),
    *(f"negativity-scan --d 3 --L0 5 --alpha-range={grid}"
      for grid in ("-1:2:10", "nan:1:5", "0:inf:5", "0:1:1",
                   f"0:1:{ALPHA_RANGE_MAX_COUNT + 1}", "0:1:10000000000000")),
    # and argv that name no command, or name it where argparse does not look
    "", "--format json", "bogus --d 3", "--out", "--out usd", "--format xml usd --d 3",
    "--bogus usd usd --d 3 --L0 5 --alpha 1", "-- usd --d 3 --L0 5 --alpha 1",
    "-x usd --d 3 --L0 5 --alpha 1", "-- constants usd --d 3 --L0 5 --alpha 1", "usd",
    "usd --d 3 --L0 5 --alpha 1 constants",
]
USD = CASES["usd"]
# global flags before and after the command, abbreviated, joined by =, and a
# flag value that is a command name
FLAG_PLACEMENTS = [
    f"--format json {USD}", f"{USD} --format json", f"--form json {USD}",
    f"--format=json {USD}", f"--out usd {USD}", f"--out=usd {USD} --out table",
    f"--format json --format csv {USD} --format json", f"--config usd {USD}",
]


def parsed(argv: list):
    """`parse(argv)` as comparable data, or the text of its usage error."""
    try:
        spec = parse(argv)
    except UsageError as exc:
        return str(exc)
    return spec._replace(params={k: v.tolist() if isinstance(v, np.ndarray) else v
                                 for k, v in spec.params.items()})


class TestParserTrees:
    # one golden argv per subcommand
    SUBCOMMAND_CASES = ("constants", "entangle", "negativity_scan_d8_gram", "homodyne",
                        "usd", "purify", "rate", "mc", "table_I")

    def test_each_tree_built_once_per_process(self, capsys):
        # the nine one-command trees, and the full tree for errors and help
        _build_parser.cache_clear()
        for _ in range(2):
            assert main(["usd", "--d", "3", "--L0", "20", "--alpha", "0.5", "--nope"]) == 2
            assert main(["mc", "--n", "1", "--p", "0.5", "--round-p", "x"]) == 2
            assert capsys.readouterr().out == ""
            with pytest.raises(SystemExit) as exc:
                main(["--help"])
            assert exc.value.code == 0
            assert capsys.readouterr().out.startswith("usage: hqrsim")
            for name in self.SUBCOMMAND_CASES:
                assert main(CASES[name].split()) == 0, name
                assert (capsys.readouterr().out
                        == golden_path(name).read_text(encoding="utf-8")), name
        assert _build_parser.cache_info().misses == len(cli.COMMANDS) + 1

    @pytest.mark.parametrize("argv", [*CASES.values(), *USAGE_ERRORS, *FLAG_PLACEMENTS])
    def test_one_command_tree_parses_as_the_full_tree(self, monkeypatch, tmp_path, argv):
        # --config usd reads ./usd: a missing file, the same usage error on both trees
        monkeypatch.chdir(tmp_path)
        _build_parser.cache_clear()
        got = parsed(argv.split())
        if not isinstance(got, str):  # parsed by its command's tree, the only one built
            _build_parser((got.command,))
            assert _build_parser.cache_info()[:2] == (1, 1)  # hits, misses
        full = _build_parser(tuple(cli.COMMANDS))
        monkeypatch.setattr(cli, "_build_parser", lambda names: full)
        assert got == parsed(argv.split())

    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_command_help_is_the_full_tree_help(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        one = capsys.readouterr().out
        [sub] = [a for a in _build_parser(tuple(cli.COMMANDS))._actions
                 if isinstance(a, argparse._SubParsersAction)]
        assert one == sub.choices[command].format_help()

    @pytest.mark.parametrize("argv", [["--help"], ["-h", "usd"], ["--he", "usd", "--d", "3"],
                                      ["--format", "json", "-h", "usd"], ["--he", "usd", "usd"]])
    def test_help_before_the_command_lists_every_command(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out == _build_parser(tuple(cli.COMMANDS)).format_help()
        assert "{" + ",".join(cli.COMMANDS) + "}" in out


class TestGlobalFlagPlacement:
    # README: the global flags go before or after the subcommand; given on
    # both sides, the later one wins
    ARGV = CASES["usd"].split()

    @pytest.mark.parametrize("placement", ["before", "after", "both"])
    @pytest.mark.parametrize("flag", ["--format", "--out", "--config"])
    def test_placement_gives_the_same_document(self, tmp_path, capsys, flag, placement):
        (tmp_path / "long.cfg").write_text("l_att_km = 11\n")
        (tmp_path / "short.cfg").write_text("l_att_km = 5\n")
        value, earlier = {
            "--format": ("json", "csv"),
            "--out": (str(tmp_path / "doc.csv"), str(tmp_path / "earlier.csv")),
            "--config": (str(tmp_path / "long.cfg"), str(tmp_path / "short.cfg")),
        }[flag]
        argv = {"before": [flag, value, *self.ARGV], "after": [*self.ARGV, flag, value],
                "both": [flag, earlier, *self.ARGV, flag, value]}[placement]
        assert main(argv) == 0
        out = capsys.readouterr().out
        golden = golden_path("usd").read_text(encoding="utf-8")
        if flag == "--format":
            doc = [{"quantity": q, "value": float(v)} for q, v in rows_of(golden)[1]]
            assert out == json.dumps(doc, indent=2) + "\n"
        elif flag == "--out":
            assert out == ""
            assert (tmp_path / "doc.csv").read_text(encoding="utf-8") == golden
            assert not (tmp_path / "earlier.csv").exists()
        else:
            ch = ChannelParams(20.0, 11.0)
            prob = usd_bound(3, 0.5, ch)
            assert out == (f"quantity,value\ngamma,{ch.gamma:.6g}\nusd_probability,{prob:.6g}\n"
                           f"min_norm_constant_over_d,{prob:.6g}\n")


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
        # the window cross integrals are closed-form erf differences, so no
        # quadrature tolerance is left to set: any value is an unknown key
        cfg = tmp_path / "cfg"
        cfg.write_text(line + "\n")
        with pytest.raises(UsageError, match="cfg:1: unknown key 'quadrature_tol'"):
            load_config(str(cfg))
        assert main(["--config", str(cfg), "homodyne", "--d", "3", "--L0", "5",
                     "--alpha", "1.0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown key 'quadrature_tol'" in captured.err

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

    @pytest.mark.parametrize("command", CHANNEL_CASES)
    def test_attenuation_length_reaches_the_model(self, tmp_path, command):
        argv, library = CHANNEL_CASES[command]
        cfg = tmp_path / "cfg"
        cfg.write_text("l_att_km = 11\n")
        printed = {}
        for config in ((), ("--config", str(cfg))):
            status, text = run(parse([*config, *argv.split()]))
            assert status == 0
            printed[config] = [float(row[-2 if command == "entangle" else -1])
                               for row in rows_of(text)[1]]
        assert printed[("--config", str(cfg))] == six_digits(library(ChannelParams(5.0, 11.0)))
        assert printed[()] == six_digits(library(ChannelParams(5.0)))
        assert printed[()] != printed[("--config", str(cfg))]

    def test_fiber_speed_reaches_the_model(self, tmp_path):
        # T0 = 2 L0 / c: half the speed halves the rate, and the attempts stay
        cfg = tmp_path / "cfg"
        cfg.write_text("fiber_speed_km_s = 1e5\n")
        argv = "rate --scheme usd --d 3 --L0 5 --span 20 --alpha 1.2 --rounds 1".split()
        default, slow = (dict(rows_of(run(parse([*config, *argv]))[1])[1])
                         for config in ((), ("--config", str(cfg))))
        res = predict(RepeaterConfig(d=3, L0_km=5, span_km=20, alpha=1.2, scheme="usd",
                                     purification_rounds=1))
        assert slow["z_attempts"] == default["z_attempts"] == f"{res.z:.6g}"
        assert slow["rate_hz"] == f"{res.rate_hz / 2:.6g}" != default["rate_hz"]

    @pytest.mark.parametrize("speed, segment", [("1e308", "--L0 1e-300 --span 1e-300"),
                                                ("1e-320", "--L0 5 --span 10")])
    def test_segment_time_must_be_finite_and_positive(self, tmp_path, capsys, speed, segment):
        # T0 = 2 L0 / c underflowed to 0 (exit 1, "float division by zero") or
        # overflowed to inf (rate_hz printed 0, where the model gives about 5.1e-322)
        cfg = tmp_path / "cfg"
        cfg.write_text(f"fiber_speed_km_s = {speed}\n")
        assert main(["--config", str(cfg), "rate", "--scheme", "usd", "--d", "3",
                     "--alpha", "1.2", *segment.split()]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("hqrsim: invalid input: segment time T0 = 2 L0 / c = ")

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

    @pytest.mark.parametrize("name", ["constants", "constants_closed_form",
                                      "constants_d2_closed_form", "constants_d5"])
    def test_constants_weight_fraction_is_the_weights_formula(self, name):
        # the printed fractions are the weights' N / d^2, unchecked and unclipped, at the
        # golden amplitude and at amplitudes where the constants are rounding noise
        argv = CASES[name].split()
        d = int(argv[argv.index("--d") + 1])
        assert run(parse(argv)) == (0, golden_path(name).read_text(encoding="utf-8"))
        for model in WEIGHT_MODELS:
            for alpha in (0.0, 1.16e-8, 1e-5, float(argv[argv.index("--alpha") + 1])):
                n = norm_constants(d, alpha, model)
                w = weights_from_norms(d, n)
                assert w.tolist() == [float(v) / d ** 2 for v in n]
                ch = ChannelParams(L0_km=5.0)
                assert np.array_equal(
                    loss_weights(d, alpha, ch, model).p,
                    weights_from_norms(d, norm_constants(d, math.sqrt(1 - ch.gamma) * alpha,
                                                         model)))
                status, text = run(parse(["constants", "--d", str(d), "--alpha", str(alpha),
                                          "--model", model]))
                assert status == 0
                assert [row[2] for row in rows_of(text)[1]] == [f"{x:.6g}" for x in w]

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
        # the cross integrals here are at most about 3e-65, below the 1e-10
        # floor; a Gauss-Legendre bound once printed its noise, 2.75721e-158
        _, text = run(parse(["homodyne", "--d", "4", "--L0", "2.144", "--alpha", "26.99",
                             "--delta-frac", "0.6703"]))
        values = dict(line.split(",") for line in text.strip().splitlines()[1:])
        assert values["offdiag_bound"] == "0"

    @pytest.mark.parametrize("alpha, bound", [("1e5", "1.99471e-06"),
                                              ("2.5061179977470604e16", "0")])
    def test_homodyne_d4_large_amplitude_answers(self, capsys, alpha, bound):
        # the Gauss-Legendre bound this replaced did not converge at 1e5 (exit 1)
        # and printed its noise, 1.03334e-10, at 2.5e16 (mpmath: 4.71911e-28)
        assert main(["homodyne", "--d", "4", "--L0", "0", "--alpha", alpha,
                     "--delta-frac", "1"]) == 0
        values = dict(line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:])
        assert values["offdiag_bound"] == bound

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


def command_rows(argv: str):
    """(columns, rows) that `run` hands to `_emit` for one argv."""
    spec = parse(argv.split())
    return cli.COMMANDS[spec.command].run({**cli.CONFIG_DEFAULTS, **spec.params})


EDGE_TABLES = {
    "numpy_floats_among_floats": (["a", "b"], [[np.float64(0.5), 1.0], [1.25, np.float64(-2.5)]]),
    "float_ints_bools_blanks": (["x", "n", "flag", "span"],
                                [[0.1, 1, True, ""], [0.2, 2, False, 10.0],
                                 [np.float32(0.3), 3, True, ""]]),
    "special_floats": (["v", "w"], [[-0.0, 1e-300], [math.nan, -math.inf], [math.inf, 5e-324],
                                    [np.float64(-0.0), np.float64(math.nan)]]),
    "mixed_columns": (["q", "v"], [["gamma", 0.4], [3, "text"], [np.float64(2.0), None],
                                   [True, 7]]),
    "all_ints_and_all_strings": (["m", "s"], [[0, "a"], [1, "b,c"], [2, ""]]),
    "tuples": (["alpha", "negativity"], [(0.0, 0.0), (0.1, 1.0 / 3.0)]),
    "zero_rows": (["alpha", "negativity"], []),
    "one_column": (["v"], [[1.0], [2.5e-7]]),
}


class TestEmitByColumn:
    """`_emit` formats CSV a column at a time; the text is that of the per-cell
    reference in CSV and JSON."""

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_golden_rows(self, name):
        columns, rows = command_rows(CASES[name])
        for fmt in ("csv", "json"):
            assert cli._emit(columns, rows, fmt) == emit_per_cell(columns, rows, fmt)

    @pytest.mark.parametrize("name", sorted(EDGE_TABLES))
    def test_edge_rows(self, name):
        columns, rows = EDGE_TABLES[name]
        for fmt in ("csv", "json"):
            assert cli._emit(columns, rows, fmt) == emit_per_cell(columns, rows, fmt)


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
        # span/L0 = 1.7e308 rounds to n = 1024; 2 ** n overflowed a float and exited 1
        "rate --scheme usd --d 3 --L0 1e-300 --alpha 1.2 --span 1.7e8",
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

    def test_numerical_failure_is_one(self):
        # alpha = 0 passes every input check, and the USD probability is then 0
        cp = run_cli(*"rate --scheme usd --d 3 --L0 5 --span 10 --alpha 0".split())
        assert cp.returncode == 1
        assert cp.stdout == ""
        assert cp.stderr == ("hqrsim: numerical failure: generation probability is zero "
                             "for this configuration\n")

    def test_largest_span_has_finite_attempts(self, capsys):
        # n = 255: H_S's tail formed s ** 4 as an int and exited 1 with
        # "int too large to convert to float"
        argv = ("rate --scheme usd --d 3 --L0 100 --alpha 0.3 --span 5.78960446186581e+78 "
                "--rounds 0")
        assert main(argv.split()) == 0
        _, rows = rows_of(capsys.readouterr().out)
        values = dict(rows)
        assert values["segments"] == str(2 ** 255)
        assert math.isfinite(float(values["z_attempts"]))

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

    def test_mc_total_work_cap_is_two(self, capsys, monkeypatch):
        # each 10^18-trial chunk fits MC_MAX_WAITS, but the whole run would take centuries;
        # a draw would fail the test at once instead of running
        monkeypatch.setattr(rates, "_geometric", None)
        start = time.perf_counter()
        assert main("mc --n 0 --p 0.5 --trials 1000000000000000000 --seed 1".split()) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.err.startswith("hqrsim: invalid input:")
        assert "MC_MAX_TOTAL_WAITS" in captured.err
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
        # nor numpy's lazily imported polynomial and fft packages
        code = ("import sys, hqrsim.cli; "
                "hqrsim.cli.main(['homodyne', '--d', '3', '--L0', '5', '--alpha', '1.0']); "
                "print(sorted(m for m in sys.modules if m.startswith(('scipy', 'numpy.polynomial', "
                "'numpy.fft'))), file=sys.stderr)")
        cp = run_python("-c", code)
        assert cp.returncode == 0
        assert "offdiag_bound," in cp.stdout
        assert cp.stderr.strip() == "[]"

    def test_missing_config_is_two(self):
        cp = run_cli("--config", "/nonexistent/cfg", "usd", "--d", "3",
                     "--L0", "20", "--alpha", "0.5")
        assert cp.returncode == 2

    @pytest.mark.parametrize("case", ["config-directory", "config-not-utf8", "out-no-directory",
                                      "out-is-directory", "out-empty"])
    def test_unusable_file_is_two(self, tmp_path, case):
        # each of these ended in an OSError or UnicodeDecodeError traceback, exit 1;
        # an empty --out printed to stdout, exit 0
        (tmp_path / "existing").mkdir()
        (tmp_path / "latin1.cfg").write_bytes(b"l_att_km = 22 # \xe9\n")
        flag, path = {"config-directory": ("--config", tmp_path / "existing"),
                      "config-not-utf8": ("--config", tmp_path / "latin1.cfg"),
                      "out-no-directory": ("--out", tmp_path / "missing" / "x.csv"),
                      "out-is-directory": ("--out", tmp_path / "existing"),
                      "out-empty": ("--out", "")}[case]
        # run in a subdirectory: a temporary file for an empty path would land
        # in the parent of the working directory, tmp_path
        cp = run_cli(flag, str(path), "usd", "--d", "3", "--L0", "20", "--alpha", "0.5",
                     cwd=tmp_path / "existing")
        assert cp.returncode == 2
        assert cp.stdout == ""
        assert cp.stderr.startswith(f"hqrsim: error: {flag}: ")
        assert str(path) in cp.stderr
        assert cp.stderr.count("\n") == 1 and "Traceback" not in cp.stderr
        assert not list(tmp_path.rglob(".hqrsim-*"))

    def test_empty_out_makes_no_file(self, monkeypatch, capsys):
        # the temporary file of --out "" went to the parent of the working directory
        def refuse(*args, **kwargs):
            raise AssertionError("mkstemp called for an empty --out")
        monkeypatch.setattr(cli.tempfile, "mkstemp", refuse)
        assert main(["--out", "", "usd", "--d", "3", "--L0", "20", "--alpha", "0.5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "hqrsim: error: --out: cannot write : No such file or directory\n"
