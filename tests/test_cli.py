"""CLI behaviour: CSV determinism, golden sweep values, exit codes, config,
errors and repeated calls in one process."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import impulsewf
from impulsewf import adaptation, cli
from impulsewf.cli import CSV_HEADER, main, resolve_spec, rows_to_csv
from impulsewf.numerics import ConvergenceError
from oracles import parse_csv

CONV_A = [0.4842, 0.4246, 0.3707, 0.3237, 0.2845, 0.2544,
          0.2349, 0.2281, 0.2360, 0.2612, 0.3064]
AGG_B = [1.7524, 1.5772, 1.4019, 1.2267, 1.0514, 0.8762,
         0.7010, 0.5257, 0.3505, 0.1752, 0.0]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def column(rows, scheme, field):
    return [getattr(r, field) for r in rows if r.scheme == scheme]


class TestTheoryCommand:
    def test_default_sweep_reproduces_low_snr_low_inr_table(self, capsys):
        code, out, _ = run(capsys, ["theory"])
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 33
        conventional = column(rows, "conventional", "rate_theory")
        for got, want in zip(conventional, CONV_A):
            assert got == pytest.approx(want, abs=2e-3)

    def test_high_snr_high_inr_aggressive_column(self, capsys):
        code, out, _ = run(capsys, ["theory", "--snr-db", "10", "--mu-db", "20"])
        assert code == 0
        rows = parse_csv(out)
        aggressive = column(rows, "aggressive", "rate_theory")
        for got, want in zip(aggressive, AGG_B):
            assert got == pytest.approx(want, abs=2e-3)

    def test_single_scheme_constant_column(self, capsys):
        code, out, _ = run(capsys, ["theory", "--schemes", "conservative"])
        assert code == 0
        rows = parse_csv(out)
        assert {r.scheme for r in rows} == {"conservative"}
        rates = column(rows, "conservative", "rate_theory")
        assert all(v == rates[0] for v in rates)

    def test_theory_rows_leave_simulation_cells_empty(self, capsys):
        _, out, _ = run(capsys, ["theory"])
        for row in parse_csv(out):
            assert row.rate_sim is None
            assert row.outage_sim is None
            assert row.mean_power_sim is None
            assert row.seed is None

    def test_bursts_lost_near_the_ber_underflow(self, capsys):
        # At 0 dB INR a burst on a symbol adapted as clean puts it at a BER
        # of about 1e-305, far above the 1e-310 target, so it is lost even
        # though both BERs sit near the bottom of the float range.
        code, out, _ = run(capsys, ["theory", "--ber-const", "1e-300",
                                    "--pb", "1e-310", "--p-grid", "0.5"])
        assert code == 0
        rows = parse_csv(out)
        assert column(rows, "conventional", "outage_theory")[0] > 0.0
        assert column(rows, "aggressive", "outage_theory")[0] > 0.0
        assert column(rows, "conservative", "outage_theory")[0] == 0.0

    def test_byte_identical_across_runs(self, capsys):
        _, first, _ = run(capsys, ["theory", "--snr-db", "10", "--mu-db", "20"])
        _, second, _ = run(capsys, ["theory", "--snr-db", "10", "--mu-db", "20"])
        assert first == second

    def test_round_trip_reserialisation(self, capsys):
        _, out, _ = run(capsys, ["theory"])
        assert rows_to_csv(parse_csv(out)) == out
        assert out.startswith(CSV_HEADER + "\n")
        assert out.endswith("\n")
        assert "\r" not in out


class TestSimulateCommand:
    def test_simulated_columns_and_seed_recorded(self, capsys):
        code, out, _ = run(capsys, ["simulate", "--symbols", "20000",
                                    "--seed", "7", "--p-grid", "0.5"])
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 3
        for row in rows:
            assert row.rate_sim is not None
            assert row.seed == 7
            assert row.mean_power_sim == pytest.approx(1.0, abs=0.05)

    def test_conservative_rows_show_zero_outage(self, capsys):
        _, out, _ = run(capsys, ["simulate", "--symbols", "20000",
                                 "--schemes", "conservative"])
        for row in parse_csv(out):
            assert row.outage_sim == 0.0
            assert row.outage_theory == 0.0

    def test_conventional_point_matches_table(self, capsys):
        _, out, _ = run(capsys, ["simulate", "--p-grid", "0.5",
                                 "--schemes", "conventional"])
        row = parse_csv(out)[0]
        assert row.rate_sim == pytest.approx(0.2544, abs=0.005)
        assert row.outage_theory == 0.25

    def test_byte_identical_with_fixed_seed(self, capsys):
        argv = ["simulate", "--symbols", "20000", "--seed", "11",
                "--p-grid", "0.2,0.8"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second

    def test_out_writes_file_and_keeps_stdout_clean(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        code, out, _ = run(capsys, ["theory", "--out", str(target)])
        assert code == 0
        assert out == ""
        text = target.read_text(encoding="utf-8")
        assert text.startswith(CSV_HEADER)
        assert len(parse_csv(text)) == 33


class TestCrossoverCommand:
    def test_low_snr_low_inr_point(self, capsys):
        code, out, _ = run(capsys, ["crossover"])
        assert code == 0
        fields = dict(line.split("=", 1) for line in out.strip().split("\n")
                      if "=" in line and " " not in line.split("=")[0])
        assert float(fields["p_th"]) == pytest.approx(0.3672, abs=1e-3)
        assert float(fields["conservative_rate"]) == pytest.approx(0.3064, abs=2e-3)
        assert float(fields["aggressive_rate_p0"]) == pytest.approx(0.4842, abs=2e-3)

    def test_high_snr_high_inr_point(self, capsys):
        _, out, _ = run(capsys, ["crossover", "--snr-db", "10", "--mu-db", "20"])
        fields = dict(line.split("=", 1) for line in out.strip().split("\n")
                      if line.startswith(("p_th", "conservative", "aggressive")))
        assert float(fields["p_th"]) == pytest.approx(0.9454, abs=1e-3)

    def test_strictly_increasing_in_inr(self, capsys):
        values = []
        for mu in ("0", "10", "20"):
            _, out, _ = run(capsys, ["crossover", "--mu-db", mu])
            line = next(l for l in out.split("\n") if l.startswith("p_th="))
            values.append(float(line.split("=")[1]))
        assert values[0] < values[1] < values[2]

    def test_boundary_reports_zero(self, capsys):
        code, out, _ = run(capsys, ["crossover", "--mu-db=-inf"])
        assert code == 0
        assert "p_th=0\n" in out


class TestVerifyCommand:
    def test_hundred_symbol_run_passes_with_wide_tolerance(self, capsys):
        code, out, _ = run(capsys, ["verify", "--symbols", "100"])
        assert code == 0
        assert "FAIL" not in out
        assert "stderr=" in out
        assert "verified 33/33 rows" in out

    @pytest.mark.parametrize("block_len", ["4", "8"])
    @pytest.mark.parametrize("link", [[], ["--snr-db", "10", "--mu-db", "20"],
                                      ["--mu-db", "20"]], ids=["A", "B", "C"])
    def test_block_mode_passes_on_correct_simulation(self, capsys, link,
                                                     block_len):
        # Theory includes what the first symbol of each block earns, and
        # the standard error allows for the fading a block shares.
        code, out, _ = run(capsys, ["verify", "--mode", "block",
                                    "--block-len", block_len] + link)
        assert code == 0, out
        assert "verified 33/33 rows" in out

    def test_wrong_theory_is_flagged(self, capsys, monkeypatch):
        law = cli.policy_law

        def wrong_law(*args):
            rate, outage = law(*args)
            return rate + 0.1, outage
        monkeypatch.setattr(cli, "policy_law", wrong_law)
        code, out, _ = run(capsys, ["verify", "--p-grid", "0.5"])
        assert code == 2
        assert out.count(" FAIL\n") == 3
        assert "verified 0/3 rows, 3 FAILED" in out

    def test_zero_interference_passes(self, capsys):
        # INR = -inf: no burst costs a symbol, in theory or in simulation.
        code, out, _ = run(capsys, ["verify", "--mu-db=-inf"])
        assert code == 0, out
        assert "verified 33/33 rows" in out

    def test_config_error_before_any_computation(self, capsys):
        code, out, err = run(capsys, ["verify", "--pb", "0.3"])
        assert code == 1
        assert out == ""
        assert "config error" in err


class TestSolveOnce:
    """Each command makes one solve call, with each distinct cutoff row in
    it once: a fixed belief's row serves every p, and conventional's rows
    at p = 0 and p = 1 are aggressive's and conservative's."""

    @pytest.mark.parametrize("argv,rows", [
        (["theory"], 11),
        (["theory", "--p-grid", ",".join(f"{i / 20:g}" for i in range(21))],
         21),
        (["theory", "--p-grid", "0.5"], 3),
        (["theory", "--schemes", "aggressive,conservative"], 2),
        (["simulate", "--symbols", "100"], 11),
        (["verify", "--symbols", "100", "--p-grid", "0.5"], 3),
        (["crossover"], 2),
    ])
    def test_one_call_of_distinct_rows(self, capsys, monkeypatch, argv, rows):
        calls = []
        solve = adaptation.solve_cutoffs

        def counted(weights, means, k):
            calls.append(len(k))
            return solve(weights, means, k)
        monkeypatch.setattr(adaptation, "solve_cutoffs", counted)
        code, _, _ = run(capsys, argv)
        assert code in (0, 2)
        assert calls == [rows]


class TestConfigResolution:
    def test_config_file_supplies_values(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"snr_db": 10, "mu_db": 20,
                                      "schemes": ["aggressive"]}))
        _, out, _ = run(capsys, ["theory", "--config", str(config)])
        rows = parse_csv(out)
        got = column(rows, "aggressive", "rate_theory")
        assert got[0] == pytest.approx(1.7524, abs=2e-3)

    def test_flags_override_config_file(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"snr_db": 10, "mu_db": 20}))
        _, out, _ = run(capsys, ["theory", "--config", str(config),
                                 "--snr-db", "0", "--schemes", "conservative"])
        rows = parse_csv(out)
        assert rows[0].rate_theory == pytest.approx(0.0155, abs=2e-3)

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"snr": 10}))
        code, _, err = run(capsys, ["theory", "--config", str(config)])
        assert code == 1
        assert "unknown config keys" in err

    def test_bad_scheme_rejected(self, capsys):
        code, _, err = run(capsys, ["theory", "--schemes", "bold"])
        assert code == 1
        assert "unknown scheme" in err

    def test_non_increasing_grid_rejected(self, capsys):
        code, _, err = run(capsys, ["theory", "--p-grid", "0.5,0.2"])
        assert code == 1
        assert "strictly increasing" in err

    def test_grid_outside_unit_interval_rejected(self, capsys):
        code, _, err = run(capsys, ["theory", "--p-grid", "0.5,1.2"])
        assert code == 1

    def test_schemes_normalised_to_canonical_order(self):
        args = cli._build_parser().parse_args(
            ["theory", "--schemes", "conservative,conventional"])
        spec = resolve_spec(args)
        assert [s.value for s in spec.schemes] == ["conventional", "conservative"]


class TestOptionSurface:
    # OPTIONS is the one list of options: these pin the parser and the
    # config file to it.
    @pytest.mark.parametrize("command",
                             ["theory", "simulate", "crossover", "verify"])
    def test_every_parser_has_exactly_the_table_options(self, command):
        args = cli._build_parser().parse_args([command])
        assert set(vars(args)) - {"command"} == {"config", *cli.OPTIONS}

    def test_config_of_all_defaults_is_no_config(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(
            {key: default for key, (default, _, _) in cli.OPTIONS.items()}))
        parse = cli._build_parser().parse_args
        with_file = resolve_spec(parse(["simulate", "--config", str(path)]))
        assert with_file == resolve_spec(parse(["simulate"]))


def run_module(*args):
    """Run ``python -m impulsewf.cli`` (or other code) in a fresh interpreter."""
    env = dict(os.environ)
    src = str(Path(impulsewf.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


class TestRepeatedCalls:
    # Flags set in one call and left out of the next, so a default that
    # leaked from an earlier call would change the later output.
    SEQUENCE = [
        ["theory", "--snr-db", "10", "--mu-db", "20", "--schemes", "aggressive"],
        ["theory"],
        ["crossover", "--mu-db", "10"],
        ["simulate", "--symbols", "2000", "--seed", "3", "--p-grid", "0.5",
         "--mode", "block", "--block-len", "2"],
        ["simulate", "--symbols", "2000", "--p-grid", "0.5"],
        ["crossover"],
        ["theory", "--pb", "1e-5", "--p-grid", "0,1"],
        ["theory", "--p-grid", "0,1"],
        ["verify", "--symbols", "100", "--p-grid", "0.2"],
    ]

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_sequence_matches_calls_made_alone(self, capsys):
        in_sequence = [run(capsys, argv) for argv in self.SEQUENCE]
        alone = []
        for argv in self.SEQUENCE:
            cli._build_parser.cache_clear()
            alone.append(run(capsys, argv))
        assert in_sequence == alone
        assert all(code == 0 for code, _, _ in in_sequence)


class TestErrors:
    def test_nan_inr_is_one_line_exit_1(self, capsys):
        code, out, err = run(capsys, ["theory", "--mu-db", "nan"])
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and "inr_db" in err

    def test_block_longer_than_run_is_config_error(self, capsys):
        code, out, err = run(capsys, ["simulate", "--symbols", "1", "--mode",
                                      "block", "--block-len", "2000000"])
        assert code == 1
        assert out == ""
        assert err.startswith("config error: block_len must not exceed")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["--ber-const", "inf"],
                                      ["--ber-const", "1e308", "--pb", "1e-300"]])
    def test_ber_constants_without_budget_constant_rejected(self, capsys,
                                                            argv):
        code, out, err = run(capsys, ["theory", *argv])
        assert code == 1
        assert out == ""
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "target_ber=" in err and "ber_coeff=" in err

    @pytest.mark.parametrize("flag", ["--snr-db", "--mu-db"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_link_rejected(self, capsys, flag, value):
        code, _, err = run(capsys, ["crossover", flag, value])
        assert code == 1
        assert err.startswith("config error:")

    @pytest.mark.parametrize("exc", [ValueError("bad\nvalue"),
                                     ConvergenceError("stuck", iterations=9)])
    def test_computation_errors_exit_1(self, capsys, monkeypatch, exc):
        def fail(*args, **kwargs):
            raise exc
        monkeypatch.setattr(cli, "make_policies", fail)
        code, out, err = run(capsys, ["theory"])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    # Each case names the key its message must mention, or None when the
    # error belongs to no single key.
    @pytest.mark.parametrize("config,extra,key", [
        ('{"p_grid": 0.5}', [], "p_grid"),
        ('{"p_grid": [false, true]}', [], "p_grid"),
        ('{"p_grid": ["0.5"]}', [], "p_grid"),
        ('{"symbols": null}', [], "symbols"),
        ('{"schemes": 5}', [], "schemes"),
        ('{"schemes": []}', [], "schemes"),
        ('{"snr_db": [1]}', [], "snr_db"),
        ('{"snr_db": true}', [], "snr_db"),
        ('{"snr_db": 1' + "0" * 400 + "}", [], "snr_db"),
        ('{"pb": "0.001"}', [], "pb"),
        ('{"mode": 5}', [], "mode"),
        ("5", [], None),
        ("[" * 100_000 + "]" * 100_000, [], None),
        ('{"seed": 1.7}', [], "seed"),
        ('{"seed": true}', [], "seed"),
        ('{"symbols": 2.5}', [], "symbols"),
        ('{"block_len": 1.5}', [], "block_len"),
        ('{"out": 5}', [], "out"),
        ("{}", ["--out", "missing/x.csv"], None),
    ], ids=["grid-number", "grid-bools", "grid-string-item", "symbols-null",
            "schemes-number", "schemes-empty", "snr-list", "snr-bool",
            "snr-huge-int", "pb-string", "mode-number", "top-level-number",
            "deep-nesting", "seed-fraction", "seed-bool", "symbols-fraction",
            "block-len-fraction", "out-number", "out-missing-dir"])
    def test_bad_input_is_one_line_exit_1(self, capsys, tmp_path, config,
                                          extra, key):
        path = tmp_path / "run.json"
        path.write_text(config)
        extra = [str(tmp_path / a) if a.endswith(".csv") else a for a in extra]
        code, out, err = run(capsys, ["theory", "--config", str(path), *extra])
        assert code == 1
        assert out == ""
        assert err.startswith(("config error: ", "error: "))
        assert err.count("\n") == 1
        if key is not None:
            assert f"{key}: " in err

    def test_integral_float_counts_are_accepted(self, capsys, tmp_path):
        # JSON has one number type: 1e5 and 2.0 are whole numbers.
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"symbols": 1e5, "seed": 2.0}))
        _, out, _ = run(capsys, ["simulate", "--config", str(path),
                                 "--p-grid", "0.5"])
        _, flags, _ = run(capsys, ["simulate", "--symbols", "100000",
                                   "--seed", "2", "--p-grid", "0.5"])
        assert out == flags

    def test_module_entry_point_without_traceback(self):
        # Exit 1 shows that ``python -m impulsewf.cli`` reaches main().
        done = run_module("-m", "impulsewf.cli", "theory", "--mu-db", "nan")
        assert done.returncode == 1
        assert done.stdout == ""
        assert "Traceback" not in done.stderr
        assert len(done.stderr.strip().splitlines()) == 1


class TestRangeEdges:
    @pytest.mark.parametrize("snr_db", ["120", "-100"])
    def test_theory_at_snr_range_ends(self, capsys, snr_db):
        code, out, err = run(capsys, ["theory", "--snr-db", snr_db, "--mu-db", "30"])
        assert code == 0, err
        rows = parse_csv(out)
        assert len(rows) == 33
        assert all(r.rate_theory >= 0.0 for r in rows)


def test_import_leaves_scipy_integrate_unloaded():
    done = run_module("-c", "import sys, impulsewf.cli; "
                            "print('scipy.integrate' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
