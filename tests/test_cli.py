import configparser
import contextlib
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rspool import activation_curve, activity_probs, load_experiment, place_stations
from rspool import analysis, cli, traffic
from rspool.cli import main
from rspool.simulator import ScenarioStats

ROOT = Path(__file__).resolve().parent.parent

SMALL_CELL = """
[cell]
n_stations = 200
radius_m = 1000

[traffic]
t_ri_s = 300
lambda_d_per_s = 0.000666666666667

[protocol]
omega = 10
delta_c_pct = 50
t_r_s = 2.5
rs_duration_s = 0.0002

[deadlines]
tau_a_s = 5

[priors]
p_h1 = 0.005

[alarm.quake]
speed_m_per_s = 4000
event_time_s = 10
correlation = sqrtcap
d_max_m = 500

[simulation]
horizon_s = 125

[sweep]
omega_values = 1 5 10 20
delta_c_pcts = 25 50

[compare]
omega_values = 5 10 20
delta_c_pct = 50
"""


@pytest.fixture
def config_path(tmp_path) -> Path:
    path = tmp_path / "cell.ini"
    path.write_text(SMALL_CELL, encoding="utf-8")
    return path


def run_cli(*argv) -> int:
    return main(list(argv))


def error_lines(capsys) -> list[str]:
    """The error categories on stderr, which must be its only lines."""
    lines = capsys.readouterr().err.splitlines()
    assert all(line.startswith("error:") for line in lines), lines
    return [":".join(line.split(":", 2)[:2]) for line in lines]


class TestTrafficCommand:
    def test_writes_curve_and_fit(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert run_cli("traffic", "--config", str(config_path),
                       "--seed", "7", "--out", str(out)) == 0
        csv_text = (out / "activation_quake.csv").read_text()
        assert csv_text.splitlines()[0] == "bin_start_s,count"
        fit = json.loads((out / "fit_quake.json").read_text())
        assert set(fit) >= {"alpha", "beta", "t_span_s", "residual"}

    def test_requires_seed(self, config_path, tmp_path, capsys):
        assert run_cli("traffic", "--config", str(config_path),
                       "--out", str(tmp_path / "x")) == 1
        assert "error:seed-required" in capsys.readouterr().err

    def test_no_scenarios_error(self, tmp_path, capsys):
        cfg = tmp_path / "noalarm.ini"
        cfg.write_text("[cell]\nn_stations = 10\nradius_m = 100\n", encoding="utf-8")
        assert run_cli("traffic", "--config", str(cfg), "--seed", "1",
                       "--out", str(tmp_path / "o")) == 1
        assert "error:no-scenarios" in capsys.readouterr().err

    def test_failing_later_scenario_leaves_no_files(self, tmp_path, capsys):
        # every curve and fit is built before the first file is written
        cfg = tmp_path / "two.ini"
        cfg.write_text(SMALL_CELL.replace("[alarm.quake]", "[alarm.a]")
                       + "\n[alarm.b]\nspeed_m_per_s = 1e-310\ncorrelation = unit\n",
                       encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli("traffic", "--config", str(cfg), "--seed", "1",
                       "--out", str(out)) == 1
        assert error_lines(capsys) == ["error:config-invalid"]
        assert not out.exists()

    def test_missing_config_error(self, tmp_path, capsys):
        assert run_cli("traffic", "--config", str(tmp_path / "nope.ini"),
                       "--seed", "1", "--out", str(tmp_path)) == 1
        assert "error:config-missing" in capsys.readouterr().err


def activation_config(tmp_path, radius_m="1000", **alarm) -> Path:
    """configs/activation_curves.ini with the cell radius and the given keys
    of every [alarm.*] section set."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.read(ROOT / "configs" / "activation_curves.ini", encoding="utf-8")
    cp["cell"]["radius_m"] = radius_m
    for section in cp.sections():
        if section.startswith("alarm."):
            cp[section].update(alarm)
    cfg = tmp_path / "curves.ini"
    with open(cfg, "w", encoding="utf-8") as fh:
        cp.write(fh)
    return cfg


def activation_bins(out: Path) -> dict[str, int]:
    """The bin count of each activation curve written to `out`."""
    return {path.stem.removeprefix("activation_"):
            len(path.read_text(encoding="utf-8").splitlines()) - 1
            for path in out.glob("activation_*.csv")}


class TestActivationBins:
    """The activation bin is 1/50 of the time the front takes to cross the
    cell radius, so an epicentre inside the cell spans at most 100 bins."""

    def test_slow_centred_front_gives_50_bins(self, tmp_path):
        # 1000 m at 4 m/s: 5 s bins, and some of the 1000 stations lie
        # within 20 m of the edge, so the all-affected front fills all 50
        cfg = activation_config(tmp_path, speed_m_per_s="4")
        out = tmp_path / "out"
        assert run_cli("traffic", "--config", str(cfg), "--seed", "1",
                       "--out", str(out)) == 0
        bins = activation_bins(out)
        assert bins["all_affected"] == 50
        assert max(bins.values()) == 50

    @pytest.mark.parametrize("speed", ["4", "4000"])
    def test_edge_epicentre_spans_at_most_101_bins(self, tmp_path, speed):
        cfg = activation_config(tmp_path, speed_m_per_s=speed, epicenter_x_m="1000")
        out = tmp_path / "out"
        assert run_cli("traffic", "--config", str(cfg), "--seed", "1",
                       "--out", str(out)) == 0
        bins = activation_bins(out)
        assert len(bins) == 3 and max(bins.values()) <= 101

    def test_tiny_speed_is_a_long_curve(self, tmp_path):
        # bins of 2e301 s, 1/50 of the 1e303 s the front takes to cross the
        # 1000 m radius; the window's square overflows the Beta fit
        cfg = write_cell_with(tmp_path, "alarm.quake", "speed_m_per_s", "1e-300")
        out = tmp_path / "out"
        assert run_cli("traffic", "--config", str(cfg), "--seed", "1",
                       "--out", str(out)) == 0
        assert 1 <= activation_bins(out)["quake"] <= 101
        fit = json.loads((out / "fit_quake.json").read_text())
        assert fit["alpha"] is None and "overflows the fit" in fit["unfittable"]

    @pytest.mark.parametrize("epicenter_x_m", ["0", "1"],
                             ids=["triggered", "none-triggered"])
    def test_underflowing_width_is_one_error_line(self, tmp_path, capsys,
                                                  epicenter_x_m):
        # 1e-300 m / (50 * 1e300 m/s) underflows to 0; 1 m from the centre
        # no station of the 1e-300 m cell is within the 0.5 m reach
        cfg = activation_config(tmp_path, radius_m="1e-300", speed_m_per_s="1e300",
                                correlation="sqrtcap", d_max_m="0.5",
                                epicenter_x_m=epicenter_x_m)
        out = tmp_path / "new" / "out"
        assert run_cli("traffic", "--config", str(cfg), "--seed", "1",
                       "--out", str(out)) == 1
        assert "activation bin" in config_invalid_line(capsys)
        assert not (tmp_path / "new").exists()


class TestAnalyzeCommand:
    def test_writes_report(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert run_cli("analyze", "--config", str(config_path),
                       "--seed", "3", "--out", str(out)) == 0
        report = json.loads((out / "analysis.json").read_text())
        assert report["p_00"] + report["p_10"] == pytest.approx(1.0)
        assert report["e_c"] >= report["params"]["n"] / report["params"]["omega"]

    def test_undefined_figures_are_null(self, tmp_path):
        # no traffic and no alarm: no pool collides, so the figures given a
        # collided slot are undefined and written as null
        cp = configparser.ConfigParser(interpolation=None)
        cp.read_string(SMALL_CELL)
        cp.remove_section("alarm.quake")
        cp["traffic"] = {"t_ri_s": "1e300", "lambda_d_per_s": "0"}
        cp["priors"]["p_h1"] = "0"
        cfg = tmp_path / "idle.ini"
        with open(cfg, "w", encoding="utf-8") as fh:
            cp.write(fh)
        assert run_cli("analyze", "--config", str(cfg), "--out", str(tmp_path)) == 0
        text = (tmp_path / "analysis.json").read_text()
        report = json.loads(text, parse_constant=refuse_constant)
        assert report["e_k_10"] is None and report["e_c_10"] is None
        assert report["e_c"] == pytest.approx(20.0)

    def test_infeasible_config_cites_worst_case(self, tmp_path, capsys):
        # worst-case pool for this cell runs 0.044 s, so 2.52 s cannot cover
        # the 2.5 s period plus the pool
        text = SMALL_CELL.replace("tau_a_s = 5", "tau_a_s = 2.52")
        cfg = tmp_path / "tight.ini"
        cfg.write_text(text, encoding="utf-8")
        assert run_cli("analyze", "--config", str(cfg), "--seed", "3",
                       "--out", str(tmp_path / "o")) == 1
        err = capsys.readouterr().err
        assert "error:infeasible-config" in err
        assert "worst-case" in err

    def test_schema_violation_names_key(self, tmp_path, capsys):
        text = SMALL_CELL.replace("omega = 10", "omega = ten")
        cfg = tmp_path / "bad.ini"
        cfg.write_text(text, encoding="utf-8")
        assert run_cli("analyze", "--config", str(cfg), "--seed", "3",
                       "--out", str(tmp_path / "o")) == 1
        assert "protocol.omega" in capsys.readouterr().err

    def test_omega_past_float_range(self, tmp_path, capsys):
        # the default frames are fractions of omega, taken in floating point
        cfg = tmp_path / "huge.ini"
        cfg.write_text(SMALL_CELL.replace("omega = 10", "omega = 1" + "0" * 400),
                       encoding="utf-8")
        assert run_cli("analyze", "--config", str(cfg), "--seed", "3",
                       "--out", str(tmp_path / "o")) == 1
        assert error_lines(capsys) == ["error:config-invalid"]

    def test_naive_mode_is_analyzed_at_delta_c_1(self, tmp_path):
        # the naive scheme is delta_c_slots = 1, the threshold a percentage
        # of one pool slot rounds up to; analyze reports the one it analysed
        outs = []
        for name, cfg in (("naive", write_naive_cell(tmp_path / "naive")),
                          ("pct", write_cell_with(tmp_path / "pct", "protocol",
                                                  "delta_c_pct", "1"))):
            outs.append(tmp_path / name / "out" / "analysis.json")
            assert run_cli("analyze", "--config", str(cfg), "--seed", "3",
                           "--out", str(outs[-1].parent)) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert json.loads(outs[0].read_text())["params"]["delta_c"] == 1

    def test_naive_cost_is_compare_naives(self, tmp_path):
        # the reference cell at omega = 40, the configured 24/16 frames
        text = (ROOT / "configs" / "reference_cell.ini").read_text(encoding="utf-8")
        assert "\ndelta_c_pct = 50\nl1 = 24\n" in text
        cfg = tmp_path / "naive.ini"
        cfg.write_text(text.replace("\ndelta_c_pct = 50\nl1 = 24\n",
                                    "\ndelta_c_slots = 1\nl1 = 24\n"), encoding="utf-8")
        for command in ("analyze", "compare-naive"):
            assert run_cli(command, "--config", str(cfg), "--seed", "1",
                           "--format", "json", "--out", str(tmp_path / "o")) == 0
        e_c = json.loads((tmp_path / "o" / "analysis.json").read_text())["e_c"]
        rows = json.loads((tmp_path / "o" / "compare_naive.json").read_text())
        assert [row["e_c_naive"] for row in rows if row["omega"] == 40] == [e_c]


class TestSimulateCommand:
    def test_writes_stats_and_histogram(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", str(config_path),
                       "--seed", "11", "--out", str(out)) == 0
        stats = json.loads((out / "scenario_stats.json").read_text())
        assert stats["pools_run"] == 50
        assert stats["unresolved_active"] == 0
        hist = (out / "delay_histogram.csv").read_text().splitlines()
        assert hist[0] == "kind,bin_start_s,count"
        assert len(hist) > 1

    def test_trace_option(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", str(config_path),
                       "--seed", "11", "--out", str(out), "--trace") == 0
        lines = (out / "pool_trace.jsonl").read_text().splitlines()
        assert len(lines) == 50
        first = json.loads(lines[0])
        assert {"window", "k_c", "decision", "total_rs"} <= set(first)

    @pytest.mark.parametrize("alarm_prob", [None, "0.05"])
    def test_trace_bytes(self, tmp_path, alarm_prob):
        # 600 pools are three chunks; at 0.05 alarm events per pool the run
        # has H1 windows and alarm decisions. Each line must be the bytes
        # json.dumps(entry, sort_keys=True) writes
        cp = configparser.ConfigParser(interpolation=None)
        cp.read(ROOT / "configs" / "reference_cell.ini", encoding="utf-8")
        if alarm_prob is not None:
            cp["simulation"]["alarm_prob_per_pool"] = alarm_prob
        cfg = tmp_path / "cell.ini"
        with open(cfg, "w", encoding="utf-8") as fh:
            cp.write(fh)
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", str(cfg), "--seed", "3",
                       "--replications", "600", "--trace", "--out", str(out)) == 0
        lines = (out / "pool_trace.jsonl").read_text(encoding="utf-8").splitlines()
        assert all(line == json.dumps(json.loads(line), sort_keys=True)
                   for line in lines)
        entries = [json.loads(line) for line in lines]
        stats = json.loads((out / "scenario_stats.json").read_text())
        assert len(entries) == stats["pools_run"] == 600
        assert [e["window"] for e in entries] == list(range(600))
        assert sum(e["total_rs"] for e in entries) / 600 == stats["mean_rs_per_pool"]
        if alarm_prob is not None:
            assert {e["hypothesis"] for e in entries} == {"h0", "h1"}
            assert {e["decision"] for e in entries} == {"regular", "alarm"}

    def test_replications_override_horizon(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", str(config_path),
                       "--seed", "11", "--out", str(out),
                       "--replications", "8") == 0
        stats = json.loads((out / "scenario_stats.json").read_text())
        assert stats["pools_run"] == 8

    @pytest.mark.parametrize("n", [1, 3])
    def test_replications_run_exactly_n_pools(self, config_path, tmp_path, n):
        # at t_r = 0.7 s, 3 * 0.7 / 0.7 rounds below 3
        cfg = tmp_path / "short.ini"
        cfg.write_text(config_path.read_text().replace("t_r_s = 2.5", "t_r_s = 0.7"),
                       encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", str(cfg), "--seed", "11",
                       "--out", str(out), "--replications", str(n)) == 0
        stats = json.loads((out / "scenario_stats.json").read_text())
        assert stats["pools_run"] == n

    def test_delay_bins_are_hundredths_of_tau_a(self, tmp_path):
        # every delay is below t_r plus the worst-case pool duration (2.544 s
        # here), which the deadline check keeps below tau_a = 2.6 s
        cp = configparser.ConfigParser(interpolation=None)
        cp.read_string(SMALL_CELL)
        cp["deadlines"]["tau_a_s"] = "2.6"
        cp["simulation"]["alarm_prob_per_pool"] = "0.1"
        cfg = tmp_path / "cell.ini"
        with open(cfg, "w", encoding="utf-8") as fh:
            cp.write(fh)
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", str(cfg), "--seed", "5",
                       "--replications", "200", "--out", str(out)) == 0
        rows = [line.split(",") for line in
                (out / "delay_histogram.csv").read_text().splitlines()[1:]]
        assert {kind for kind, _, _ in rows} >= {"alarm", "periodic"}
        width = 2.6 / 100
        for _, start, _ in rows:
            i = round(float(start) / width)
            assert float(start) == i * width and 0 <= i < 100

    def test_subnormal_alarm_deadline_rejected(self, tmp_path, capsys):
        # pools of 5e-324 s meet a 1e-322 s deadline, but the delay bin,
        # tau_a / 100, would underflow to 0
        cfg = tmp_path / "tiny.ini"
        cfg.write_text("[cell]\nn_stations = 4\nradius_m = 1\n"
                       "[traffic]\nt_ri_s = 300\n"
                       "[protocol]\nomega = 1\ndelta_c_slots = 4\nl1 = 1\nl2 = 1\n"
                       "t_r_s = 5e-324\nrs_duration_s = 5e-324\n"
                       "[deadlines]\ntau_a_s = 1e-322\n", encoding="utf-8")
        out = tmp_path / "new" / "out"
        assert run_cli("simulate", "--config", str(cfg), "--seed", "1",
                       "--replications", "1", "--out", str(out)) == 1
        assert "not subnormal" in config_invalid_line(capsys)
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("n", ["0", "-4", str(2**63), "1" + "0" * 400],
                             ids=["0", "-4", "2**63", "1e400"])
    def test_replications_below_one_rejected(self, config_path, tmp_path, capsys, n):
        # a run's pool and window indices are int64: [1, 2**63) pools
        assert run_cli("simulate", "--config", str(config_path), "--seed", "11",
                       "--out", str(tmp_path / "out"), "--replications", n) == 1
        assert error_lines(capsys) == ["error:invalid-argument"]
        assert not (tmp_path / "out").exists()

    def test_byte_identical_reruns(self, config_path, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert run_cli("simulate", "--config", str(config_path),
                           "--seed", "42", "--out", str(out)) == 0
        for name in ("scenario_stats.json", "delay_histogram.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    @pytest.mark.parametrize("seed", ["1", "7"])
    def test_naive_mode_is_adaptive_at_delta_c_1(self, tmp_path, seed):
        # the naive baseline is the threshold test at delta_c = 1, so both
        # configurations write the same bytes, the per-pool trace included
        outs = []
        for name, cfg in (("naive", write_naive_cell(tmp_path / "naive")),
                          ("pct", write_cell_with(tmp_path / "pct", "protocol",
                                                  "delta_c_pct", "1"))):
            outs.append(tmp_path / name / "out")
            assert run_cli("simulate", "--config", str(cfg), "--seed", seed,
                           "--out", str(outs[-1]), "--trace") == 0
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        assert "pool_trace.jsonl" in names
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
        stats = json.loads((outs[0] / "scenario_stats.json").read_text())
        assert stats["pools_h1"] > 0 and stats["p_alarm_given_h1"] == 1.0


class TestSweepCommand:
    def test_writes_rows_and_argmin(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert run_cli("sweep", "--config", str(config_path),
                       "--seed", "5", "--out", str(out)) == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        assert rows[0].startswith("omega,delta_c_pct")
        assert len(rows) == 1 + 4 * 2
        argmin = json.loads((out / "sweep_argmin.json").read_text())
        assert argmin["evaluation"] == "analytical"
        assert argmin["omega"] in (1, 5, 10, 20)

    def test_json_format(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert run_cli("sweep", "--config", str(config_path),
                       "--seed", "5", "--out", str(out),
                       "--format", "json") == 0
        rows = json.loads((out / "sweep.json").read_text())
        assert len(rows) == 8
        assert {"omega", "delta_c_pct", "e_c_analytical"} <= set(rows[0])


class TestCompareNaiveCommand:
    def test_writes_table_and_summary(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert run_cli("compare-naive", "--config", str(config_path),
                       "--seed", "5", "--out", str(out)) == 0
        rows = (out / "compare_naive.csv").read_text().splitlines()
        assert rows[0] == "omega,e_c_adaptive,e_c_naive"
        assert len(rows) == 4
        summary = json.loads((out / "compare_naive_summary.json").read_text())
        assert summary["naive_over_adaptive_ratio"] >= 1.0


class TestOneCellPerSeed:
    """Every command places the stations from child 0 of its seed, so one
    seed names one cell."""

    @pytest.mark.parametrize("seed", ["1", "2", "3"])
    def test_compare_naive_rows_are_searched_sweep_rows(self, tmp_path, seed):
        cp = configparser.ConfigParser(interpolation=None)
        cp.read_string(SMALL_CELL)
        cp["sweep"]["l1_frac"] = cp["sweep"]["l2_frac"] = "search"
        cfg = tmp_path / "cell.ini"
        with open(cfg, "w", encoding="utf-8") as fh:
            cp.write(fh)
        out = tmp_path / "out"
        for command in ("sweep", "compare-naive"):
            assert run_cli(command, "--config", str(cfg), "--seed", seed,
                           "--format", "json", "--out", str(out)) == 0
        swept = {(row["omega"], row["delta_c_pct"]): row["e_c_analytical"]
                 for row in json.loads((out / "sweep.json").read_text())}
        pct = cp.getfloat("compare", "delta_c_pct")
        rows = json.loads((out / "compare_naive.json").read_text())
        assert [row["omega"] for row in rows] == [5, 10, 20]
        for row in rows:
            assert row["e_c_adaptive"] == swept[(row["omega"], pct)], row

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_analyze_reads_the_cell_simulate_runs(self, config_path, tmp_path,
                                                  monkeypatch, seed):
        placed = []

        def recording(*args, **kwargs):
            placed.append(place_stations(*args, **kwargs))
            return placed[-1]

        monkeypatch.setattr("rspool.traffic.place_stations", recording)
        assert run_cli("simulate", "--config", str(config_path), "--seed", str(seed),
                       "--replications", "2", "--out", str(tmp_path / "sim")) == 0
        monkeypatch.undo()
        exp = load_experiment(str(config_path))
        cell = exp.cell()
        child0 = np.random.SeedSequence(seed).spawn(1)[0]
        geometry = place_stations(cell.n_stations, cell.radius_m, child0)
        np.testing.assert_array_equal(placed[0].positions, geometry.positions)
        activity = activity_probs(cell.traffic, cell.protocol.t_r,
                                  exp.alarms()[0][1], geometry)
        assert run_cli("analyze", "--config", str(config_path), "--seed", str(seed),
                       "--out", str(tmp_path / "an")) == 0
        report = json.loads((tmp_path / "an" / "analysis.json").read_text())
        assert report["params"]["p_a1"] == activity.p_a1


class TestPathErrors:
    def test_out_naming_a_file(self, config_path, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        assert run_cli("analyze", "--config", str(config_path), "--seed", "3",
                       "--out", str(taken)) == 1
        assert error_lines(capsys) == ["error:output-unwritable"]

    def test_config_naming_a_directory(self, tmp_path, capsys):
        assert run_cli("analyze", "--config", str(tmp_path), "--seed", "3",
                       "--out", str(tmp_path / "o")) == 1
        assert error_lines(capsys) == ["error:config-unreadable"]


class TestRejectedCalls:
    @pytest.mark.parametrize("argv,edit", [
        (["simulate"], None),
        (["simulate", "--seed", "1", "--replications", "0"], None),
        (["simulate", "--seed", "1"], ("tau_a_s = 5", "tau_a_s = 2.52")),
        (["analyze", "--seed", "1"], ("tau_a_s = 5", "tau_a_s = 2.52")),
        # the trace file is opened by its first line, after the first pool
        (["simulate", "--seed", "1", "--trace"], ("tau_a_s = 5", "tau_a_s = 2.52")),
        (["simulate", "--seed", "1", "--trace"],
         ("speed_m_per_s = 4000", "speed_m_per_s = 1e-310")),
    ], ids=["missing-seed", "zero-replications", "infeasible-simulate",
            "infeasible-analyze", "infeasible-simulate-traced",
            "alarm-time-simulate-traced"])
    def test_leaves_no_output_directory(self, tmp_path, capsys, argv, edit):
        cfg = tmp_path / "cell.ini"
        cfg.write_text(SMALL_CELL if edit is None else SMALL_CELL.replace(*edit),
                       encoding="utf-8")
        out = tmp_path / "new" / "out"
        assert run_cli(*argv, "--config", str(cfg), "--out", str(out)) == 1
        assert len(error_lines(capsys)) == 1
        assert not (tmp_path / "new").exists()


class TestParserReuse:
    """`main` builds its parser once per process; no call may see another's
    arguments."""

    def test_flags_do_not_carry_over(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", str(config_path), "--seed", "1",
                       "--replications", "3", "--trace", "--format", "json",
                       "--out", str(out)) == 0
        assert (out / "pool_trace.jsonl").exists()
        out = tmp_path / "sweep"
        assert run_cli("sweep", "--config", str(config_path), "--seed", "1",
                       "--out", str(out)) == 0
        assert sorted(p.name for p in out.iterdir()) == ["sweep.csv",
                                                        "sweep_argmin.json"]

    def test_next_call_after_a_parser_error(self, config_path, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("simulate", "--config", str(config_path), "--bogus")
        assert exc.value.code == 2
        capsys.readouterr()
        out = tmp_path / "out"
        assert run_cli("analyze", "--config", str(config_path), "--seed", "1",
                       "--out", str(out)) == 0
        assert capsys.readouterr().err == ""
        assert (out / "analysis.json").exists()


LAST_CELL_COMMANDS = (["traffic"], ["analyze"],
                      ["simulate", "--replications", "20", "--trace"],
                      ["sweep"], ["compare-naive"])


def reference_copy(tmp_path, name: str, section: str = "cell", **keys) -> Path:
    """configs/reference_cell.ini with searched frame fractions and the given
    keys of `section` set."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.read(ROOT / "configs" / "reference_cell.ini", encoding="utf-8")
    cp["sweep"]["l1_frac"] = cp["sweep"]["l2_frac"] = "search"
    cp[section].update(keys)
    cfg = tmp_path / name
    with open(cfg, "w", encoding="utf-8") as fh:
        cp.write(fh)
    return cfg


def output_bytes(out: Path) -> dict[str, bytes]:
    return {str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}


class TestLastCell:
    """`main` keeps the last cell it placed, with its alarm activity; no
    output may depend on which cell it holds."""

    def run_commands(self, cfg: Path, seed: str, out: Path, cold: bool) -> None:
        for argv in LAST_CELL_COMMANDS:
            if cold:
                cli._last_cell.clear()
            assert run_cli(*argv, "--config", str(cfg), "--seed", seed,
                           "--out", str(out)) == 0, argv

    def test_outputs_do_not_depend_on_the_kept_cell(self, tmp_path, monkeypatch):
        searched = reference_copy(tmp_path, "searched.ini")
        smaller = reference_copy(tmp_path, "smaller.ini", n_stations="6000")
        # the last run's cell, with another reporting interval
        lighter = reference_copy(tmp_path, "lighter.ini", "traffic", t_ri_s="600")
        order = [(searched, "1"), (searched, "2"), (smaller, "1"), (searched, "1"),
                 (lighter, "1")]
        expected = {}
        for cfg, seed in dict.fromkeys(order):
            out = tmp_path / "cold" / f"{cfg.stem}-{seed}"
            self.run_commands(cfg, seed, out, cold=True)
            expected[cfg, seed] = output_bytes(out)
        calls = []

        def counted(module, name):
            fn = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *args: calls.append(name) or fn(*args))

        counted(traffic, "place_stations")
        counted(analysis, "activity_prob_alarm")
        cli._last_cell.clear()
        cells = []
        for i, (cfg, seed) in enumerate(order):
            out = tmp_path / f"warm-{i}"
            self.run_commands(cfg, seed, out, cold=False)
            assert output_bytes(out) == expected[cfg, seed], (cfg.name, seed)
            kept = cli._last_cell
            assert kept.base.geometry is kept.geometry
            cells.append(weakref.ref(kept.geometry))
        # each run of five commands averaged its alarm activity once, and
        # placed its cell once unless the run before had placed it; only the
        # last cell is still alive
        assert calls == (["place_stations", "activity_prob_alarm"] * 4
                         + ["activity_prob_alarm"])
        gc.collect()
        geometry = cells[-1]()
        assert [cell() for cell in cells] == [None, None, None, geometry, geometry]
        epicenter = load_experiment(str(searched)).alarms()[0][1].epicenter
        for array in (geometry.positions, geometry.distances_to(epicenter)):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1.0


class TestSeedArgument:
    @pytest.mark.parametrize("seed", ["-1", str(2**64), "18446744073709551616000"])
    @pytest.mark.parametrize("command", ["traffic", "analyze", "simulate", "sweep",
                                         "compare-naive"])
    def test_out_of_range_seed_is_invalid_argument(self, config_path, tmp_path,
                                                   capsys, command, seed):
        assert run_cli(command, "--config", str(config_path), "--seed", seed,
                       "--out", str(tmp_path / "o")) == 1
        assert error_lines(capsys) == ["error:invalid-argument"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("seed", ["0", str(2**64 - 1)])
    def test_range_ends_are_accepted(self, config_path, tmp_path, seed):
        assert run_cli("analyze", "--config", str(config_path), "--seed", seed,
                       "--out", str(tmp_path)) == 0


class TestAlarmSectionErrors:
    @pytest.mark.parametrize("edit", [
        ("d_max_m = 500", "d_max_m = -1"),
        ("correlation = sqrtcap", "correlation = expdecay\ndecay_per_m = 0"),
        ("event_time_s = 10", "event_time_s = inf"),
        # finite, but 500 m / 1e-310 m/s overflows: the front never arrives
        ("speed_m_per_s = 4000", "speed_m_per_s = 1e-310"),
    ], ids=["sqrtcap-reach", "expdecay-constant", "infinite-event-time",
            "front-time-overflows"])
    @pytest.mark.parametrize("command", [["simulate", "--replications", "2"],
                                         ["traffic"]], ids=["simulate", "traffic"])
    def test_exits_config_invalid(self, tmp_path, capsys, edit, command):
        cfg = tmp_path / "cell.ini"
        cfg.write_text(SMALL_CELL.replace(*edit), encoding="utf-8")
        assert run_cli(*command, "--config", str(cfg), "--seed", "1",
                       "--out", str(tmp_path / "o")) == 1
        assert error_lines(capsys) == ["error:config-invalid"]

    @pytest.mark.parametrize("key,value", [("epicenter_x_m", "nan"),
                                           ("epicenter_x_m", "inf"),
                                           ("epicenter_y_m", "-inf")])
    @pytest.mark.parametrize("command", ["traffic", "analyze", "simulate", "sweep",
                                         "compare-naive"])
    def test_non_finite_epicenter_rejected(self, tmp_path, capsys, key, value, command):
        # a NaN distance would clamp to the sqrtcap reach: no station
        # triggered, and p_a1 read as the regular activity
        cfg = write_cell_with(tmp_path, "alarm.quake", key, value)
        out = tmp_path / "o"
        assert run_cli(command, "--config", str(cfg), "--seed", "1", "--out", str(out)) == 1
        assert "[alarm.quake]" in config_invalid_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("command", ["traffic", "analyze", "simulate", "sweep",
                                         "compare-naive"])
    def test_non_finite_decay_constant_rejected(self, tmp_path, capsys, value, command):
        # a NaN constant gives every station psi = nan: no station triggered
        # in traffic and simulate, an activity outside [0, 1] in the analysis
        cfg = tmp_path / "cell.ini"
        cfg.write_text(SMALL_CELL.replace(
            "correlation = sqrtcap", f"correlation = expdecay\ndecay_per_m = {value}"),
            encoding="utf-8")
        out = tmp_path / "o"
        assert run_cli(command, "--config", str(cfg), "--seed", "1", "--out", str(out)) == 1
        assert "[alarm.quake]" in config_invalid_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("name", ["", "a/b", "../../x"], ids=["empty", "slash", "dotdot"])
    @pytest.mark.parametrize("command", ["traffic", "analyze"])
    def test_name_is_a_file_stem(self, tmp_path, capsys, name, command):
        # traffic writes activation_<name>.csv and two more files named
        # after each alarm: a path separator would write beside --out or
        # outside it
        work = tmp_path / "work"
        work.mkdir()
        cfg = work / "cell.ini"
        cfg.write_text(SMALL_CELL.replace("[alarm.quake]", f"[alarm.{name}]"),
                       encoding="utf-8")
        assert run_cli(command, "--config", str(cfg), "--seed", "1",
                       "--out", str(work / "d" / "inner")) == 1
        assert f"[alarm.{name}]" in config_invalid_line(capsys)
        assert sorted(p.relative_to(tmp_path).as_posix()
                      for p in tmp_path.rglob("*")) == ["work", "work/cell.ini"]


def write_cell_with(tmp_path, section, key, value, drop=None) -> Path:
    """The small cell with one key of one section set to `value`, and the
    key `drop` of that section removed."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_string(SMALL_CELL)
    cp[section][key] = value
    if drop is not None:
        del cp[section][drop]
    tmp_path.mkdir(parents=True, exist_ok=True)
    cfg = tmp_path / "cell.ini"
    with open(cfg, "w", encoding="utf-8") as fh:
        cp.write(fh)
    return cfg


def write_naive_cell(tmp_path) -> Path:
    """The small cell at the naive scheme's delta_c_slots = 1, in place of
    its delta_c_pct."""
    return write_cell_with(tmp_path, "protocol", "delta_c_slots", "1", drop="delta_c_pct")


def config_invalid_line(capsys) -> str:
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:config-invalid: "), lines
    return lines[0]


def written_files(out: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in out.iterdir()}


def refuse_constant(token: str):
    """`parse_constant` for json.loads: a NaN or an infinity is not JSON."""
    raise ValueError(f"non-JSON constant {token}")


class TestJsonWriter:
    def test_nested_nan_is_null(self, tmp_path):
        path = tmp_path / "x.json"
        cli._json_dump(path, {"a": [1.5, {"b": float("nan")}], "c": (float("nan"), 2)})
        record = json.loads(path.read_text(), parse_constant=refuse_constant)
        assert record == {"a": [1.5, {"b": None}], "c": [None, 2]}

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_infinity_raises_and_writes_nothing(self, tmp_path, value):
        path = tmp_path / "x.json"
        with pytest.raises(ValueError):
            cli._json_dump(path, {"a": [{"b": value}]})
        assert not path.exists()


COMMANDS_READING_THE_CELL = ["analyze", "simulate", "sweep", "compare-naive"]


class TestTrafficSectionErrors:
    @pytest.mark.parametrize("t_ri,lambda_d", [("300", "inf"), ("1e-308", "1e308")],
                             ids=["infinite-rate", "sum-overflows"])
    @pytest.mark.parametrize("command", COMMANDS_READING_THE_CELL)
    def test_non_finite_total_rate_rejected(self, tmp_path, capsys, t_ri, lambda_d,
                                            command):
        # an infinite total rate saturates the cell: every station active in
        # every pool, p_a0 = 1
        cfg = write_cell_with(tmp_path, "traffic", "lambda_d_per_s", lambda_d)
        cfg.write_text(cfg.read_text().replace("t_ri_s = 300", f"t_ri_s = {t_ri}"),
                       encoding="utf-8")
        out = tmp_path / "o"
        assert run_cli(command, "--config", str(cfg), "--seed", "1", "--out", str(out)) == 1
        assert "[traffic]" in config_invalid_line(capsys)
        assert not out.exists()


class TestDeadlineKeys:
    @pytest.mark.parametrize("value", ["inf", "nan", "0", "-5"])
    @pytest.mark.parametrize("command", COMMANDS_READING_THE_CELL)
    def test_alarm_deadline_must_be_positive_and_finite(self, tmp_path, capsys, value,
                                                        command):
        cfg = write_cell_with(tmp_path, "deadlines", "tau_a_s", value)
        out = tmp_path / "o"
        assert run_cli(command, "--config", str(cfg), "--seed", "1", "--out", str(out)) == 1
        assert "[deadlines]" in config_invalid_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("command", COMMANDS_READING_THE_CELL)
    def test_former_deadline_keys_are_not_read(self, config_path, tmp_path, capsys,
                                               command):
        # tau_a bounds every report's delay, so the on-demand and periodic
        # deadlines changed no output; values the former ordering rule
        # refused run too
        cfg = write_cell_with(tmp_path / "old", "deadlines", "tau_d_s", "1")
        cfg.write_text(cfg.read_text().replace("tau_d_s = 1", "tau_d_s = 1\ntau_p_s = nan"),
                       encoding="utf-8")
        outs = [tmp_path / "plain", tmp_path / "old" / "out"]
        for path, out in zip([config_path, cfg], outs):
            assert run_cli(command, "--config", str(path), "--seed", "1",
                           "--out", str(out)) == 0
        assert capsys.readouterr().err == ""
        assert written_files(outs[1]) == written_files(outs[0])


SIMULATION_ERRORS = [
    ("horizon_s", "0"), ("horizon_s", "-5"), ("horizon_s", "inf"),
    ("alarm_prob_per_pool", "2"), ("alarm_prob_per_pool", "-0.1"),
    ("alarm_prob_per_pool", "nan"),
]
# the widths these keys once set are derived from the cell, so no command
# reads them, whatever they hold
FORMER_WIDTH_KEYS = [
    ("delay_bin_s", "0"), ("delay_bin_s", "nan"), ("delay_bin_s", "-0.05"),
    ("bin_width_s", "nan"), ("bin_width_s", "0"), ("bin_width_s", "-inf"),
    ("bin_width_s", "5e-324"),
]


class TestSimulationSectionErrors:
    @pytest.mark.parametrize("key,value", SIMULATION_ERRORS)
    @pytest.mark.parametrize("command", ["simulate"])  # the one reader of the section
    def test_exits_config_invalid(self, tmp_path, capsys, key, value, command):
        cfg = write_cell_with(tmp_path, "simulation", key, value)
        assert run_cli(command, "--config", str(cfg), "--seed", "1",
                       "--out", str(tmp_path / "o")) == 1
        assert f"simulation.{key}" in config_invalid_line(capsys)

    @pytest.mark.parametrize("key,value", SIMULATION_ERRORS + FORMER_WIDTH_KEYS)
    @pytest.mark.parametrize("command", ["traffic", "analyze"])
    def test_does_not_read_the_section(self, config_path, tmp_path, capsys,
                                       key, value, command):
        cfg = write_cell_with(tmp_path / "bad", "simulation", key, value)
        outs = [tmp_path / "plain", tmp_path / "bad" / "out"]
        for path, out in zip([config_path, cfg], outs):
            assert run_cli(command, "--config", str(path), "--seed", "1",
                           "--out", str(out)) == 0
        assert capsys.readouterr().err == ""
        assert written_files(outs[1]) == written_files(outs[0])

    @pytest.mark.parametrize("key,value", FORMER_WIDTH_KEYS)
    @pytest.mark.parametrize("command", ["analyze", "simulate"])
    def test_former_width_keys_are_not_read(self, config_path, tmp_path, capsys,
                                            key, value, command):
        cfg = write_cell_with(tmp_path / "old", "simulation", key, value)
        outs = [tmp_path / "plain", tmp_path / "old" / "out"]
        for path, out in zip([config_path, cfg], outs):
            assert run_cli(command, "--config", str(path), "--seed", "1",
                           "--out", str(out)) == 0
        assert capsys.readouterr().err == ""
        assert written_files(outs[1]) == written_files(outs[0])

    @pytest.mark.parametrize("value", ["naive", "adaptive"])
    @pytest.mark.parametrize("command", ["analyze", "simulate", "sweep", "compare-naive"])
    def test_removed_mode_key_is_refused(self, tmp_path, capsys, value, command):
        # ignored, mode = naive would run the adaptive scheme
        cfg = write_cell_with(tmp_path, "simulation", "mode", value)
        assert run_cli(command, "--config", str(cfg), "--seed", "1",
                       "--out", str(tmp_path / "o")) == 1
        line = config_invalid_line(capsys)
        assert "simulation.mode" in line and "delta_c_slots = 1" in line
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", ["1.0", "2.4", "1e20"])
    def test_horizon_short_of_one_pool_period(self, tmp_path, capsys, value):
        # the small cell's pool period is 2.5 s; 1e20 s is 4e19 periods,
        # past the int64 pool indices of a run
        cfg = write_cell_with(tmp_path, "simulation", "horizon_s", value)
        assert run_cli("simulate", "--config", str(cfg), "--seed", "1",
                       "--out", str(tmp_path / "o")) == 1
        assert "simulation.horizon_s" in config_invalid_line(capsys)
        assert not (tmp_path / "o").exists()


class TestGridSectionErrors:
    @pytest.mark.parametrize("section,key,value", [
        ("sweep", "omega_values", "0 -3"), ("sweep", "omega_values", "10 0"),
        ("sweep", "omega_values", ""), ("sweep", "delta_c_pcts", "150"),
        ("sweep", "delta_c_pcts", "0 50"), ("sweep", "delta_c_pcts", "nan"),
        ("sweep", "delta_c_pcts", ""), ("sweep", "l1_frac", "7"),
        ("sweep", "l2_frac", "0"), ("sweep", "l1_frac", "nan"),
        ("sweep", "l2_frac", "-0.4"), ("sweep", "l1_frac", "search"),
        ("sweep", "simulate_pools", "-1"),
        # past the int64 pool indices of a run
        ("sweep", "simulate_pools", "1" + "0" * 400),
        ("compare", "omega_values", "0 -3"), ("compare", "omega_values", ""),
        ("compare", "delta_c_pct", "150"), ("compare", "delta_c_pct", "0"),
        ("compare", "delta_c_pct", "nan"),
        # past the float range: the frame fractions multiply omega
        ("sweep", "omega_values", "1" + "0" * 400),
        ("sweep", "omega_values", "40 1" + "0" * 400),
        ("compare", "omega_values", "1" + "0" * 400),
    ])
    def test_exits_config_invalid(self, tmp_path, capsys, section, key, value):
        cfg = write_cell_with(tmp_path, section, key, value)
        command = "sweep" if section == "sweep" else "compare-naive"
        assert run_cli(command, "--config", str(cfg), "--seed", "1",
                       "--out", str(tmp_path / "o")) == 1
        line = config_invalid_line(capsys)
        assert f"[{section}]" in line and key in line
        assert not (tmp_path / "o").exists()


class TestCellSectionErrors:
    @pytest.mark.parametrize("key,value", [
        ("n_stations", "0"), ("n_stations", "-3"), ("radius_m", "-5"),
        ("radius_m", "0"), ("radius_m", "nan"), ("radius_m", "inf"),
        ("radius_m", "5e-324")])
    @pytest.mark.parametrize("command", ["traffic", "analyze", "simulate"])
    def test_exits_config_invalid(self, tmp_path, capsys, key, value, command):
        cfg = write_cell_with(tmp_path, "cell", key, value)
        assert run_cli(command, "--config", str(cfg), "--seed", "1",
                       "--out", str(tmp_path / "o")) == 1
        assert f"cell.{key}" in config_invalid_line(capsys)


class TestThresholdKeys:
    @pytest.mark.parametrize("command", ["analyze", "simulate", "sweep", "compare-naive"])
    def test_both_threshold_keys_exit_config_invalid(self, tmp_path, capsys, command):
        # the small cell sets delta_c_pct; neither key may silently win
        cfg = write_cell_with(tmp_path, "protocol", "delta_c_slots", "1")
        assert run_cli(command, "--config", str(cfg), "--seed", "1",
                       "--out", str(tmp_path / "o")) == 1
        line = config_invalid_line(capsys)
        assert "protocol.delta_c_slots" in line and "protocol.delta_c_pct" in line
        assert not (tmp_path / "o").exists()


class TestValuesCheckedWhereUsed:
    """Values that pass their section's own checks but fail the command that
    uses them: each exits with one error line, not a traceback or a warning."""

    @pytest.mark.parametrize("section,key,value,command,category", [
        ("protocol", "t_r_s", "nan", ["analyze"], "config-invalid"),
        ("protocol", "t_r_s", "inf", ["simulate"], "config-invalid"),
        ("protocol", "rs_duration_s", "inf", ["sweep"], "config-invalid"),
        # finite, but the worst-case pool duration overflows
        ("protocol", "rs_duration_s", "1e308", ["analyze"], "infeasible-config"),
        ("protocol", "rs_duration_s", "1e308", ["sweep"], "infeasible-config"),
        # a run is counted in pools, so no horizon in seconds overflows; a
        # pool period of 1e308 s cannot meet the alarm deadline
        ("protocol", "t_r_s", "1e308", ["simulate", "--replications", "2"],
         "infeasible-config"),
    ])
    def test_exits_with_one_error_line(self, tmp_path, capsys, section, key, value,
                                       command, category):
        cfg = write_cell_with(tmp_path, section, key, value)
        assert run_cli(*command, "--config", str(cfg), "--seed", "1",
                       "--out", str(tmp_path / "o")) == 1
        assert error_lines(capsys) == [f"error:{category}"]


class TestOutOfMemory:
    @pytest.mark.parametrize("command", ["traffic", "analyze", "simulate", "sweep",
                                         "compare-naive"])
    def test_exits_with_one_error_line(self, config_path, tmp_path, capsys,
                                       monkeypatch, command):
        # a cell too large for the machine (say n_stations = 1e11) fails
        # where the stations are placed; stand in for it without allocating
        def placement_too_large(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr("rspool.traffic.place_stations", placement_too_large)
        assert run_cli(command, "--config", str(config_path), "--seed", "1",
                       "--out", str(tmp_path / "o")) == 1
        assert error_lines(capsys) == ["error:out-of-memory"]


# values for the INI mutations: plain numbers, edge floats, words the schema
# knows, interpolation syntax and short junk; no free digits, so no huge cell
VALUES = st.sampled_from([
    "0", "1", "-1", "2", "3", "10", "40", "200", "300", "0.5", "2.5", "5",
    "60", "1e-3", "1e308", "-1e308", "nan", "inf", "-inf", "unit", "expdecay",
    "sqrtcap", "adaptive", "x", "", "5%", "%(omega)s", "1,2"]) | st.text(
    alphabet=" abcez%;#=[].-+,\t", max_size=8)


# keys the small cell leaves at their defaults
OPTIONAL_KEYS = [("protocol", "delta_c_slots"), ("protocol", "l1"), ("protocol", "l2"),
                 ("alarm.quake", "epicenter_x_m"), ("alarm.quake", "decay_per_m"),
                 ("simulation", "alarm_prob_per_pool")]


@st.composite
def ini_texts(draw) -> str:
    """Free text, or the small cell with a few keys dropped or rewritten and
    perhaps a section removed."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.text(max_size=300))
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_string(SMALL_CELL)
    sections = {name: dict(cp[name]) for name in cp.sections()}
    keys = [(name, key) for name in sections for key in sections[name]]
    for _ in range(draw(st.integers(0, 3))):
        section, key = draw(st.sampled_from(keys + OPTIONAL_KEYS))
        if draw(st.booleans()):
            sections[section].pop(key, None)
        else:
            sections[section][key] = draw(VALUES)
            if key == "delta_c_slots" and draw(st.booleans()):
                # the slot count alone, so its own checks are reached too
                sections[section].pop("delta_c_pct", None)
    if draw(st.integers(0, 9)) == 0:
        del sections[draw(st.sampled_from(sorted(sections)))]
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in body.items())
                   for name, body in sections.items())


class TestErrorContract:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(text=ini_texts())
    def test_exits_0_or_1_with_one_error_line(self, tmp_path_factory, text):
        work = tmp_path_factory.mktemp("prop")
        cfg = work / "cell.ini"
        cfg.write_text(text, encoding="utf-8")
        # analyze reads the closed forms; simulate also reads arrival times;
        # sweep and compare-naive read the [sweep] and [compare] grids
        for command in (["analyze"], ["simulate", "--replications", "2"],
                        ["sweep"], ["compare-naive"]):
            err = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                rc = main([*command, "--config", str(cfg), "--seed", "1",
                           "--out", str(work / command[0])])
            assert rc in (0, 1), command
            if rc == 1:
                lines = err.getvalue().splitlines()
                assert len(lines) == 1 and re.match(r"error:[a-z-]+: ", lines[0]), \
                    (command, lines)
                # a warning would reach stderr as extra lines
                assert not caught, (command, [str(w.message) for w in caught])


class TestSampleConfigs:
    def test_derived_widths_keep_the_former_values(self):
        # tau_a / 100 and R / (50 v) reproduce the former fixed widths
        ref = load_experiment(str(ROOT / "configs" / "reference_cell.ini"))
        cell = ref.cell()
        assert ScenarioStats(cell.protocol, cell.traffic, cell.deadlines).delay_bin_s == 0.05
        curves = load_experiment(str(ROOT / "configs" / "activation_curves.ini"))
        geometry = place_stations(*curves.population(), seed=1)
        for _, scenario in curves.alarms():
            assert activation_curve(geometry, scenario, seed=1).bin_width == 0.005

    def test_reference_cell_analyzes(self, tmp_path):
        assert run_cli("analyze", "--config", "configs/reference_cell.ini",
                       "--seed", "1", "--out", str(tmp_path)) == 0
        report = json.loads((tmp_path / "analysis.json").read_text())
        assert report["params"]["omega"] == 40

    def test_activation_curves_config(self, tmp_path):
        assert run_cli("traffic", "--config", "configs/activation_curves.ini",
                       "--seed", "2", "--out", str(tmp_path)) == 0
        for name in ("all_affected", "exp_decay", "sqrt_cap"):
            assert (tmp_path / f"activation_{name}.csv").exists()
            assert (tmp_path / f"fit_{name}.json").exists()

    @pytest.mark.parametrize("seed", ["1", "2", "3"])
    def test_small_cell_fit_prints_nothing(self, tmp_path, capsys, seed):
        # scipy warns when it cannot estimate the covariance of a fit, as on
        # a curve of few bins; fit_beta discards the covariance
        cfg = activation_config(tmp_path, radius_m="40")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("traffic", "--config", str(cfg), "--seed", seed,
                           "--out", str(tmp_path / "o")) == 0
        assert not caught, [str(w.message) for w in caught]
        assert capsys.readouterr().err == ""


# Runs four commands in one fresh interpreter and prints the scipy
# submodules that are loaded afterwards.
IMPORT_PROBE = """
import sys
from rspool.cli import main
config, out = sys.argv[1:]
for argv in (["analyze"], ["simulate", "--replications", "10"], ["sweep"],
             ["compare-naive"]):
    assert main([*argv, "--config", config, "--seed", "1", "--out", out]) == 0, argv
print(sorted(m for m in ("scipy.stats", "scipy.optimize", "scipy.special")
             if m in sys.modules))
"""


class TestImportPath:
    def test_only_traffic_loads_scipy(self, tmp_path):
        """scipy's submodules take about a second to import, so only the
        Beta fit behind `rspool traffic` may load them; a module-level scipy
        import anywhere in the package fails this."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE,
             str(ROOT / "configs" / "reference_cell.ini"), str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"
