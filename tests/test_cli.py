import configparser
import contextlib
import io
import json
import re
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rspool.cli import main

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
tau_d_s = 60

[priors]
p_h1 = 0.005

[alarm.quake]
speed_m_per_s = 4000
event_time_s = 10
correlation = sqrtcap
d_max_m = 500

[simulation]
horizon_s = 125
bin_width_s = 0.005

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

    def test_missing_config_error(self, tmp_path, capsys):
        assert run_cli("traffic", "--config", str(tmp_path / "nope.ini"),
                       "--seed", "1", "--out", str(tmp_path)) == 1
        assert "error:config-missing" in capsys.readouterr().err


class TestAnalyzeCommand:
    def test_writes_report(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert run_cli("analyze", "--config", str(config_path),
                       "--seed", "3", "--out", str(out)) == 0
        report = json.loads((out / "analysis.json").read_text())
        assert report["p_00"] + report["p_10"] == pytest.approx(1.0)
        assert report["e_c"] >= report["params"]["n"] / report["params"]["omega"]

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

    @pytest.mark.parametrize("n", ["0", "-4"])
    def test_replications_below_one_rejected(self, config_path, tmp_path, capsys, n):
        assert run_cli("simulate", "--config", str(config_path), "--seed", "11",
                       "--out", str(tmp_path / "out"), "--replications", n) == 1
        assert error_lines(capsys) == ["error:invalid-argument"]

    def test_byte_identical_reruns(self, config_path, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert run_cli("simulate", "--config", str(config_path),
                           "--seed", "42", "--out", str(out)) == 0
        for name in ("scenario_stats.json", "delay_histogram.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


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
    ], ids=["missing-seed", "zero-replications", "infeasible-simulate",
            "infeasible-analyze"])
    def test_leaves_no_output_directory(self, tmp_path, capsys, argv, edit):
        cfg = tmp_path / "cell.ini"
        cfg.write_text(SMALL_CELL if edit is None else SMALL_CELL.replace(*edit),
                       encoding="utf-8")
        out = tmp_path / "new" / "out"
        assert run_cli(*argv, "--config", str(cfg), "--out", str(out)) == 1
        assert len(error_lines(capsys)) == 1
        assert not (tmp_path / "new").exists()


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


class TestSimulationSectionErrors:
    @pytest.mark.parametrize("key,value", [
        ("horizon_s", "0"), ("horizon_s", "-5"), ("horizon_s", "inf"),
        ("delay_bin_s", "0"), ("delay_bin_s", "nan"), ("delay_bin_s", "-0.05"),
        ("bin_width_s", "nan"), ("bin_width_s", "0"), ("bin_width_s", "-inf"),
        ("alarm_prob_per_pool", "2"), ("alarm_prob_per_pool", "-0.1"),
        ("alarm_prob_per_pool", "nan"),
    ])
    @pytest.mark.parametrize("command", ["simulate", "traffic"])
    def test_exits_config_invalid(self, tmp_path, capsys, key, value, command):
        cp = configparser.ConfigParser(interpolation=None)
        cp.read_string(SMALL_CELL)
        cp["simulation"][key] = value
        cfg = tmp_path / "cell.ini"
        with open(cfg, "w", encoding="utf-8") as fh:
            cp.write(fh)
        assert run_cli(command, "--config", str(cfg), "--seed", "1",
                       "--out", str(tmp_path / "o")) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:config-invalid: ")
        assert f"simulation.{key}" in lines[0]


# values for the INI mutations: plain numbers, edge floats, words the schema
# knows, interpolation syntax and short junk; no free digits, so no huge cell
VALUES = st.sampled_from([
    "0", "1", "-1", "2", "3", "10", "40", "200", "300", "0.5", "2.5", "5",
    "60", "1e-3", "1e308", "-1e308", "nan", "inf", "-inf", "unit", "expdecay",
    "sqrtcap", "adaptive", "x", "", "5%", "%(omega)s", "1,2"]) | st.text(
    alphabet=" abcez%;#=[].-+,\t", max_size=8)


# keys the small cell leaves at their defaults
OPTIONAL_KEYS = [("protocol", "delta_c_slots"), ("protocol", "l1"),
                 ("protocol", "l2"), ("deadlines", "tau_p_s"),
                 ("alarm.quake", "epicenter_x_m"), ("alarm.quake", "decay_per_m"),
                 ("simulation", "delay_bin_s"), ("simulation", "alarm_prob_per_pool")]


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
        # analyze reads the closed forms; simulate also reads arrival times
        for command in (["analyze"], ["simulate", "--replications", "2"]):
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
