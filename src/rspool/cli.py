"""Command-line front end: seeded experiment execution and data emission."""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import analysis, optimizer, simulator, traffic
from .config import ConfigError, Experiment, load_experiment
from .simulator import AlarmProcess, GroupAssignment, InfeasibleConfigError
from .traffic import AlarmTimeError


class CommandError(Exception):
    def __init__(self, message: str, category: str):
        super().__init__(message)
        self.category = category


def _open_output(path: Path):
    """Open an output file for writing. The output directory is made with the
    first file, so a call rejected before writing leaves none behind."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        return open(path, "w", newline="", encoding="utf-8")
    except OSError as exc:
        raise CommandError(f"cannot write {path}: {exc.strerror}",
                           "output-unwritable") from exc


def _json_dump(path: Path, obj) -> None:
    with _open_output(path) as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _csv_dump(path: Path, header: list[str], rows) -> None:
    with _open_output(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if isinstance(v, float) and math.isnan(v) else v
                             for v in row])


def _require_seed(args) -> int:
    if args.seed is None:
        raise CommandError("this command is stochastic: pass --seed", "seed-required")
    return args.seed


def cmd_traffic(args, exp: Experiment, out: Path) -> None:
    seed = _require_seed(args)
    exp._require("cell")
    n = exp._int("cell", "n_stations")
    r = exp._float("cell", "radius_m")
    alarms = exp.alarms()
    if not alarms:
        raise CommandError("no scenarios: define at least one [alarm.*] section",
                           "no-scenarios")
    bin_width = exp.simulation().bin_width_s

    ss = np.random.SeedSequence(seed)
    geometry = traffic.place_stations(n, r, ss.spawn(1)[0])
    curve_seeds = ss.spawn(len(alarms))
    for (name, scenario), cseed in zip(alarms, curve_seeds):
        curve = traffic.activation_curve(geometry, scenario, bin_width, cseed)
        rows = [(curve.start_s + i * curve.bin_width, int(c))
                for i, c in enumerate(curve.counts)]
        _csv_dump(out / f"activation_{name}.csv", ["bin_start_s", "count"], rows)
        psi = scenario.trigger_probs(geometry)
        _csv_dump(out / f"station_correlation_{name}.csv",
                  ["x_m", "y_m", "psi"],
                  [(float(x), float(y), float(p))
                   for (x, y), p in zip(geometry.positions, psi)])
        try:
            fit = traffic.fit_beta(curve)
            record = {"alpha": fit.alpha, "beta": fit.beta,
                      "t_span_s": fit.t_span, "residual": fit.residual}
        except ValueError as exc:
            record = {"alpha": None, "beta": None, "t_span_s": None,
                      "residual": None, "unfittable": str(exc)}
        _json_dump(out / f"fit_{name}.json", record)


def cmd_analyze(args, exp: Experiment, out: Path) -> None:
    cell = exp.cell()
    alarms = exp.alarms()
    p_h1 = exp.p_h1()
    alarm = geometry = None
    if alarms:
        if args.seed is None:
            raise CommandError(
                "alarm scenarios make the station placement matter: pass --seed",
                "seed-required")
        alarm = alarms[0][1]
        geometry = traffic.place_stations(cell.n_stations, cell.radius_m, args.seed)
    activity = analysis.activity_probs(cell.traffic, cell.protocol.t_r, alarm, geometry)
    assignment = GroupAssignment(n=cell.n_stations, omega=cell.protocol.omega)
    simulator.validate_deadline(cell.protocol, assignment, cell.deadlines)
    report = analysis.expected_costs(cell.protocol, activity, p_h1)
    record = report.to_dict()
    record["params"] = {
        "n": cell.protocol.n, "omega": cell.protocol.omega,
        "delta_c": cell.protocol.delta_c, "l1": cell.protocol.l1,
        "l2": cell.protocol.l2, "t_r_s": cell.protocol.t_r,
        "rs_duration_s": cell.protocol.rs_duration,
        "p_a0": activity.p_a0, "p_a1": activity.p_a1,
    }
    _json_dump(out / "analysis.json", record)


def cmd_simulate(args, exp: Experiment, out: Path) -> None:
    seed = _require_seed(args)
    if args.replications is not None and args.replications < 1:
        raise CommandError(f"--replications must be at least 1, got {args.replications}",
                           "invalid-argument")
    cell = exp.cell()
    alarms = [scenario for _, scenario in exp.alarms()]
    sim = exp.simulation()

    process = None
    if sim.alarm_prob_per_pool > 0:
        if not alarms:
            raise ConfigError("simulation.alarm_prob_per_pool needs an [alarm.*] "
                              "section to use as the event template")
        process = AlarmProcess(prob_per_pool=sim.alarm_prob_per_pool,
                               template=alarms[0])
        alarms = []

    ss = np.random.SeedSequence(seed)
    geom_seed, run_seed = ss.spawn(2)
    geometry = traffic.place_stations(cell.n_stations, cell.radius_m, geom_seed)

    horizon = sim.horizon_s
    if args.replications is not None:
        horizon = args.replications * cell.protocol.t_r

    trace: list | None = [] if args.trace else None
    stats = simulator.run_scenario(geometry, cell.protocol, cell.traffic,
                                   cell.deadlines, alarms, horizon, sim.mode,
                                   run_seed, delay_bin=sim.delay_bin_s,
                                   alarm_process=process, trace=trace)
    _json_dump(out / "scenario_stats.json", stats.to_dict())

    rows = []
    for kind in sorted(stats.delay_histogram.counts):
        counts = stats.delay_histogram.counts[kind]
        for i, c in enumerate(counts):
            if c:
                rows.append((kind, i * stats.delay_histogram.bin_width, int(c)))
    _csv_dump(out / "delay_histogram.csv", ["kind", "bin_start_s", "count"], rows)

    if trace is not None:
        with _open_output(out / "pool_trace.jsonl") as fh:
            for entry in trace:
                fh.write(json.dumps(entry, sort_keys=True) + "\n")


def _sweep_base(exp: Experiment, seed) -> optimizer.SweepBase:
    cell = exp.cell()
    alarms = exp.alarms()
    geometry = traffic.place_stations(cell.n_stations, cell.radius_m, seed)
    return optimizer.SweepBase(
        geometry=geometry, traffic=cell.traffic, deadlines=cell.deadlines,
        t_r=cell.protocol.t_r, rs_duration=cell.protocol.rs_duration,
        p_h1=exp.p_h1(), alarm=alarms[0][1] if alarms else None)


def cmd_sweep(args, exp: Experiment, out: Path) -> None:
    seed = _require_seed(args)
    opts = exp.sweep_options()
    grid = optimizer.SweepGrid(omega_values=opts.omega_values,
                               delta_c_pcts=opts.delta_c_pcts,
                               l1_frac=opts.l1_frac, l2_frac=opts.l2_frac,
                               simulate_pools=opts.simulate_pools)
    ss = np.random.SeedSequence(seed)
    base_seed, sweep_seed = ss.spawn(2)
    base = _sweep_base(exp, base_seed)
    result = optimizer.sweep(grid, base, seed=sweep_seed)

    header = ["omega", "delta_c_pct", "l1", "l2", "feasible", "e_c_analytical",
              "e_c_simulated", "e_c_simulated_stderr", "p11", "p10"]
    rows = [(r.omega, r.delta_c_pct, r.l1, r.l2, int(r.feasible),
             r.e_c_analytical, r.e_c_simulated, r.e_c_simulated_stderr,
             r.p11, r.p10) for r in result.rows]
    if args.format == "json":
        clean = [[None if isinstance(v, float) and math.isnan(v) else v
                  for v in row] for row in rows]
        _json_dump(out / "sweep.json", [dict(zip(header, row)) for row in clean])
    else:
        _csv_dump(out / "sweep.csv", header, rows)

    best = result.argmin
    _json_dump(out / "sweep_argmin.json", {
        "omega": best.omega, "delta_c_pct": best.delta_c_pct,
        "l1": best.l1, "l2": best.l2,
        "e_c_analytical": best.e_c_analytical,
        "e_c_simulated": None if math.isnan(best.e_c_simulated) else best.e_c_simulated,
        "evaluation": "simulated" if result.simulated else "analytical",
    })


def cmd_compare_naive(args, exp: Experiment, out: Path) -> None:
    seed = _require_seed(args)
    opts = exp.compare_options()
    base = _sweep_base(exp, seed)
    result = optimizer.compare_naive(base, opts.omega_values, opts.delta_c_pct)

    rows = [(r.omega, r.e_c_adaptive, r.e_c_naive) for r in result.rows]
    if args.format == "json":
        _json_dump(out / "compare_naive.json",
                   [{"omega": o, "e_c_adaptive": a, "e_c_naive": nv}
                    for o, a, nv in rows])
    else:
        _csv_dump(out / "compare_naive.csv",
                  ["omega", "e_c_adaptive", "e_c_naive"], rows)
    _json_dump(out / "compare_naive_summary.json", {
        "min_adaptive": result.min_adaptive,
        "min_naive": result.min_naive,
        "naive_over_adaptive_ratio": result.min_ratio,
        "delta_c_pct": opts.delta_c_pct,
    })


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rspool",
        description="Reservation-slot pool experiments: traffic curves, "
                    "closed-form analysis, scenario simulation and parameter sweeps.")
    parser.add_argument("command",
                        choices=["traffic", "analyze", "simulate", "sweep",
                                 "compare-naive"])
    parser.add_argument("--config", required=True, help="INI configuration file")
    parser.add_argument("--seed", type=int, default=None,
                        help="64-bit experiment seed (required for stochastic commands)")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--replications", type=int, default=None,
                        help="simulate: run exactly this many pool periods (>= 1) "
                             "instead of the configured horizon")
    parser.add_argument("--format", choices=["csv", "json"], default="csv",
                        help="table output format for sweep/compare-naive")
    parser.add_argument("--trace", action="store_true",
                        help="simulate: emit a per-pool JSON-lines trace")
    return parser


_COMMANDS = {
    "traffic": cmd_traffic,
    "analyze": cmd_analyze,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "compare-naive": cmd_compare_naive,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        exp = load_experiment(args.config)
        _COMMANDS[args.command](args, exp, Path(args.out))
    except (ConfigError, CommandError) as exc:
        category, error = exc.category, exc
    except InfeasibleConfigError as exc:
        category, error = "infeasible-config", exc
    except AlarmTimeError as exc:  # the [alarm.*] section's event time or speed
        category, error = "config-invalid", exc
    except ValueError as exc:
        category, error = "invalid-parameters", exc
    else:
        return 0
    # one line, even for a message that spans several (a parser error's does)
    print(f"error:{category}: {' '.join(str(error).split())}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
