"""Command-line front end: seeded experiment execution and data emission."""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import sys
from pathlib import Path

from . import analysis, optimizer, simulator, traffic
from .config import ConfigError, Experiment, load_experiment
from .simulator import AlarmProcess, InfeasibleConfigError
from .traffic import AlarmTimeError, CellGeometry, child_seed


class CommandError(Exception):
    def __init__(self, message: str, category: str):
        super().__init__(message)
        self.category = category


def _open_output(path: Path):
    """Open an output file for writing. The first file to find the output
    directory missing makes it, so a call rejected before writing leaves none."""
    try:
        try:
            return open(path, "w", newline="", encoding="utf-8")
        except FileNotFoundError:
            path.parent.mkdir(parents=True, exist_ok=True)
            return open(path, "w", newline="", encoding="utf-8")
    except OSError as exc:
        raise CommandError(f"cannot write {path}: {exc.strerror}",
                           "output-unwritable") from exc


class _FirstWriteOpens:
    """A text sink whose file its first write opens, closed with `files`:
    a run rejected before its first pool leaves no file behind."""
    fh = None

    def __init__(self, path: Path, files: contextlib.ExitStack):
        self.path, self.files = path, files

    def write(self, text: str) -> None:
        self.fh = self.fh or self.files.enter_context(_open_output(self.path))
        self.fh.write(text)


def _undefined_is_null(obj):
    """`obj` with every NaN, at any depth, as None."""
    if isinstance(obj, dict):
        return {k: _undefined_is_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return list(map(_undefined_is_null, obj))
    return None if isinstance(obj, float) and math.isnan(obj) else obj


def _json_dump(path: Path, obj) -> None:
    """`obj` as strict JSON: NaN (undefined) is null, and ±inf raises ValueError."""
    text = json.dumps(_undefined_is_null(obj), indent=2, sort_keys=True, allow_nan=False)
    with _open_output(path) as fh:
        fh.write(text + "\n")


def _csv_dump(path: Path, header: list[str], rows) -> None:
    with _open_output(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _table_dump(out: Path, stem: str, fmt: str, header: list[str], rows) -> None:
    """A table as `<stem>.csv` or as `<stem>.json`, one record per row; an
    undefined (NaN) value is an empty cell or null."""
    if fmt == "json":
        _json_dump(out / f"{stem}.json", [dict(zip(header, row)) for row in rows])
    else:
        _csv_dump(out / f"{stem}.csv", header,
                  ([None if isinstance(v, float) and math.isnan(v) else v for v in row]
                   for row in rows))


def _require_seed(args) -> int:
    if args.seed is None:
        raise CommandError("this command is stochastic: pass --seed", "seed-required")
    return args.seed


class _LastCell:
    """The last cell this process placed, keyed by (n_stations, radius_m,
    seed), with the sweep base last built on it. The int seed fixes child 0
    and with it every position, so repeated `main` calls on one cell place
    it once. One entry: the next cell's placement first drops this one."""

    def __init__(self):
        self.clear()

    def clear(self) -> None:
        self.key = self.geometry = self.base_inputs = self.base = None


_last_cell = _LastCell()


def _stations(exp: Experiment, seed: int) -> CellGeometry:
    """The cell's stations, placed from child 0 of the seed: one seed, one
    cell. A call on the last cell places none."""
    key = (*exp.population(), seed)
    if _last_cell.key != key:
        _last_cell.clear()
        _last_cell.geometry = traffic.place_stations(*key[:2], child_seed(seed, 0))
        _last_cell.key = key
    return _last_cell.geometry


def cmd_traffic(args, exp: Experiment, out: Path) -> None:
    seed = _require_seed(args)
    geometry = _stations(exp, seed)
    alarms = exp.alarms()
    if not alarms:
        raise CommandError("no scenarios: define at least one [alarm.*] section",
                           "no-scenarios")
    # every scenario's curve and fit first: a scenario that fails leaves no file
    results = []
    for child, (name, scenario) in enumerate(alarms, 1):
        curve = traffic.activation_curve(geometry, scenario, child_seed(seed, child))
        try:
            fit = traffic.fit_beta(curve)
            record = {"alpha": fit.alpha, "beta": fit.beta,
                      "t_span_s": fit.t_span, "residual": fit.residual}
        except ValueError as exc:
            record = {"alpha": None, "beta": None, "t_span_s": None,
                      "residual": None, "unfittable": str(exc)}
        results.append((name, curve, scenario.trigger_probs(geometry), record))
    for name, curve, psi, record in results:
        rows = [(curve.start_s + i * curve.bin_width, int(c))
                for i, c in enumerate(curve.counts)]
        _csv_dump(out / f"activation_{name}.csv", ["bin_start_s", "count"], rows)
        _csv_dump(out / f"station_correlation_{name}.csv",
                  ["x_m", "y_m", "psi"],
                  [(float(x), float(y), float(p))
                   for (x, y), p in zip(geometry.positions, psi)])
        _json_dump(out / f"fit_{name}.json", record)


def cmd_analyze(args, exp: Experiment, out: Path) -> None:
    cell = exp.cell()
    protocol = cell.protocol
    alarms = exp.alarms()
    p_h1 = exp.p_h1()
    if alarms:
        if args.seed is None:
            raise CommandError(
                "alarm scenarios make the station placement matter: pass --seed",
                "seed-required")
        activity = _sweep_base(exp, args.seed).activity()
    else:
        activity = analysis.activity_probs(cell.traffic, protocol.t_r)
    simulator.validate_deadline(protocol, cell.deadlines)
    report = analysis.expected_costs(protocol, activity, p_h1)
    record = dict(vars(report))
    record["params"] = {
        "n": protocol.n, "omega": protocol.omega, "delta_c": protocol.delta_c,
        "l1": protocol.l1, "l2": protocol.l2, "t_r_s": protocol.t_r,
        "rs_duration_s": protocol.rs_duration,
        "p_a0": activity.p_a0, "p_a1": activity.p_a1,
    }
    _json_dump(out / "analysis.json", record)


def cmd_simulate(args, exp: Experiment, out: Path) -> None:
    seed = _require_seed(args)
    n_pools = args.replications
    if n_pools is not None and not 1 <= n_pools < simulator.MAX_POOLS:
        raise CommandError(f"--replications must lie in [1, 2**63), got {n_pools}",
                           "invalid-argument")
    cell = exp.cell()
    alarms = [scenario for _, scenario in exp.alarms()]
    horizon_s, alarm_prob = exp.simulation()

    process = None
    if alarm_prob > 0:
        if not alarms:
            raise ConfigError("simulation.alarm_prob_per_pool needs an [alarm.*] "
                              "section to use as the event template")
        process = AlarmProcess(prob_per_pool=alarm_prob, template=alarms[0])
        alarms = []

    if n_pools is None:
        n_pools = simulator.pool_count(horizon_s, cell.protocol.t_r)
        if not 1 <= n_pools < simulator.MAX_POOLS:
            raise ConfigError(f"simulation.horizon_s = {horizon_s:g} s must cover 1 to "
                              f"2**63 - 1 whole pool periods of {cell.protocol.t_r:g} s")

    with contextlib.ExitStack() as files:
        trace = _FirstWriteOpens(out / "pool_trace.jsonl", files) if args.trace else None
        stats = simulator.run_scenario(_stations(exp, seed), cell.protocol, cell.traffic,
                                       cell.deadlines, alarms, n_pools,
                                       child_seed(seed, 1), alarm_process=process,
                                       trace=trace)
    _json_dump(out / "scenario_stats.json", stats.to_dict())

    counts = stats.delay_counts
    rows = [(kind, i * stats.delay_bin_s, int(c)) for kind in sorted(counts)
            for i, c in enumerate(counts[kind]) if c]
    _csv_dump(out / "delay_histogram.csv", ["kind", "bin_start_s", "count"], rows)


def _sweep_base(exp: Experiment, seed: int) -> optimizer.SweepBase:
    """The sweep context on the seed's cell. The last cell keeps it, and with
    it the alarm activity, while its other inputs stay equal."""
    cell = exp.cell()
    alarms = exp.alarms()
    # SweepBase's fields after the geometry, in order
    inputs = (cell.traffic, cell.deadlines, cell.protocol.t_r,
              cell.protocol.rs_duration, exp.p_h1(), alarms[0][1] if alarms else None)
    geometry = _stations(exp, seed)
    if _last_cell.base_inputs != inputs:
        _last_cell.base = optimizer.SweepBase(geometry, *inputs)
        _last_cell.base_inputs = inputs
    return _last_cell.base


def cmd_sweep(args, exp: Experiment, out: Path) -> None:
    seed = _require_seed(args)
    grid = exp.sweep_options()
    # only simulated points draw arrivals
    result = optimizer.sweep(grid, _sweep_base(exp, seed),
                             seed=child_seed(seed, 1) if grid.simulate_pools else None)

    header = ["omega", "delta_c_pct", "l1", "l2", "feasible", "e_c_analytical",
              "e_c_simulated", "e_c_simulated_stderr", "p11", "p10"]
    rows = [(r.omega, r.delta_c_pct, r.l1, r.l2, int(r.feasible),
             r.e_c_analytical, r.e_c_simulated, r.e_c_simulated_stderr,
             r.p11, r.p10) for r in result.rows]
    _table_dump(out, "sweep", args.format, header, rows)

    best = result.argmin
    _json_dump(out / "sweep_argmin.json", {
        "omega": best.omega, "delta_c_pct": best.delta_c_pct,
        "l1": best.l1, "l2": best.l2,
        "e_c_analytical": best.e_c_analytical,
        "e_c_simulated": best.e_c_simulated,
        "evaluation": "simulated" if result.simulated else "analytical",
    })


def cmd_compare_naive(args, exp: Experiment, out: Path) -> None:
    seed = _require_seed(args)
    opts = exp.compare_options()
    base = _sweep_base(exp, seed)
    result = optimizer.compare_naive(base, opts.omega_values, opts.delta_c_pct)

    _table_dump(out, "compare_naive", args.format,
                ["omega", "e_c_adaptive", "e_c_naive"],
                [(r.omega, r.e_c_adaptive, r.e_c_naive) for r in result.rows])
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
                        help="simulate: run exactly this many pool periods, "
                             "in [1, 2**63), instead of the configured horizon")
    parser.add_argument("--format", choices=["csv", "json"], default="csv",
                        help="table output format for sweep/compare-naive")
    parser.add_argument("--trace", action="store_true",
                        help="simulate: emit a per-pool JSON-lines trace")
    return parser


# built once per process: parsing keeps no state between calls
_parser = functools.cache(build_parser)
_COMMANDS = {
    "traffic": cmd_traffic,
    "analyze": cmd_analyze,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "compare-naive": cmd_compare_naive,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.seed is not None and not 0 <= args.seed < 2**64:
            raise CommandError(f"--seed must lie in [0, 2**64), got {args.seed}",
                               "invalid-argument")
        exp = load_experiment(args.config)
        _COMMANDS[args.command](args, exp, Path(args.out))
    except (ConfigError, CommandError, InfeasibleConfigError, AlarmTimeError) as exc:
        category, message = exc.category, str(exc)
    except MemoryError as exc:  # a cell or a run too large for this machine
        category, message = "out-of-memory", str(exc) or "not enough memory for this run"
    else:
        return 0
    # one line, even for a message that spans several (a parser error's does)
    print(f"error:{category}: {' '.join(message.split())}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
