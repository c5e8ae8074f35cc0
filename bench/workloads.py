"""The three benchmark workloads, each driven through rspool's public entry
points (`rspool.cli.main` and the library API), with the checks that decide
whether each request's output is correct.

A workload is a fixed list of short requests, each one CLI command. Their
inputs come from the run seed. A pass runs every request
once. The runner repeats passes and keeps each request's fastest time, so all
passes must read the same inputs. A request fails on a nonzero exit, an
exception or a failed output check.
"""

from __future__ import annotations

import configparser
import contextlib
import csv
import dataclasses
import json
import math
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from rspool import analysis, cli, config, optimizer, simulator, traffic

# number of standard errors the simulated H0 mean may sit from e_c_00
H0_MEAN_SE = 5.0
# relative tolerance for "equals" on analytical figures read back from files
REL_TOL = 1e-9
SIMULATE_CALLS = 20
POOLS_PER_CALL = 100


@dataclasses.dataclass
class Pass:
    latencies: list[float] = dataclasses.field(default_factory=list)  # per request
    units: int = 0                 # pools or grid points
    failed: int = 0
    e_c: float = float("nan")      # analytical E[C] the workload settles on
    counts: dict[str, float] = dataclasses.field(default_factory=lambda: {
        "simulator.pools": 0, "simulator.slots": 0,
        "simulator.collided_slots": 0, "simulator.reports": 0,
        "simulator.h1_pools": 0, "simulator.alarm_decisions": 0,
        "cli.bytes_written": 0})

    @property
    def seconds(self) -> float:
        return sum(self.latencies)

    def count_pools(self, trace: list[dict]) -> None:
        c = self.counts
        c["simulator.pools"] += len(trace)
        c["simulator.slots"] += sum(p["total_rs"] for p in trace)
        c["simulator.collided_slots"] += sum(p["k_c"] for p in trace)
        c["simulator.alarm_decisions"] += sum(p["decision"] == "alarm" for p in trace)


def request_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0])


@contextlib.contextmanager
def timed(tracer, sink: list[float]):
    """Time the block into `sink`, recording spans only inside it."""
    if tracer is not None:
        tracer.active = True
    t0 = time.perf_counter()
    try:
        yield
    finally:
        sink.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.active = False


def run_cli(argv: list[str]) -> int:
    try:
        return cli.main(argv)
    except Exception:  # a request failure, counted by the caller
        traceback.print_exc(file=sys.stderr)
        return -1


def checked(check, *args) -> bool:
    """Run an output check; a missing or malformed output fails it."""
    try:
        return check(*args)
    except (OSError, ValueError, KeyError, IndexError):
        traceback.print_exc(file=sys.stderr)
        return False


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Workload:
    name = ""
    requests = 0  # per pass

    def __init__(self, root: Path, work: Path, seed: int, tiny: bool):
        self.work = work
        self.seed = seed
        self.tiny = tiny
        self.reference = str(root / "configs" / "reference_cell.ini")

    def prepare(self) -> None:
        """Untimed per-run set-up."""

    def run_pass(self, tracer) -> Pass:
        raise NotImplementedError

    def analyze(self) -> dict:
        """Closed-form report of the reference cell, via `rspool analyze`."""
        out = self.work / "analyze"
        if run_cli(["analyze", "--config", self.reference, "--seed", str(self.seed),
                    "--out", str(out)]) != 0:
            raise RuntimeError("rspool analyze failed on the reference cell")
        return json.loads((out / "analysis.json").read_text(encoding="utf-8"))


class RegularMC(Workload):
    """`rspool simulate --replications 100 --trace` on the reference cell, 20
    calls with distinct seeds: the long-run pool loop, every pool H0 but the
    quake's."""

    name = "regular-mc"

    def prepare(self) -> None:
        self.requests = 2 if self.tiny else SIMULATE_CALLS
        self.pools = 10 if self.tiny else POOLS_PER_CALL
        self.report = self.analyze()

    def run_pass(self, tracer) -> Pass:
        run = Pass(e_c=self.report["e_c"])
        for j in range(self.requests):
            if tracer is not None:
                tracer.request = j
            out = self.work / f"sim-{j}"
            argv = ["simulate", "--config", self.reference,
                    "--seed", str(request_seed(self.seed, j)),
                    "--replications", str(self.pools), "--trace", "--out", str(out)]
            with timed(tracer, run.latencies):
                rc = run_cli(argv)
            run.units += self.pools
            run.failed += not (rc == 0 and checked(self._check, out, run))
            shutil.rmtree(out, ignore_errors=True)
        return run

    def _check(self, out: Path, run: Pass) -> bool:
        stats = json.loads((out / "scenario_stats.json").read_text(encoding="utf-8"))
        with open(out / "pool_trace.jsonl", encoding="utf-8") as fh:
            trace = [json.loads(line) for line in fh]
        run.count_pools(trace)
        run.counts["simulator.reports"] += stats["reports_total"]
        run.counts["simulator.h1_pools"] += stats["pools_h1"]
        run.counts["cli.bytes_written"] += dir_bytes(out)

        h0 = np.array([p["total_rs"] for p in trace
                       if p["hypothesis"] == "h0" and p["decision"] == "regular"],
                      dtype=float)
        if len(trace) != self.pools or h0.size < 2:
            return False
        se = h0.std(ddof=1) / math.sqrt(h0.size)
        agrees = abs(h0.mean() - self.report["e_c_00"]) <= H0_MEAN_SE * se
        if not agrees:
            print(f"regular-mc: H0 mean {h0.mean():.3f} vs e_c_00 "
                  f"{self.report['e_c_00']:.3f} (SE {se:.3f})", file=sys.stderr)
        return (agrees and stats["unresolved_active"] == 0
                and stats["dropped_reports"] == 0)


class DesignSearch(Workload):
    """`rspool sweep` with the frame fractions searched, one command per point
    of the reference grid, then `rspool compare-naive`; analytical only, no
    pool is simulated. All commands share the run seed, so the rows are the
    ones a single sweep over the grid writes."""

    name = "design-search"

    def prepare(self) -> None:
        parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        with open(self.reference, encoding="utf-8") as fh:
            parser.read_file(fh)
        sweep = parser["sweep"]
        sweep["l1_frac"] = sweep["l2_frac"] = "search"
        if self.tiny:
            sweep["omega_values"] = "10 50"
            sweep["delta_c_pcts"] = "50"
            parser["compare"]["omega_values"] = "40 50"
        omegas = sweep["omega_values"].replace(",", " ").split()
        pcts = sweep["delta_c_pcts"].replace(",", " ").split()
        # one configuration per grid point, plus the full one for compare-naive
        self.points = [(int(o), float(p)) for o in omegas for p in pcts]
        self.configs = []
        for point, (omega, pct) in enumerate((o, p) for o in omegas for p in pcts):
            sweep["omega_values"], sweep["delta_c_pcts"] = omega, pct
            self.configs.append(self._write(parser, f"point-{point}.ini"))
        self.infeasible: dict[int, bool] = {}
        self.compare_config = self._write(parser, "compare.ini")
        self.requests = len(self.configs) + 1

        exp = config.load_experiment(str(self.compare_config))
        cell = self.cell = exp.cell()
        self.p_h1 = exp.p_h1()
        alarms = exp.alarms()
        # the station placement `rspool sweep` derives from its seed
        base_seed, _ = np.random.SeedSequence(self.seed).spawn(2)
        geometry = traffic.place_stations(cell.n_stations, cell.radius_m, base_seed)
        self.base = optimizer.SweepBase(
            geometry=geometry, traffic=cell.traffic, deadlines=cell.deadlines,
            t_r=cell.protocol.t_r, rs_duration=cell.protocol.rs_duration,
            p_h1=self.p_h1, alarm=alarms[0][1] if alarms else None)
        self.activity = self.base.activity()

    def _write(self, parser: configparser.ConfigParser, name: str) -> Path:
        path = self.work / name
        with open(path, "w", encoding="utf-8") as fh:
            parser.write(fh)
        return path

    def run_pass(self, tracer) -> Pass:
        run = Pass()
        out = self.work / "out"
        best = (math.inf,)
        for j, ini in enumerate(self.configs):
            if tracer is not None:
                tracer.request = j
            with timed(tracer, run.latencies):
                rc = run_cli(["sweep", "--config", str(ini), "--seed", str(self.seed),
                              "--out", str(out)])
            run.counts["cli.bytes_written"] += dir_bytes(out)
            rows: list = []
            if rc == 0:
                ok = checked(self._check_sweep, out, rows)
            else:
                # a point with no feasible, defined cost is an error exit
                ok = rc == 1 and self._no_feasible_cost(j)
            run.failed += not ok
            run.units += 1
            best = min([best] + rows)
            shutil.rmtree(out, ignore_errors=True)
        run.e_c = best[0]

        with timed(tracer, run.latencies):
            rc = run_cli(["compare-naive", "--config", str(self.compare_config),
                          "--seed", str(self.seed), "--out", str(out)])
        run.counts["cli.bytes_written"] += dir_bytes(out)
        run.failed += not (rc == 0 and checked(self._check_compare, out, run))
        shutil.rmtree(out, ignore_errors=True)
        return run

    def _no_feasible_cost(self, j: int) -> bool:
        """Whether a fresh library sweep of grid point j also finds no
        feasible configuration with a defined cost."""
        if j not in self.infeasible:
            omega, pct = self.points[j]
            grid = optimizer.SweepGrid(omega_values=(omega,), delta_c_pcts=(pct,),
                                       l1_frac="search", l2_frac="search")
            try:
                optimizer.sweep(grid, self.base)
                self.infeasible[j] = False
            except simulator.InfeasibleConfigError:
                self.infeasible[j] = True
        return self.infeasible[j]

    def _check_sweep(self, out: Path, feasible: list) -> bool:
        """Fill `feasible` with (e_c, omega, pct, l1, l2) of the rows with a
        defined cost; check each against a fresh `expected_costs` and the
        argmin against their minimum."""
        with open(out / "sweep.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        argmin = json.loads((out / "sweep_argmin.json").read_text(encoding="utf-8"))
        cell = self.cell
        for row in rows:
            if row["feasible"] != "1":
                continue
            omega, pct = int(row["omega"]), float(row["delta_c_pct"])
            params = analysis.ProtocolParams(
                n=cell.n_stations, omega=omega,
                delta_c=analysis.delta_c_from_pct(pct, math.ceil(cell.n_stations / omega)),
                l1=int(row["l1"]), l2=int(row["l2"]), t_r=cell.protocol.t_r,
                rs_duration=cell.protocol.rs_duration)
            fresh = analysis.expected_costs(params, self.activity, self.p_h1).e_c
            # the CLI writes an undefined (NaN) cost as an empty cell
            e_c = float(row["e_c_analytical"] or "nan")
            if math.isnan(e_c) and math.isnan(fresh):
                continue
            if not math.isclose(e_c, fresh, rel_tol=REL_TOL):
                print(f"design-search: row omega={omega} pct={pct} reads {e_c!r}, "
                      f"a fresh expected_costs gives {fresh!r}", file=sys.stderr)
                return False
            feasible.append((e_c, omega, pct, int(row["l1"]), int(row["l2"])))
        if not feasible:
            return False
        best = min(feasible)
        return (math.isclose(argmin["e_c_analytical"], best[0], rel_tol=REL_TOL)
                and (argmin["omega"], argmin["delta_c_pct"], argmin["l1"],
                     argmin["l2"]) == best[1:])

    def _check_compare(self, out: Path, run: Pass) -> bool:
        with open(out / "compare_naive.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        summary = json.loads((out / "compare_naive_summary.json").read_text(
            encoding="utf-8"))
        run.units += len(rows)
        min_adaptive = min(float(r["e_c_adaptive"]) for r in rows)
        min_naive = min(float(r["e_c_naive"]) for r in rows)
        return (math.isclose(summary["min_adaptive"], min_adaptive, rel_tol=REL_TOL)
                and math.isclose(summary["min_naive"], min_naive, rel_tol=REL_TOL)
                and math.isclose(summary["naive_over_adaptive_ratio"],
                                 summary["min_naive"] / summary["min_adaptive"],
                                 rel_tol=REL_TOL))


WORKLOADS = {cls.name: cls for cls in (RegularMC, DesignSearch)}
