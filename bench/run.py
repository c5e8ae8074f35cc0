"""rspool benchmark: two single-process workloads through the public entry
points, with output checks, end-to-end metrics and a traced per-layer split.

    python3 bench/run.py --workload regular-mc --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload design-search --held-out --seconds 50 --trace 1
    python3 bench/run.py --self-test

bench/README.md defines the workloads, checks and metrics. The last line of
standard output is the result object; the line before it holds run
information (versions, commit, source size) that is not gated.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "bench" / "_work"
HELD_OUT_SEED = 9_061_707_311  # for re-checking a claim; never tune a change on it
SETUP_RUNS = 5
SETUP_CODE = ("import sys\nimport rspool\nfrom rspool.config import load_experiment\n"
              "load_experiment(sys.argv[1])\n")

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "throughput_per_s": "1/s",
    "e_c_rs": "RS",
}
PER_LAYER = {
    "traffic.place_stations.s": "s", "traffic.place_stations.calls": "count",
    "traffic.alarm_draw.s": "s", "traffic.alarm_draw.calls": "count",
    "analysis.expected_costs.s": "s", "analysis.expected_costs.calls": "count",
    "analysis.resolution_probs.s": "s", "analysis.resolution_probs.calls": "count",
    "analysis.resolve_prob.calls": "count",
    "analysis.activity_prob_alarm.s": "s", "analysis.activity_prob_alarm.calls": "count",
    "simulator.run_scenario.self_s": "s", "simulator.run_scenario.calls": "count",
    "simulator.us_per_pool": "us", "simulator.us_per_slot": "us",
    "simulator.validate_deadline.s": "s", "simulator.validate_deadline.calls": "count",
    "simulator.pools": "count", "simulator.slots": "count",
    "simulator.collided_slots": "count", "simulator.reports": "count",
    "simulator.h1_pools": "count", "simulator.alarm_decisions": "count",
    "simulator.reports_per_slot": "ratio",
    "optimizer.sweep.self_s": "s", "optimizer.candidates": "count",
    "optimizer.feasible_ratio": "ratio", "optimizer.compare_naive.s": "s",
    "config.load_experiment.s": "s", "cli.main.self_s": "s", "cli.bytes_written": "B",
    "trace.wall_s": "s", "trace.overhead_s": "s",
}


def measure_setup(runs: int) -> list[float]:
    """Wall time of fresh interpreters that import rspool and load the
    reference configuration."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    samples = []
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE,
                        str(ROOT / "configs" / "reference_cell.ini")],
                       cwd=ROOT, env=env, check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return samples


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_info() -> dict:
    import scipy
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted((ROOT / "src" / "rspool").glob("*.py"))),
    }


def layer_metrics(run, tracer) -> dict[str, float]:
    t = tracer.totals()
    c = run.counts
    run_s = t["simulator.run_scenario"]["s"]
    candidates, infeasible = tracer.calls_under("simulator.validate_deadline",
                                                "optimizer.sweep")
    m = {
        "simulator.run_scenario.self_s": t["simulator.run_scenario"]["self_s"],
        "simulator.us_per_pool": 1e6 * run_s / c["simulator.pools"] if c["simulator.pools"] else 0.0,
        "simulator.us_per_slot": 1e6 * run_s / c["simulator.slots"] if c["simulator.slots"] else 0.0,
        "simulator.reports_per_slot": c["simulator.reports"] / c["simulator.slots"] if c["simulator.slots"] else 0.0,
        "optimizer.sweep.self_s": t["optimizer.sweep"]["self_s"],
        "optimizer.candidates": candidates,
        "optimizer.feasible_ratio": (candidates - infeasible) / candidates if candidates else 0.0,
        "cli.main.self_s": t["cli.main"]["self_s"],
    }
    m.update(c)
    for name, unit in PER_LAYER.items():
        base, _, kind = name.rpartition(".")
        if name not in m and base in t:
            m[name] = t[base]["s"] if kind == "s" else t[base]["calls"]
        m.setdefault(name, 0.0 if unit in ("s", "us", "ratio") else 0)
    return m


def request_floors(passes) -> list[float]:
    """Each request's fastest time over the passes. All passes run the same
    requests on the same inputs. On a shared machine whose speed swings by up
    to 2x within a fraction of a second, a short request repeated over the
    run meets a quiet moment, so its fastest time varies less from run to run
    than a median over passes; a drift over minutes still moves both."""
    return [min(times) for times in zip(*(p.latencies for p in passes))]


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Run one workload for `seconds`; returns (result, info)."""
    import tracing
    import workloads

    work = WORK / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[name](ROOT, work, seed, tiny)
        setup = [] if trace else measure_setup(1 if tiny else SETUP_RUNS)
        wl.prepare()

        plain, traced = [], []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            plain.append(wl.run_pass(None))
            if trace:
                with tracing.Tracer() as tracer:
                    traced.append((wl.run_pass(tracer), tracer))
            last = time.perf_counter() - t0
            if time.perf_counter() - start + last > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = plain + [p for p, _ in traced]
    attempted = wl.requests * len(passes)
    failed = sum(p.failed for p in passes)
    floors = request_floors(plain)
    info = {"workload": name, "seed": seed, "trace": int(trace), "passes": len(plain),
            "requests_per_pass": wl.requests, "failed_ratio": failed / attempted,
            "pass_seconds": [p.seconds for p in plain], "setup_samples_s": setup}

    if trace:
        # times come from the fastest traced pass; counts and ratios are
        # exact and come from the first pass, so they repeat for a given seed
        fastest = layer_metrics(*min(traced, key=lambda pt: pt[0].seconds))
        first_pass = layer_metrics(*traced[0])
        metrics = {metric: (fastest if unit in ("s", "us") else first_pass)[metric]
                   for metric, unit in PER_LAYER.items()}
        traced_wall = sum(request_floors([p for p, _ in traced]))
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - sum(floors)
        first = traced[0][1]
        info["absent_hooks"] = sorted(first.absent)
        WORK.mkdir(parents=True, exist_ok=True)
        with open(WORK / f"spans-{name}-seed{seed}.jsonl", "w", encoding="utf-8") as fh:
            for span in first.spans:
                fh.write(json.dumps(dict(zip(
                    ("name", "start", "end", "parent", "request", "raised"), span))) + "\n")
        units = PER_LAYER
    else:
        wall = sum(floors)
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "throughput_per_s": plain[0].units / wall,
            "e_c_rs": plain[0].e_c,
        }
        info["request_floor_p50_ms"] = 1e3 * float(np.percentile(floors, 50))
        info["request_floor_p95_ms"] = 1e3 * float(np.percentile(floors, 95))
        units = END_TO_END
    result = {
        "correct": failed == 0 and all(math.isfinite(v) for v in metrics.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return result, info


def self_test() -> int:
    """Run every workload at a tiny size, traced and untraced, and check
    that each emits exactly the metrics BENCHMARK.json names, with their units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    names = [w["name"] for w in spec["workloads"]]
    problems = []
    import workloads
    if sorted(names) != sorted(workloads.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} differ from the harness's")
    for name in names:
        for trace in (0, 1):
            result, _ = run_workload(name, seed=1, seconds=0, trace=bool(trace), tiny=True)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{name} trace={trace}: metrics {got} != {expected[trace]}")
            if not result["correct"]:
                problems.append(f"{name} trace={trace}: outputs failed their checks")
            print(f"self-test {name} trace={trace}: {len(got)} metrics, "
                  f"correct={result['correct']}", file=sys.stderr)
    for p in problems:
        print(f"self-test: {p}", file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["regular-mc", "design-search"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--held-out", action="store_true",
                        help=f"use the held-out seed {HELD_OUT_SEED} instead of --seed")
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rspool" / "__init__.py").is_file() \
            or not (ROOT / "configs" / "reference_cell.ini").is_file():
        print("error: run from a checkout of the rspool repository "
              "(src/rspool and configs/ not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    seed = HELD_OUT_SEED if args.held_out else args.seed
    result, info = run_workload(args.workload, seed, args.seconds, bool(args.trace))
    info.update(run_info())
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
