"""In-memory span tracer that wraps rspool's public functions from outside.

Each hook names a span, the module (and optionally class) that holds the
binding callers look up at call time, and the attribute to replace. A span
records (name, start, end, parent, request index, raised). Hooks marked
count-only bump a counter and record no span: they sit on functions called
hundreds of thousands of times, where a span per call would swamp the run.

A hooked attribute that no longer exists is recorded as absent; the run goes
on and the metrics that depend on it read 0.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict

# (span name, module, class or None, attribute, count_only)
HOOKS = (
    ("cli.main", "rspool.cli", None, "main", False),
    ("config.load_experiment", "rspool.config", None, "load_experiment", False),
    ("config.load_experiment", "rspool.cli", None, "load_experiment", False),
    ("traffic.place_stations", "rspool.traffic", None, "place_stations", False),
    ("traffic.place_stations", "rspool.simulator", None, "place_stations", False),
    ("traffic.alarm_draw", "rspool.traffic", "AlarmScenario", "trigger_probs", False),
    ("traffic.alarm_draw", "rspool.traffic", "AlarmScenario", "arrival_times", False),
    ("analysis.expected_costs", "rspool.analysis", None, "expected_costs", False),
    ("analysis.resolution_probs", "rspool.analysis", None, "resolution_probs", False),
    ("analysis.resolve_prob", "rspool.analysis", None, "resolve_prob", True),
    ("analysis.activity_prob_alarm", "rspool.analysis", None, "activity_prob_alarm", False),
    ("simulator.run_scenario", "rspool.simulator", None, "run_scenario", False),
    ("simulator.validate_deadline", "rspool.simulator", None, "validate_deadline", False),
    ("optimizer.sweep", "rspool.optimizer", None, "sweep", False),
    ("optimizer.compare_naive", "rspool.optimizer", None, "compare_naive", False),
)


class Tracer:
    """Spans of one traced pass, kept in memory.

    Wrappers are installed for the pass only, and record only while
    `active` is set, so the harness's own output checks, which call the same
    library functions, stay out of the figures.
    """

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, request, raised]
        self.counts: Counter = Counter()
        self.absent: set[str] = set()
        self.active = False
        self.request = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, count_only: bool):
        tracer = self

        if count_only:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if tracer.active:
                    tracer.counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, time.perf_counter(), 0.0, parent, tracer.request, False]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
        return traced

    def install(self) -> None:
        for name, module_name, class_name, attr, count_only in HOOKS:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                self.absent.add(name)
                continue
            if class_name is not None:
                owner = getattr(owner, class_name, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if not callable(fn):
                self.absent.add(name)
                continue
            self._undo.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, count_only))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: inclusive seconds, self seconds, calls and the calls
        that raised. Self time is a span's duration minus its children's."""
        child_time = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"s": 0.0, "self_s": 0.0, "calls": 0, "raised": 0})
        for i, (name, start, end, _, _, raised) in enumerate(self.spans):
            rec = out[name]
            rec["s"] += end - start
            rec["self_s"] += end - start - child_time[i]
            rec["calls"] += 1
            rec["raised"] += int(raised)
        for name, n in self.counts.items():
            out[name]["calls"] += n
        return out

    def calls_under(self, name: str, ancestor: str) -> tuple[int, int]:
        """Calls of `name` made (at any depth) inside an `ancestor` span, and
        how many of them raised."""
        calls = raised = 0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            if parent >= 0:
                calls += 1
                raised += int(span[5])
        return calls, raised
