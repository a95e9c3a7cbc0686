"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public entry points of each layer *from the outside*
(module attributes and class methods, patched on :meth:`Tracer.install`
and restored on :meth:`Tracer.uninstall`); nothing inside ``src/repro``
knows it exists.  Untraced runs execute the unpatched program.

Each wrapped call becomes a span ``[name, start, end, parent]`` kept in
memory; :meth:`Tracer.write_spans` writes them out at the end.  A layer's
self time is the sum over its spans of the span's duration minus the
part of that interval its child spans cover.  Calls made by the HTTP
server thread have no parent on their own thread; they are parented to
the client operation in flight (the benchmark's client is a single
closed loop, so at most one operation is outstanding).
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: span name -> (seconds metric, share metric, calls metric).  Seconds
#: are self time; share is self time over the traced wall time.
SPAN_METRICS: Dict[str, Tuple[str, str, str]] = {
    "exec.runtable": (
        "exec.runtable_s", "exec.runtable_share", "exec.runtable_calls"),
    "exec.campaign.plan": (
        "exec.campaign.plan_s", "exec.campaign.plan_share",
        "exec.campaign.plan_calls"),
    "exec.campaign.finalize": (
        "exec.campaign.finalize_self_s", "exec.campaign.finalize_share",
        "exec.campaign.finalize_calls"),
    "exec.cache.get": (
        "exec.cache.get_s", "exec.cache.get_share", "exec.cache.get_calls"),
    "exec.cache.put": (
        "exec.cache.put_s", "exec.cache.put_share", "exec.cache.put_calls"),
    "exec.trial": ("exec.trial_s", "exec.trial_share", "exec.trial_calls"),
    "exec.specs.build": (
        "exec.specs.build_s", "exec.specs.build_share",
        "exec.specs.build_calls"),
    "faults.placement": (
        "faults.placement_s", "faults.placement_share",
        "faults.placement_calls"),
    "grid.topology": (
        "grid.topology_s", "grid.topology_share", "grid.topology_calls"),
    "radio.engine.run": (
        "radio.engine.run_s", "radio.engine.run_share",
        "radio.engine.run_calls"),
    "radio.fastpath.run": (
        "radio.fastpath.run_s", "radio.fastpath.run_share",
        "radio.fastpath.run_calls"),
    "analysis.packing": (
        "analysis.packing.s", "analysis.packing.share",
        "analysis.packing.calls"),
    "radio.run.grade": (
        "radio.run.grade_s", "radio.run.grade_share",
        "radio.run.grade_calls"),
    "obs.summary": ("obs.summary_s", "obs.summary_share", "obs.summary_calls"),
    "serve.submit": (
        "serve.submit_s", "serve.submit_share", "serve.submit_calls"),
    "serve.get_result": (
        "serve.get_result_s", "serve.get_result_share",
        "serve.get_result_calls"),
    "serve.metrics": (
        "serve.metrics_s", "serve.metrics_share", "serve.metrics_calls"),
    "serve.http": (
        "serve.http_overhead_s", "serve.http_overhead_share",
        "serve.http_calls"),
}

#: engine phases read from the PhaseProfiler passed through
#: ``BroadcastScenario.run(profiler=)``.  Phase totals are inclusive:
#: ``round_end_hooks`` contains the protocols' set packing, and in
#: immediate-delivery mode ``deliver`` nests inside ``transmit``.
PHASE_METRICS: Dict[str, Tuple[str, str, str]] = {
    phase: (f"radio.engine.{phase}_s", f"radio.engine.{phase}_share",
            f"radio.engine.{phase}_calls")
    for phase in ("transmit", "deliver", "round_end_hooks")
}

#: exact counts recorded at layer boundaries
COUNT_METRICS: Tuple[str, ...] = (
    "protocols.evidence.adds",
    "radio.fastpath.lattice_builds",
    "exec.cache.entry_scans",
    "exec.cache.entries_listed",
    "exec.campaign.units_computed",
    "exec.campaign.units_cached",
    "exec.campaign.units_failed",
    "serve.report_bytes",
)

#: the tracer's own accounting
TRACE_METRICS: Tuple[str, ...] = (
    "trace.wall_s",
    "trace.overhead_s",
    "trace.overhead_share",
    "trace.spans",
)

#: (module, attribute path, span name): plain function spans.  A name
#: imported into several modules is patched where each caller looks it up.
SPAN_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.exec.runtable", "execute_runtable", "exec.runtable"),
    ("repro.exec.campaign", "plan_units", "exec.campaign.plan"),
    ("repro.serve.service", "plan_units", "exec.campaign.plan"),
    ("repro.exec.cache", "ResultCache.get", "exec.cache.get"),
    ("repro.exec.cache", "ResultCache.put", "exec.cache.put"),
    ("repro.exec.executor", "run_trial", "exec.trial"),
    ("repro.exec.specs", "build_scenario", "exec.specs.build"),
    ("repro.experiments.scenarios", "random_bounded_placement",
     "faults.placement"),
    ("repro.experiments.scenarios", "trim_to_budget", "faults.placement"),
    ("repro.experiments.scenarios", "make_topology", "grid.topology"),
    ("repro.radio.engine", "Engine.run", "radio.engine.run"),
    ("repro.radio.fastpath", "run_fastpath_broadcast", "radio.fastpath.run"),
    ("repro.protocols.bv_two_hop", "has_packing_of_size", "analysis.packing"),
    ("repro.protocols.bv_indirect", "has_packing_of_size",
     "analysis.packing"),
    ("repro.radio.fastpath.bv_two_hop", "has_packing_of_size",
     "analysis.packing"),
    ("repro.radio.run", "grade_outcome", "radio.run.grade"),
    ("repro.radio.fastpath.runner", "grade_outcome", "radio.run.grade"),
    ("repro.obs", "metrics_summary", "obs.summary"),
    ("repro.serve.service", "CampaignService.submit", "serve.submit"),
    ("repro.serve.service", "CampaignService.get_result", "serve.get_result"),
    ("repro.serve.service", "CampaignService.metrics_text", "serve.metrics"),
)

#: (module, attribute path, count name): calls counted, not timed (hot
#: enough that a span per call would distort the trace)
COUNT_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.protocols.evidence", "CenterIndex.add", "protocols.evidence.adds"),
    ("repro.radio.fastpath.lattice", "Lattice.__init__",
     "radio.fastpath.lattice_builds"),
)


def per_layer_metric_names() -> List[str]:
    """Every metric a traced run prints, in print order."""
    names: List[str] = []
    for triple in SPAN_METRICS.values():
        names.extend(triple)
    for triple in PHASE_METRICS.values():
        names.extend(triple)
    names.extend(COUNT_METRICS)
    names.extend(TRACE_METRICS)
    return names


def _resolve(module: str, path: str) -> Tuple[Any, str]:
    """``(owner, attribute)`` for ``module`` + dotted ``path``."""
    owner: Any = importlib.import_module(module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def self_times(spans: List[list]) -> Dict[int, float]:
    """Self time per span (keyed by ``id`` of the span record).

    A span's self time is its duration minus the union of its children's
    intervals clipped to it, so children running in another thread while
    the parent waits (the HTTP server) are subtracted exactly once.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for rec in spans:
        parent = rec[3]
        if parent is not None:
            children.setdefault(id(parent), []).append((rec[1], rec[2]))
    out: Dict[int, float] = {}
    for rec in spans:
        start, end = rec[1], rec[2]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(id(rec), ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[id(rec)] = (end - start) - covered
    return out


class Tracer:
    """Spans, counts and engine phases for one traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        from repro.obs import PhaseProfiler

        self.clock = clock
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.profiler = PhaseProfiler(clock)
        #: client operation in flight; parents server-thread root spans
        self.current_op: Optional[list] = None
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording ----------------------------------------------------------

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> list:
        """Open a span on the calling thread; close it with :meth:`end`."""
        stack = self._stack()
        parent = stack[-1] if stack else self.current_op
        rec = [name, self.clock(), 0.0, parent]
        self.spans.append(rec)
        stack.append(rec)
        return rec

    def end(self, rec: list) -> None:
        rec[2] = self.clock()
        self._stack().pop()

    def _span_wrapper(self, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(rec)

        return traced

    def _count_wrapper(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching -----------------------------------------------------------

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every layer entry point; :meth:`uninstall` restores them."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module, path, name in SPAN_TARGETS:
            owner, attr = _resolve(module, path)
            self._patch(owner, attr, self._span_wrapper(name, getattr(owner, attr)))
        for module, path, name in COUNT_TARGETS:
            owner, attr = _resolve(module, path)
            self._patch(owner, attr, self._count_wrapper(name, getattr(owner, attr)))
        self._install_special()

    def _install_special(self) -> None:
        """Wrappers that need more than a span or a count."""
        from repro.exec.cache import ResultCache
        from repro.exec.campaign import CampaignRunner
        from repro.experiments.scenarios import BroadcastScenario

        tracer = self
        counts = self.counts

        entry_paths = ResultCache.entry_paths

        @functools.wraps(entry_paths)
        def counted_entry_paths(cache, *args, **kwargs):
            counts["exec.cache.entry_scans"] += 1
            for path in entry_paths(cache, *args, **kwargs):
                counts["exec.cache.entries_listed"] += 1
                yield path

        self._patch(ResultCache, "entry_paths", counted_entry_paths)

        campaign_run = CampaignRunner.run

        @functools.wraps(campaign_run)
        def traced_campaign_run(runner, *args, **kwargs):
            before = (runner.units_completed, runner.units_cached,
                      runner.units_failed)
            rec = tracer.begin("exec.campaign.finalize")
            try:
                return campaign_run(runner, *args, **kwargs)
            finally:
                tracer.end(rec)
                counts["exec.campaign.units_computed"] += (
                    runner.units_completed - before[0])
                counts["exec.campaign.units_cached"] += (
                    runner.units_cached - before[1])
                counts["exec.campaign.units_failed"] += (
                    runner.units_failed - before[2])

        self._patch(CampaignRunner, "run", traced_campaign_run)

        scenario_run = BroadcastScenario.run

        @functools.wraps(scenario_run)
        def profiled_run(scenario, *args, **kwargs):
            # the fastpath engine refuses a profiler by design
            if scenario.engine == "reference" and kwargs.get("profiler") is None:
                kwargs["profiler"] = tracer.profiler
            return scenario_run(scenario, *args, **kwargs)

        self._patch(BroadcastScenario, "run", profiled_run)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reporting ----------------------------------------------------------

    def per_layer(self, traced_wall_s: float, untraced_wall_s: float) -> Dict[str, Tuple[float, str]]:
        """Every per-layer metric as ``{name: (value, unit)}``."""
        wall = traced_wall_s if traced_wall_s > 0 else 1.0
        selfs = self_times(self.spans)
        seconds: Counter = Counter()
        calls: Counter = Counter()
        for rec in self.spans:
            seconds[rec[0]] += selfs[id(rec)]
            calls[rec[0]] += 1
        out: Dict[str, Tuple[float, str]] = {}
        for span, (s_name, share_name, calls_name) in SPAN_METRICS.items():
            out[s_name] = (seconds[span], "s")
            out[share_name] = (seconds[span] / wall, "ratio")
            out[calls_name] = (calls[span], "count")
        for phase, (s_name, share_name, calls_name) in PHASE_METRICS.items():
            total = self.profiler.total(phase)
            out[s_name] = (total, "s")
            out[share_name] = (total / wall, "ratio")
            out[calls_name] = (self.profiler.counts.get(phase, 0), "count")
        for name in COUNT_METRICS:
            out[name] = (self.counts[name], "bytes" if name.endswith("bytes") else "count")
        overhead = traced_wall_s - untraced_wall_s
        out["trace.wall_s"] = (traced_wall_s, "s")
        out["trace.overhead_s"] = (overhead, "s")
        out["trace.overhead_share"] = (
            overhead / untraced_wall_s if untraced_wall_s > 0 else 0.0, "ratio")
        out["trace.spans"] = (len(self.spans), "count")
        return out

    def write_spans(self, path) -> None:
        """One JSON object per span: id, name, start, end, parent id.

        Times are seconds relative to the first span's start.
        """
        ids = {id(rec): i for i, rec in enumerate(self.spans)}
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i,
                    "name": name,
                    "start": round(start - origin, 9),
                    "end": round(end - origin, 9),
                    "parent": None if parent is None else ids[id(parent)],
                }) + "\n")
