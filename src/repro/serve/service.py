"""The campaign service: sweep submission, result lookup, metrics.

:class:`CampaignService` is the transport-free core of ``repro serve``
(the HTTP layer in :mod:`repro.serve.http` is a thin shim over it).  It
owns one shared :class:`~repro.exec.cache.ResultCache` and runs every
submitted sweep through a :class:`~repro.exec.campaign.CampaignRunner`
on the backend the submission (or the service default) names.

Because work units are content-addressed and rows are a pure function
of ``(specs, root_seed)``, the service inherits the repo's determinism
contract for free: resubmitting an identical sweep -- from any client,
against any backend -- is a 100% cache hit and returns byte-identical
rows (CI's ``serve-smoke`` job pins exactly this).

Observability: cumulative counters (sweeps, units, trials, rounds,
messages) fold every finished campaign's accounting via
:meth:`~repro.exec.executor.ExecStats.merge`; the in-flight campaign's
queue depth is read live from its runner.
:meth:`CampaignService.metrics_text` renders it all as Prometheus text
(:mod:`repro.obs.prom`).
"""

from __future__ import annotations

import json
import threading
from typing import Any, Dict, List, Optional

from repro.errors import ConfigurationError, ReproError
from repro.exec.cache import ResultCache
from repro.exec.campaign import CampaignRunner, plan_units
from repro.exec.executor import DEFAULT_CHUNK_SIZE, ExecStats
from repro.exec.specs import ScenarioSpec
from repro.obs.prom import MetricFamily, render_metrics

#: Most work units one ``POST /sweeps`` may ask for.  Checked from the
#: trial counts before any unit is planned, so a tiny body asking for
#: ``trials=10**9`` is refused in microseconds instead of holding a
#: request thread while a quarter-billion units are planned.
MAX_UNITS_PER_SUBMISSION = 10_000


def canonical_report(report: Dict[str, Any]) -> str:
    """Render a report dict to canonical JSON (sorted keys, trailing
    newline) -- the byte-comparable wire form every endpoint returns."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


class CampaignService:
    """Accept sweep submissions, execute them, and account for them.

    Parameters
    ----------
    cache:
        The shared result store (also the cross-submission memo); may
        be ``None`` to always recompute (testing only -- resubmission
        identity then costs full recomputation).
    backend:
        Default backend name for submissions that do not pick one.
    workers:
        Pool size for ``pool``-backend campaigns.
    """

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        backend: str = "serial",
        workers: int = 1,
    ) -> None:
        self.cache = cache
        self.default_backend = backend
        self.workers = workers
        self._lock = threading.Lock()
        self._sweeps: Dict[str, Dict[str, Any]] = {}
        self._next_id = 1
        self._current_runner: Optional[CampaignRunner] = None
        # cumulative accounting, folded sweep by sweep
        self._stats = ExecStats()
        self._sweeps_total = 0
        self._sweeps_failed = 0
        self._units_completed = 0
        self._units_cached = 0
        self._units_failed = 0
        self._rounds_total = 0
        self._messages_total = 0

    # -- submission ---------------------------------------------------------

    def _parse_request(self, request: Dict[str, Any]):
        """Validate a submission dict into (specs, root_seed,
        chunk_size, backend_name).

        Refuses a submission over :data:`MAX_UNITS_PER_SUBMISSION`
        before anything is planned.
        """
        if not isinstance(request, dict):
            raise ConfigurationError("sweep request must be a JSON object")
        raw_specs = request.get("specs")
        if not isinstance(raw_specs, list) or not raw_specs:
            raise ConfigurationError(
                "sweep request needs a non-empty 'specs' list"
            )
        specs = [ScenarioSpec.from_dict(s) for s in raw_specs]
        root_seed = int(request.get("root_seed", 0))
        chunk_size = int(request.get("chunk_size", DEFAULT_CHUNK_SIZE))
        if chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be >= 1, got {chunk_size}"
            )
        units = sum(-(-spec.trials // chunk_size) for spec in specs)
        if units > MAX_UNITS_PER_SUBMISSION:
            raise ConfigurationError(
                f"sweep asks for {units} work units; one submission may "
                "ask for at most MAX_UNITS_PER_SUBMISSION = "
                f"{MAX_UNITS_PER_SUBMISSION}"
            )
        backend_name = str(request.get("backend", self.default_backend))
        return specs, root_seed, chunk_size, backend_name

    def submit(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Execute one sweep submission synchronously; return its report.

        The report carries the sweep id, per-spec rows (plan order --
        deterministic bytes), execution stats, and the unit keys so a
        client can fetch individual units later via
        :meth:`get_result`.  Raises
        :class:`~repro.errors.ConfigurationError` on a malformed
        request and lets backend failures
        (:class:`~repro.exec.backends.base.BackendError`) propagate
        after being counted.
        """
        specs, root_seed, chunk_size, backend_name = self._parse_request(
            request
        )
        runner = CampaignRunner(
            backend_name,
            cache=self.cache,
            chunk_size=chunk_size,
            workers=self.workers,
        )
        with self._lock:
            sweep_id = f"sweep-{self._next_id}"
            self._next_id += 1
            self._sweeps_total += 1
            self._current_runner = runner
        try:
            result = runner.run(specs, root_seed=root_seed)
        except ReproError as exc:
            with self._lock:
                self._sweeps_failed += 1
                self._fold_runner(runner)
                self._current_runner = None
                self._sweeps[sweep_id] = {
                    "id": sweep_id,
                    "status": "failed",
                    "error": str(exc),
                }
            raise
        unit_keys = [
            u.key for u in plan_units(specs, root_seed, chunk_size)
        ]
        report = {
            "id": sweep_id,
            "status": "done",
            "backend": backend_name,
            "root_seed": root_seed,
            "rows": result.rows,
            "stats": result.stats.as_dict(),
            "hit_fraction": result.stats.hit_fraction,
            "unit_keys": unit_keys,
        }
        with self._lock:
            self._stats = self._stats.merge(result.stats)
            self._fold_runner(runner)
            self._current_runner = None
            for spec_rows in result.rows:
                for row in spec_rows:
                    self._rounds_total += int(row.get("rounds", 0))
                    self._messages_total += int(row.get("messages", 0))
            self._sweeps[sweep_id] = report
        return report

    def _fold_runner(self, runner: CampaignRunner) -> None:
        """Fold a finished runner's counters into the cumulative totals
        (caller holds the lock)."""
        self._units_completed += runner.units_completed
        self._units_cached += runner.units_cached
        self._units_failed += runner.units_failed

    # -- lookup -------------------------------------------------------------

    def get_sweep(self, sweep_id: str) -> Optional[Dict[str, Any]]:
        """The stored report for ``sweep_id``, or ``None``."""
        with self._lock:
            return self._sweeps.get(sweep_id)

    def get_result(self, unit_key: str) -> Optional[Dict[str, Any]]:
        """Rows for one content-addressed unit key from the shared
        store, or ``None`` when uncached/unknown."""
        if self.cache is None:
            return None
        rows = self.cache.get(unit_key)
        if rows is None:
            return None
        return {"key": unit_key, "rows": rows}

    # -- metrics ------------------------------------------------------------

    def metrics_families(self) -> List[MetricFamily]:
        """The service's state as Prometheus metric families."""
        with self._lock:
            stats = self._stats
            runner = self._current_runner
            fams = [
                MetricFamily(
                    "repro_sweeps_total",
                    "counter",
                    "Sweep submissions accepted",
                ).add(self._sweeps_total),
                MetricFamily(
                    "repro_sweeps_failed_total",
                    "counter",
                    "Sweep submissions that errored",
                ).add(self._sweeps_failed),
                MetricFamily(
                    "repro_units_total",
                    "counter",
                    "Work units finished, by how they resolved",
                )
                .add(self._units_completed, {"outcome": "computed"})
                .add(self._units_cached, {"outcome": "cached"})
                .add(self._units_failed, {"outcome": "failed"}),
                MetricFamily(
                    "repro_trials_total",
                    "counter",
                    "Simulation trials covered by finished sweeps",
                ).add(stats.trials_total),
                MetricFamily(
                    "repro_trials_computed_total",
                    "counter",
                    "Simulation trials actually recomputed",
                ).add(stats.trials_computed),
                MetricFamily(
                    "repro_wall_clock_seconds_total",
                    "counter",
                    "Total campaign wall-clock seconds",
                ).add(stats.wall_clock_s),
                MetricFamily(
                    "repro_rounds_total",
                    "counter",
                    "Protocol rounds simulated across finished sweeps",
                ).add(self._rounds_total),
                MetricFamily(
                    "repro_messages_total",
                    "counter",
                    "Protocol messages sent across finished sweeps",
                ).add(self._messages_total),
            ]
        backend_status = (
            runner.backend.status()
            if runner is not None
            else {
                "backend": self.default_backend,
                "queue_depth": 0,
                "workers_total": 0,
            }
        )
        label = {"backend": str(backend_status["backend"])}
        fams.extend(
            [
                MetricFamily(
                    "repro_backend_queue_depth",
                    "gauge",
                    "Units submitted to the active backend, not yet done",
                ).add(backend_status["queue_depth"], label),
                MetricFamily(
                    "repro_backend_workers",
                    "gauge",
                    "Backend workers configured",
                ).add(
                    backend_status["workers_total"],
                    dict(label, state="configured"),
                ),
            ]
        )
        return fams

    def metrics_text(self) -> str:
        """Prometheus text exposition of :meth:`metrics_families`."""
        return render_metrics(self.metrics_families())
