"""The campaign manager: the one class that runs a sweep.

:class:`CampaignRunner` sits between the planning/caching layer and a
pluggable :class:`~repro.exec.backends.base.ExecutionBackend`.  The
division of labor:

- **planning** (:func:`plan_units`) chunks every spec's trial range into
  content-addressed work units, identically for every backend and worker
  count (cache keys embed trial indices, so chunking is part of unit
  identity);
- **the backend** computes pending units and reports completions in
  whatever order it likes;
- **the campaign manager** owns everything order-sensitive: cache
  lookups before submission, cache writes the moment a unit completes
  (checkpointing -- an interrupted campaign resumes from its last
  completed unit), and *ordered finalization* -- completed units are
  released strictly in plan order so every consumer, streaming or batch,
  sees byte-identical output no matter which backend ran the sweep or
  how completion interleaved.

The runner also resolves its backend (a registry name, a ready
instance, or ``None`` for serial/pool by ``workers``), closes the
backends it built itself, answers the resume probe
(:meth:`CampaignRunner.checkpointed`) and times every run.
:data:`SweepExecutor` is the public alias every sweep caller uses.

Progress counters (``units_total`` / ``units_completed`` /
``units_cached`` / ``units_failed``) are cumulative across runs and
thread-safe to read mid-run -- the ``repro serve`` metrics endpoint
polls them from another thread.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError
from repro.exec.backends import BackendError, ExecutionBackend, make_backend
from repro.exec.cache import ResultCache
from repro.exec.executor import (
    DEFAULT_CHUNK_SIZE,
    ExecStats,
    SweepRunResult,
    _run_unit,
    unit_cache_key,
)
from repro.exec.specs import ScenarioSpec


@dataclass
class UnitState:
    """One planned work unit and (once available) its rows."""

    #: index of the owning spec in the campaign's spec list
    spec_index: int
    #: the trial indices this unit covers (ascending, contiguous)
    indices: Tuple[int, ...]
    #: content-address of the unit in the result store
    key: str
    #: trial rows in index order; ``None`` until computed or cache-hit
    rows: Optional[List[Dict[str, Any]]] = None
    #: whether the rows came from the cache rather than a backend
    from_cache: bool = False


def plan_units(
    specs: Sequence[ScenarioSpec],
    root_seed: int,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> List[UnitState]:
    """Chunk every spec's trial range into content-addressed units.

    Plan order is (spec order, ascending trial index) -- the order rows
    must appear in the final output, and therefore the order
    :meth:`CampaignRunner.iter_finalized` releases units in.
    """
    units: List[UnitState] = []
    for spec_index, spec in enumerate(specs):
        for start in range(0, spec.trials, chunk_size):
            indices = tuple(
                range(start, min(start + chunk_size, spec.trials))
            )
            units.append(
                UnitState(
                    spec_index=spec_index,
                    indices=indices,
                    key=unit_cache_key(spec, root_seed, indices),
                )
            )
    return units


class CampaignRunner:
    """Run scenario sweeps: chunked, optionally parallel, optionally
    cached, through any execution backend.

    Parameters
    ----------
    backend:
        A registry name (``"serial"`` / ``"pool"``), a ready
        :class:`ExecutionBackend` instance, or ``None`` (the default)
        for ``serial`` when ``workers == 1`` and ``pool`` otherwise.  A
        backend built here from a name is closed after every run; a
        passed-in instance is never closed.
    cache:
        Shared :class:`ResultCache`, or ``None`` to always recompute.
        The cache is both memo and checkpoint: hits skip submission,
        and every completion is banked immediately.
    chunk_size:
        Trials per unit; part of cache-key identity, so keep it stable
        across runs that should share entries (see
        :data:`~repro.exec.executor.DEFAULT_CHUNK_SIZE`).
    workers:
        Pool size for a backend built here; ignored for an instance.
    """

    def __init__(
        self,
        backend: Union[str, ExecutionBackend, None] = None,
        cache: Optional[ResultCache] = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        workers: int = 1,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be >= 1, got {chunk_size}"
            )
        self.backend: ExecutionBackend
        if isinstance(backend, ExecutionBackend):
            self.backend = backend
            self._owns_backend = False
        else:
            self.backend = make_backend(
                backend or ("serial" if workers == 1 else "pool"),
                workers=workers,
            )
            self._owns_backend = True
        self.cache = cache
        self.chunk_size = chunk_size
        self._lock = threading.Lock()
        #: cumulative campaign counters (thread-safe via :meth:`status`)
        self.units_total = 0
        self.units_completed = 0
        self.units_cached = 0
        self.units_failed = 0

    def _bump(self, counter: str, by: int = 1) -> None:
        """Thread-safe increment of a cumulative counter."""
        with self._lock:
            setattr(self, counter, getattr(self, counter) + by)

    def iter_finalized(
        self,
        specs: Sequence[ScenarioSpec],
        root_seed: int = 0,
        stats: Optional[ExecStats] = None,
    ) -> Iterator[UnitState]:
        """Yield every planned unit, rows attached, in **plan order**.

        Units finalize as soon as they and every plan-order predecessor
        have rows -- a cache hit late in the plan still waits for the
        computed unit before it, so a streaming consumer writes the
        same bytes a batch consumer would.  Completions are banked to
        the cache the moment the backend reports them (before ordered
        release), so an interruption never loses finished work.

        ``stats``, when given, is filled in-place with this run's
        accounting (hit/miss split, trials computed).
        """
        units = plan_units(specs, root_seed, self.chunk_size)
        self._bump("units_total", len(units))
        pending: List[UnitState] = []
        for unit in units:
            # ``is not None``, never truthiness: ``len(cache)`` lists
            # the whole store
            cached = (
                self.cache.get(unit.key) if self.cache is not None else None
            )
            if cached is not None and len(cached) == len(unit.indices):
                unit.rows = cached
                unit.from_cache = True
                self._bump("units_cached")
            else:
                pending.append(unit)
        if stats is not None:
            stats.units_total = len(units)
            stats.cache_hits = len(units) - len(pending)
            stats.cache_misses = len(pending)
            stats.trials_total = sum(s.trials for s in specs)
            stats.trials_computed = sum(len(u.indices) for u in pending)
            stats.workers = self.backend.workers
            stats.cache_enabled = self.cache is not None

        payloads = [
            (specs[u.spec_index].as_dict(), int(root_seed), u.indices)
            for u in pending
        ]
        cursor = 0
        try:
            completions = (
                self.backend.run_units(_run_unit, payloads)
                if payloads
                else iter(())
            )
            for pending_index, rows in completions:
                unit = pending[pending_index]
                unit.rows = rows
                self._bank(specs[unit.spec_index], root_seed, unit)
                self._bump("units_completed")
                while cursor < len(units) and units[cursor].rows is not None:
                    yield units[cursor]
                    cursor += 1
        except BackendError:
            self._bump("units_failed", len(units) - cursor)
            raise
        finally:
            if self._owns_backend:
                self.backend.close()
        # everything after the last computed unit is cache hits
        while cursor < len(units):
            unit = units[cursor]
            if unit.rows is None:
                self._bump("units_failed", len(units) - cursor)
                raise BackendError(
                    f"backend {self.backend.name!r} finished without "
                    f"completing unit {cursor} (key {unit.key[:12]}...)"
                )
            yield unit
            cursor += 1

    def _bank(
        self, spec: ScenarioSpec, root_seed: int, unit: UnitState
    ) -> None:
        """Checkpoint one completed unit into the shared store."""
        if self.cache is None:
            return
        self.cache.put(
            unit.key,
            unit.rows or [],
            meta={
                "scenario_key": spec.scenario_key(),
                "root_seed": int(root_seed),
                "indices": list(unit.indices),
            },
        )

    def checkpointed(
        self, specs: Sequence[ScenarioSpec], root_seed: int = 0
    ) -> Tuple[int, int]:
        """``(cached_units, total_units)`` for a would-be run.

        The resume probe: how much of the sweep an earlier (possibly
        interrupted) run already banked under the current cache root.
        """
        units = plan_units(specs, root_seed, self.chunk_size)
        if self.cache is None:
            return 0, len(units)
        done = sum(1 for u in units if self.cache.contains(u.key))
        return done, len(units)

    def run(
        self, specs: Sequence[ScenarioSpec], root_seed: int = 0
    ) -> SweepRunResult:
        """Execute the campaign; per-spec rows in trial order plus stats.

        The batch form of :meth:`iter_finalized`: same units, same
        bytes, assembled into one :class:`SweepRunResult` whose stats
        carry the run's wall clock.
        """
        started = time.perf_counter()
        stats = ExecStats()
        per_spec: List[List[Dict[str, Any]]] = [[] for _ in specs]
        for unit in self.iter_finalized(specs, root_seed, stats=stats):
            assert unit.rows is not None
            per_spec[unit.spec_index].extend(unit.rows)
        stats.wall_clock_s = time.perf_counter() - started
        return SweepRunResult(rows=per_spec, stats=stats)

    def status(self) -> Dict[str, Any]:
        """Cumulative campaign counters plus the backend's live state."""
        with self._lock:
            snapshot = {
                "units_total": self.units_total,
                "units_completed": self.units_completed,
                "units_cached": self.units_cached,
                "units_failed": self.units_failed,
            }
        snapshot["backend"] = self.backend.status()
        return snapshot


#: The public name every sweep caller uses (``SweepExecutor(workers=4,
#: cache=...)``); the same class, not a wrapper.
SweepExecutor = CampaignRunner
