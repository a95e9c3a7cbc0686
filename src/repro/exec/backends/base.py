"""The :class:`ExecutionBackend` protocol -- the seam the sweep tier
scales through.

A backend executes *work units*: ``(spec_dict, root_seed, indices)``
payloads handed to a module-level worker function (today always
:func:`repro.exec.executor._run_unit`).  The contract is deliberately
tiny -- ``serial`` calls the function in a loop, ``pool`` fans it out
over ``multiprocessing``, and tests substitute fakes that reorder or
drop completions:

- :meth:`ExecutionBackend.run_units` receives the worker function and
  the payload list and *yields* ``(payload_index, rows)`` pairs as units
  complete, in **any order** -- ordering for byte-reproducible output is
  the campaign manager's job (:mod:`repro.exec.campaign`), not the
  backend's;
- the worker function must be a picklable module-level callable with no
  shared-state dependencies -- enforced statically by the ``fork-safety``
  lint pass, which treats every ``run_units`` call site as a submission
  boundary (:mod:`repro.lint.analysis.forksafety`);
- a backend raises :class:`BackendError` when it can no longer make
  progress.

Determinism contract: because every unit's rows are a pure function of
its payload (seeds are derived, never drawn), *which* backend runs a
unit -- and in which process -- cannot change the rows.  The campaign
layer therefore shares one content-addressed cache across all backends,
and identical sweeps rerun at 100% hits on any of them (pinned by
``tests/test_exec_campaign.py``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Tuple

from repro.errors import ReproError

#: One work unit as shipped across a process boundary:
#: ``(spec.as_dict(), root_seed, trial_indices)`` -- plain data,
#: picklable under every start method.
UnitPayload = Tuple[Dict[str, Any], int, Tuple[int, ...]]

#: The worker-function shape every backend executes.
UnitFunction = Callable[[UnitPayload], List[Dict[str, Any]]]


class BackendError(ReproError):
    """An execution backend can no longer make progress.

    Raised by the campaign manager when a backend finishes without
    completing every unit it was handed.  Unit results already
    completed remain valid (and cached); the campaign fails only for
    what could not be computed.
    """


class ExecutionBackend:
    """Base class for execution backends (see the module docstring).

    Subclasses implement :meth:`run_units`; ``name`` is the registry
    key (``serial`` / ``pool``) and ``workers`` the
    parallelism the backend reports into :class:`~repro.exec.executor.
    ExecStats`.
    """

    #: registry name, also the ``--backend`` CLI level
    name: str = "base"
    #: parallelism reported into execution stats
    workers: int = 1
    #: units accepted by the running :meth:`run_units`, not yet yielded
    _queue_depth: int = 0

    def run_units(
        self, fn: UnitFunction, payloads: List[UnitPayload]
    ) -> Iterator[Tuple[int, List[Dict[str, Any]]]]:
        """Execute ``fn`` over every payload; yield ``(index, rows)``
        pairs as units complete (any order, exactly one per payload).

        Implementations must either yield every index exactly once or
        raise :class:`BackendError`.
        """
        raise NotImplementedError

    def status(self) -> Dict[str, Any]:
        """Live-state snapshot for observability (Prometheus export).

        Keys: ``backend`` (name), ``queue_depth`` (units accepted but
        not yet completed) and ``workers_total``.  Thread-safe to call
        while :meth:`run_units` is draining.
        """
        return {
            "backend": self.name,
            "queue_depth": self._queue_depth,
            "workers_total": self.workers,
        }

    def close(self) -> None:
        """Release resources held between runs; idempotent, and the
        backend stays usable afterwards."""

    def __enter__(self) -> "ExecutionBackend":
        """Context-manager entry: the backend itself."""
        return self

    def __exit__(self, *exc: Any) -> None:
        """Context-manager exit: :meth:`close`."""
        self.close()
