"""The in-process serial backend: no pool, no pickling.

The reference implementation of the :class:`~repro.exec.backends.base.
ExecutionBackend` contract and the fallback wherever parallelism is
unavailable or pointless (a single pending unit).  Also the arbiter in
differential arguments: every other backend must reproduce exactly the
rows this one computes.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Tuple

from repro.exec.backends.base import ExecutionBackend, UnitFunction, UnitPayload


class SerialBackend(ExecutionBackend):
    """Run every unit in the calling process, in submission order."""

    name = "serial"
    workers = 1

    def run_units(
        self, fn: UnitFunction, payloads: List[UnitPayload]
    ) -> Iterator[Tuple[int, List[Dict[str, Any]]]]:
        """Yield ``(index, fn(payload))`` in order, one at a time."""
        self._queue_depth = len(payloads)
        try:
            for index, payload in enumerate(payloads):
                rows = fn(payload)
                self._queue_depth -= 1
                yield index, rows
        finally:
            self._queue_depth = 0
