"""Pluggable execution backends for the sweep tier.

Two implementations of one tiny protocol
(:class:`~repro.exec.backends.base.ExecutionBackend`):

========  ==================================================  ======
name      runs units                                          scale
========  ==================================================  ======
serial    in the calling process, in order                    1 core
pool      across a ``multiprocessing`` pool (fork)            1 box
========  ==================================================  ======

Pick one by name through :func:`make_backend` (what the ``--backend``
CLI flag resolves through), or construct the class directly; tests plug
fake backends in through the same protocol.  Both compute
byte-identical rows for the same plan -- the campaign manager
(:mod:`repro.exec.campaign`) owns ordering and caching, so switching
backends mid-study is invisible in the output.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.exec.backends.base import (
    BackendError,
    ExecutionBackend,
    UnitFunction,
    UnitPayload,
)
from repro.exec.backends.pool import PoolBackend
from repro.exec.backends.serial import SerialBackend

#: Registry of backend names accepted by ``--backend``.
BACKEND_NAMES = ("serial", "pool")


def make_backend(name: str, workers: int = 1) -> ExecutionBackend:
    """Build an execution backend by registry name.

    ``workers`` sizes the pool backend (ignored by serial).  Unknown
    names raise :class:`~repro.errors.ConfigurationError` listing the
    registry.
    """
    if name == "serial":
        return SerialBackend()
    if name == "pool":
        return PoolBackend(workers=max(1, workers))
    raise ConfigurationError(
        f"unknown backend {name!r}; expected one of "
        + ", ".join(BACKEND_NAMES)
    )


__all__ = [
    "BACKEND_NAMES",
    "BackendError",
    "ExecutionBackend",
    "PoolBackend",
    "SerialBackend",
    "UnitFunction",
    "UnitPayload",
    "make_backend",
]
