"""Execution-backend tests: the registry, protocol conformance for
serial/pool, and cross-backend row identity."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.exec import ScenarioSpec
from repro.exec.backends import (
    BACKEND_NAMES,
    PoolBackend,
    SerialBackend,
    make_backend,
)
from repro.exec.executor import _run_unit

CRASH = ScenarioSpec(kind="crash", r=1, t=1, trials=4, protocol="crash-flood")


def _payloads(n=3, trials_per_unit=2):
    """Real work-unit payloads: n units over the CRASH spec."""
    spec = ScenarioSpec(
        kind="crash",
        r=1,
        t=1,
        trials=n * trials_per_unit,
        protocol="crash-flood",
    )
    return [
        (
            spec.as_dict(),
            0,
            tuple(range(i * trials_per_unit, (i + 1) * trials_per_unit)),
        )
        for i in range(n)
    ]


def _echo(payload):
    """Cheap unit function for protocol-shape tests."""
    spec_dict, root_seed, indices = payload
    return [{"seed": root_seed, "index": i} for i in indices]


class TestRegistry:
    def test_make_backend_names(self):
        assert isinstance(make_backend("serial"), SerialBackend)
        assert isinstance(make_backend("pool", workers=3), PoolBackend)

    def test_registry_is_single_box(self):
        assert BACKEND_NAMES == ("serial", "pool")

    def test_unknown_backend_rejected(self):
        for name in ("carrier-pigeon", "socket"):
            with pytest.raises(ConfigurationError, match="unknown backend"):
                make_backend(name)

    def test_pool_workers_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="workers"):
            PoolBackend(workers=0)


class TestProtocolConformance:
    """Every backend yields each index exactly once with equal rows."""

    def _drain(self, backend, payloads):
        with backend:
            return dict(backend.run_units(_echo, payloads))

    def test_serial_in_order(self):
        out = self._drain(SerialBackend(), _payloads())
        assert sorted(out) == [0, 1, 2]

    def test_pool_covers_all_indices(self):
        out = self._drain(PoolBackend(workers=2), _payloads())
        assert sorted(out) == [0, 1, 2]

    def test_pool_equals_serial_rows(self):
        payloads = _payloads()
        serial = self._drain(SerialBackend(), payloads)
        pooled = self._drain(PoolBackend(workers=2), payloads)
        assert pooled == serial

    def test_real_units_cross_backend_identical(self):
        """The actual _run_unit worker computes identical rows on
        serial and pool backends."""
        payloads = _payloads()
        serial = dict(SerialBackend().run_units(_run_unit, payloads))
        pooled = dict(
            PoolBackend(workers=2).run_units(_run_unit, payloads)
        )
        assert pooled == serial

    def test_status_shape(self):
        for backend in (SerialBackend(), PoolBackend(workers=2)):
            status = backend.status()
            assert set(status) == {"backend", "queue_depth", "workers_total"}
            assert status["queue_depth"] == 0
            assert status["workers_total"] == backend.workers

    def test_queue_depth_drains_while_running(self):
        """``status`` reads the live queue from the base class: it
        counts down as units are yielded and resets afterwards."""
        backend = SerialBackend()
        depths = [
            backend.status()["queue_depth"]
            for _ in backend.run_units(_echo, _payloads())
        ]
        assert depths == [2, 1, 0]
        assert backend.status()["queue_depth"] == 0
