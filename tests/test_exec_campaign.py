"""Campaign-manager tests: ordered finalization, checkpoint-on-
complete, backend resolution, the warm-probe cost, and the
cross-backend determinism contract.

The acceptance chain: one sweep computed on the serial backend, its
store demoted to the legacy flat layout, then rerun on the pool backend
-- a 100% cache hit with byte-identical rows, migrating the store back
to shards along the way.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.errors import ConfigurationError
from repro.exec import (
    CampaignRunner,
    ResultCache,
    ScenarioSpec,
    SweepExecutor,
    content_key,
    plan_units,
)
from repro.exec.backends import (
    BackendError,
    ExecutionBackend,
    PoolBackend,
    SerialBackend,
)
from repro.exec.cache import SHARD_DIR

CRASH = ScenarioSpec(kind="crash", r=1, t=1, trials=6, protocol="crash-flood")
BYZ = ScenarioSpec(
    kind="byzantine",
    r=1,
    t=1,
    trials=4,
    protocol="bv-two-hop",
    strategy="fabricator",
)


def canonical(rows):
    """Byte form used for identity assertions."""
    return json.dumps(rows, sort_keys=True).encode()


def _demote_to_flat(cache):
    """Rewrite a sharded cache into the legacy flat layout in place."""
    for path in list((cache.root / SHARD_DIR).glob("??/*.json")):
        os.replace(path, cache.root / path.name)
    for shard in list((cache.root / SHARD_DIR).glob("??")):
        shard.rmdir()


class TestPlanning:
    def test_plan_order_is_spec_then_trial(self):
        units = plan_units([CRASH, BYZ], root_seed=0, chunk_size=4)
        assert [(u.spec_index, u.indices) for u in units] == [
            (0, (0, 1, 2, 3)),
            (0, (4, 5)),
            (1, (0, 1, 2, 3)),
        ]

    def test_plan_keys_are_stable(self):
        a = plan_units([CRASH], 7, chunk_size=2)
        b = plan_units([CRASH], 7, chunk_size=2)
        assert [u.key for u in a] == [u.key for u in b]


class TestOrderedFinalization:
    def test_units_finalize_in_plan_order(self, tmp_path):
        """Whatever order the backend completes in, units come out in
        plan order with rows attached."""

        class ReversingBackend(ExecutionBackend):
            """Completes units in reverse submission order."""

            name = "reversing"

            def run_units(self, fn, payloads):
                """Yield (index, rows) last-submitted-first."""
                for index in reversed(range(len(payloads))):
                    yield index, fn(payloads[index])

        runner = CampaignRunner(ReversingBackend(), chunk_size=2)
        finalized = list(runner.iter_finalized([CRASH], root_seed=1))
        assert [u.indices for u in finalized] == [
            (0, 1),
            (2, 3),
            (4, 5),
        ]
        assert all(u.rows is not None for u in finalized)

    def test_reversed_completion_rows_match_serial(self, tmp_path):
        class ReversingBackend(ExecutionBackend):
            """Completes units in reverse submission order."""

            name = "reversing"

            def run_units(self, fn, payloads):
                """Yield (index, rows) last-submitted-first."""
                for index in reversed(range(len(payloads))):
                    yield index, fn(payloads[index])

        reference = CampaignRunner(SerialBackend(), chunk_size=2).run(
            [CRASH, BYZ], root_seed=3
        )
        reversed_run = CampaignRunner(ReversingBackend(), chunk_size=2).run(
            [CRASH, BYZ], root_seed=3
        )
        assert canonical(reversed_run.rows) == canonical(reference.rows)

    def test_incomplete_backend_raises(self):
        class LossyBackend(ExecutionBackend):
            """Silently drops the last unit (contract violation)."""

            name = "lossy"

            def run_units(self, fn, payloads):
                """Yield all but the final payload's result."""
                for index in range(len(payloads) - 1):
                    yield index, fn(payloads[index])

        runner = CampaignRunner(LossyBackend(), chunk_size=2)
        with pytest.raises(BackendError, match="without completing"):
            list(runner.iter_finalized([CRASH], root_seed=0))


class TestCheckpointing:
    def test_completions_banked_immediately(self, tmp_path):
        """Every completed unit is on disk before the campaign ends --
        an interrupt after unit k keeps units 0..k."""
        cache = ResultCache(tmp_path)
        runner = CampaignRunner(SerialBackend(), cache=cache, chunk_size=2)
        stream = runner.iter_finalized([CRASH], root_seed=0)
        first = next(stream)
        assert cache.contains(first.key)
        stream.close()  # abandon the campaign mid-flight
        # the rerun reuses the banked unit
        stats_probe = SweepExecutor(cache=cache, chunk_size=2)
        done, total = stats_probe.checkpointed([CRASH], root_seed=0)
        assert total == 3 and done >= 1

    def test_counters_accumulate(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = CampaignRunner(SerialBackend(), cache=cache, chunk_size=2)
        runner.run([CRASH], root_seed=0)
        assert runner.units_completed == 3
        assert runner.units_cached == 0
        runner.run([CRASH], root_seed=0)
        assert runner.units_completed == 3
        assert runner.units_cached == 3
        status = runner.status()
        assert status["units_total"] == 6
        assert status["backend"]["backend"] == "serial"


class TestWarmProbe:
    """A warm rerun's cost follows the units asked for, never the size
    of the store: probing a unit must not list the store's entries
    (``len(cache)`` does, so a truthiness test on the cache would)."""

    @pytest.mark.parametrize("filler_entries", [0, 48])
    def test_warm_rerun_never_lists_the_store(
        self, tmp_path, monkeypatch, filler_entries
    ):
        cache = ResultCache(tmp_path)
        for i in range(filler_entries):
            cache.put(content_key({"filler": i}), [{"i": i}])
        CampaignRunner(SerialBackend(), cache=cache, chunk_size=2).run(
            [CRASH], root_seed=0
        )
        assert len(cache) == filler_entries + 3

        listings = []
        entry_paths = ResultCache.entry_paths

        def counted_entry_paths(store):
            listings.append(store.root)
            return entry_paths(store)

        monkeypatch.setattr(ResultCache, "entry_paths", counted_entry_paths)
        warm = CampaignRunner(SerialBackend(), cache=cache, chunk_size=2)
        result = warm.run([CRASH], root_seed=0)
        assert result.stats.cache_hits == result.stats.units_total == 3
        assert listings == []
        assert warm.checkpointed([CRASH], root_seed=0) == (3, 3)
        assert listings == []


class TestCrossBackendChain:
    """The acceptance criterion: serial -> flat demotion -> pool on one
    shared store, the rerun 100% hits and byte-identical."""

    def test_serial_flat_pool_all_hit_identically(self, tmp_path):
        specs = [CRASH, BYZ]
        cache = ResultCache(tmp_path / "store")

        serial = CampaignRunner(
            SerialBackend(), cache=cache, chunk_size=2
        ).run(specs, root_seed=5)
        assert serial.stats.cache_misses == serial.stats.units_total
        baseline = canonical(serial.rows)

        # demote the entire store to the legacy flat layout: the pool
        # rerun must migrate it back transparently, at 100% hits
        _demote_to_flat(cache)
        assert not list((cache.root / SHARD_DIR).glob("??/*.json"))
        pooled = CampaignRunner(
            PoolBackend(workers=2), cache=cache, chunk_size=2
        ).run(specs, root_seed=5)
        assert pooled.stats.cache_hits == pooled.stats.units_total
        assert canonical(pooled.rows) == baseline
        assert not list(cache.root.glob("*.json"))
        assert len(cache) == serial.stats.units_total


class _ClosingSerial(SerialBackend):
    """A serial backend that counts :meth:`close` calls."""

    def __init__(self):
        self.closes = 0

    def close(self):
        """Record the call."""
        self.closes += 1


class TestExecutorFacade:
    """``SweepExecutor`` is ``CampaignRunner``: it resolves its backend
    from a name, an instance or the worker count, and closes only the
    backends it built."""

    def test_sweep_executor_is_campaign_runner(self):
        assert SweepExecutor is CampaignRunner

    def test_backend_defaults_from_workers(self):
        assert isinstance(CampaignRunner().backend, SerialBackend)
        pooled = CampaignRunner(workers=3).backend
        assert isinstance(pooled, PoolBackend) and pooled.workers == 3

    def test_backend_name_override(self, tmp_path):
        cache = ResultCache(tmp_path)
        a = SweepExecutor(cache=cache, backend="serial").run([CRASH])
        b = SweepExecutor(
            workers=2, cache=cache, backend="pool"
        ).run([CRASH])
        assert canonical(a.rows) == canonical(b.rows)
        assert b.stats.cache_hits == b.stats.units_total
        assert b.stats.wall_clock_s > 0

    def test_unknown_backend_name_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            SweepExecutor(backend="socket")

    def test_backend_instance_override(self):
        backend = _ClosingSerial()
        runner = SweepExecutor(cache=None, backend=backend, workers=4)
        assert runner.backend is backend
        local = SweepExecutor().run([CRASH], root_seed=2)
        result = runner.run([CRASH], root_seed=2)
        assert canonical(result.rows) == canonical(local.rows)
        assert result.stats.workers == 1

    def test_closes_only_what_it_built(self, monkeypatch):
        passed = _ClosingSerial()
        SweepExecutor(backend=passed).run([CRASH])
        assert passed.closes == 0

        monkeypatch.setattr(
            "repro.exec.campaign.make_backend",
            lambda name, workers: _ClosingSerial(),
        )
        runner = SweepExecutor(backend="serial")
        runner.run([CRASH])
        runner.run([CRASH])
        assert runner.backend.closes == 2
