"""Execution accounting, unit identity and the worker entry point.

The leaf module of the sweep tier, shared by the campaign manager
(:mod:`repro.exec.campaign`, which owns planning, caching and
orchestration) and every backend:

- :class:`ExecStats` / :class:`SweepRunResult` -- what one run returns;
- :func:`unit_cache_key` -- the content address of one work unit;
- :func:`_run_unit` -- the module-level function each backend calls on
  a work unit's plain-data payload.

Determinism contract
--------------------
A sweep's output is a pure function of ``(specs, root_seed)``:

- every trial's seed comes from :func:`~repro.exec.seeds.derive_seed`
  on ``(root_seed, spec.scenario_key(), trial_index)``, never from
  worker identity or execution order;
- work units are chunks of *trial indices*, chunked the same way
  regardless of worker count or backend;
- results are finalized in trial-index order by the campaign manager.

So serial, parallel, cached, and resumed runs all produce
byte-identical row lists -- pinned by ``tests/test_exec_golden.py`` and
cross-backend by ``tests/test_exec_campaign.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

from repro.exec.cache import ResultCache, code_version_tag, content_key
from repro.exec.seeds import derive_seed
from repro.exec.specs import ScenarioSpec, run_trial

#: Trials per work unit.  Independent of the worker count on purpose:
#: cache keys embed the unit's trial indices, so chunking must not change
#: when ``--workers`` does or cached units would never be rediscovered.
DEFAULT_CHUNK_SIZE = 4


@dataclass
class ExecStats:
    """Execution accounting for one :meth:`~repro.exec.campaign.
    CampaignRunner.run` call."""

    workers: int = 1
    units_total: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    trials_total: int = 0
    trials_computed: int = 0
    wall_clock_s: float = 0.0
    cache_enabled: bool = False

    @property
    def hit_fraction(self) -> float:
        """Cache hits as a fraction of all work units (0.0 when none)."""
        return self.cache_hits / self.units_total if self.units_total else 0.0

    def merge(self, other: "ExecStats") -> "ExecStats":
        """Combine accounting from two runs into one (a new object).

        Counts add; ``wall_clock_s`` adds (total compute time, not
        elapsed time -- overlapping campaigns double-count on purpose);
        ``workers`` takes the max and ``cache_enabled`` the OR, since a
        merged report answers "what resources/caching did this study
        use anywhere".  Associative and commutative, so a campaign
        service can fold stats over any number of sweeps in any order.
        """
        return ExecStats(
            workers=max(self.workers, other.workers),
            units_total=self.units_total + other.units_total,
            cache_hits=self.cache_hits + other.cache_hits,
            cache_misses=self.cache_misses + other.cache_misses,
            trials_total=self.trials_total + other.trials_total,
            trials_computed=self.trials_computed + other.trials_computed,
            wall_clock_s=self.wall_clock_s + other.wall_clock_s,
            cache_enabled=self.cache_enabled or other.cache_enabled,
        )

    def __add__(self, other: "ExecStats") -> "ExecStats":
        """``stats_a + stats_b`` is :meth:`merge` (sum()-friendly with
        ``start=ExecStats()``)."""
        if not isinstance(other, ExecStats):
            return NotImplemented
        return self.merge(other)

    def as_dict(self) -> Dict[str, Any]:
        """Flat dict form for JSON reports and stats tables."""
        return {
            "workers": self.workers,
            "units_total": self.units_total,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "hit_fraction": round(self.hit_fraction, 4),
            "trials_total": self.trials_total,
            "trials_computed": self.trials_computed,
            "wall_clock_s": round(self.wall_clock_s, 4),
            "cache_enabled": self.cache_enabled,
        }


@dataclass
class SweepRunResult:
    """Per-spec trial rows (trial-index order) plus execution stats."""

    rows: List[List[Dict[str, Any]]] = field(default_factory=list)
    stats: ExecStats = field(default_factory=ExecStats)


def unit_cache_key(
    spec: ScenarioSpec, root_seed: int, indices: Sequence[int]
) -> str:
    """The content hash identifying one work unit on disk.

    Covers the scenario parameters, the root seed, the exact trial
    indices, and the code-version tag -- any change to any of them is a
    different key, i.e. a cache miss.  ``collect_metrics`` is excluded
    from the scenario identity (it does not change the simulation) but
    changes the cached row *shape*, so it joins the key when set --
    conditionally, to keep every pre-existing metrics-free cache entry
    valid.  ``spec.engine`` never joins the key: the backends are
    observationally identical (tests/test_fastpath_differential.py), so
    cache rows are shared across engines -- a sweep computed on
    ``reference`` is a 100% cache hit when rerun with ``fastpath``.
    """
    payload = {
        "scenario": spec.key_payload(),
        "root_seed": int(root_seed),
        "indices": [int(i) for i in indices],
        "code_version": code_version_tag(),
    }
    if spec.collect_metrics:
        payload["collect_metrics"] = True
    return content_key(payload)


def _run_unit(
    payload: Tuple[Dict[str, Any], int, Tuple[int, ...]]
) -> List[Dict[str, Any]]:
    """Worker entry point: run one chunk of trials.

    Takes a plain-data payload (picklable under every start method) and
    returns the trial rows in index order.  Module-level so
    ``multiprocessing`` can ship it by reference.
    """
    spec_dict, root_seed, indices = payload
    spec = ScenarioSpec.from_dict(spec_dict)
    key = spec.scenario_key()
    return [
        run_trial(spec, derive_seed(root_seed, key, index))
        for index in indices
    ]
