"""The benchmark's three workloads, driven through the public API.

- ``sweep-cold-reference``: run tables through ``execute_runtable`` on
  the reference engine, ``serial`` backend, fresh store per pass;
- ``sweep-fastpath-side200``: the same path on ``engine="fastpath"`` at
  ``torus_side=200``;
- ``serve-warm-store``: ``repro serve``'s HTTP server on a loopback
  ephemeral port, one closed-loop client, a store pre-populated with
  many more entries than any submission touches.

A sweep workload measures *passes*: one pass executes every table of
the workload against a fresh store.  The serve workload measures HTTP
*operations*.  Every workload checks its outputs while it measures;
see :class:`Outcome`.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import random
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.core.thresholds import (
    byzantine_linf_max_t,
    cpa_best_known_max_t,
    crash_linf_max_t,
)
from repro.errors import ReproError
from repro.exec import (
    DEFAULT_CHUNK_SIZE,
    ResultCache,
    RunTable,
    ScenarioSpec,
    SweepExecutor,
    run_trial,
    unit_cache_key,
)
from repro.exec import runtable as runtable_mod
from repro.obs.prom import PromFormatError, validate_metrics_text
from repro.serve.http import make_server
from repro.serve.service import CampaignService

WORKLOADS = ("sweep-cold-reference", "sweep-fastpath-side200", "serve-warm-store")


@dataclass
class Outcome:
    """What a workload did: work attempted, failures, and gate errors.

    ``errors`` holds every output-correctness violation; any entry voids
    the run's numbers.
    """

    attempted: int = 0
    failed: int = 0
    trials: int = 0
    latencies_s: List[float] = field(default_factory=list)
    #: sweep workloads: per table, its latency in every pass, as measured
    #: and calibrated (see :func:`calibrate`)
    table_latencies_s: Dict[str, List[float]] = field(default_factory=dict)
    table_calibrated_s: Dict[str, List[float]] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    digests: List[str] = field(default_factory=list)
    details: Dict[str, Any] = field(default_factory=dict)

    def error(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)
        self.details["error_count"] = self.details.get("error_count", 0) + 1


# -- sweep workloads ----------------------------------------------------------


def _cheap_reference_tables(reps: int) -> List[Dict[str, Any]]:
    """Crash-flood and CPA cells, each at or below its theorem's bound.

    ``collect_metrics`` is not part of a scenario's identity, so it cannot
    be a factor: the r=2 cells that collect metrics are tables of their
    own, with a quarter of the repetitions (the observer triples the cost
    of a CPA trial).
    """
    tables = []
    for r, metrics in ((1, False), (2, False), (2, True)):
        crash_max = crash_linf_max_t(r)  # Theorem 5: t < r(2r+1)
        cpa_max = cpa_best_known_max_t(r)  # Theorem 6 / Koo's CPA bound
        suffix = "-metrics" if metrics else ""
        common = {"r": r, "placement": "random", "collect_metrics": metrics}
        cell_reps = reps // 4 if metrics else reps
        tables.append({
            "name": f"crash-flood-r{r}{suffix}",
            "base": dict(common, kind="crash", protocol="crash-flood"),
            "factors": {"t": [crash_max // 2, crash_max]},
            "repetitions": cell_reps,
        })
        if not metrics:
            tables.append({
                "name": f"cpa-crash-r{r}",
                "base": dict(common, kind="crash", protocol="cpa", t=cpa_max),
                "factors": {},
                "repetitions": reps,
            })
        tables.append({
            "name": f"cpa-byzantine-r{r}{suffix}",
            "base": dict(common, kind="byzantine", protocol="cpa", t=cpa_max),
            "factors": {"strategy": ["liar", "fabricator"]},
            "repetitions": cell_reps,
        })
    return tables


def _bv_tables(radii_two_hop: Tuple[int, ...], others: bool) -> List[Dict[str, Any]]:
    """Bhandari-Vaidya protocol cells at Theorem 1's largest budget."""
    tables = []
    for r in radii_two_hop:
        tables.append({
            "name": f"bv-two-hop-r{r}",
            "base": {"protocol": "bv-two-hop", "r": r,
                     "t": byzantine_linf_max_t(r), "placement": "random",
                     "strategy": "fabricator"},
            "factors": {"kind": ["crash", "byzantine"]},
            "repetitions": 1,
        })
    if others:
        # r=1 only (at r=2 one bv-indirect trial takes minutes), and one
        # fault kind each, which keeps the bv tables about half the pass
        for protocol, kind in (("bv-indirect", "byzantine"),
                               ("bv-earmarked", "crash")):
            tables.append({
                "name": f"{protocol}-r1",
                "base": {"protocol": protocol, "r": 1, "kind": kind,
                         "t": byzantine_linf_max_t(1), "placement": "random",
                         "strategy": "fabricator"},
                "factors": {},
                "repetitions": 1,
            })
    return tables


def _fastpath_tables(side: int) -> List[Dict[str, Any]]:
    """Crash-flood crash cells and CPA fixed-strategy Byzantine cells."""
    common = {"r": 2, "placement": "random", "engine": "fastpath",
              "scenario_kwargs": {"torus_side": side}}
    return [
        {
            "name": f"fastpath-crash-flood-t{t}",
            "base": dict(common, kind="crash", protocol="crash-flood", t=t),
            "factors": {},
            "repetitions": 1,
        }
        for t in (crash_linf_max_t(2) // 2, crash_linf_max_t(2))
    ] + [
        {
            "name": f"fastpath-cpa-{strategy}",
            "base": dict(common, kind="byzantine", protocol="cpa",
                         t=cpa_best_known_max_t(2), strategy=strategy),
            "factors": {},
            "repetitions": 1,
        }
        for strategy in ("liar", "fabricator")
    ]


def sweep_tables(workload: str, scale: str) -> List[RunTable]:
    """The run tables one pass of a sweep workload executes."""
    if workload == "sweep-cold-reference":
        if scale == "tiny":
            raw = _cheap_reference_tables(2)[:1] + _bv_tables((1,), False)
        else:
            raw = _cheap_reference_tables(24) + _bv_tables((1, 2), True)
    elif workload == "sweep-fastpath-side200":
        raw = _fastpath_tables(30 if scale == "tiny" else 200)
    else:
        raise ValueError(f"{workload!r} is not a sweep workload")
    return [RunTable.from_dict(t) for t in raw]


#: seconds :func:`calibrate` takes on the recorded machine when it is not
#: slowed down by other tenants of its host
CALIBRATION_REFERENCE_S = 0.005


def _calibration_loop() -> float:
    started = time.perf_counter()
    acc = 0
    table: Dict[int, int] = {}
    for i in range(40000):
        table[i & 1023] = acc
        acc = (acc * 31 + i) % 1000003
    return time.perf_counter() - started


def calibrate() -> float:
    """The machine's current speed: seconds a fixed pure-Python loop
    takes now (median of three runs of about 5 ms).

    The recorded machine shares its cores with other tenants of its host,
    and its speed changes by up to 2x from one minute to the next.  A
    sweep divides each table's latency by the mean of the calibrations
    taken just before and just after it, over ``CALIBRATION_REFERENCE_S``:
    the latency the table would have had at the reference speed.  The
    loop is the benchmark's own code, so a change to the program moves
    the calibrated latency exactly as it moves the measured one.
    """
    return statistics.median(_calibration_loop() for _ in range(3))


def rows_digest(named_rows: List[Tuple[str, Any]]) -> str:
    """sha256 of the canonical JSON of ``[(table name, rows), ...]``."""
    canonical = json.dumps(named_rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class SweepSession:
    """A set-up sweep workload: its tables and a fresh-store factory."""

    def __init__(self, workload: str, scale: str, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.tables = sweep_tables(workload, scale)
        # work units per table; expanding here also rejects a malformed
        # table during set-up rather than mid-run
        self.units = [len(t.expand()) * -(-t.repetitions // DEFAULT_CHUNK_SIZE)
                      for t in self.tables]
        self.passes = 0
        workdir.mkdir(parents=True, exist_ok=True)

    def run_pass(self, outcome: Outcome) -> float:
        """Execute every table against a fresh store; returns the wall
        time of the table executions."""
        store = self.workdir / f"store-{self.passes}"
        self.passes += 1
        executor = SweepExecutor(cache=ResultCache(store), backend="serial")
        named_rows = []
        wall = 0.0
        before = calibrate()
        for table, units in zip(self.tables, self.units):
            outcome.attempted += units
            started = time.perf_counter()
            try:
                result = runtable_mod.execute_runtable(
                    table, executor, root_seed=self.seed)
            except ReproError as exc:
                result = None
                outcome.failed += units
                outcome.error(f"{table.name}: {type(exc).__name__}: {exc}")
            elapsed = time.perf_counter() - started
            after = calibrate()
            slowdown = (before + after) / 2 / CALIBRATION_REFERENCE_S
            before = after
            wall += elapsed
            if result is None:
                continue
            outcome.table_latencies_s.setdefault(table.name, []).append(elapsed)
            outcome.table_calibrated_s.setdefault(table.name, []).append(
                elapsed / slowdown)
            outcome.trials += result.stats.trials_computed
            if result.stats.cache_hits:
                outcome.error(f"{table.name}: a fresh store served "
                              f"{result.stats.cache_hits} cache hits")
            for unit, rows in zip(result.units, result.rows):
                # every cell is below its theorem's threshold
                for index, row in enumerate(rows):
                    if not (row["safe"] and row["achieved"]):
                        outcome.error(f"{unit.run_id} trial {index}: "
                                      f"safe={row['safe']} "
                                      f"achieved={row['achieved']}")
            named_rows.append((table.name, result.rows))
        outcome.digests.append(rows_digest(named_rows))
        shutil.rmtree(store, ignore_errors=True)
        return wall

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


# -- serve workload -----------------------------------------------------------

#: cheap r=1 cells the serve workload's sweeps run (each below threshold).
#: The Byzantine CPA cells ask for the fastpath engine; the engine is
#: outside every cache key, so it changes no key, row or hit.
SERVE_CELLS: Tuple[Dict[str, Any], ...] = (
    {"kind": "crash", "protocol": "crash-flood", "r": 1, "t": 1},
    {"kind": "crash", "protocol": "crash-flood", "r": 1, "t": 2},
    {"kind": "crash", "protocol": "cpa", "r": 1, "t": 1},
    {"kind": "byzantine", "protocol": "cpa", "r": 1, "t": 1, "strategy": "liar",
     "engine": "fastpath"},
    {"kind": "byzantine", "protocol": "cpa", "r": 1, "t": 1,
     "strategy": "fabricator", "engine": "fastpath"},
)

#: one block of client operations (shuffled per block); every tenth
#: operation is a scrape.  The operation kinds are the ones docs/SERVICE.md
#: documents; their ratios are assumptions, as nothing in the repository
#: records how often each is used.
OP_BLOCK = ("resubmit",) * 6 + ("extend",) + ("result",) * 2
SCRAPE = "metrics"

#: operations per service lifetime.  The service keeps every report it
#: returns, so each lifetime serves the same number of operations and the
#: retained reports do not depend on how many operations a run completes.
EPOCH_OPS = 100

CHUNK = DEFAULT_CHUNK_SIZE  # trials per work unit (the service default)

#: filler entries use root seeds at and above this; sweeps use seeds below
FILLER_SEED_BASE = 1 << 48


@dataclass(frozen=True)
class ServeScale:
    sweeps: int        # distinct sweeps primed during set-up
    filler: int        # unrelated entries pre-populated in the store


SERVE_SCALES = {
    "full": ServeScale(sweeps=32, filler=1000),
    "tiny": ServeScale(sweeps=4, filler=24),
}


def _canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class ServeSession:
    """One warm store and the service in front of it, plus the client.

    Every operation does the same work whenever it runs: each sweep stays
    at one unit of ``CHUNK`` trials, an extension asks for ``2 * CHUNK``
    and its new unit is evicted from the store afterwards, so the store
    keeps its set-up size and the next extension of that sweep recomputes
    the same unit.

    The server runs in this process.  The client connects first and the
    main thread then accepts that one connection, so the process runs
    exactly two threads (the client and the connection's handler) over
    one keep-alive connection.
    """

    def __init__(self, scale: ServeScale, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.specs = [
            ScenarioSpec(placement="random",
                         **SERVE_CELLS[b % len(SERVE_CELLS)]).as_dict()
            for b in range(scale.sweeps)
        ]
        # sweep b: rows of its first submission, its unit key, and the
        # rows of its first extension (every later one must equal them)
        self.rows: List[List[Dict[str, Any]]] = [[] for _ in self.specs]
        self.unit_keys: List[str] = [""] * scale.sweeps
        self.extended: List[Optional[List[Dict[str, Any]]]] = [None] * scale.sweeps
        self.extensions = 0
        self.rng = random.Random(f"serve-warm-store/{seed}")
        self.block: List[str] = []
        self.ops = 0
        self.tracer = None
        workdir.mkdir(parents=True, exist_ok=True)
        self.cache = ResultCache(workdir / "store")
        self._prepopulate(scale.filler)
        self._boot()

    def root_seed(self, b: int) -> int:
        return self.seed * 1_000_003 + b

    def _prepopulate(self, n: int) -> None:
        """``n`` well-formed entries under keys no submission touches.

        Their rows are one computed unit's rows, filed under the unit
        keys of root seeds the client never submits, so the store holds
        realistic entries without computing each one.
        """
        spec = ScenarioSpec(kind="crash", protocol="crash-flood", r=1, t=1,
                            placement="random")
        indices = tuple(range(CHUNK))
        rows = [run_trial(spec, 7919 + i) for i in indices]
        for i in range(n):
            key = unit_cache_key(spec, FILLER_SEED_BASE + self.root_seed(i), indices)
            self.cache.put(key, rows, meta={"filler": i})

    def _boot(self) -> None:
        """A fresh service and server over the store; connect the client."""
        self.service = CampaignService(cache=self.cache, backend="serial")
        self.server = make_server(self.service, "127.0.0.1", 0)
        port = self.server.server_address[1]
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        self.conn.connect()
        before = set(threading.enumerate())
        self.server.handle_request()  # accept the client's connection
        self.handlers = [t for t in threading.enumerate() if t not in before]

    def _shut_down(self) -> None:
        """Close the connection, join its handler thread, close the server."""
        self.conn.close()
        for thread in self.handlers:
            thread.join(timeout=60)
        self.server.server_close()
        alive = [t.name for t in threading.enumerate()
                 if t is not threading.main_thread()]
        if alive:
            raise RuntimeError(f"threads still running after close: {alive}")

    # -- HTTP ---------------------------------------------------------------

    def request(self, method: str, path: str,
                body: Optional[Dict[str, Any]]) -> Tuple[int, bytes, float]:
        """One closed-loop HTTP operation; returns status, body, seconds.

        The seconds (and, in a traced run, the ``serve.http`` span) cover
        the round trip only, not the client's decoding and checks.
        """
        payload = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if payload else {}
        tracer = self.tracer
        rec = None
        if tracer is not None:
            rec = tracer.begin("serve.http")
            tracer.current_op = rec
        started = time.perf_counter()
        try:
            self.conn.request(method, path, body=payload, headers=headers)
            response = self.conn.getresponse()
            data = response.read()
        finally:
            seconds = time.perf_counter() - started
            if rec is not None:
                tracer.current_op = None
                tracer.end(rec)
        return response.status, data, seconds

    def submit(self, b: int, trials: int) -> Tuple[int, Optional[Dict[str, Any]], float, int]:
        status, data, seconds = self.request(
            "POST", "/sweeps", self.request_body(b, trials))
        report = json.loads(data) if status == 200 else None
        return status, report, seconds, len(data)

    def request_body(self, b: int, trials: int) -> Dict[str, Any]:
        return {"specs": [dict(self.specs[b], trials=trials)],
                "root_seed": self.root_seed(b)}

    def prime(self) -> None:
        """First submission of every sweep (cold, one unit each), made
        in-process as part of pre-populating the store."""
        for b in range(len(self.specs)):
            report = self.service.submit(self.request_body(b, CHUNK))
            self.rows[b] = report["rows"][0]
            (self.unit_keys[b],) = report["unit_keys"]

    # -- the operation mix --------------------------------------------------

    def next_op(self) -> str:
        if self.ops % 10 == 9:
            return SCRAPE
        if not self.block:
            self.block = list(OP_BLOCK)
            self.rng.shuffle(self.block)
        return self.block.pop()

    def run_op(self, outcome: Outcome, tracer=None) -> float:
        """Run and check the next operation of the mix; returns its
        round-trip seconds."""
        if self.ops and self.ops % EPOCH_OPS == 0:
            self._shut_down()
            self._boot()
        kind = self.next_op()
        self.ops += 1
        outcome.attempted += 1
        self.tracer = tracer
        try:
            status, seconds, nbytes = self._dispatch(kind, outcome)
        finally:
            self.tracer = None
        if tracer is not None and kind in ("resubmit", "extend"):
            tracer.counts["serve.report_bytes"] += nbytes
        outcome.latencies_s.append(seconds)
        if not 200 <= status < 300:
            outcome.failed += 1
            outcome.error(f"{kind}: HTTP {status}")
        return seconds

    def _dispatch(self, kind: str, outcome: Outcome) -> Tuple[int, float, int]:
        if kind == "resubmit":
            b = self.rng.randrange(len(self.specs))
            status, report, seconds, nbytes = self.submit(b, CHUNK)
            if report is not None:
                if report["hit_fraction"] != 1.0:
                    outcome.error(f"resubmit sweep {b}: hit fraction "
                                  f"{report['hit_fraction']}")
                if _canonical(report["rows"][0]) != _canonical(self.rows[b]):
                    outcome.error(f"resubmit sweep {b}: rows differ from "
                                  "the first submission")
            return status, seconds, nbytes
        if kind == "extend":
            b = self.extensions % len(self.specs)
            self.extensions += 1
            status, report, seconds, nbytes = self.submit(b, 2 * CHUNK)
            if report is not None:
                self._check_extension(b, report, outcome)
                outcome.trials += CHUNK
                # evict the new unit: the store keeps its set-up size
                self.cache.path_for(report["unit_keys"][1]).unlink()
            return status, seconds, nbytes
        if kind == "result":
            b = self.rng.randrange(len(self.specs))
            status, data, seconds = self.request(
                "GET", f"/results/{self.unit_keys[b]}", None)
            if status == 200:
                if _canonical(json.loads(data)["rows"]) != _canonical(self.rows[b]):
                    outcome.error(f"result {self.unit_keys[b][:12]}: rows "
                                  "differ from the sweep report")
            return status, seconds, len(data)
        status, data, seconds = self.request("GET", "/metrics", None)
        if status == 200:
            try:
                validate_metrics_text(data.decode("utf-8"))
            except (PromFormatError, UnicodeDecodeError) as exc:
                outcome.error(f"/metrics does not validate: {exc}")
        return status, seconds, len(data)

    def _check_extension(self, b: int, report: Dict[str, Any],
                         outcome: Outcome) -> None:
        rows = report["rows"][0]
        if report["hit_fraction"] != 0.5:
            outcome.error(f"extend sweep {b}: hit fraction "
                          f"{report['hit_fraction']}")
        if report["unit_keys"][0] != self.unit_keys[b]:
            outcome.error(f"extend sweep {b}: first unit key changed")
        if _canonical(rows[:CHUNK]) != _canonical(self.rows[b]):
            outcome.error(f"extend sweep {b}: cached prefix differs")
        if self.extended[b] is None:
            self.extended[b] = rows
        elif _canonical(rows) != _canonical(self.extended[b]):
            outcome.error(f"extend sweep {b}: recomputed unit differs from "
                          "its first computation")
        bad = [r for r in rows if not (r["safe"] and r["achieved"])]
        if bad:
            outcome.error(f"extend sweep {b}: {len(bad)} trials "
                          "below threshold not safe and achieved")

    def close(self) -> None:
        """Shut the service down and drop the store."""
        self._shut_down()
        shutil.rmtree(self.workdir, ignore_errors=True)
