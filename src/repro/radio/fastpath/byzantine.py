"""Fixed-strategy Byzantine plans for the vectorized kernels.

The reference engine hosts a Byzantine node as an arbitrary
:class:`~repro.radio.node.NodeProcess` -- it can run any code.  The
fastpath engine cannot execute arbitrary code inside an array kernel,
but the library's *fixed* strategies (silent, liar, duplicitous,
fabricator) need none: their entire behavior is a message burst known
before the run starts, plus -- for the fabricator -- a reactive rule
("one fake ``HEARD`` per ``COMMITTED`` overheard") that is a pure
counter because no supported kernel protocol reads ``HeardMsg``
payloads at all (CPA ignores them entirely).

:func:`classify_unsupported_reason` decides, by *exact* process type,
whether a scenario's Byzantine population is plan-expressible;
:func:`build_plans` compiles it into per-node :class:`ByzantinePlan`
bursts.  Anything else -- ``RandomNoiseByzantine`` (seeded RNG driving
``on_round``) or a user-defined subclass -- hard-gates to the reference
engine with a named :class:`~repro.errors.ConfigurationError` upstream.

Message encoding: ``("CMT", value)`` for a ``CommittedMsg`` (the raw,
possibly unhashable value -- the kernel maps it to a value id and
treats unhashable values as garbage, mirroring the hardened reference
receive path).  ``HeardMsg`` frames are junk to CPA -- they only move
delivery counters -- so a plan carries them as a count, not as
messages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.faults.byzantine import (
    DuplicitousByzantine,
    EagerLiarByzantine,
    FabricatingByzantine,
    RandomNoiseByzantine,
    SilentByzantine,
)
from repro.geometry.coords import Coord
from repro.radio.engines import FASTPATH_FIXED_STRATEGIES
from repro.radio.node import NodeProcess, SilentProcess

#: exact process types expressible as fixed plans.  A plain
#: ``SilentProcess`` is accepted too: it is behaviorally identical to
#: ``SilentByzantine`` (transmits nothing, reacts to nothing).
_PLAN_TYPES = (
    SilentByzantine,
    SilentProcess,
    EagerLiarByzantine,
    DuplicitousByzantine,
    FabricatingByzantine,
)


@dataclass(frozen=True)
class ByzantinePlan:
    """One Byzantine node's compiled behavior.

    The ``on_start`` burst is ``start_msgs`` (its ``("CMT", value)``
    messages, in broadcast order) followed by ``start_junk``
    ``HeardMsg`` frames; ``reactive_junk``
    marks a fabricator: one extra ``HeardMsg`` broadcast is enqueued
    for every ``CommittedMsg`` delivered to it.
    """

    start_msgs: Tuple[Tuple, ...]
    start_junk: int = 0
    reactive_junk: bool = False


def classify_unsupported_reason(
    processes: Dict[Coord, NodeProcess],
) -> Optional[str]:
    """Why this Byzantine population cannot run on fastpath, or None.

    Classification is by exact type: a *subclass* of a fixed strategy
    may override hooks with arbitrary code, so it gates to reference.
    """
    for node in sorted(processes):
        tp = type(processes[node])
        if tp in _PLAN_TYPES:
            continue
        if tp is RandomNoiseByzantine:
            return (
                "Byzantine strategy 'noise' runs arbitrary node code "
                "(no fixed-strategy kernel; supported: "
                f'{FASTPATH_FIXED_STRATEGIES}); use engine="reference"'
            )
        return (
            f"Byzantine process {tp.__name__} at {node} runs arbitrary "
            "node code (no fixed-strategy kernel; supported: "
            f'{FASTPATH_FIXED_STRATEGIES}); use engine="reference"'
        )
    return None


def _fabricator_start_junk(p: FabricatingByzantine, r: int) -> int:
    """How many ``HeardMsg`` fabrications ``p.on_start`` broadcasts.

    Replicates :meth:`FabricatingByzantine.on_start` message by
    message: one direct frame per radius-``r`` neighbor, then -- under
    deep fabrication -- per ``2r``-annulus origin, one frame per valid
    intermediate relay up to ``max_fabrications_per_origin``.  The
    counts depend only on the node's *own* metric and the radius (every
    term is translation-invariant), never on its position.
    """
    metric = p.metric
    count = len(metric.offsets(r))
    if not p.deep_fabrication:
        return count
    for off in metric.offsets(2 * r):
        if metric.within((0, 0), off, r):
            continue  # already framed directly
        fabricated = 0
        for roff in metric.offsets(r):
            if roff == off:
                continue
            if not metric.within(roff, off, r):
                continue
            fabricated += 1
            if fabricated >= p.max_fabrications_per_origin:
                break
        count += fabricated
    return count


def build_plans(
    processes: Dict[Coord, NodeProcess], r: int
) -> Dict[Coord, ByzantinePlan]:
    """Compile a (pre-classified) Byzantine population into plans.

    Silent nodes are omitted: they transmit nothing and react to
    nothing, so the kernel only ever sees them as receivers (which
    needs no plan).  Callers must have run
    :func:`classify_unsupported_reason` first.
    """
    plans: Dict[Coord, ByzantinePlan] = {}
    junk_cache: Dict[Tuple, int] = {}
    for node, p in processes.items():
        tp = type(p)
        if tp is EagerLiarByzantine:
            plans[node] = ByzantinePlan((("CMT", p.wrong_value),))
        elif tp is DuplicitousByzantine:
            plans[node] = ByzantinePlan(
                (("CMT", p.first), ("CMT", p.second))
            )
        elif tp is FabricatingByzantine:
            key = (
                p.metric.name,
                r,
                p.deep_fabrication,
                p.max_fabrications_per_origin,
            )
            junk = junk_cache.get(key)
            if junk is None:
                junk = _fabricator_start_junk(p, r)
                junk_cache[key] = junk
            plans[node] = ByzantinePlan(
                (("CMT", p.wrong_value),), start_junk=junk, reactive_junk=True
            )
        # silent types: no plan entry
    return plans
