"""Vectorized CPA (Certified Propagation Algorithm) kernel.

CPA state per correct node is a tally of first announcements per value:
commit on a direct ``SourceMsg`` from the true source, or when some
value's tally reaches ``t + 1``; then announce once and halt.  The
kernel keeps that state in dense arrays:

- ``tally``: an ``(N, V)`` counter matrix over the run's *value table*
  -- every value any process can ever announce is known before round 0
  (the source value plus the fixed Byzantine plan values), and value
  identity follows Python dict equality exactly as the reference
  protocol's ``_tally`` dict does (``1``, ``True`` and ``1.0`` share a
  bucket);
- ``cpa_active``: a :class:`PackedBits` bitset -- correct and not yet
  halted, i.e. the nodes whose ``on_receive`` still runs;
- ``committed_vid``: each node's committed value id (or -1).

Three message kinds flow: ``SRC`` (the source's one-time broadcast),
``CMT(vid, counts)`` (a ``CommittedMsg``; ``counts`` is False for a
duplicitous sender's repeat or an unhashable value, both of which the
reference receive path ignores), and junk (any ``HeardMsg``).

Junk is folded per sender.  Neither CPA nor the fabricator's own
reaction rule reads a ``HeardMsg``, so a junk send only moves counters:
tx, rx over the sender's alive ball, fanout, observed deliveries and
the wave-front trackers.  The kernel therefore keeps no junk messages,
only a per-sender count of pending junk sends for this frame and the
next: a fabricator's start flood seeds it, and each ``CommittedMsg``
a fabricator overhears adds one reaction.  In the sender's slot all of
its pending junk fires as one vectorized update, after its other
messages -- the order the reference outbox holds them in, since junk
only ever trails a start burst and a reaction is a lone junk send.

Three sender classes keep the hot path vectorized: *relays* (exactly
one counting ``CMT``: every committing correct node, eager liars and
fabricators' start announcements) fire per slot as one batched
stencil gather; *junk senders* fire per slot as one batched fold;
*special* senders (the source's ``SRC + CMT`` burst, duplicitous
two-value bursts) are few and fire per message over a single ``(K,)``
ball.

Per-sender repeat-announcement state is *global*, not per receiver: if
a receiver processes a sender's second ``CMT`` it must have processed
the first (crash and halt are monotone, balls are static, and a budget
stop ends the whole run), so the repeat never counts for anyone --
``counts`` can be precompiled into the plan.

The within-slot ordering freedoms are the same as the crash-flood
kernel's: co-slotted senders have disjoint balls (>= 2r+1 apart), so
batch-vs-special order inside a slot is unobservable, and a slot that
would overrun the message budget falls back to a per-message scalar
replay in node order -- junk unfolded back into single sends --
stopping exactly where the reference engine's pre-send check stops.
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Dict, List, Optional, Tuple

from repro.radio.fastpath.bitset import PackedBits
from repro.radio.fastpath.byzantine import ByzantinePlan
from repro.radio.fastpath.compat import require_numpy
from repro.radio.fastpath.lattice import Lattice
from repro.radio.fastpath.stats import KernelStats, SourceTracker

#: the kernel encoding of any ``HeardMsg`` (CPA never reads one)
_JUNK = ("JUNK",)


def run_cpa_kernel(
    lattice: Lattice,
    *,
    source_idx: int,
    value: Any,
    t: int,
    correct,
    crash_rounds,
    byz_plans: Dict[int, ByzantinePlan],
    max_rounds: int,
    max_messages: Optional[int],
    trackers: List[SourceTracker],
) -> KernelStats:
    """Simulate CPA on ``lattice`` and return its statistics.

    ``byz_plans`` maps flat indices to compiled
    :class:`~repro.radio.fastpath.byzantine.ByzantinePlan` bursts
    (silent Byzantine nodes are absent -- they only receive).
    """
    np = require_numpy()
    stats = KernelStats()
    n = lattice.num_nodes
    K = lattice.ball_size
    coords = lattice.coords_all
    slot_of = lattice.slot_of
    num_slots = len(lattice.slot_groups)
    commit_at = t + 1

    # -- value table: id 0 is the source value; Byzantine plan values
    # follow in sorted-node, burst order.  Unhashable values get id -1
    # (dropped by the hardened receive path; still a CommittedMsg for
    # fabricator reaction purposes).
    values: List[Any] = [value]
    table: Dict[Any, int] = {value: 0}

    def vid_of(v: Any) -> int:
        try:
            known = table.get(v)
        except TypeError:
            return -1  # unhashable: cannot key a tally bucket
        if known is None:
            known = len(values)
            table[v] = known
            values.append(v)
        return known

    # compile plan bursts to kernel messages: ("SRC",) /
    # ("CMT", vid, counts); first *hashable* CMT per sender counts (a
    # dropped unhashable value does not consume the sender's
    # first-announcement slot).  A plan's start junk goes to the
    # sender's junk counter (below).
    spec_bursts: Dict[int, Tuple[Tuple, ...]] = {}
    start_junk: Dict[int, int] = {}
    relay_idxs: List[int] = []
    relay_vids: List[int] = []
    is_fab = np.zeros(n, dtype=bool)
    for idx in sorted(byz_plans):
        plan = byz_plans[idx]
        if plan.reactive_junk:
            is_fab[idx] = True
        if plan.start_junk:
            start_junk[idx] = plan.start_junk
        msgs: List[Tuple] = []
        announced = False
        for msg in plan.start_msgs:
            vid = vid_of(msg[1])
            counts = vid >= 0 and not announced
            announced = announced or vid >= 0
            msgs.append(("CMT", vid, counts))
        if len(msgs) == 1 and msgs[0][2]:
            # single counting announcement: ride the batched relay path
            relay_idxs.append(idx)
            relay_vids.append(msgs[0][1])
        elif msgs:
            spec_bursts[idx] = tuple(msgs)

    num_values = len(values)
    values_not_none = np.asarray(
        [v is not None for v in values], dtype=bool
    )
    tally = np.zeros((n, num_values), dtype=np.int32)
    cpa_active = PackedBits(n)
    cpa_active.set_true(np.flatnonzero(correct))
    committed_vid = np.full(n, -1, dtype=np.int64)
    tx_arr = np.zeros(n, dtype=np.int64)
    rx_arr = np.zeros(n, dtype=np.int64)

    # per-slot relay queues, two frames deep (this frame / next
    # frame), of (idx_array, vid_array) pairs; special bursts are all
    # start bursts, so they fire in frame 0 and are keyed by slot
    relay_queue: List[List] = []
    relay_next: List[List] = [[] for _ in range(num_slots)]
    spec_slots: Dict[int, List[Tuple[int, Tuple]]] = {}
    pending_total = 0

    # pending junk sends, one count per sender, this frame / next frame
    # (see the module docstring); ``junk_slots`` lists, per slot, the
    # senders that can ever hold junk
    junk_now = np.zeros(n, dtype=np.int64)
    junk_next = np.zeros(n, dtype=np.int64)
    for idx, count in start_junk.items():
        junk_next[idx] = count
    pending_total += sum(start_junk.values())
    can_junk = is_fab.copy()
    can_junk[list(start_junk)] = True
    junkers: Dict[int, List[int]] = {}
    for idx in np.flatnonzero(can_junk).tolist():
        junkers.setdefault(int(slot_of[idx]), []).append(idx)
    junk_slots = {
        s_: np.asarray(idxs, dtype=np.int64) for s_, idxs in junkers.items()
    }

    def route_relays(idxs, vids, current_slot: int) -> None:
        """Bucket fresh single-CMT relays by slot: own slot after
        ``current_slot`` fires this frame, at-or-before rolls over
        (equal is impossible -- co-slotted nodes are out of range)."""
        fslots = slot_of[idxs]
        order = np.argsort(fslots)
        si = idxs[order]
        vi = vids[order]
        ss = fslots[order]
        bounds = np.flatnonzero(ss[1:] != ss[:-1]) + 1
        starts = [0, *bounds.tolist()]
        ends = [*bounds.tolist(), len(ss)]
        for a, b in zip(starts, ends):
            s2 = int(ss[a])
            target = relay_queue if s2 > current_slot else relay_next
            target[s2].append((si[a:b], vi[a:b]))

    def route_reactions(fabs, current_slot: int) -> None:
        """Queue one junk reaction per fabricator in ``fabs`` (unique):
        this frame if its slot is still ahead, else next frame."""
        nonlocal pending_total
        ahead = slot_of[fabs] > current_slot
        junk_now[fabs[ahead]] += 1
        junk_next[fabs[~ahead]] += 1
        pending_total += int(fabs.size)

    def do_commits(idxs, vids, round_: int, slot: int) -> int:
        """Commit ``idxs`` to ``vids``: halt, record (None-valued
        commits halt and announce but are observably undecided, so
        they stay out of the commit statistics), and enqueue the
        one-time ``COMMITTED`` relay.  Returns messages enqueued."""
        cpa_active.set_false(idxs)
        committed_vid[idxs] = vids
        rec = idxs[values_not_none[vids]]
        if rec.size:
            lst = rec.tolist()
            stats.commit_round.update(
                zip([coords[i] for i in lst], repeat(round_))
            )
            stats.commits_by_round[round_] = stats.commits_by_round.get(
                round_, 0
            ) + len(lst)
            for tr in trackers:
                tr.on_committed(rec)
        route_relays(idxs, vids, slot)
        return int(idxs.size)

    # -- start phase (round -1): the source broadcasts SRC + COMMITTED
    # and commits; Byzantine bursts are queued; dead-from-start crashes
    # are announced.
    src_arr = np.asarray([source_idx], dtype=np.int64)
    cpa_active.set_false(src_arr)
    committed_vid[source_idx] = 0
    stats.commit_round[coords[source_idx]] = -1
    stats.commits_by_round[-1] = 1
    for tr in trackers:
        tr.on_committed(src_arr)
    spec_slots.setdefault(int(slot_of[source_idx]), []).append(
        (source_idx, (("SRC",), ("CMT", 0, True)))
    )
    pending_total += 2
    if relay_idxs:
        la = np.asarray(relay_idxs, dtype=np.int64)
        lv = np.asarray(relay_vids, dtype=np.int64)
        pending_total += len(relay_idxs)
        # current_slot=-1: everything fires next frame (frame 0)
        fslots = slot_of[la]
        order = np.argsort(fslots)
        si, vi, ss = la[order], lv[order], fslots[order]
        bounds = np.flatnonzero(ss[1:] != ss[:-1]) + 1
        starts = [0, *bounds.tolist()]
        ends = [*bounds.tolist(), len(ss)]
        for a, b in zip(starts, ends):
            relay_next[int(ss[a])].append((si[a:b], vi[a:b]))
    for idx, msgs in spec_bursts.items():
        spec_slots.setdefault(int(slot_of[idx]), []).append((idx, msgs))
        pending_total += len(msgs)
    stats.crashes = int((crash_rounds == 0).sum())

    budget = max_messages
    tx_total = 0
    rounds = 0
    quiescent = False
    hit_rounds = False
    hit_messages = False
    obs_del_round = 0

    def fire_junk(senders, counts, r: int) -> None:
        """Deliver ``counts[k]`` junk sends from each ``senders[k]``.

        Junk only moves counters, so one vectorized update stands for
        all of them; co-slotted senders have disjoint balls, so the
        receiver scatter is exact.
        """
        nonlocal obs_del_round
        tx_arr[senders] += counts
        stats.fanout_deliveries += int(counts.sum()) * K
        balls = lattice.balls_of(senders)
        alive = crash_rounds[balls] > r
        delivered = balls[alive]
        if delivered.size:
            per = np.broadcast_to(counts[:, None], balls.shape)[alive]
            obs_del_round += int(per.sum())
            rx_arr[delivered] += per
            for tr in trackers:
                tr.on_delivered(delivered)

    def fire_message(idx: int, delivered, msg: Tuple, r: int, s: int) -> None:
        """Deliver one special-burst message (statistics + protocol)."""
        nonlocal obs_del_round, pending_total
        tx_arr[idx] += 1
        stats.fanout_deliveries += K
        if not delivered.size:
            return
        obs_del_round += int(delivered.size)
        rx_arr[delivered] += 1
        for tr in trackers:
            tr.on_delivered(delivered)
        kind = msg[0]
        if kind == "JUNK":
            return  # HeardMsg: CPA ignores it; fabricators ignore it too
        if kind == "CMT":
            # fabricators re-frame every CommittedMsg they overhear,
            # counting or not (an unhashable value is still a
            # CommittedMsg to them)
            fabs = delivered[is_fab[delivered]]
            if fabs.size:
                route_reactions(fabs, s)
            if not msg[2]:
                return  # repeat or unhashable: never tallies
            vid = msg[1]
            elig = delivered[cpa_active.get(delivered)]
            if elig.size:
                tally[elig, vid] += 1
                fresh = elig[tally[elig, vid] >= commit_at]
                if fresh.size:
                    pending_total += do_commits(
                        fresh,
                        np.full(fresh.size, vid, dtype=np.int64),
                        r,
                        s,
                    )
            return
        # SRC: only the true source ever sends it; direct receipt
        # commits every active receiver to the source value
        elig = delivered[cpa_active.get(delivered)]
        if elig.size:
            pending_total += do_commits(
                elig, np.zeros(elig.size, dtype=np.int64), r, s
            )

    r = 0
    while True:
        if r >= max_rounds:
            hit_rounds = True
            break
        if r > 0:
            stats.crashes += int((crash_rounds == r).sum())
        relay_queue = relay_next
        relay_next = [[] for _ in range(num_slots)]
        # every counter of the frame just run was fired and zeroed
        junk_now, junk_next = junk_next, junk_now
        tx_round = 0
        obs_del_round = 0
        tripped = False
        for s in range(num_slots):
            rparts = relay_queue[s]
            sparts = spec_slots.pop(s, ())
            junk_demand = 0
            jsend = junk_slots.get(s)
            if jsend is not None:
                jcounts = junk_now[jsend]
                jmask = jcounts > 0
                jsend, jcounts = jsend[jmask], jcounts[jmask]
                junk_demand = int(jcounts.sum())
            if not rparts and not sparts and not junk_demand:
                continue
            relay_demand = sum(p[0].size for p in rparts)
            spec_demand = sum(len(p[1]) for p in sparts)
            demand = relay_demand + spec_demand + junk_demand
            if budget is None or tx_total + demand <= budget:
                # the whole slot fits in the budget: batch the relays,
                # walk the (few) special bursts, fold the junk
                tx_total += demand
                tx_round += demand
                pending_total -= demand
                if rparts:
                    if len(rparts) == 1:
                        txers, vids = rparts[0]
                    else:
                        txers = np.concatenate([p[0] for p in rparts])
                        vids = np.concatenate([p[1] for p in rparts])
                    m = txers.size
                    stats.fanout_deliveries += m * K
                    tx_arr[txers] += 1
                    balls = lattice.balls_of(txers)
                    alive = crash_rounds[balls] > r
                    delivered = balls[alive]
                    if delivered.size:
                        obs_del_round += int(delivered.size)
                        rx_arr[delivered] += 1
                        for tr in trackers:
                            tr.on_delivered(delivered)
                        fabs = delivered[is_fab[delivered]]
                        if fabs.size:
                            route_reactions(fabs, s)
                        act = alive & cpa_active.get(balls)
                        recv = balls[act]
                        if recv.size:
                            rvids = np.broadcast_to(
                                vids[:, None], balls.shape
                            )[act]
                            # ball disjointness makes recv unique, so
                            # fancy-index += is exact
                            tally[recv, rvids] += 1
                            hit = tally[recv, rvids] >= commit_at
                            fresh = recv[hit]
                            if fresh.size:
                                pending_total += do_commits(
                                    fresh, rvids[hit], r, s
                                )
                for idx, msgs in sparts:
                    ball = lattice.ball_of(idx)
                    delivered = ball[crash_rounds[ball] > r]
                    for msg in msgs:
                        fire_message(idx, delivered, msg, r, s)
                if junk_demand:
                    fire_junk(jsend, jcounts, r)
                    junk_now[jsend] = 0
            else:
                # budget trips inside this slot: replay it per message
                # in node order, stopping exactly where the reference
                # engine's pre-send check stops
                by_idx: Dict[int, List[Tuple]] = {}
                for arr, vids in rparts:
                    for i, v in zip(arr.tolist(), vids.tolist()):
                        by_idx.setdefault(i, []).append(("CMT", v, True))
                for idx, msgs in sparts:
                    by_idx.setdefault(idx, []).extend(msgs)
                if junk_demand:
                    for idx, c in zip(jsend.tolist(), jcounts.tolist()):
                        by_idx.setdefault(idx, []).extend([_JUNK] * c)
                for idx in sorted(by_idx):
                    ball = lattice.ball_of(idx)
                    delivered = ball[crash_rounds[ball] > r]
                    for msg in by_idx[idx]:
                        if tx_total >= budget:
                            tripped = True
                            break
                        tx_total += 1
                        tx_round += 1
                        pending_total -= 1
                        fire_message(idx, delivered, msg, r, s)
                    if tripped:
                        break
            if tripped:
                break
        if tx_round:
            stats.tx_by_round[r] = tx_round
        if obs_del_round:
            stats.deliveries_by_round[r] = obs_del_round
        for tr in trackers:
            tr.snapshot(r)
        rounds = r + 1
        if tripped:
            hit_messages = True
            break
        if tx_round == 0 and pending_total == 0:
            quiescent = True
            break
        r += 1

    stats.rounds = rounds
    stats.quiescent = quiescent
    stats.hit_round_limit = hit_rounds
    stats.hit_message_limit = hit_messages
    stats.transmissions = tx_total
    stats.obs_deliveries = sum(stats.deliveries_by_round.values())
    nz = np.flatnonzero(tx_arr).tolist()
    stats.tx_by_node = dict(zip([coords[i] for i in nz], tx_arr[nz].tolist()))
    nz = np.flatnonzero(rx_arr).tolist()
    stats.rx_by_node = dict(zip([coords[i] for i in nz], rx_arr[nz].tolist()))
    decided = np.flatnonzero(committed_vid >= 0)
    decided = decided[values_not_none[committed_vid[decided]]]
    mask = np.zeros(n, dtype=bool)
    mask[decided] = True
    stats.committed_mask = mask.tolist()
    wrong = decided[committed_vid[decided] != 0]
    stats.wrong_values = {
        coords[i]: values[int(committed_vid[i])] for i in wrong.tolist()
    }
    return stats
