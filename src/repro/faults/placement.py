"""Counting and validating locally-bounded fault placements.

The adversary's constraint is *per neighborhood*: for every grid point
``c`` (whether or not a fault sits there), the closed radius-``r`` ball
around ``c`` may contain at most ``t`` faulty nodes.  Counting over
*closed* balls matches the paper's accounting ("a faulty node may have
upto ``t - 1`` neighbors that are also faulty": the faulty node plus its
faulty neighbors stay within ``t``).

All functions work either on the infinite grid (plain coordinates) or on a
finite topology (pass ``topology=`` and coordinates are wrapped).  They
count through one helper, :func:`_flat_balls`, which hands out each
closed ball as a list of flat node indices into a plain ``counts`` list:
on a :class:`~repro.grid.torus.Torus` a ball is index arithmetic, on
every other topology it is :func:`~repro.geometry.balls.closed_ball_points`
mapped through a node index.
"""

from __future__ import annotations

import random
from functools import partial
from operator import le
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import InvalidPlacementError
from repro.exec.seeds import derive_seed
from repro.geometry.balls import closed_ball_points
from repro.geometry.coords import Coord
from repro.geometry.metrics import Metric, get_metric
from repro.grid.topology import Topology
from repro.grid.torus import Torus


class _TorusBalls:
    """Closed balls on a torus as row-major indices ``y * width + x``.

    A node at least ``reach`` (the largest offset component) away from
    the wrap seam has the ball ``i + delta``; only nodes near the seam
    take the modular form.  Ball order is ``closed_ball_points`` order:
    the metric's offsets, then the center.
    """

    def __init__(self, torus: Torus, r: int, metric: Metric) -> None:
        w, h = torus.width, torus.height
        self._w, self._h = w, h
        self._offsets = (*metric.offsets(r), (0, 0))
        self._deltas = [dy * w + dx for dx, dy in self._offsets]
        reach = max(max(abs(dx), abs(dy)) for dx, dy in self._offsets)
        self._xs = range(reach, w - reach)
        self._ys = range(reach, h - reach)
        self.counts: List[int] = [0] * (w * h)

    def ball(self, p: Coord) -> List[int]:
        """Flat indices of the closed ball around canonical ``p``."""
        x, y = p
        w = self._w
        if x in self._xs and y in self._ys:
            i = y * w + x
            return [i + d for d in self._deltas]
        h = self._h
        return [((y + dy) % h) * w + (x + dx) % w for dx, dy in self._offsets]

    def coord(self, i: int) -> Coord:
        """The canonical coordinate of flat index ``i``."""
        y, x = divmod(i, self._w)
        return (x, y)


class _IndexedBalls:
    """Closed balls on any other topology, mapped through a node index.

    Indices are handed out on first sight (``counts`` grows with them),
    so the infinite grid, which has no node list, works the same way.
    """

    def __init__(
        self, r: int, metric: Metric, topology: Optional[Topology]
    ) -> None:
        self._r = r
        self._metric = metric
        self._topology = topology
        self._ids: Dict[Coord, int] = {}
        self._coords: List[Coord] = []
        self.counts: List[int] = []

    def ball(self, p: Coord) -> List[int]:
        """Flat indices of the closed ball around canonical ``p``."""
        ids = self._ids
        out = []
        for q in closed_ball_points(self._metric, p, self._r, self._topology):
            i = ids.get(q)
            if i is None:
                i = ids[q] = len(self._coords)
                self._coords.append(q)
                self.counts.append(0)
            out.append(i)
        return out

    def coord(self, i: int) -> Coord:
        """The coordinate of flat index ``i``."""
        return self._coords[i]


def _flat_balls(r: int, metric: Metric, topology: Optional[Topology]):
    """The closed-ball helper all counting in this module goes through.

    Returns an object with ``ball(p)`` (flat indices of the closed
    ball around a canonical ``p``, the budget's counting geometry), a
    zeroed ``counts`` list indexed the same way, and ``coord(i)``.
    """
    if isinstance(topology, Torus):
        return _TorusBalls(topology, r, metric)
    return _IndexedBalls(r, metric, topology)


def _canonical(p: Coord, topology: Optional[Topology]) -> Coord:
    return topology.canonical(p) if topology is not None else (p[0], p[1])


def fault_counts_per_nbd(
    faulty: Iterable[Coord],
    r: int,
    metric="linf",
    topology: Optional[Topology] = None,
) -> Dict[Coord, int]:
    """Faults per closed neighborhood, for every center that sees any.

    Centers whose neighborhood contains no fault are omitted (on the
    infinite grid there are infinitely many).  Each faulty node contributes
    to every center within distance ``r`` of it -- the ball is symmetric,
    so "centers covering f" equals "ball around f".
    """
    balls = _flat_balls(r, get_metric(metric), topology)
    counts = balls.counts
    seen: Set[Coord] = set()
    first: List[int] = []
    # sorted so the returned dict's insertion order is canonical even
    # when ``faulty`` arrives as a set (counts are order-free, but
    # downstream iteration over the result should not vary per run)
    for f in sorted(faulty):
        cf = _canonical(f, topology)
        if cf in seen:
            continue
        seen.add(cf)
        for c in balls.ball(cf):
            if not counts[c]:
                first.append(c)
            counts[c] += 1
    coord = balls.coord
    return {coord(c): counts[c] for c in first}


def max_faults_per_nbd(
    faulty: Iterable[Coord],
    r: int,
    metric="linf",
    topology: Optional[Topology] = None,
) -> Tuple[int, Optional[Coord]]:
    """``(max count, witness center)``; ``(0, None)`` for no faults."""
    counts = fault_counts_per_nbd(faulty, r, metric, topology)
    if not counts:
        return (0, None)
    center = max(counts, key=lambda c: (counts[c], (-c[0], -c[1])))
    return (counts[center], center)


def max_faults_in_any_nbd(
    faulty: Iterable[Coord],
    r: int,
    metric="linf",
    topology: Optional[Topology] = None,
) -> int:
    """The worst per-neighborhood fault count of a placement.

    The quantity every budget check compares against ``t``; callers that
    only need the number (not the witness center) should use this rather
    than re-deriving it from :func:`fault_counts_per_nbd`.
    """
    worst, _ = max_faults_per_nbd(faulty, r, metric, topology)
    return worst


def is_valid_placement(
    faulty: Iterable[Coord],
    t: int,
    r: int,
    metric="linf",
    topology: Optional[Topology] = None,
) -> bool:
    """Whether no neighborhood contains more than ``t`` faults."""
    return max_faults_in_any_nbd(faulty, r, metric, topology) <= t


def validate_placement(
    faulty: Iterable[Coord],
    t: int,
    r: int,
    metric="linf",
    topology: Optional[Topology] = None,
) -> None:
    """Raise :class:`~repro.errors.InvalidPlacementError` on violation."""
    worst, center = max_faults_per_nbd(faulty, r, metric, topology)
    if worst > t:
        raise InvalidPlacementError(
            f"placement puts {worst} faults in the neighborhood of {center} "
            f"but the budget is t={t} (r={r}, metric={get_metric(metric).name})"
        )


def trim_to_budget(
    faulty: Iterable[Coord],
    t: int,
    r: int,
    metric="linf",
    topology: Optional[Topology] = None,
    rng: Optional[random.Random] = None,
) -> Set[Coord]:
    """Remove as few faults as needed (greedily) to respect the budget.

    Repeatedly finds the most-violating neighborhood and removes from it
    the fault that participates in the most violating neighborhoods
    (deterministic unless an ``rng`` breaks ties).  Greedy is not optimal
    in general but the constructions only ever need a handful of removals.
    """
    current: Set[Coord] = {_canonical(f, topology) for f in faulty}
    balls = _flat_balls(r, get_metric(metric), topology)
    counts = balls.counts
    for f in sorted(current):
        for c in balls.ball(f):
            counts[c] += 1
    # a center violates when it sees a fault and more than t of them
    floor = max(t, 0)
    violating: Set[int] = set()
    if max(counts, default=0) > floor:
        violating = {c for c, n in enumerate(counts) if n > floor}
    while violating:
        # Score each fault by how many violating neighborhoods it sits in.
        score = {
            f: sum(1 for c in balls.ball(f) if c in violating)
            for f in sorted(current)
        }
        top = max(score.values())
        ties = [f for f, n in score.items() if n == top]
        worst = rng.choice(ties) if rng is not None else ties[0]
        current.discard(worst)
        for c in balls.ball(worst):
            counts[c] -= 1
            if counts[c] <= floor:
                violating.discard(c)
    return current


def greedy_random_placement(
    candidates: Sequence[Coord],
    t: int,
    r: int,
    metric="linf",
    topology: Optional[Topology] = None,
    rng: Optional[random.Random] = None,
    target_count: Optional[int] = None,
) -> Set[Coord]:
    """A random maximal (or ``target_count``-sized) valid placement.

    Visits ``candidates`` in random order and keeps each fault that does
    not break the budget.  Incremental counting makes this
    ``O(|candidates| * |ball|)``.
    """
    if rng is None:
        rng = random.Random(
            derive_seed(0, "repro.faults.placement.greedy_random_placement", 0)
        )
    order = list(candidates)
    rng.shuffle(order)
    balls = _flat_balls(r, get_metric(metric), topology)
    counts = balls.counts
    count_of = counts.__getitem__
    full = partial(le, t)  # full(n): one more fault would exceed t
    chosen: Set[Coord] = set()
    for cand in order:
        node = _canonical(cand, topology)
        if node in chosen:
            continue
        ball = balls.ball(node)
        if any(map(full, map(count_of, ball))):
            continue
        chosen.add(node)
        for c in ball:
            counts[c] += 1
        if target_count is not None and len(chosen) >= target_count:
            break
    return chosen
