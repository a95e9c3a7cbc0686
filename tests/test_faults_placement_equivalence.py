"""The flat-index placement code against the coordinate walk it replaced.

``repro.faults.placement`` counts closed balls as flat node indices
(index arithmetic on a torus, a node index elsewhere).  The reference
below is the coordinate-walk implementation that came before it: every
ball built from coordinate tuples through ``closed_ball_points``, counts
kept in a coordinate dict.  The two must agree exactly -- the same
returned set *in the same iteration order*, the same dict in the same
insertion order, and the same RNG draws (equal ``rng.getstate()``) --
because scenario digests and golden traces depend on all three.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, Optional, Sequence, Set

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.placement import (
    fault_counts_per_nbd,
    greedy_random_placement,
    trim_to_budget,
)
from repro.geometry.balls import closed_ball_points
from repro.geometry.coords import Coord
from repro.geometry.metrics import get_metric
from repro.grid.bounded import BoundedGrid
from repro.grid.rgg import RandomGeometricGraph
from repro.grid.topology import Topology
from repro.grid.torus import Torus

# -- reference: the coordinate walk ----------------------------------------


def ref_fault_counts_per_nbd(
    faulty: Iterable[Coord], r: int, metric="linf",
    topology: Optional[Topology] = None,
) -> Dict[Coord, int]:
    counts: Dict[Coord, int] = {}
    seen: Set[Coord] = set()
    for f in sorted(faulty):
        cf = topology.canonical(f) if topology is not None else (f[0], f[1])
        if cf in seen:
            continue
        seen.add(cf)
        for center in closed_ball_points(metric, cf, r, topology):
            counts[center] = counts.get(center, 0) + 1
    return counts


def ref_trim_to_budget(
    faulty: Iterable[Coord], t: int, r: int, metric="linf",
    topology: Optional[Topology] = None,
    rng: Optional[random.Random] = None,
) -> Set[Coord]:
    m = get_metric(metric)
    current: Set[Coord] = {
        topology.canonical(f) if topology is not None else (f[0], f[1])
        for f in faulty
    }
    while True:
        counts = ref_fault_counts_per_nbd(current, r, m, topology)
        violating = {c for c, n in counts.items() if n > t}
        if not violating:
            return current

        def score(f: Coord) -> int:
            return sum(
                1 for c in closed_ball_points(m, f, r, topology)
                if c in violating
            )

        ranked = sorted(current, key=lambda f: (-score(f), f))
        if rng is not None:
            top = score(ranked[0])
            ties = [f for f in ranked if score(f) == top]
            current.discard(rng.choice(ties))
        else:
            current.discard(ranked[0])


def ref_greedy_random_placement(
    candidates: Sequence[Coord], t: int, r: int, metric="linf",
    topology: Optional[Topology] = None,
    rng: Optional[random.Random] = None,
    target_count: Optional[int] = None,
) -> Set[Coord]:
    m = get_metric(metric)
    order = list(candidates)
    rng.shuffle(order)
    counts: Dict[Coord, int] = {}
    chosen: Set[Coord] = set()
    for cand in order:
        node = (
            topology.canonical(cand) if topology is not None
            else (cand[0], cand[1])
        )
        if node in chosen:
            continue
        ball = closed_ball_points(m, node, r, topology)
        if any(counts.get(c, 0) + 1 > t for c in ball):
            continue
        chosen.add(node)
        for c in ball:
            counts[c] = counts.get(c, 0) + 1
        if target_count is not None and len(chosen) >= target_count:
            break
    return chosen


# -- strategies -------------------------------------------------------------

METRICS = ("linf", "l1", "l2")


@st.composite
def topologies(draw):
    """A torus (side 2r+1 .. 40), a bounded grid, an RGG, or the
    infinite grid (``None``), with the placement radius and metric."""
    r = draw(st.integers(min_value=1, max_value=3))
    metric = draw(st.sampled_from(METRICS))
    kind = draw(st.sampled_from(("torus", "torus", "bounded", "rgg", "inf")))
    if kind == "inf":
        return None, r, metric
    lo = 2 * r + 1 if kind == "torus" else 1
    w = draw(st.integers(min_value=lo, max_value=40))
    h = draw(st.integers(min_value=lo, max_value=40))
    if kind == "torus":
        return Torus(w, h, r, metric), r, metric
    if kind == "bounded":
        return BoundedGrid(w, h, r, metric), r, metric
    density = draw(st.sampled_from((0.3, 0.6, 1.0)))
    seed = draw(st.integers(min_value=0, max_value=5))
    return (
        RandomGeometricGraph(w, h, r, metric, density=density, seed=seed),
        r,
        metric,
    )


def _points(draw, topology, min_size=0, max_size=60, window=None):
    """Coordinates to place faults at: off-box and unwrapped ones too.

    ``window`` packs them into a small square at the origin instead, so
    that many share a neighbourhood and a small ``t`` is overrun.
    """
    if window is not None:
        xs = ys = st.integers(min_value=-1, max_value=window)
    elif topology is None:
        xs = ys = st.integers(min_value=-12, max_value=12)
    else:
        xs = st.integers(min_value=-3, max_value=topology.width + 2)
        ys = st.integers(min_value=-3, max_value=topology.height + 2)
    return draw(
        st.lists(st.tuples(xs, ys), min_size=min_size, max_size=max_size)
    )


def _candidates(topology, pts):
    """The candidate list a caller hands the greedy placement."""
    if topology is None:
        return pts
    return [n for n in topology.nodes() if n != (0, 0)]


def _ball_size(r, metric):
    return get_metric(metric).ball_size(r) + 1


# -- properties -------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_fault_counts_match_reference(data):
    topology, r, metric = data.draw(topologies())
    faults = _points(data.draw, topology)
    got = fault_counts_per_nbd(faults, r, metric, topology)
    want = ref_fault_counts_per_nbd(faults, r, metric, topology)
    assert list(got.items()) == list(want.items())


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_greedy_placement_matches_reference(data):
    topology, r, metric = data.draw(topologies())
    pts = _points(data.draw, topology, min_size=1)
    candidates = _candidates(topology, pts)
    t = data.draw(st.integers(min_value=0, max_value=_ball_size(r, metric)))
    target = data.draw(
        st.one_of(st.none(), st.integers(min_value=0, max_value=80))
    )
    seed = data.draw(st.integers(min_value=0, max_value=2**32))
    rng_new, rng_ref = random.Random(seed), random.Random(seed)
    got = greedy_random_placement(
        candidates, t, r, metric, topology, rng=rng_new, target_count=target
    )
    want = ref_greedy_random_placement(
        candidates, t, r, metric, topology, rng=rng_ref, target_count=target
    )
    assert list(got) == list(want)
    assert rng_new.getstate() == rng_ref.getstate()


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_trim_matches_reference(data):
    """Over-budget inputs: dense random fault sets trimmed to small t,
    with and without an ``rng`` breaking ties."""
    topology, r, metric = data.draw(topologies())
    window = data.draw(st.sampled_from((None, 2 * r + 2)))
    faults = _points(
        data.draw, topology, min_size=8 if window else 0, max_size=50,
        window=window,
    )
    t = data.draw(
        st.one_of(
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=_ball_size(r, metric)),
        )
    )
    use_rng = data.draw(st.booleans())
    seed = data.draw(st.integers(min_value=0, max_value=2**32))
    rng_new = random.Random(seed) if use_rng else None
    rng_ref = random.Random(seed) if use_rng else None
    got = trim_to_budget(faults, t, r, metric, topology, rng=rng_new)
    want = ref_trim_to_budget(faults, t, r, metric, topology, rng=rng_ref)
    assert list(got) == list(want)
    if use_rng:
        assert rng_new.getstate() == rng_ref.getstate()


def test_trim_after_random_placement_matches_reference():
    """The scenario builders' sequence on one shared rng: a random
    maximal placement, then a trim that finds nothing to remove."""
    torus = Torus.square(40, 2)
    candidates = [n for n in torus.nodes() if n != (0, 0)]
    rng_new, rng_ref = random.Random(7), random.Random(7)
    got = trim_to_budget(
        greedy_random_placement(candidates, 3, 2, "linf", torus, rng=rng_new),
        3, 2, "linf", torus, rng=rng_new,
    )
    want = ref_trim_to_budget(
        ref_greedy_random_placement(
            candidates, 3, 2, "linf", torus, rng=rng_ref
        ),
        3, 2, "linf", torus, rng=rng_ref,
    )
    assert list(got) == list(want)
    assert rng_new.getstate() == rng_ref.getstate()
