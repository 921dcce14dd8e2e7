"""Scheduling heuristics that drive a group of nodes to a maximal state.

Five strategies, all consuming an :class:`~gtexchange.core.Instance` and
emitting a maximal schedule plus the final state:

* ``rand``  -- randomized phase pairing,
* ``glink`` -- greedy on the number of links the activation leaves alive,
* ``poly``  -- round-robin pairing over the nodes that hold unique segments,
* ``ginc``  -- greedy on the immediate aggregate-cardinality gain,
* ``rare``  -- rarest-first availability balancing.

Each run is a pure function of (instance, seed / tie rule); distinct runs
may execute concurrently with no shared state.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence

from .core import (
    Instance,
    Link,
    Schedule,
    ScheduleStep,
    SystemState,
    _LinkKernel,
    activate_traced,
    aggregate_cardinality,
    gt_satisfied,
    initial_state,
)

TIE_LOWEST = "lowest"
TIE_RANDOM = "random"

ALGORITHM_IDS = ("rand", "glink", "poly", "ginc", "rare")

ALGORITHM_LABELS = {
    "rand": "Randomized",
    "glink": "Greedy-Links",
    "poly": "Polygon",
    "ginc": "Greedy-Incremental",
    "rare": "Rarest-First",
}


@dataclass(frozen=True)
class TieRule:
    """How argmax ties between candidate links are resolved.

    The rule applies to the pairs still tied after a heuristic's own keys
    (for ``glink``: links left alive, then the immediate gain).  ``lowest``
    picks the canonically smallest (i, j) pair, giving fully deterministic
    runs; ``random`` picks uniformly with its own seed.
    """

    mode: str = TIE_LOWEST
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.mode not in (TIE_LOWEST, TIE_RANDOM):
            raise ValueError(f"unknown tie rule {self.mode!r}")

    def picker(self) -> Callable[[Sequence[tuple[int, int]]], tuple[int, int]]:
        """Return a function choosing one pair from a sorted candidate list."""
        if self.mode == TIE_LOWEST:
            return lambda candidates: candidates[0]
        rng = random.Random(self.seed)
        return rng.choice


@dataclass(frozen=True)
class AlgorithmRun:
    """Outcome of one algorithm execution on one instance."""

    algorithm: str
    schedule: Schedule
    final_state: SystemState
    alpha: int
    rounds: int | None = None
    post_sweep_steps: int = 0


def _finish(
    algorithm: str,
    state: SystemState,
    steps: list[ScheduleStep],
    rounds: int | None = None,
    post_sweep_steps: int = 0,
) -> AlgorithmRun:
    return AlgorithmRun(
        algorithm=algorithm,
        schedule=Schedule(steps=tuple(steps)),
        final_state=state,
        alpha=aggregate_cardinality(state),
        rounds=rounds,
        post_sweep_steps=post_sweep_steps,
    )


def _gain(masks: Sequence[int], i: int, j: int) -> int:
    """Segments nodes i and j gain in total by exchanging."""
    return 2 * (masks[i] | masks[j]).bit_count() - masks[i].bit_count() - masks[j].bit_count()


def run_randomized(instance: Instance, seed: int) -> AlgorithmRun:
    """Random phase pairing: every phase pairs all nodes up uniformly at random.

    A phase draws one random permutation of the nodes and consumes it two at
    a time; a pair exchanges when it currently has a link and is set aside
    either way (with an odd node count the leftover node sits the phase out).
    Phases repeat while any link remains.
    """
    rng = random.Random(seed)
    state = initial_state(instance)
    kernel = _LinkKernel(state.masks())
    steps: list[ScheduleStep] = []
    phases = 0
    order = list(range(instance.m))
    while kernel.live:
        phases += 1
        rng.shuffle(order)
        for at in range(0, instance.m - 1, 2):
            i, j = order[at], order[at + 1]
            if gt_satisfied(state, i, j):
                state, step = activate_traced(state, Link(i, j))
                kernel.activate(i, j)
                steps.append(step)
    return _finish("rand", state, steps, rounds=phases)


def _third_count(masks: Sequence[int], union: int) -> int:
    """Nodes that would link to a pair holding ``union`` (never the pair itself)."""
    return len([x for x in masks if x & ~union and union & ~x])


def run_greedy_links(instance: Instance, tie: TieRule = TieRule()) -> AlgorithmRun:
    """Activate the link that leaves the most links alive afterwards.

    Activating (i, j) keeps every link not touching i or j, removes those
    that do, and adds one link from each endpoint to every third node t
    that links to the union ``set_i | set_j``: both endpoints end up
    holding it.  The weight ``live - deg(i) - deg(j) + 1 + 2 * third(i, j)``
    therefore costs O(1) per pair, given the cached count ``third(i, j)``
    of such nodes t.  After an activation only the counts of pairs touching
    i or j are recounted (one count per third node t, shared by (i, t) and
    (j, t)); every other linked pair keeps its union and only changes
    through the terms for t = i and t = j.  A step costs O(m^2).

    Pairs tied on that count are ordered by their immediate gain
    ``2*|union| - |set_i| - |set_j|``, larger first (the ``ginc`` weight),
    and only pairs tied on both go to the tie rule.  The gain depends on the
    node sets, not on how the nodes are numbered; with it, every tie path
    reaches the exact optimum on every four-node equal-size instance with
    n <= 7, where the pair order alone misses it on some of them.
    """
    pick = tie.picker()
    state = initial_state(instance)
    kernel = _LinkKernel(state.masks())
    masks, nbr = kernel.masks, kernel.nbr
    steps: list[ScheduleStep] = []
    m = instance.m
    third = [[0] * m for _ in range(m)]
    for i, j in kernel.pairs():
        third[i][j] = _third_count(masks, masks[i] | masks[j])
    while kernel.live:
        available = kernel.pairs()
        degree = [row.bit_count() for row in nbr]
        untouched = kernel.live + 1
        best_weight = -1
        candidates: list[tuple[int, int]] = []
        for i, j in available:
            weight = untouched - degree[i] - degree[j] + 2 * third[i][j]
            if weight > best_weight:
                best_weight = weight
                candidates = [(i, j)]
            elif weight == best_weight:
                candidates.append((i, j))
        gains = [_gain(masks, i, j) for i, j in candidates]
        best_gain = max(gains)
        candidates = [p for p, g in zip(candidates, gains) if g == best_gain]
        i, j = pick(candidates)
        old_i, old_j = masks[i], masks[j]
        state, step = activate_traced(state, Link(i, j))
        steps.append(step)
        kernel.activate(i, j)
        if not kernel.live:
            break
        union = masks[i]
        for a, b in available:
            if a == i or a == j or b == i or b == j:
                continue
            # t = i and t = j each counted iff their old set was incomparable
            # with v, and now count iff the union is
            v = masks[a] | masks[b]
            if v & ~union:
                if union & ~v:
                    # incomparable with the union, so inside neither old set
                    third[a][b] += (old_i & v == old_i) + (old_j & v == old_j)
                # else v holds the union and both old sets: nothing changes
            else:
                if v & ~old_i and old_i & ~v:
                    third[a][b] -= 1
                if v & ~old_j and old_j & ~v:
                    third[a][b] -= 1
        row = nbr[i]
        for t in range(m):
            if not row >> t & 1:
                continue
            count = _third_count(masks, union | masks[t])
            third[min(i, t)][max(i, t)] = count
            third[min(j, t)][max(j, t)] = count
    return _finish("glink", state, steps)


def run_greedy_incremental(instance: Instance, tie: TieRule = TieRule()) -> AlgorithmRun:
    """Activate the link with the largest immediate aggregate-cardinality gain.

    The gain of pairing i and j is ``2*|union| - |set_i| - |set_j|``: what
    both endpoints add in total.
    """
    pick = tie.picker()
    state = initial_state(instance)
    kernel = _LinkKernel(state.masks())
    masks = kernel.masks
    steps: list[ScheduleStep] = []
    while kernel.live:
        best_weight = -1
        candidates: list[tuple[int, int]] = []
        for i, j in kernel.pairs():
            weight = _gain(masks, i, j)
            if weight > best_weight:
                best_weight = weight
                candidates = [(i, j)]
            elif weight == best_weight:
                candidates.append((i, j))
        i, j = pick(candidates)
        state, step = activate_traced(state, Link(i, j))
        steps.append(step)
        kernel.activate(i, j)
    return _finish("ginc", state, steps)


def _holder_classes(masks: Sequence[int], n: int) -> list[int]:
    """Masks of the ``n``-universe's segments held by exactly 1, 2, ..., m nodes."""
    classes = [0] * (len(masks) + 1)
    for e in range(n):
        bit = 1 << e
        classes[sum(1 for mask in masks if mask & bit)] |= bit
    return classes[1:]


def rarest_first_rows(state: SystemState, n: int) -> dict[Link, tuple[int, ...]]:
    """Preference row for every available link, as compared by rarest-first.

    Row layout: first an indicator that the activation would *not* hand the
    full ``n``-segment universe to the pair, then, for each holder count
    p = 1..m, how many segments currently held by exactly p nodes are held
    by exactly one endpoint (their availability would grow).  Rows compare
    lexicographically, larger is preferred.
    """
    kernel = _LinkKernel(state.masks())
    masks = kernel.masks
    full = (1 << n) - 1
    classes = _holder_classes(masks, n)
    rows: dict[Link, tuple[int, ...]] = {}
    for i, j in kernel.pairs():
        sym = masks[i] ^ masks[j]
        rows[Link(i, j)] = (1 if masks[i] | masks[j] != full else 0,) + tuple(
            (sym & cls).bit_count() for cls in classes
        )
    return rows


def run_rarest_first(instance: Instance, tie: TieRule = TieRule()) -> AlgorithmRun:
    """Grow the availability of the rarest segments first.

    Each step takes the available links with the largest preference row
    (see :func:`rarest_first_rows`): avoid creating universe holders, then
    favor links that lift segments held by only one node, then by two, and
    so on.  Rows are compared as a cascade, one entry at a time over the
    links still tied, skipping empty holder classes and stopping once one
    link is left; the ascending pair order of the candidates survives, so
    the tie rule sees what a full lexicographic argmax would give it.
    """
    pick = tie.picker()
    state = initial_state(instance)
    kernel = _LinkKernel(state.masks())
    masks = kernel.masks
    full = (1 << instance.n) - 1
    steps: list[ScheduleStep] = []
    while kernel.live:
        candidates = kernel.pairs()
        keep = [(i, j) for i, j in candidates if masks[i] | masks[j] != full]
        if keep:
            candidates = keep
        for cls in _holder_classes(masks, instance.n):
            if len(candidates) == 1:
                break
            if not cls:
                continue
            counts = [((masks[i] ^ masks[j]) & cls).bit_count() for i, j in candidates]
            top = max(counts)
            candidates = [p for p, c in zip(candidates, counts) if c == top]
        i, j = pick(candidates)
        state, step = activate_traced(state, Link(i, j))
        steps.append(step)
        kernel.activate(i, j)
    return _finish("rare", state, steps)


def find_unique_set(state: SystemState) -> list[int]:
    """Greedy pass admitting nodes that keep at least one unique segment.

    Scanning nodes in ascending index order, node i joins when it holds a
    segment outside the union of the members so far *and* every member so
    far still holds a segment outside node i's set.  Any two admitted nodes
    therefore satisfy the give-and-take criterion with each other.
    """
    chosen: list[int] = []
    union_mask = 0
    for i, segment_set in enumerate(state.sets):
        mask = segment_set.mask
        if mask & ~union_mask == 0:
            continue
        if any(state.sets[j].mask & ~mask == 0 for j in chosen):
            continue
        chosen.append(i)
        union_mask |= mask
    return chosen


def _polygon_order(state: SystemState, members: list[int]) -> list[int]:
    """Starting permutation: descending count of unique segments, so the node
    with the fewest lands rightmost; ties break by ascending node index."""
    counts = {}
    for i in members:
        others = 0
        for j in members:
            if j != i:
                others |= state.sets[j].mask
        counts[i] = (state.sets[i].mask & ~others).bit_count()
    return sorted(members, key=lambda i: (-counts[i], i))


def run_polygon(instance: Instance) -> AlgorithmRun:
    """Round-robin pairing over the unique-segment holders.

    While at least two nodes hold unique segments: order them with the
    fewest-unique node rightmost, then repeatedly pair adjacent positions
    (1-2, 3-4, ...) and left-circular-shift the order between rounds, for
    floor((size-1)/2)+1 rounds.  Pairs whose link has meanwhile vanished are
    skipped.  The unique-holder set is then recomputed and the loop repeats;
    a final deterministic sweep (lowest pair first) activates any leftover
    links so the run always ends maximal.
    """
    state = initial_state(instance)
    steps: list[ScheduleStep] = []
    rounds = 0
    while True:
        members = find_unique_set(state)
        if len(members) < 2:
            break
        order = _polygon_order(state, members)
        for _ in range((len(members) - 1) // 2 + 1):
            for at in range(0, len(order) - 1, 2):
                i, j = order[at], order[at + 1]
                if gt_satisfied(state, i, j):
                    state, step = activate_traced(state, Link(i, j))
                    steps.append(step)
            order = order[1:] + order[:1]
            rounds += 1
    post_sweep = 0
    kernel = _LinkKernel(state.masks())
    while kernel.live:
        i, j = kernel.pairs()[0]
        state, step = activate_traced(state, Link(i, j))
        steps.append(step)
        kernel.activate(i, j)
        post_sweep += 1
    return _finish("poly", state, steps, rounds=rounds, post_sweep_steps=post_sweep)


def run_algorithm(
    algorithm: str,
    instance: Instance,
    *,
    seed: int = 0,
    tie: TieRule = TieRule(),
) -> AlgorithmRun:
    """Dispatch by algorithm id (one of ``rand glink poly ginc rare``)."""
    if algorithm == "rand":
        return run_randomized(instance, seed)
    if algorithm == "glink":
        return run_greedy_links(instance, tie)
    if algorithm == "poly":
        return run_polygon(instance)
    if algorithm == "ginc":
        return run_greedy_incremental(instance, tie)
    if algorithm == "rare":
        return run_rarest_first(instance, tie)
    raise ValueError(f"unknown algorithm id {algorithm!r}")
