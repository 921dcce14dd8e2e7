"""Scheduling heuristics that drive a group of nodes to a maximal state.

Five strategies, all consuming an :class:`~gtexchange.core.Instance` and
emitting a maximal schedule plus the final state:

* ``rand``  -- randomized phase pairing,
* ``glink`` -- greedy on the number of links the activation leaves alive,
* ``poly``  -- round-robin pairing over the nodes that hold unique segments,
* ``ginc``  -- greedy on the immediate aggregate-cardinality gain,
* ``rare``  -- rarest-first availability balancing.

Every scheduler keeps the node masks as one list of ints and activates
through :func:`~gtexchange.core.exchange`, which updates the list in place
and returns the raw step record the run's schedule keeps;
``glink``, ``ginc`` and ``rare`` also keep the linked set pairs in a set
table (:func:`~gtexchange.core.set_table`) that each activation moves
(:func:`~gtexchange.core.exchange_kept`).  The final
:class:`~gtexchange.core.SystemState` is built once, at the end.
Each run is a pure function of (instance, seed / tie rule); distinct runs
may execute concurrently with no shared state.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence

from .core import (
    Instance,
    Record,
    Schedule,
    SegmentSet,
    SystemState,
    count_incomparable,
    exchange,
    exchange_kept,
    gt_masks,
    move_incomparable,
    node_pairs,
    set_links,
    set_table,
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
    masks: list[int],
    records: list[Record],
    rounds: int | None = None,
    post_sweep_steps: int = 0,
) -> AlgorithmRun:
    return AlgorithmRun(
        algorithm=algorithm,
        schedule=Schedule(records=tuple(records)),
        final_state=SystemState(sets=tuple(map(SegmentSet, masks)), step=len(records)),
        alpha=sum(mask.bit_count() for mask in masks),
        rounds=rounds,
        post_sweep_steps=post_sweep_steps,
    )


def _argmax(pairs: list, weights: list[int]) -> list:
    """The pairs with the largest weight, in their given order."""
    best = max(weights)
    return [p for p, w in zip(pairs, weights) if w == best]


def _permute(order: list[int], bits: Callable[[int], int]) -> None:
    """Fisher-Yates shuffle of ``order`` in place, from the bit source ``bits``.

    For ``i`` from ``len(order) - 1`` down to 1: draw ``(i + 1).bit_length()``
    bits, again while the result exceeds ``i``, and swap positions ``i`` and
    the result.  These are the draws ``random.shuffle`` makes through
    ``getrandbits``, so with ``bits = rng.getrandbits`` the order and the
    state ``rng`` is left in match ``rng.shuffle(order)``.
    """
    for i in range(len(order) - 1, 0, -1):
        width = (i + 1).bit_length()
        r = bits(width)
        while r > i:
            r = bits(width)
        order[i], order[r] = order[r], order[i]


def run_randomized(instance: Instance, seed: int) -> AlgorithmRun:
    """Random phase pairing: every phase pairs all nodes up uniformly at random.

    A phase draws one random permutation of the nodes and consumes it two at
    a time; a pair exchanges when it currently has a link and is set aside
    either way (with an odd node count the leftover node sits the phase out).
    Phases repeat while any link remains.

    Each phase's permutation is a Fisher-Yates pass (:func:`_permute`) over
    the previous phase's order, drawn from ``random.Random(seed).getrandbits``:
    the same draws ``random.shuffle`` makes, so the orders and the generator
    state are those of shuffling one list with that generator.  A phase that
    exchanged nothing leaves the masks as they were, so the scan for a
    remaining link runs once before the first phase and then only after a
    phase that exchanged.
    """
    bits = random.Random(seed).getrandbits
    masks = [s.mask for s in instance.initial_sets]
    records: list[Record] = []
    phases = 0
    order = list(range(instance.m))
    linked = next(set_links(masks), None) is not None
    while linked:
        phases += 1
        _permute(order, bits)
        before = len(records)
        for at in range(0, instance.m - 1, 2):
            i, j = order[at], order[at + 1]
            if gt_masks(masks[i], masks[j]):
                records.append(exchange(masks, i, j))
        if len(records) > before:
            linked = next(set_links(masks), None) is not None
    return _finish("rand", masks, records, rounds=phases)


def run_greedy_links(instance: Instance, tie: TieRule = TieRule()) -> AlgorithmRun:
    """Activate the link that leaves the most links alive afterwards.

    Write ``N(U)`` for the number of nodes whose set is incomparable with
    ``U``.  Activating (i, j), holding sets x and y, keeps every link not
    touching i or j, removes those that do (``N(x) + N(y) - 1`` of them),
    and adds one link from each endpoint to every node linking to the union
    ``x | y``: both endpoints end up holding it.  That leaves
    ``live + 1 - N(x) - N(y) + 2 * N(x | y)`` links, a function of the set
    pair alone, so each step scores the linked pairs of distinct sets.

    The linked set pairs are kept across steps (:func:`~gtexchange.core.set_table`),
    and ``N`` is kept for every distinct set and linked union: an activation
    moves only the keys comparable with x, y or x|y
    (:func:`~gtexchange.core.move_incomparable`), and a new key is counted
    over the D distinct sets.  A step costs O(D) for the table, one pass
    over the kept pairs and keys, plus O(D) per new key.

    Set pairs tied on that count are ordered by their immediate gain
    ``2*|x | y| - |x| - |y| = |x ^ y|``, larger first (the ``ginc``
    weight), and the node pairs holding the set pairs tied on both go, in
    ascending order, to the tie rule.  The gain depends on the node sets,
    not on how the nodes are numbered; with it, every tie path reaches the
    exact optimum on every four-node equal-size instance with n <= 7, where
    the pair order alone misses it on some of them.
    """
    pick = tie.picker()
    masks = [s.mask for s in instance.initial_sets]
    holders, pairs = set_table(masks)
    incomparable: dict[int, int] = {}  # N; current for the keys in kept only
    kept: set[int] = set()  # the keys of the step before
    x = y = 0  # the last activation; nothing is kept before the first
    records: list[Record] = []
    while pairs:
        keys = {*holders, *pairs.values()}
        move_incomparable(incomparable, keys & kept, x, y)
        distinct = [(z, len(held)) for z, held in holders.items()]
        count_incomparable(incomparable, distinct, keys - kept)
        kept = keys
        # live + 1 is common to every pair
        winners = _argmax(
            list(pairs),
            [
                2 * incomparable[w] - incomparable[a] - incomparable[b]
                for (a, b), w in pairs.items()
            ],
        )
        winners = _argmax(winners, [(a ^ b).bit_count() for a, b in winners])
        i, j = pick(node_pairs(holders, winners))
        x, y = masks[i], masks[j]
        records.append(exchange_kept(masks, holders, pairs, i, j))
    return _finish("glink", masks, records)


def run_greedy_incremental(instance: Instance, tie: TieRule = TieRule()) -> AlgorithmRun:
    """Activate the link with the largest immediate aggregate-cardinality gain.

    The gain of pairing i and j is ``2*|union| - |set_i| - |set_j|``: what
    both endpoints add in total, which is the size of the symmetric
    difference.  It depends on the two sets alone, so each step scores the
    kept linked pairs of distinct sets and hands the node pairs of the best
    ones, in ascending order, to the tie rule.
    """
    pick = tie.picker()
    masks = [s.mask for s in instance.initial_sets]
    holders, pairs = set_table(masks)
    records: list[Record] = []
    while pairs:
        winners = _argmax(list(pairs), [(x ^ y).bit_count() for x, y in pairs])
        i, j = pick(node_pairs(holders, winners))
        records.append(exchange_kept(masks, holders, pairs, i, j))
    return _finish("ginc", masks, records)


def _holders(masks: Sequence[int], n: int) -> list[int]:
    """How many of ``masks`` hold each segment of the ``n``-universe."""
    return [sum(mask >> e & 1 for mask in masks) for e in range(n)]


def _holder_classes(holders: Sequence[int], m: int) -> list[int]:
    """Masks of the segments held by exactly 0, 1, ..., m nodes."""
    classes = [0] * (m + 1)
    for e, count in enumerate(holders):
        classes[count] |= 1 << e
    return classes


def run_rarest_first(instance: Instance, tie: TieRule = TieRule()) -> AlgorithmRun:
    """Grow the availability of the rarest segments first.

    Each step takes the available links with the largest preference row.
    A link's row is first an indicator that the activation would *not*
    hand the full ``n``-segment universe to the pair, then, for each holder
    count p = 1..m, how many segments currently held by exactly p nodes are
    held by exactly one endpoint (their availability would grow); rows
    compare lexicographically.  So links that avoid creating universe
    holders come first, then those that lift segments held by only one
    node, then by two, and so on.  A row depends on the two sets alone, so
    rows are compared over the linked pairs of distinct sets, as a cascade:
    one entry at a time over the set pairs still tied, skipping empty holder
    classes and stopping once one set pair is left.  The node pairs holding
    the winners go, in ascending order, to the tie rule.  The holder count
    of each segment is kept across steps and moved by the two endpoints'
    gains.
    """
    pick = tie.picker()
    masks = [s.mask for s in instance.initial_sets]
    full = (1 << instance.n) - 1
    holders = _holders(masks, instance.n)
    classes = _holder_classes(holders, instance.m)
    nodes, pairs = set_table(masks)  # holders here count segments
    records: list[Record] = []
    while pairs:
        candidates = [pair for pair, u in pairs.items() if u != full] or list(pairs)
        for cls in classes[1:]:
            if len(candidates) == 1:
                break
            if cls:
                candidates = _argmax(
                    candidates, [((x ^ y) & cls).bit_count() for x, y in candidates]
                )
        i, j = pick(node_pairs(nodes, candidates))
        record = exchange_kept(masks, nodes, pairs, i, j)
        records.append(record)
        for gained in record[2:]:
            while gained:
                bit = gained & -gained
                gained ^= bit
                e = bit.bit_length() - 1
                classes[holders[e]] ^= bit
                holders[e] += 1
                classes[holders[e]] |= bit
    return _finish("rare", masks, records)


def find_unique_set(state: SystemState) -> list[int]:
    """Greedy pass admitting nodes that keep at least one unique segment.

    Scanning nodes in ascending index order, node i joins when it holds a
    segment outside the union of the members so far *and* every member so
    far still holds a segment outside node i's set.  Any two admitted nodes
    therefore satisfy the give-and-take criterion with each other.
    """
    return _unique_set(state.masks())


def _unique_set(masks: Sequence[int]) -> list[int]:
    """:func:`find_unique_set` on raw node masks."""
    chosen: list[int] = []
    union_mask = 0
    for i, mask in enumerate(masks):
        if mask & ~union_mask == 0:
            continue
        if any(masks[j] & ~mask == 0 for j in chosen):
            continue
        chosen.append(i)
        union_mask |= mask
    return chosen


def _polygon_order(masks: Sequence[int], members: list[int]) -> list[int]:
    """Starting permutation: descending count of unique segments, so the node
    with the fewest lands rightmost; ties break by ascending node index."""
    counts = {}
    for i in members:
        others = 0
        for j in members:
            if j != i:
                others |= masks[j]
        counts[i] = (masks[i] & ~others).bit_count()
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
    masks = [s.mask for s in instance.initial_sets]
    records: list[Record] = []
    rounds = 0
    while True:
        members = _unique_set(masks)
        if len(members) < 2:
            break
        order = _polygon_order(masks, members)
        for _ in range((len(members) - 1) // 2 + 1):
            for at in range(0, len(order) - 1, 2):
                i, j = order[at], order[at + 1]
                if gt_masks(masks[i], masks[j]):
                    records.append(exchange(masks, i, j))
            order = order[1:] + order[:1]
            rounds += 1
    post_sweep = 0
    # The first set pair scanned holds the lowest node pair: its first set is
    # the earliest one with a link, its second the earliest linked to that.
    while first := next(set_links(masks), None):
        records.append(exchange(masks, masks.index(first[0]), masks.index(first[1])))
        post_sweep += 1
    return _finish("poly", masks, records, rounds=rounds, post_sweep_steps=post_sweep)


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
