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
``ginc`` and ``rare`` keep the holders of each distinct set, which each
activation moves (:func:`~gtexchange.core.move_holders`): ``ginc`` files
the linked set pairs by gain and drops dead ones as it reads them, and
``rare`` keeps the segments' holder classes too, meeting the set pairs it
needs afresh each step; ``glink`` keeps the linked set pairs with a rank
slot per set and union that its pairs share
(:func:`~gtexchange.core.rank_table`).  The final
masks become :class:`~gtexchange.core.SegmentSet` values once, at the end.
Each run is a pure function of (instance, seed, tie mode): ``rand`` draws
its phases from the seed, and under ``random`` ties ``glink``, ``ginc`` and
``rare`` draw their ties from it.  Distinct runs share no state, so
:func:`~gtexchange.harness.run_batch` splits a batch's runs between two
processes where it can.
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
    argmax,
    exchange,
    exchange_lowest,
    move_holders,
    move_ranked,
    node_pairs,
    pair_ranks,
    rank_table,
    set_holders,
    set_links,
)

ALGORITHM_LABELS = {
    "rand": "Randomized",
    "glink": "Greedy-Links",
    "poly": "Polygon",
    "ginc": "Greedy-Incremental",
    "rare": "Rarest-First",
}
ALGORITHM_IDS = tuple(ALGORITHM_LABELS)

# how ties left after a heuristic's own keys go: to the lowest node pair, or
# to a uniform draw from a generator seeded with the run's seed
TIE_MODES = ("lowest", "random")


def _tie_picker(tie_mode: str, seed: int) -> Callable[[list], tuple[int, int]]:
    """A function choosing one pair from a candidate list in no fixed order:
    the lowest, or a draw from the list in ascending order, so the tie rule
    alone orders the node pairs."""
    if tie_mode not in TIE_MODES:
        raise ValueError(f"unknown tie mode {tie_mode!r}")
    if tie_mode == "lowest":
        return min
    choice = random.Random(seed).choice
    return lambda candidates: choice(sorted(candidates))


@dataclass(frozen=True)
class AlgorithmRun:
    """Outcome of one algorithm execution on one instance; ``final_state``
    holds every node's segment set once the schedule has run."""

    algorithm: str
    schedule: Schedule
    final_state: tuple[SegmentSet, ...]
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
        final_state=tuple(map(SegmentSet, masks)),
        alpha=sum(mask.bit_count() for mask in masks),
        rounds=rounds,
        post_sweep_steps=post_sweep_steps,
    )


def _pair_round(masks: list[int], order: Sequence[int], records: list[Record]) -> int:
    """Exchange each linked pair of adjacent positions of ``order`` (1-2, 3-4,
    ...; an odd last node sits out) and return how many pairs exchanged.
    A pair is linked when each mask holds a segment the other lacks."""
    before = len(records)
    for i, j in zip(order[0::2], order[1::2]):
        a, b = masks[i], masks[j]
        t = a | b
        if t != a and t != b:
            records.append(exchange(masks, i, j))
    return len(records) - before


def _shuffle_draws(m: int) -> list[tuple[int, int]]:
    """The draws of a Fisher-Yates pass over ``m`` positions: each position
    ``i`` from ``m - 1`` down to 1 with its width ``(i + 1).bit_length()``."""
    return [(i, (i + 1).bit_length()) for i in range(m - 1, 0, -1)]


def _permute(
    order: list[int], draws: list[tuple[int, int]], bits: Callable[[int], int]
) -> None:
    """Fisher-Yates shuffle of ``order`` in place, from the bit source ``bits``.

    ``draws`` is ``_shuffle_draws(len(order))``.  For each position ``i`` and
    width: draw ``width`` bits, again while the result exceeds ``i``, and
    swap positions ``i`` and the result.  These are the draws
    ``random.shuffle`` makes through ``getrandbits``, so with
    ``bits = rng.getrandbits`` the order and the state ``rng`` is left in
    match ``rng.shuffle(order)``.
    """
    for i, width in draws:
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
    state are those of shuffling one list with that generator.  The draw
    widths depend on ``m`` alone and are computed once per run.  A phase
    that exchanged nothing leaves the masks as they were, so the scan for a
    remaining link runs once before the first phase and then only after a
    phase that exchanged.
    """
    bits = random.Random(seed).getrandbits
    masks = [s.mask for s in instance.initial_sets]
    records: list[Record] = []
    phases = 0
    order = list(range(instance.m))
    draws = _shuffle_draws(instance.m)
    linked = next(set_links(masks), None) is not None
    while linked:
        phases += 1
        _permute(order, draws, bits)
        if _pair_round(masks, order, records):
            linked = next(set_links(masks), None) is not None
    return _finish("rand", masks, records, rounds=phases)


def run_greedy_links(
    instance: Instance, tie_mode: str = "lowest", seed: int = 0
) -> AlgorithmRun:
    """Activate the link that leaves the most links alive afterwards.

    Write ``N(U)`` for the number of nodes whose set is incomparable with
    ``U``.  Activating (i, j), holding sets x and y, keeps every link not
    touching i or j, removes those that do (``N(x) + N(y) - 1`` of them),
    and adds one link from each endpoint to every node linking to the union
    ``x | y``: both endpoints end up holding it.  That leaves
    ``live + 1 - N(x) - N(y) + 2 * N(x | y)`` links, a function of the set
    pair alone, so each step scores the linked pairs of distinct sets.

    The linked set pairs are kept across steps, and so is a rank slot per
    set and union, shared by its pairs, that each step moves in place
    (:func:`~gtexchange.core.rank_table`, :func:`~gtexchange.core.move_ranked`).
    A step costs O(D) for the table, one pass over the K slots and one over
    the P pairs, reading three slots each, plus O(D) per new key.

    A pair's rank orders set pairs by that count, then by their immediate
    gain (the oracle's first choice too), so one argmax makes the choice,
    and the node pairs holding the set pairs tied on both go to the tie
    rule, which orders them.
    """
    pick = _tie_picker(tie_mode, seed)
    masks = [s.mask for s in instance.initial_sets]
    holders, pairs, slots = rank_table(masks)
    records: list[Record] = []
    while pairs:
        i, j = pick(node_pairs(holders, argmax(pairs, pair_ranks(pairs))))
        x, y = masks[i], masks[j]
        records.append(exchange(masks, i, j))
        move_ranked(holders, pairs, slots, x, y, i, j, 1)
    return _finish("glink", masks, records)


def run_greedy_incremental(
    instance: Instance, tie_mode: str = "lowest", seed: int = 0
) -> AlgorithmRun:
    """Activate the link with the largest immediate aggregate-cardinality gain.

    The gain of pairing i and j is ``2*|union| - |set_i| - |set_j|``: what
    both endpoints add in total, which is the size of the symmetric
    difference.  It depends on the two sets alone and never changes, so a
    linked set pair is filed by gain, keyed (lesser, greater), at the root
    (:func:`~gtexchange.core.set_links`) or when the later of its two sets
    gains its first holder (:func:`~gtexchange.core.move_holders`), and so
    every linked pair of current sets sits in its gain's bucket.  A step
    reads the top bucket, drops its dead pairs, those with a set no node
    holds, and the bucket too when none is live, and hands the node pairs
    of the live ones to the tie rule, which orders them.  A step costs O(D)
    for D distinct sets, plus the top bucket's pairs, each dead one dropped
    once, and the winning node pairs.
    """
    pick = _tie_picker(tie_mode, seed)
    masks = [s.mask for s in instance.initial_sets]
    holders = set_holders(masks)
    buckets: dict[int, set[tuple[int, int]]] = {}  # gain -> set pairs filed with it
    for a, b in set_links(holders):
        buckets.setdefault((a ^ b).bit_count(), set()).add((a, b) if a < b else (b, a))
    records: list[Record] = []
    while buckets:
        top = max(buckets)
        live = {(a, b) for a, b in buckets.pop(top) if a in holders and b in holders}
        if not live:
            continue
        buckets[top] = live
        i, j = pick(node_pairs(holders, live))
        x, y = masks[i], masks[j]
        records.append(exchange(masks, i, j))
        if move_holders(holders, x, y, i, j):
            u = x | y
            for z in holders:
                t = z | u
                if t != z and t != u:
                    buckets.setdefault((z ^ u).bit_count(), set()).add((z, u) if z < u else (u, z))
    return _finish("ginc", masks, records)


def run_rarest_first(
    instance: Instance, tie_mode: str = "lowest", seed: int = 0
) -> AlgorithmRun:
    """Grow the availability of the rarest segments first.

    Each step takes the available links with the largest preference row.
    A link's row is first an indicator that the activation would *not*
    hand the full ``n``-segment universe to the pair, then, for each holder
    count p = 1..m, how many segments currently held by exactly p nodes are
    held by exactly one endpoint (their availability would grow); rows
    compare lexicographically.  So links that avoid creating universe
    holders come first, then those that lift segments held by only one
    node, then by two, and so on.  The holder classes, ``classes[p]`` the
    mask of segments held by exactly p nodes, are kept across steps: each
    endpoint's gain lifts its segments one class up.

    A row depends on the two sets alone, so rows are compared over pairs of
    distinct sets, met afresh each step.  Empty classes compare equal, so
    the first count that matters is on the lowest non-empty class ``cls``,
    where a pair (x, y) counts ``|(x ^ y) & cls|``, at most the bound
    ``|x & cls| + |y & cls|``.  With the sets sorted by ``|z & cls|``,
    largest first, each meets the sets after it until the bound falls below
    the best count met, and the scan ends at the first set whose highest
    bound does (the threshold rule of Fagin, Lotem and Naor).  A pair met is
    linked when ``t = x | y`` is neither x nor y, and its indicator is
    ``t != full``: pairs whose union is the full universe compete only when
    no other linked pair exists, and then every pair was met.  The tied
    pairs go on through the later classes, one at a time, skipping empty
    ones and stopping once one set pair is left, and the node pairs holding
    the winners go to the tie rule, which orders them.  The run ends when
    no linked pair is met.
    """
    pick = _tie_picker(tie_mode, seed)
    masks = [s.mask for s in instance.initial_sets]
    m = instance.m
    full = (1 << instance.n) - 1
    classes = [full] + [0] * m
    for mask in masks:
        _lift(classes, mask, 0)
    holders = set_holders(masks)
    records: list[Record] = []
    while True:
        low = 1
        while low < m and not classes[low]:
            low += 1
        cls = classes[low]
        ranked = sorted([((z & cls).bit_count(), z) for z in holders], reverse=True)
        best = -1
        winners: list[tuple[int, int]] = []
        whole: list[tuple[int, int]] = []  # linked pairs with union full
        for at, (sx, x) in enumerate(ranked[:-1], 1):
            if sx + ranked[at][0] < best:
                break
            for sy, y in ranked[at:]:
                if sx + sy < best:
                    break
                t = x | y
                if t != x and t != y:
                    if t != full:
                        count = ((x ^ y) & cls).bit_count()
                        if count > best:
                            best = count
                            winners = [(x, y)]
                        elif count == best:
                            winners.append((x, y))
                    elif best < 0:
                        whole.append((x, y))
        p = low  # the class the winners were compared on
        if best < 0:
            if not whole:
                break
            winners, p = whole, low - 1
        while len(winners) > 1 and p < m:
            p += 1
            cls = classes[p]
            if cls:
                winners = argmax(winners, [((x ^ y) & cls).bit_count() for x, y in winners])
        i, j = pick(node_pairs(holders, winners))
        x, y = masks[i], masks[j]
        # each gained segment sits in class ``low`` or above, and no lower
        # than the holder count of the set it comes from
        starts = max(low, len(holders[y])), max(low, len(holders[x]))
        move_holders(holders, x, y, i, j)
        records.append(exchange(masks, i, j))
        for gained, start in zip(records[-1][2:], starts):
            _lift(classes, gained, start)
    return _finish("rare", masks, records)


def _lift(classes: list[int], gained: int, p: int) -> None:
    """Move each segment of ``gained`` from its holder class to the next,
    ``classes[p]`` being the mask of segments that exactly p nodes hold;
    no segment of ``gained`` sits below class ``p``."""
    while gained:
        moved = classes[p] & gained
        if moved:
            classes[p] ^= moved
            classes[p + 1] |= moved
            gained ^= moved
        p += 1


def find_unique_set(masks: Sequence[int]) -> list[int]:
    """Greedy pass admitting nodes that keep at least one unique segment.

    Scanning the node masks in ascending index order, node i joins when it
    holds a segment outside the union of the members so far *and* every
    member so far still holds a segment outside node i's set.  Any two
    admitted nodes therefore satisfy the give-and-take criterion with each
    other.
    """
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
    with the fewest lands rightmost; ties break by ascending node index.  A
    segment is unique when one member holds it: in ``once``, not ``twice``."""
    once = twice = 0
    for i in members:
        twice |= once & masks[i]
        once |= masks[i]
    unique = once & ~twice
    return sorted(members, key=lambda i: (-(masks[i] & unique).bit_count(), i))


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
        members = find_unique_set(masks)
        if len(members) < 2:
            break
        order = _polygon_order(masks, members)
        for _ in range((len(members) - 1) // 2 + 1):
            _pair_round(masks, order, records)
            order = order[1:] + order[:1]
            rounds += 1
    post_sweep = 0
    # The first set pair scanned holds the lowest node pair: its first set is
    # the earliest one with a link, its second the earliest linked to that.
    while first := next(set_links(masks), None):
        records.append(exchange_lowest(masks, *first))
        post_sweep += 1
    return _finish("poly", masks, records, rounds=rounds, post_sweep_steps=post_sweep)


def run_algorithm(
    algorithm: str,
    instance: Instance,
    *,
    seed: int = 0,
    tie_mode: str = "lowest",
) -> AlgorithmRun:
    """Dispatch by algorithm id (one of :data:`ALGORITHM_IDS`).  ``rand``
    draws its phases from ``seed``; ``glink``, ``ginc`` and ``rare`` draw
    their ties from it under ``random`` ties; ``poly`` draws nothing."""
    if tie_mode not in TIE_MODES:
        raise ValueError(f"unknown tie mode {tie_mode!r}")
    if algorithm == "rand":
        return run_randomized(instance, seed)
    if algorithm == "glink":
        return run_greedy_links(instance, tie_mode, seed)
    if algorithm == "poly":
        return run_polygon(instance)
    if algorithm == "ginc":
        return run_greedy_incremental(instance, tie_mode, seed)
    if algorithm == "rare":
        return run_rarest_first(instance, tie_mode, seed)
    raise ValueError(f"unknown algorithm id {algorithm!r}")
