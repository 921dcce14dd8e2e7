"""Value model for give-and-take segment exchange.

A group of nodes each holds a subset of a fixed universe of data segments.
Two nodes may run a *full exchange* only when each offers at least one
segment the other lacks (the give-and-take criterion, ``a & ~b and b & ~a``);
afterwards both hold the union of their two sets.  This module provides the
substrate everything else runs on: segment sets as bit masks, problem
instances, links, the exchange kernel, schedule replay, and the
parity-aware upper bound on the aggregate cardinality.

The model is computed in one place.  Every activation in the library runs
through one kernel on a list of raw node masks, :func:`exchange`, which
updates the list in place and returns a raw record
``(i, j, gained_i, gained_j)`` of ints: the schedulers, schedule replay
(:func:`apply_schedule`) and the oracle's witness replay keep such a list,
collect the records into a :class:`Schedule`, and turn the masks into
:class:`SegmentSet` values only at the end.  The :class:`Link` view of a
schedule is built when it is read (:meth:`Schedule.link_list`), so no
activation constructs one.  :class:`Link`, :class:`SegmentSet`,
:class:`Instance` and :class:`Schedule` are the immutable values at the
API and file boundary; a final state is a tuple of segment sets.

Links are found over the *distinct* node sets: the stopping tests scan
them lazily (:func:`set_links`), while the greedy schedulers and the
oracle keep the holders of each distinct set (:func:`set_holders`) and
move them per activation.  Greedy-incremental and rarest-first move only
the holders (:func:`move_holders`), which reports a union's first holder:
greedy-incremental then files the union's linked pairs by gain and drops
dead ones as it reads them, and rarest-first meets the set pairs it needs
afresh each step.  Greedy-links and the oracle keep every linked set pair
too, give each set and union a rank slot that its pairs share, counted
from the one scan with no pass per key (:func:`rank_table`), and move
table and slots in one step, down or back (:func:`move_ranked`), so the
oracle walks one table through its search.  A pair's rank
(:func:`pair_ranks`), read from its three slots, folds the links it keeps
alive and then its gain into one int, so one argmax chooses.  The
schedulers expand only the set pairs they choose into node pairs
(:func:`node_pairs`), in no fixed order, and the tie rule orders them;
polygon's sweep and the oracle's replay run a set pair on its lowest
holders (:func:`exchange_lowest`).  Sizes are checked before any set is
built.

Node and segment indices are 0-based throughout the library; file formats
and CLI output use 1-based ids (see the harness module).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

MAX_SEGMENTS = 4096  # fixed mask width; larger universes are rejected at load
MAX_NODES = 2**20  # larger groups are rejected before any set is sampled
RANK_WIDTH = MAX_SEGMENTS + 1  # exceeds every set size (see rank_table)


class InvalidActivationError(ValueError):
    """A link activation was attempted where the exchange criterion fails."""


@dataclass(frozen=True)
class SegmentSet:
    """An immutable set of segment indices backed by a single bit mask."""

    mask: int = 0

    @classmethod
    def from_iterable(cls, indices: Iterable[int]) -> "SegmentSet":
        mask = 0
        for idx in indices:
            if idx < 0:
                raise ValueError(f"segment index must be non-negative, got {idx}")
            mask |= 1 << idx
        return cls(mask)

    def __iter__(self) -> Iterator[int]:
        mask = self.mask
        idx = 0
        while mask:
            if mask & 1:
                yield idx
            mask >>= 1
            idx += 1

    def __len__(self) -> int:
        return self.mask.bit_count()

    def to_list(self) -> list[int]:
        return list(self)

    def __repr__(self) -> str:
        return f"SegmentSet({self.to_list()})"


def is_int(value) -> bool:
    """True for an int that is not a bool: JSON's ``true`` and ``false`` load
    as bools, which are neither sizes nor ids."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_size(m: int, n: int) -> None:
    """Raise ValueError unless ``m`` nodes over ``n`` segments is an allowed size."""
    if not is_int(m) or not is_int(n):
        raise ValueError(f"sizes m and n must be integers, got m={m!r}, n={n!r}")
    if m < 2:
        raise ValueError(f"need at least two nodes, got m={m}")
    if m > MAX_NODES:
        raise ValueError(f"group size {m} exceeds the {MAX_NODES}-node cap")
    if n < 1:
        raise ValueError(f"universe needs at least one segment, got n={n}")
    if n > MAX_SEGMENTS:
        raise ValueError(f"universe size {n} exceeds the {MAX_SEGMENTS}-segment cap")


@dataclass(frozen=True)
class Instance:
    """A problem instance: ``m`` nodes over an ``n``-segment universe.

    Every node may start with any subset of the universe: a node that
    starts empty has nothing to give, and one holding the whole universe
    nothing to take, so neither ever links.
    """

    m: int
    n: int
    initial_sets: tuple[SegmentSet, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "initial_sets", tuple(self.initial_sets))
        check_size(self.m, self.n)
        if len(self.initial_sets) != self.m:
            raise ValueError(
                f"expected {self.m} initial sets, got {len(self.initial_sets)}"
            )
        full = (1 << self.n) - 1
        for i, s in enumerate(self.initial_sets):
            if s.mask & ~full:
                raise ValueError(
                    f"node {i} holds segments outside the {self.n}-segment universe"
                )

    @property
    def realized_universe(self) -> SegmentSet:
        """Union of all initial sets: the coverage actually present in the group."""
        mask = 0
        for s in self.initial_sets:
            mask |= s.mask
        return SegmentSet(mask)


@dataclass(frozen=True, order=True)
class Link:
    """An unordered node pair, stored canonically with ``i < j``."""

    i: int
    j: int

    def __post_init__(self) -> None:
        if self.i == self.j:
            raise ValueError(f"a link needs two distinct nodes, got ({self.i},{self.j})")
        if self.i < 0 or self.j < 0:
            raise ValueError(f"node indices must be non-negative, got ({self.i},{self.j})")
        if self.i > self.j:
            lo, hi = self.j, self.i
            object.__setattr__(self, "i", lo)
            object.__setattr__(self, "j", hi)

    def __repr__(self) -> str:
        return f"Link({self.i}, {self.j})"


Record = tuple[int, int, int, int]  # one activation: (i, j, gained_i, gained_j), i < j


@dataclass(frozen=True)
class Schedule:
    """An ordered activation trace; nonempty gains certify every step was legal.

    It keeps the raw records :func:`exchange` returns; the :class:`Link` view
    is built when it is read.
    """

    records: tuple[Record, ...] = ()

    def __len__(self) -> int:
        return len(self.records)

    def link_list(self) -> list[Link]:
        return [Link(i, j) for i, j, _, _ in self.records]


def _check_node(m: int, idx: int) -> None:
    if not 0 <= idx < m:
        raise ValueError(f"node index {idx} out of range for {m} nodes")


def set_links(masks: Iterable[int]) -> Iterator[tuple[int, int]]:
    """Every linked pair (x, y) of *distinct* masks among ``masks``.

    An exchange's outcome depends only on the two sets involved, and nodes
    holding the same set never link, so the schedulers score set pairs and
    expand only the ones they choose (:func:`node_pairs`).  Pairs come in a
    fixed order: by first appearance of ``x``, then of ``y``.  The scan is
    lazy, so ``next(set_links(masks), None)`` stops at the first link.
    """
    distinct = list(dict.fromkeys(masks))
    for at, x in enumerate(distinct):
        for y in distinct[at + 1 :]:
            t = x | y
            if t != x and t != y:
                yield x, y


Holders = dict[int, list[int]]  # distinct mask -> the nodes holding it


def node_pairs(
    holders: Holders, set_pairs: Iterable[tuple[int, int]]
) -> list[tuple[int, int]]:
    """Every node pair (i, j), i < j, whose two masks form one of ``set_pairs``,
    in no fixed order: the tie rule orders them.  ``set_pairs`` holds
    unordered pairs of distinct masks, each at most once (as
    :func:`set_links` yields them)."""
    return [
        (i, j) if i < j else (j, i)
        for x, y in set_pairs
        for i in holders[x]
        for j in holders[y]
    ]


def set_holders(masks: Sequence[int]) -> Holders:
    """The nodes holding each distinct mask of ``masks``, by first appearance."""
    holders: Holders = {}
    for i, mask in enumerate(masks):
        holders.setdefault(mask, []).append(i)
    return holders


def move_holders(holders: Holders, x: int, y: int, i: int, j: int) -> bool:
    """Move the holders of each distinct set (:func:`set_holders`) past the
    exchange of node ``i``, holding x, with node ``j``, holding y: both leave
    their sets for u = x|y, and a set left with no holder is dropped.  True
    when u had no holder before."""
    for old, node in ((x, i), (y, j)):
        holders[old].remove(node)
        if not holders[old]:
            del holders[old]
    first = (x | y) not in holders
    holders.setdefault(x | y, []).extend((i, j))
    return first


Slot = list[int]  # [R(K), linked pairs whose union is K], shared by reference
Slots = dict[int, Slot]  # distinct set or linked union K -> its slot
RankedPairs = dict[tuple[int, int], tuple[Slot, Slot, Slot]]  # (a, b) -> slots of a, b, a|b


def _count_ranks(holders: Holders, fresh: Iterable[tuple[int, Slot]]) -> None:
    """Set the rank of each ``(K, slot)`` of ``fresh`` to ``R(K)``, counted afresh."""
    distinct = [(z, len(held)) for z, held in holders.items()]
    for key, slot in fresh:
        count = 0
        for z, c in distinct:
            t = z | key
            if t != z and t != key:
                count += c
        slot[0] = count * RANK_WIDTH + key.bit_count()


def rank_table(masks: Sequence[int]) -> tuple[Holders, RankedPairs, Slots]:
    """The set table of ``masks`` with a rank slot ``[R(K), n]`` for each
    distinct set and linked union K, held by its pairs: ``R(K) =
    N(K)*RANK_WIDTH + |K|``, ``N(K)`` counting the nodes whose set is
    incomparable with K, and ``n`` the linked pairs whose union is K.

    Every N(K) comes from one pass over the pairs of distinct sets, with no
    scan per key.  N(z) for a set z is m less the holders of z and of every
    set comparable with it.  A union u = a|b that is not a set is comparable
    with a, b, the sets inside a or b, the sets above both, and the *split*
    sets, inside u but inside neither a nor b; u is counted from the first
    pair (a, b) met.  A split set w meets a - b and b - a, so it partially
    overlaps a or b, say a; then the other set holds all of d = w - a, and
    so d's lowest segment, looked up in an index from segment to sets.  A
    split set partially overlapping both is found from each, and counted
    from the lesser."""
    holders = set_holders(masks)
    m = len(masks)
    count = {z: len(held) for z, held in holders.items()}
    # each rank starts with m - N(K) = m less the holders of K, or of a and
    # b for a union first met as a|b, and loses RANK_WIDTH per holder of
    # another key comparable with K
    slots = {z: [(m - c) * RANK_WIDTH + z.bit_count(), 0] for z, c in count.items()}
    pairs: RankedPairs = {}
    made: dict[int, tuple[int, int]] = {}  # union not a set -> the first pair to make it
    below: dict[int, list[int]] = {}  # set -> the sets strictly inside it
    above: dict[int, list[int]] = {}  # set -> the sets strictly above it
    overlaps = []  # linked pairs that share a segment, both ways round
    distinct = list(holders)
    for at, x in enumerate(distinct):
        sx = slots[x]
        cx = count[x]
        for y in distinct[at + 1 :]:
            t = x | y
            if t != x and t != y:
                key = (x, y) if x < y else (y, x)
                w = slots.get(t)
                if w is None:
                    w = slots[t] = [(m - cx - count[y]) * RANK_WIDTH + t.bit_count(), 0]
                    made[t] = key
                sy = slots[y]
                pairs[key] = (sx, sy, w) if x < y else (sy, sx, w)
                w[1] += 1
                if x & y:
                    overlaps += (x, y), (y, x)
            else:
                inner, outer = (y, x) if t == x else (x, y)
                below.setdefault(outer, []).append(inner)
                above.setdefault(inner, []).append(outer)
                sx[0] -= count[y] * RANK_WIDTH
                slots[y][0] -= cx * RANK_WIDTH
    if overlaps:
        segment: dict[int, list[int]] = {}  # one-segment mask -> the sets holding it
        for z in distinct:
            rest = z
            while rest:
                low = rest & -rest
                segment.setdefault(low, []).append(z)
                rest ^= low
        for w, a in overlaps:  # w is split for (a, b) when b holds d but not w
            d = w & ~a
            for b in segment[d & -d]:
                if b & d == d and w & ~b and a & ~b and (a < b or not b & ~w):
                    t = a | b
                    if made.get(t) == ((a, b) if a < b else (b, a)):
                        slots[t][0] -= count[w] * RANK_WIDTH
    if below:
        for t, (a, b) in made.items():
            slots[t][0] -= RANK_WIDTH * (
                sum(count[z] for z in below.get(a, ()))
                + sum(count[z] for z in below.get(b, ()) if z | a != a)
                + sum(count[z] for z in above.get(a, ()) if z | b == z)
            )
    return holders, pairs, slots


def move_ranked(
    holders: Holders, pairs: RankedPairs, slots: Slots, x: int, y: int, i: int, j: int, sign: int
) -> None:
    """Move a rank table (:func:`rank_table`) in O(D) for D distinct sets
    past the exchange of node ``i``, holding x, with node ``j``, holding y,
    where both leave their sets for u = x|y (``sign = 1``), or back (``sign
    = -1``).  A set left with no holder drops its pairs, and one gaining its
    first holder gains its own, which take the slots already there; a key
    left neither a set nor a union loses its slot.  Then one pass moves
    every rank: N(K) moves by ``sign * (2*[u ~ K] - [x ~ K] - [y ~ K])``, so
    a key inside u loses ``[x ~ K] + [y ~ K]``, a key holding exactly one
    of x and y gains 1, and no other key moves.  Only the slots new to this
    step are counted afresh."""
    u = x | y
    fresh, gone = [], []
    moves = ((x, u, i), (y, u, j)) if sign > 0 else ((u, x, i), (u, y, j))
    for old, new, node in moves:  # one node at a time leaves old for new
        held = holders[old]
        held.remove(node)
        if not held:
            del holders[old]
            gone.append(old)
            for z in holders:
                t = z | old
                if t != z and t != old:
                    w = pairs.pop((z, old) if z < old else (old, z))[2]
                    w[1] -= 1
                    if not w[1]:
                        gone.append(t)
        held = holders.get(new)
        if held is None:
            if new not in slots:
                slots[new] = [0, 0]
                fresh.append((new, slots[new]))
            for z in holders:
                t = z | new
                if t != z and t != new:
                    w = slots.get(t)
                    if w is None:
                        w = slots[t] = [0, 0]
                        fresh.append((t, w))
                    w[1] += 1
                    a, b = (z, new) if z < new else (new, z)
                    pairs[a, b] = (slots[a], slots[b], w)
            holders[new] = [node]
        else:
            held.append(node)
    for key in gone:  # after both moves, so a key back in use keeps its slot
        if key not in holders and key in slots and not slots[key][1]:
            del slots[key]
    step = sign * RANK_WIDTH
    for key, s in slots.items():
        if key | u == u:
            t = key | x
            lost = t != key and t != x
            t = key | y
            lost += t != key and t != y
            if lost:
                s[0] -= lost * step
        elif (key | x == key) != (key | y == key):
            s[0] += step
    if fresh:
        _count_ranks(holders, fresh)


def pair_ranks(pairs: RankedPairs) -> list[int]:
    """Each linked set pair's rank ``2*R(a|b) - R(a) - R(b)``, in ``pairs``
    order: ``RANK_WIDTH*score + |a ^ b|``, where ``score = 2*N(a|b) - N(a) -
    N(b)`` is the number of links activating it leaves alive, less a
    constant, and ``|a ^ b|`` is its gain (the ``ginc`` weight).  So one
    :func:`argmax` makes greedy-links' choice, most links left alive, then
    the largest gain, and ``rank // RANK_WIDTH`` is the score."""
    return [2 * w[0] - a[0] - b[0] for a, b, w in pairs.values()]


def argmax(items: Iterable, weights: Sequence) -> list:
    """The items with the largest weight, in their given order."""
    best = max(weights)
    return [item for item, weight in zip(items, weights) if weight == best]


def exchange(masks: list[int], i: int, j: int) -> Record:
    """Full exchange between nodes ``i`` and ``j`` of ``masks``, in place.

    Both entries become the union of the two; the returned record
    ``(i, j, gained_i, gained_j)`` orders the pair ``i < j`` and gives what
    each endpoint gained as a mask.  Raises :class:`InvalidActivationError`
    and leaves ``masks`` unchanged when the give-and-take criterion fails
    (as it does for ``i == j``).  Callers pass in-range node ids.
    """
    if i > j:
        i, j = j, i
    a, b = masks[i], masks[j]
    gained_i, gained_j = b & ~a, a & ~b
    if not (gained_i and gained_j):
        raise InvalidActivationError(
            f"invalid activation: link ({i},{j}) does not satisfy "
            f"the give-and-take criterion"
        )
    masks[i] = masks[j] = a | b
    return i, j, gained_i, gained_j


def exchange_lowest(masks: list[int], x: int, y: int) -> Record:
    """:func:`exchange` between the lowest nodes holding the masks ``x`` and ``y``."""
    return exchange(masks, masks.index(x), masks.index(y))


def apply_schedule(
    instance: Instance, schedule: Iterable[Link]
) -> tuple[tuple[SegmentSet, ...], Schedule]:
    """Replay ``schedule`` from the instance's initial state.

    Returns the final segment set of every node and the enriched trace with
    per-step gains.
    Raises :class:`InvalidActivationError` naming the first step whose link
    was not available at its activation time.
    """
    masks = [s.mask for s in instance.initial_sets]
    records: list[Record] = []
    for idx, link in enumerate(schedule):
        _check_node(instance.m, link.i)
        _check_node(instance.m, link.j)
        try:
            records.append(exchange(masks, link.i, link.j))
        except InvalidActivationError:
            raise InvalidActivationError(
                f"invalid activation at step {idx + 1}: link ({link.i},{link.j})"
            ) from None
    return tuple(map(SegmentSet, masks)), Schedule(records=tuple(records))


def upper_bound(instance: Instance) -> int:
    """Parity-aware cap on the aggregate cardinality of every reachable state.

    Nodes holding the whole realized universe never change; new holders
    appear in pairs (a node's last activation hands the union to its
    partner as well), so at most an even number of the rest can still join
    them, and whoever does not tops out at ``u - 1`` segments, ``u`` being
    the realized-universe size.  Exchanges keep the realized universe, so
    every state reachable from the instance has this bound.  When no node
    starts with the whole realized universe it is ``m*u`` for even ``m``
    and ``m*u - 1`` for odd ``m``.
    """
    u_mask = instance.realized_universe.mask
    u_size = u_mask.bit_count()
    m = instance.m
    holders = sum(1 for s in instance.initial_sets if s.mask == u_mask)
    reachable = holders + ((m - holders) // 2) * 2
    return u_size * reachable + (u_size - 1) * (m - reachable)
