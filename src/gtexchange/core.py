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
oracle build a set table, the holders of each distinct set and every
linked set pair with its union, from that scan (:func:`set_table`); the
schedulers build it once per run and move it in O(D) per activation
(:func:`exchange_kept`).  Greedy-links and the oracle rank set pairs in
one kernel (:func:`rank_pairs`), by the links an activation keeps alive
and then its gain folded into one int per pair, and make greedy-links'
choice by the one greedy argmax (:func:`argmax`); the kernel moves its
ranks in place from state to state.  The schedulers expand only the set
pairs they choose into node pairs (:func:`node_pairs`); polygon's sweep and
the oracle's replay run a set pair on its lowest holders
(:func:`exchange_lowest`).  Sizes are checked before any set is built.

Node and segment indices are 0-based throughout the library; file formats
and CLI output use 1-based ids (see the harness module).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

MAX_SEGMENTS = 4096  # fixed mask width; larger universes are rejected at load
MAX_NODES = 2**20  # larger groups are rejected before any set is sampled
RANK_WIDTH = MAX_SEGMENTS + 1  # exceeds every set size (see rank_pairs)


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
SetPairs = dict[tuple[int, int], int]  # linked pair of distinct masks -> union


def node_pairs(
    holders: Holders, set_pairs: Iterable[tuple[int, int]]
) -> list[tuple[int, int]]:
    """Every node pair (i, j), i < j, whose two masks form one of ``set_pairs``,
    in ascending order.  ``set_pairs`` holds unordered pairs of distinct masks,
    each at most once (as :func:`set_links` yields them)."""
    pairs = [
        (i, j) if i < j else (j, i)
        for x, y in set_pairs
        for i in holders[x]
        for j in holders[y]
    ]
    pairs.sort()
    return pairs


def set_table(masks: Sequence[int]) -> tuple[Holders, SetPairs]:
    """The kept set table of ``masks``: the holders of each distinct mask and
    every linked pair of distinct masks, in :func:`set_links` order, with its
    union.  :func:`exchange_kept` keeps it current, so a scheduler picking
    one set pair per step scores the kept pairs instead of scanning again."""
    holders: Holders = {}
    for i, mask in enumerate(masks):
        holders.setdefault(mask, []).append(i)
    return holders, {(x, y): x | y for x, y in set_links(holders)}


def exchange_kept(
    masks: list[int], holders: Holders, pairs: SetPairs, i: int, j: int
) -> Record:
    """:func:`exchange`, moving the set table of ``masks`` along in O(D) for
    D distinct sets: a set left with no holder drops its pairs, and the
    union, when it is a new set, gains its own."""
    x, y = masks[i], masks[j]
    record = exchange(masks, i, j)
    for old, node in ((x, i), (y, j)):
        held = holders[old]
        held.remove(node)
        if not held:
            del holders[old]
            for z in holders:
                pairs.pop((old, z), None)
                pairs.pop((z, old), None)
    u = x | y
    held = holders.get(u)
    if held is None:
        for z in holders:
            t = z | u
            if t != z and t != u:
                pairs[z, u] = t
        holders[u] = [i, j]
    else:
        held += [i, j]
    return record


def rank_pairs(
    ranks: dict[int, int],
    unions: dict[int, int],
    holders: Holders,
    pairs: SetPairs,
    x: int,
    y: int,
) -> list[int]:
    """Rank every linked set pair (a, b) of a state's set table
    (:func:`set_table`) by greedy-links' choice, in ``pairs`` order: most
    links the activation leaves alive, then the largest immediate gain.

    ``ranks`` holds ``R(K) = N(K)*RANK_WIDTH + |K|`` for every distinct set
    and linked union K, where ``N(K)`` counts the nodes whose set is
    incomparable with K; ``RANK_WIDTH`` exceeds every set size, which is at
    most ``MAX_SEGMENTS``.  A pair's rank ``2*R(a|b) - R(a) - R(b)`` is then
    ``RANK_WIDTH*score + |a ^ b|``: ``score = 2*N(a|b) - N(a) - N(b)`` is the
    number of links activating it leaves alive, less a constant, and
    ``|a ^ b|`` is its gain (the ``ginc`` weight).  So one :func:`argmax`
    makes the choice, and ``rank // RANK_WIDTH`` is the score.  ``unions``
    counts the linked pairs behind each union, so a union no pair makes any
    more can be dropped.

    ``ranks`` and ``unions`` come from the state before, whose activated set
    pair was (x, y), and are moved in place; empty, both are counted afresh.
    One node moves from x and one from y to u = x|y, so N(K) moves by
    ``2*[u ~ K] - [x ~ K] - [y ~ K]``: a key inside u loses ``[x ~ K] +
    [y ~ K]``, a key holding exactly one of x and y (so not u) gains 1, and
    no other key moves.  Only u can be a new set, and only x and y can be
    gone, so only their pairs change; keys that are no longer a set or a
    union are dropped, and only keys not ranked yet are counted over the
    distinct sets."""
    if ranks:
        u = x | y
        for key, rank in ranks.items():
            if key | u == u:
                t = key | x
                lost = t != key and t != x
                t = key | y
                lost += t != key and t != y
                if lost:
                    ranks[key] = rank - lost * RANK_WIDTH
            elif (key | x == key) != (key | y == key):
                ranks[key] = rank + RANK_WIDTH
        fresh = []
        if len(holders[u]) == 2:  # u is a new set: its pairs are new
            for z in holders:
                t = z | u
                if t != z and t != u:
                    if t in unions:
                        unions[t] += 1
                    else:
                        unions[t] = 1
                        if t not in ranks:
                            fresh.append(t)
        gone = [old for old in (x, y) if old not in holders]
        dropped = [u] if len(gone) == 2 else []  # the union of (x, y) itself
        for old in gone:
            for z in holders:
                t = z | old
                if t != z and t != old:
                    dropped.append(t)
        for t in dropped:
            count = unions[t] - 1
            if count:
                unions[t] = count
            else:
                del unions[t]
                if t not in holders:
                    del ranks[t]
        for old in gone:
            if old not in unions:
                del ranks[old]
    else:
        for union in pairs.values():
            unions[union] = unions.get(union, 0) + 1
        fresh = {*holders, *unions}
    if fresh:
        distinct = [(z, len(held)) for z, held in holders.items()]
        for key in fresh:
            count = 0
            for z, c in distinct:
                t = z | key
                if t != z and t != key:
                    count += c
            ranks[key] = count * RANK_WIDTH + key.bit_count()
    return [2 * ranks[w] - ranks[a] - ranks[b] for (a, b), w in pairs.items()]


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
