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
(:func:`exchange_kept`).  Greedy-links and the oracle score set pairs by
the links an activation keeps alive in one place (:func:`links_alive`)
and make greedy-links' choice in one place (:func:`best_set_pairs`), by
the one greedy argmax (:func:`argmax`).  The schedulers expand only the set
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
        outside = ~x
        for y in distinct[at + 1 :]:
            if y & outside and x & ~y:
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
        outside = ~u
        for z in holders:
            if z & outside and u & ~z:
                pairs[z, u] = z | u
        holders[u] = [i, j]
    else:
        held += [i, j]
    return record


def links_alive(
    holders: Holders, pairs: SetPairs, before: dict[int, int], x: int, y: int
) -> tuple[list[int], dict[int, int]]:
    """Score every linked set pair (a, b) of a state's set table
    (:func:`set_table`) by the links activating it leaves alive, up to a
    constant: ``2*N(a|b) - N(a) - N(b)``, in ``pairs`` order, where ``N(K)``
    counts the nodes whose set is incomparable with K.  Also returns N over
    the state's distinct sets (the keys of ``holders``) and linked unions.

    ``before`` holds N of the state before, whose activated set pair was
    (x, y); empty when there is none.  A key found there is moved: one node
    moves from x and one from y to x|y, so N(K) moves by
    ``2*[x|y ~ K] - [x ~ K] - [y ~ K]``, which is 0 unless K is comparable
    with x, y or x|y.  Any other key is counted over the distinct sets."""
    u = x | y
    distinct = [(z, len(held)) for z, held in holders.items()]
    incomparable: dict[int, int] = {}
    for key in {*holders, *pairs.values()}:
        value = before.get(key)
        outside = ~key
        if value is None:
            value = 0
            for z, c in distinct:
                if z & outside and key & ~z:
                    value += c
        elif not key & ~u:
            value -= (key & ~x != 0 and x & outside != 0) + (
                key & ~y != 0 and y & outside != 0
            )
        elif (not x & outside or not y & outside) and u & outside:
            # K holds x or y but not u
            value += 2 - (x & outside != 0) - (y & outside != 0)
        incomparable[key] = value
    score = [
        2 * incomparable[w] - incomparable[a] - incomparable[b]
        for (a, b), w in pairs.items()
    ]
    return score, incomparable


def argmax(items: Iterable, weights: Sequence) -> list:
    """The items with the largest weight, in their given order."""
    best = max(weights)
    return [item for item, weight in zip(items, weights) if weight == best]


def best_set_pairs(
    pairs: Iterable[tuple[int, int]], score: Sequence[int]
) -> list[tuple[int, int]]:
    """Greedy-links' choice among a state's linked set pairs: those with the
    highest ``score`` (:func:`links_alive`'s, one per pair in ``pairs``
    order), then of those the ones with the largest immediate gain
    ``2*|a | b| - |a| - |b| = |a ^ b|`` (the ``ginc`` weight), in ``pairs``
    order.

    The gain depends on the node sets, not on how the nodes are numbered;
    with it, every tie path reaches the exact optimum on every four-node
    equal-size instance with n <= 7, where the pair order alone misses it
    on some of them.  Greedy-links hands the node pairs holding these set
    pairs to its tie rule, and the oracle's first descent takes the first.
    """
    tied = argmax(pairs, score)
    return argmax(tied, [(a ^ b).bit_count() for a, b in tied])


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
