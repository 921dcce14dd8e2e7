"""Exact social optimum over maximal schedules.

Depth-first search over all activation sequences, memoized on the
*canonical state*: the sorted multiset of per-node masks.  Canonicalization
is sound because an activation's outcome depends only on the two sets
involved, never on node identities, so every state with the same multiset
reaches the same best final aggregate cardinality.

The search stays exhaustive; three things let it stop early or not start:

* one bound per search: nodes holding the realized universe never change
  and new holders appear two at a time, so every reachable state has the
  root's bound (:func:`~gtexchange.core.upper_bound`), and the search stops
  at the first leaf that meets it;
* an incumbent: a maximal schedule known before the search, the best
  heuristic run a batch already made or else a greedy-links presolve.  An
  incumbent meeting the bound is certified without a search, and so is one
  that a finished search does not beat, its schedule being the witness;
* child order: a state's children are tried by the number of links they
  keep alive, most first (the greedy-links score), so the first leaves
  reached tend to be good ones.  The order decides only which leaf comes
  first.

Budgets are enforced per search.  On an overrun the result is flagged
inexact and carries the better of the incumbent and the best leaf reached,
with a schedule reaching it.  A single search runs on one thread;
independent instances may be solved in parallel, one search each.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Generator

from .algorithms import AlgorithmRun, run_greedy_links
from .core import (
    Instance,
    Schedule,
    SystemState,
    _state_bound,
    count_incomparable,
    exchange,
    initial_state,
    move_incomparable,
    set_links,
)


@dataclass(frozen=True)
class SearchLimits:
    """Visited-state and wall-clock budgets for one optimum search."""

    max_states: int = 10_000_000
    max_seconds: float = 60.0

    def __post_init__(self) -> None:
        # phrased so that a NaN budget fails too
        if not (self.max_states > 0 and self.max_seconds > 0):
            raise ValueError("search limits must be positive")


@dataclass(frozen=True)
class OracleResult:
    """Outcome of an optimum computation; ``exact`` is False on budget overrun.

    ``visited`` counts the states the search expanded and ``memo`` the memo
    entries it held when it ended; both are 0 when no search ran.
    """

    alpha: int
    witness: Schedule
    exact: bool
    visited: int
    memo: int


class _Abort(Exception):
    pass


def canonical_key(state: SystemState) -> tuple[int, ...]:
    """Memo key for a state: its node masks as a sorted multiset.

    States that agree up to node relabelling share a key, and both the
    available-link structure and the best reachable aggregate cardinality
    are functions of the key alone.
    """
    return tuple(sorted(state.masks()))


def _scored(
    count: dict[int, int], kept: dict[int, int], x: int, y: int
) -> tuple[list[tuple[int, int]], list[int], dict[int, int]]:
    """A state's linked set pairs, the links activating each removes net,
    ``N(a) + N(b) - 2*N(a|b)`` for the pair (a, b), and the state's N.
    ``kept`` holds N as of the state before the activation of the set pair
    (x, y), empty when there is none; its keys are moved
    (:func:`~gtexchange.core.move_incomparable`), the rest counted afresh."""
    pairs = list(set_links(count))
    if not pairs:
        return [], [], {}
    unions = [a | b for a, b in pairs]
    keys = {*count, *unions}
    incomparable = {key: kept[key] for key in keys if key in kept}
    move_incomparable(incomparable, incomparable, x, y)
    count_incomparable(
        incomparable, list(count.items()), [key for key in keys if key not in kept]
    )
    loss = [
        incomparable[a] + incomparable[b] - 2 * incomparable[u]
        for (a, b), u in zip(pairs, unions)
    ]
    return pairs, loss, incomparable


class _Search:
    def __init__(self, root: tuple[int, ...], u_mask: int, limits: SearchLimits):
        self.bound = _state_bound(root, u_mask, u_mask.bit_count())
        self.limits = limits
        self.memo: dict[tuple[int, ...], int] = {}
        self.visited = 0
        self.best_leaf = 0
        # set pairs activated from the root to the best leaf, and to the
        # state being expanded
        self.best_path: tuple[tuple[int, int], ...] = ()
        self.path: list[tuple[int, int]] = []
        # N of the state whose child is asked for next, and the set pair
        # that child activates (see core.move_incomparable)
        self.handoff: tuple[dict[int, int], int, int] = ({}, 0, 0)
        self.deadline = time.monotonic() + limits.max_seconds

    def best_from(self, root: tuple[int, ...]) -> int:
        """Best final aggregate cardinality from ``root``.

        Depth-first: each state's expansion is suspended while a child it
        asks for is expanded, on an explicit stack rather than the Python
        call stack, so schedule length is not capped by the recursion limit.
        """
        # suspended expansions, innermost last
        stack: list[Generator[tuple[int, ...], int, int]] = []
        key: tuple[int, ...] | None = root  # the state asked for; None once answered
        reply = None  # what the innermost expansion receives when resumed
        while True:
            if key is not None:
                reply = self.memo.get(key)
                if reply is None:
                    self.visited += 1
                    if self.visited > self.limits.max_states:
                        raise _Abort
                    if self.visited % 1024 == 0 and time.monotonic() > self.deadline:
                        raise _Abort
                    stack.append(self._expand(key))
                elif not stack:
                    return reply
            try:
                key = stack[-1].send(reply)
            except StopIteration as done:
                stack.pop()
                if not stack:
                    return done.value
                key, reply = None, done.value

    def _child(
        self, key: tuple[int, ...], pair: tuple[int, int], incomparable: dict[int, int]
    ) -> tuple[int, ...]:
        """Key of the state that activating ``pair`` in ``key`` leads to; puts
        the step on the path and hands ``key``'s N to the child's expansion."""
        x, y = pair
        union = x | y
        child = list(key)
        child.remove(x)
        child.remove(y)
        child += (union, union)
        child.sort()
        self.path.append(pair)
        self.handoff = (incomparable, x, y)
        return tuple(child)

    def _expand(self, key: tuple[int, ...]) -> Generator[tuple[int, ...], int, int]:
        """Expansion of one state: yields each child key and receives the
        child's result; stores the state's own result in the memo."""
        count: dict[int, int] = {}
        for mask in key:
            count[mask] = count.get(mask, 0) + 1
        pairs, loss, incomparable = _scored(count, *self.handoff)
        if not pairs:
            best = sum(mask.bit_count() for mask in key)
            if best > self.best_leaf:
                self.best_leaf = best
                self.best_path = tuple(self.path)
            self.memo[key] = best
            return best
        # Children go in order of loss, ties in pair order.  While the first
        # child's subtree is searched this state keeps only O(m) data, so a
        # deep descent holds no O(m^2) pair list per level; if the search
        # comes back, the pairs are scored again from scratch.
        first = self._child(key, pairs[loss.index(min(loss))], incomparable)
        del pairs, loss, incomparable
        best = yield first
        self.path.pop()
        if best < self.bound:
            pairs, loss, incomparable = _scored(count, {}, 0, 0)
            order = sorted(range(len(pairs)), key=loss.__getitem__)
            for at in order[1:]:
                value = yield self._child(key, pairs[at], incomparable)
                self.path.pop()
                if value > best:
                    best = value
                    if best == self.bound:
                        break
        self.memo[key] = best
        return best


def _replay(instance: Instance, set_pairs: tuple[tuple[int, int], ...]) -> Schedule:
    """Schedule activating each set pair in turn, on the lowest nodes holding it."""
    masks = [s.mask for s in instance.initial_sets]
    return Schedule(
        records=tuple(
            exchange(masks, masks.index(x), masks.index(y)) for x, y in set_pairs
        )
    )


def solve_optimal(
    instance: Instance,
    limits: SearchLimits = SearchLimits(),
    incumbent: AlgorithmRun | None = None,
) -> OracleResult:
    """Maximum aggregate cardinality over all maximal schedules, with a witness.

    ``incumbent`` is a run already made on ``instance``; without one a
    greedy-links run stands in.  Never raises on budget overrun: the result
    is flagged ``exact=False`` and carries the better of the incumbent and
    the best leaf the search reached.
    """
    if incumbent is None:
        incumbent = run_greedy_links(instance)
    root = canonical_key(initial_state(instance))
    search = _Search(root, instance.realized_universe.mask, limits)
    exact = True
    if incumbent.alpha < search.bound:
        try:
            search.best_from(root)
        except _Abort:
            exact = False
    # a finished search's best leaf is the optimum
    if search.best_leaf > incumbent.alpha:
        alpha, witness = search.best_leaf, _replay(instance, search.best_path)
    else:
        alpha, witness = incumbent.alpha, incumbent.schedule
    return OracleResult(alpha, witness, exact, search.visited, len(search.memo))

