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
* child order: a state's first child is greedy-links' choice there, the
  set pair of highest rank (:func:`~gtexchange.core.pair_ranks`: most links
  kept alive, then largest gain), so the first descent runs greedy-links,
  and the rest are tried by links kept alive, most first.  The order
  decides only which leaf comes first.

One rank table (:func:`~gtexchange.core.rank_table`) is built per search
and walked down to each state expanded and back by the same fused step
(:func:`~gtexchange.core.move_ranked`).

Budgets are enforced per search.  On an overrun the result is flagged
inexact and carries the better of the incumbent and the best leaf reached,
with a schedule reaching it.  A search runs in one thread and shares no
state with another, so :func:`~gtexchange.harness.run_batch` splits a
batch's searches between two processes where it can.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Generator, Iterable

from .algorithms import AlgorithmRun, run_greedy_links
from .core import (
    RANK_WIDTH,
    Instance,
    Schedule,
    argmax,
    exchange_lowest,
    move_ranked,
    pair_ranks,
    rank_table,
    upper_bound,
)


@dataclass(frozen=True)
class SearchLimits:
    """Visited-state and wall-clock budgets for one optimum search."""

    max_states: int = 10_000_000
    max_seconds: float = 60.0

    def __post_init__(self) -> None:
        states, seconds = self.max_states, self.max_seconds
        # exact types: a bool is an int to Python, but no budget
        if type(states) is not int or type(seconds) not in (int, float):
            raise ValueError(f"search limits have the wrong type: {self}")
        # phrased so that a NaN budget fails too
        if not (states > 0 and seconds > 0):
            raise ValueError("search limits must be positive")
        try:
            float(seconds)  # the search's deadline is a float
        except OverflowError:
            raise ValueError("search limit max_seconds is too large for a float") from None


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


def canonical_key(masks: Iterable[int]) -> tuple[int, ...]:
    """Memo key for a state given by its node masks: the sorted multiset.

    States that agree up to node relabelling share a key, and both the
    available-link structure and the best reachable aggregate cardinality
    are functions of the key alone.
    """
    return tuple(sorted(masks))


class _Search:
    def __init__(self, bound: int, limits: SearchLimits):
        self.bound = bound
        self.limits = limits
        self.memo: dict[tuple[int, ...], int] = {}
        self.visited = 0
        self.best_leaf = 0
        # set pairs activated from the root to the best leaf, and to the
        # state being expanded
        self.best_path: tuple[tuple[int, int], ...] = ()
        self.path: list[tuple[int, int]] = []
        self.deadline = time.monotonic() + limits.max_seconds

    def best_from(self, root: tuple[int, ...]) -> int:
        """Best final aggregate cardinality from ``root``.

        Depth-first: each state's expansion is suspended while a child it
        asks for is expanded, on an explicit stack rather than the Python
        call stack, so schedule length is not capped by the recursion limit.
        """
        self.holders, self.pairs, self.slots = rank_table(root)
        # suspended expansions, innermost last
        stack: list[Generator[tuple[int, ...], int, int]] = []
        key: tuple[int, ...] | None = root  # the state to expand; None once answered
        reply = None  # what the innermost expansion receives when resumed
        while True:
            if key is not None:
                self.visited += 1
                if self.visited > self.limits.max_states:
                    raise _Abort
                if self.visited % 1024 == 0 and time.monotonic() > self.deadline:
                    raise _Abort
                stack.append(self._expand(key))
                reply = None
            try:
                key = stack[-1].send(reply)
            except StopIteration as done:
                stack.pop()
                if not stack:
                    return done.value
                key, reply = None, done.value

    def _step(self, x: int, y: int, i: int, j: int, sign: int) -> None:
        """Walk the rank table down or back (``sign``)."""
        move_ranked(self.holders, self.pairs, self.slots, x, y, i, j, sign)

    def _expand(self, key: tuple[int, ...]) -> Generator[tuple[int, ...], int, int]:
        """Expansion of one state, the walked table at ``key``: yields each
        child key not in the memo, walked down to it, and receives the
        child's result; stores the state's own result in the memo."""
        holders, pairs = self.holders, self.pairs
        if not pairs:
            best = sum(mask.bit_count() for mask in key)
            if best > self.best_leaf:
                self.best_leaf = best
                self.best_path = tuple(self.path)
            self.memo[key] = best
            return best
        # The first child is greedy-links' choice, the least top-ranked pair
        # (a walked dict has no pair order); the rest go by links kept alive,
        # ties in pair order, and are ranked only if the search comes back,
        # so a deep descent holds O(m) data per level.
        tried = min(argmax(pairs, pair_ranks(pairs)))
        best = 0
        children = [tried]
        for pair in children:
            x, y = pair
            child = list(key)
            child[key.index(x)] = child[key.index(y)] = x | y
            child.sort()
            child = tuple(child)
            value = self.memo.get(child)
            if value is None:
                i, j = holders[x][-1], holders[y][-1]
                self.path.append(pair)
                self._step(x, y, i, j, 1)
                value = yield child
                self._step(x, y, i, j, -1)
                self.path.pop()
            if value > best:
                best = value
                if best == self.bound:
                    break
            if pair is tried:  # back from the first child: the rest join
                alive = {p: r // RANK_WIDTH for p, r in zip(pairs, pair_ranks(pairs))}
                del alive[tried]
                children += sorted(alive, key=lambda p: (-alive[p], p))
        self.memo[key] = best
        return best


def _replay(instance: Instance, set_pairs: tuple[tuple[int, int], ...]) -> Schedule:
    """Schedule activating each set pair in turn, on the lowest nodes holding it."""
    masks = [s.mask for s in instance.initial_sets]
    return Schedule(records=tuple(exchange_lowest(masks, *pair) for pair in set_pairs))


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
    root = canonical_key(s.mask for s in instance.initial_sets)
    search = _Search(upper_bound(instance), limits)
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

