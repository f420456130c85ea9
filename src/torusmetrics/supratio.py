"""Certified maximization of functionals over all rational slopes.

The engine drives every supremum over curves in this package.  It descends
the Stern-Brocot tree best-first when the caller can bound the objective
over a whole subtree, and prunes once no unexplored cell can beat the best
value by more than the tolerance; the result is then certified.  Without a
sound bound it falls back to an exhaustive breadth-first sweep down to
``max_depth`` and reports honestly that nothing was certified, along with
the depth at which the value empirically stabilized.  Both modes descend
plain integer cells (see farey.walk) that can carry a per-slope state down
the tree, so objectives built on a recursion over Farey triangles cost
O(1) per slope.

Results are a pure function of the query: evaluation order never changes
the reported value or argmax (ties are broken by depth, then slope), so
objective evaluations could be farmed out concurrently without changing
the contract.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Optional

from .farey import FareyNode, Slope, mediant_state, root_cells, split, walk

__all__ = ["SupQuery", "SupRatioResult", "maximize"]


@dataclass
class SupQuery:
    """A supremum problem over all slopes.

    Two forms.  Without ``combine``, ``objective(slope)`` scores a Slope and
    ``subtree_bound(node)`` bounds a FareyNode.  With ``combine``, each slope
    carries a caller-defined state: ``roots`` holds the states at 0/1, 1/0
    and 1/1, ``combine`` derives the rest down the tree (see farey.walk),
    ``objective(state)`` scores a slope from its state, and
    ``subtree_bound(s_left, s_right, s_opp)`` bounds a cell from the states
    at its endpoints and its opposite vertex.

    ``subtree_bound`` must upper-bound the objective over every slope
    strictly inside the cell whenever it is supplied; pass None to run in
    the uncertified exhaustive mode.  ``tolerance`` is absolute, on the
    supremum value.
    """

    objective: Callable
    subtree_bound: Optional[Callable] = None
    tolerance: float = 1e-6
    max_depth: int = 24
    max_evals: int = 200_000
    roots: Optional[tuple] = None
    combine: Optional[Callable] = None

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.max_depth < 0:
            raise ValueError("max_depth must be nonnegative")
        if self.max_evals < 4:
            raise ValueError("max_evals must allow at least the root evaluations")
        if (self.roots is None) != (self.combine is None):
            raise ValueError("roots and combine must be given together")


@dataclass
class SupRatioResult:
    value: float
    argmax: Slope
    certified: bool
    frontier_bound: Optional[float]
    evals: int
    stabilization_depth: int

    def to_json_dict(self) -> dict:
        fb = self.frontier_bound
        if fb is not None and not math.isfinite(fb):
            fb = None
        return {
            "value": self.value,
            "argmax": str(self.argmax),
            "certified": self.certified,
            "frontier_bound": fb,
            "evals": self.evals,
            "stabilization_depth": self.stabilization_depth,
        }


class _Search:
    """Shared evaluation bookkeeping for both engine modes.

    Every slope is reached once, so counting evaluations needs no memo.
    """

    def __init__(self, query: SupQuery):
        self.query = query
        self.evals = 0
        self.best_value = -math.inf
        self.best_key: Optional[tuple] = None
        self.depth_max: dict[int, float] = {}
        objective, bound = query.objective, query.subtree_bound
        if query.combine is None:
            self.score = lambda p, q, state: objective(Slope._unchecked(p, q))
            self.bound = lambda cell: bound(FareyNode._of_cell(cell))
        else:
            self.score = lambda p, q, state: objective(state)
            self.bound = lambda cell: bound(cell[6], cell[7], cell[8])

    def evaluate(self, p: int, q: int, depth: int, state) -> None:
        v = self.score(p, q, state)
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            raise ValueError(f"objective returned non-finite value {v!r} at slope {p}/{q}")
        v = float(v)
        self.evals += 1
        d = self.depth_max.get(depth, -math.inf)
        if v > d:
            self.depth_max[depth] = v
        # Order-independent argmax: larger value wins, ties go to the
        # shallower and lexicographically smaller slope.
        key = (-v, depth, p, q)
        if self.best_key is None or key < self.best_key:
            self.best_value = v
            self.best_key = key

    def stabilization_depth(self) -> int:
        running = -math.inf
        stab = 0
        for depth in sorted(self.depth_max):
            v = self.depth_max[depth]
            if v > running + self.query.tolerance:
                stab = depth
            if v > running:
                running = v
        return stab

    def result(self, certified: bool, frontier_bound: Optional[float]) -> SupRatioResult:
        assert self.best_key is not None
        return SupRatioResult(
            value=self.best_value,
            argmax=Slope._unchecked(*self.best_key[2:]),
            certified=certified,
            frontier_bound=frontier_bound,
            evals=self.evals,
            stabilization_depth=self.stabilization_depth(),
        )


def maximize(query: SupQuery) -> SupRatioResult:
    """Maximize the query objective over all slopes; see module docstring."""
    search = _Search(query)
    roots = query.roots or (None, None, None)
    pos, neg = root_cells(roots)
    s_neg = mediant_state(neg, query.combine)
    search.evaluate(0, 1, 0, roots[0])
    search.evaluate(1, 0, 0, roots[1])
    search.evaluate(1, 1, 0, roots[2])
    search.evaluate(-1, 1, 1, s_neg)
    first = split(pos, roots[2])
    if query.subtree_bound is None:
        return _maximize_exhaustive(search, (*first, neg))
    return _maximize_certified(search, (*first, *split(neg, s_neg)))


def _maximize_exhaustive(search: _Search, tier: tuple) -> SupRatioResult:
    query = search.query
    neg = tier[-1]
    for cell, state in walk(tier, query.max_depth, query.combine):
        if cell is neg:  # its mediant -1/1 was evaluated with the roots
            continue
        if search.evals >= query.max_evals:
            break
        lp, lq, rp, rq, depth, sign = cell[:6]
        search.evaluate(sign * (lp + rp), lq + rq, depth, state)
    return search.result(certified=False, frontier_bound=None)


def _maximize_certified(search: _Search, cells: tuple) -> SupRatioResult:
    query = search.query
    bound, combine = search.bound, query.combine

    heap: list[tuple] = []
    # Upper bounds over regions that max_depth prevented us from opening.
    truncated = -math.inf
    hit_eval_cap = False
    frontier_top = -math.inf

    def push(cell: tuple) -> None:
        nonlocal truncated
        b = float(bound(cell))
        lp, lq, rp, rq, depth, sign = cell[:6]
        if depth > query.max_depth:
            truncated = max(truncated, b)
        else:
            heapq.heappush(heap, (-b, depth, sign * (lp + rp), lq + rq, cell))

    for cell in cells:
        push(cell)

    while heap:
        neg_b, depth, p, q, cell = heapq.heappop(heap)
        b = -neg_b
        if b <= search.best_value + query.tolerance:
            frontier_top = b
            break
        if search.evals >= query.max_evals:
            frontier_top = b
            hit_eval_cap = True
            break
        state = mediant_state(cell, combine)
        search.evaluate(p, q, depth, state)
        for child in split(cell, state):
            push(child)

    outstanding = max(frontier_top, truncated)
    certified = not hit_eval_cap and outstanding <= search.best_value + query.tolerance
    frontier_bound = outstanding if math.isfinite(outstanding) else search.best_value
    return search.result(certified=certified, frontier_bound=frontier_bound)
