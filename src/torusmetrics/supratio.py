"""Certified maximization of functionals over all rational slopes.

The engine drives every supremum over curves in this package.  It descends
the Stern-Brocot tree best-first when the caller can bound the objective
over a whole subtree, and prunes once no unexplored cell can beat the best
value by more than the tolerance; the result is then certified.  Without a
sound bound it falls back to an exhaustive sweep down to ``max_depth`` and
reports honestly that nothing was certified, along with the depth at which
the value empirically stabilized.  Both modes can carry a per-slope state
down the tree, so objectives built on a recursion over Farey triangles
cost O(1) per slope.  The exhaustive sweep goes one tier (one depth) at a
time (see farey.sweep): one combine and one objective call per slope over
flat lists, and the argmax is resolved only on tiers whose maximum beats
the best value so far.

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

from .farey import FareyNode, Slope, mediant_state, root_cells, split, sweep, tier_slope

__all__ = ["SupQuery", "SupRatioResult", "maximize"]


@dataclass
class SupQuery:
    """A supremum problem over all slopes.

    Two forms.  Without ``combine``, ``objective(slope)`` scores a Slope and
    ``subtree_bound(node)`` bounds a FareyNode.  With ``combine``, each slope
    carries a caller-defined state: ``roots`` holds the states at 0/1, 1/0
    and 1/1, ``combine`` derives the rest down the tree (see farey.sweep),
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
    """The supremum found, with how it was obtained.

    ``depth_reached`` is the deepest tree depth at which a slope was
    evaluated; it stays out of the JSON payload.
    """

    value: float
    argmax: Slope
    certified: bool
    frontier_bound: Optional[float]
    evals: int
    stabilization_depth: int
    depth_reached: int

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


def _bad_value(v) -> bool:
    return not isinstance(v, (int, float)) or not math.isfinite(v)


def _non_finite(v, slope: Slope) -> ValueError:
    return ValueError(f"objective returned non-finite value {v!r} at slope {slope}")


class _Search:
    """Evaluation bookkeeping: the eval count, the argmax and per-depth maxima.

    The argmax is order-independent: a larger value wins, ties go to the
    shallower and then the lexicographically smaller slope.
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
        if _bad_value(v):
            raise _non_finite(v, Slope._unchecked(p, q))
        v = float(v)
        self.evals += 1
        if v > self.depth_max.get(depth, -math.inf):
            self.depth_max[depth] = v
        key = (-v, depth, p, q)
        if self.best_key is None or key < self.best_key:
            self.best_value = v
            self.best_key = key

    def evaluate_tier(self, depth: int, blocks: list) -> None:
        """Evaluate one sweep tier: the mediant states of each block, left to right."""
        objective = self.query.objective
        tier = []
        for block, states in enumerate(blocks):
            values = list(map(objective, states))
            try:
                finite = all(map(math.isfinite, values))
            except TypeError:
                finite = False
            if not finite:
                i = next(i for i, v in enumerate(values) if _bad_value(v))
                raise _non_finite(values[i], tier_slope(depth, block, i))
            tier.append(values)
        self.evals += sum(map(len, tier))
        top = max(map(max, tier))
        if top > self.depth_max.get(depth, -math.inf):
            self.depth_max[depth] = float(top)
        # the argmax so far is shallower, or is -1/1, the smallest slope of
        # depth 1, so only a strictly larger value displaces it
        if top > self.best_value:
            slope, v = min(
                ((tier_slope(depth, block, i), values[i])
                 for block, values in enumerate(tier) for i in _indices(values, top)),
                key=lambda candidate: candidate[0],
            )
            self.best_value = v = float(v)
            self.best_key = (-v, depth, slope.p, slope.q)

    def result(self, certified: bool, frontier_bound: Optional[float]) -> SupRatioResult:
        assert self.best_key is not None
        running = -math.inf
        stab = 0
        for depth in sorted(self.depth_max):
            v = self.depth_max[depth]
            if v > running + self.query.tolerance:
                stab = depth
            if v > running:
                running = v
        return SupRatioResult(
            value=self.best_value,
            argmax=Slope._unchecked(*self.best_key[2:]),
            certified=certified,
            frontier_bound=frontier_bound,
            evals=self.evals,
            stabilization_depth=stab,
            depth_reached=max(self.depth_max),
        )


def _indices(values: list, v) -> list[int]:
    """Every index of v in values."""
    out, i = [], -1
    try:
        while True:
            i = values.index(v, i + 1)
            out.append(i)
    except ValueError:
        return out


# (p, q, depth) of the slopes in the sweep's root tier, in evaluation order
_ROOT_TIER = ((0, 1, 0), (1, 0, 0), (1, 1, 0), (-1, 1, 1))


def maximize(query: SupQuery) -> SupRatioResult:
    """Maximize the query objective over all slopes; see module docstring."""
    search = _Search(query)
    if query.subtree_bound is None:
        return _maximize_exhaustive(search)
    roots = query.roots or (None, None, None)
    pos, neg = root_cells(roots)
    s_neg = mediant_state(neg, query.combine)
    for (p, q, depth), state in zip(_ROOT_TIER, (*roots, s_neg)):
        search.evaluate(p, q, depth, state)
    return _maximize_certified(search, (*split(pos, roots[2]), *split(neg, s_neg)))


def _maximize_exhaustive(search: _Search) -> SupRatioResult:
    query = search.query
    tiers = sweep(query.roots, query.combine, query.max_depth, query.max_evals - len(_ROOT_TIER))
    _, states = next(tiers)
    for (p, q, depth), state in zip(_ROOT_TIER, states):
        search.evaluate(p, q, depth, state)
    for depth, blocks in tiers:
        search.evaluate_tier(depth, blocks)
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
