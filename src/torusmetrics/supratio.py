"""Certified maximization of functionals over all rational slopes.

The engine drives the suprema over curves on the punctured torus (the
flat-torus distance walks one path of the tree instead, see
torus.teich_distance_enum).  It descends the Stern-Brocot tree best-first
when the caller can bound the objective over a whole subtree, and prunes
once no unexplored cell can beat the best value by more than the
tolerance; the result is then certified.  Without a
sound bound it falls back to an exhaustive sweep down to ``max_depth`` and
reports honestly that nothing was certified, along with the depth at which
the value empirically stabilized.  Both modes carry a per-slope state
down the tree (by default the slope itself), so objectives built on a
recursion over Farey triangles cost O(1) per slope.  The exhaustive sweep
is one loop here (``_maximize_exhaustive``) that goes one tier (one depth)
at a time over flat lists of states: one combine and one objective call
per slope, and the argmax is resolved only on tiers whose maximum beats
the best value so far.

Given a bound, the sweep drops every cell bounded below the best value of
the shallower tiers (less a rounding margin): its slopes could neither win,
tie nor raise a per-depth maximum past the running one, so the result is
the full sweep's except for ``evals`` and ``depth_reached``.

Results are a pure function of the query: evaluation order never changes
the reported value or argmax (ties are broken by depth, then slope), so
objective evaluations could be farmed out concurrently without changing
the contract.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import compress

from .farey import (
    SLOPE_ROOTS, Slope, _interleave, add_slopes, mediant_state, root_cells, split,
)

__all__ = ["SupQuery", "SupRatioResult", "maximize"]

# Relative slack below the best value before the sweep drops a cell, so that a
# bound that rounds a few ulps under the values it covers still keeps them.
_PRUNE_MARGIN = 1e-12


@dataclass
class SupQuery:
    """A supremum problem over all slopes.

    Each slope carries a state: ``roots`` holds the states at 0/1, 1/0 and
    1/1, and ``combine`` derives the rest down the tree, in the operand
    order of farey.mediant_state.  Given neither, the state of a slope is
    the Slope itself (farey.SLOPE_ROOTS and farey.add_slopes).
    ``objective(state)`` scores a slope from its state, and
    ``subtree_bound(s_left, s_right, s_opp)`` bounds a cell from the states
    at its endpoints and its opposite vertex.

    ``subtree_bound`` must upper-bound the objective over every slope
    strictly inside the cell whenever it is supplied; pass None, or set
    ``exhaustive``, to run in the uncertified exhaustive mode (the tier loop
    of _maximize_exhaustive), which a bound only prunes.  ``tolerance`` is
    absolute, on the supremum value.
    """

    objective: Callable
    subtree_bound: Optional[Callable] = None
    tolerance: float = 1e-6
    max_depth: int = 24
    max_evals: int = 200_000
    roots: Optional[tuple] = None
    combine: Optional[Callable] = None
    exhaustive: bool = False

    def __post_init__(self):
        if not 0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be positive and finite")
        if self.max_depth < 0:
            raise ValueError("max_depth must be nonnegative")
        if self.max_evals < 4:
            raise ValueError("max_evals must allow at least the root evaluations")
        if (self.roots is not None) != (self.combine is not None):
            raise ValueError("roots and combine must be given together")
        if self.roots is None:
            self.roots, self.combine = SLOPE_ROOTS, add_slopes


@dataclass
class SupRatioResult:
    """The supremum found, with how it was obtained.

    ``evals`` counts the objective calls made, which max_evals caps.
    ``depth_reached`` is the deepest tree depth at which a slope was
    evaluated; ``hit_eval_cap`` says max_evals left a cell or slope open.
    Both stay out of the JSON payload.
    """

    value: float
    argmax: Slope
    certified: bool
    frontier_bound: Optional[float]
    evals: int
    stabilization_depth: int
    depth_reached: int
    hit_eval_cap: bool

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

    def evaluate(self, p: int, q: int, depth: int, state) -> None:
        v = self.query.objective(state)
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

    def result(self, certified: bool, frontier_bound: Optional[float],
               hit_eval_cap: bool = False) -> SupRatioResult:
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
            hit_eval_cap=hit_eval_cap,
        )


# (p, q, depth) of the root slopes and -1/1, in evaluation order
_ROOT_TIER = ((0, 1, 0), (1, 0, 0), (1, 1, 0), (-1, 1, 1))


def maximize(query: SupQuery) -> SupRatioResult:
    """Maximize the query objective over all slopes; see module docstring."""
    search = _Search(query)
    roots = query.roots
    pos, neg = root_cells(roots)
    s_neg = mediant_state(neg, query.combine)
    for (p, q, depth), state in zip(_ROOT_TIER, (*roots, s_neg)):
        search.evaluate(p, q, depth, state)
    if query.subtree_bound is None or query.exhaustive:
        return _maximize_exhaustive(search, s_neg)
    return _maximize_certified(search, (*split(pos, roots[2]), *split(neg, s_neg)))


def _maximize_exhaustive(search: _Search, s_neg) -> SupRatioResult:
    """Sweep the tree below the root tier down to max_depth, one tier at a time.

    A tier is every cell of one depth, in two blocks: the positive block
    (number 0: the 2**d cells below the root interval 0/1 < 1/0 at depth
    d >= 1) and the mirrored block (number 1: the 2**(d-1) cells below the
    mirrored root, from depth 2 on).  Each block keeps its cells left to
    right as three parallel state lists, at the left endpoints, the right
    endpoints and the opposite vertices, and, once a cell was dropped, a
    list of the kept cells' paths (see _tier_slope).  Each tier drops the
    cells bounded below the floor, is cut at the eval budget, combines and
    evaluates its mediants, and splits every cell into two for the next.
    """
    query = search.query
    objective, combine, bound = query.objective, query.combine, query.subtree_bound
    s0, s_inf, s1 = query.roots
    budget = query.max_evals - len(_ROOT_TIER)
    blocks = [(0, None, [s0, s1], [s1, s_inf], [s_inf, s0])]  # (number, paths, left, right, opp)
    floor, cut = None, False
    for depth in range(1, query.max_depth + 1):
        if depth == 2:
            blocks.append((1, None, [s0, s_neg], [s_neg, s_inf], [s_inf, s0]))
        if floor is not None:
            kept = []
            for number, paths, *cells in blocks:
                keep = [not b < floor for b in map(bound, *cells)]
                if not all(keep):
                    paths, *cells = (list(compress(column, keep))
                                     for column in (paths or range(len(keep)), *cells))
                if cells[0]:
                    kept.append((number, paths, *cells))
            blocks = kept
        cut = sum(len(block[2]) for block in blocks) > budget
        if not blocks or budget == 0:
            break
        tier = []  # (number, paths, mediant states) of each block the budget reaches
        for number, paths, left, right, opp in blocks:
            n = min(len(left), budget)
            if n == 0:
                break
            # a block's last cell is n/1 below 1/0, whose left endpoint comes
            # first among its Farey parents (see farey.mediant_state)
            last = n == len(left) and (paths is None or paths[-1] == (1 << depth - number) - 1)
            k = n - 1 if last else n
            mids = list(map(combine, right[:k], left[:k], opp[:k]))
            if last:
                mids.append(combine(left[k], right[k], opp[k]))
            tier.append((number, paths, mids))
            budget -= n
        tier_values = []
        for number, paths, mids in tier:
            values = list(map(objective, mids))
            try:
                finite = all(map(math.isfinite, values))
            except TypeError:
                finite = False
            if not finite:
                i = next(i for i, v in enumerate(values) if _bad_value(v))
                raise _non_finite(values[i], _tier_slope(depth, number, paths[i] if paths else i))
            tier_values.append(values)
        search.evals += sum(map(len, tier_values))
        top = max(map(max, tier_values))
        if top > search.depth_max.get(depth, -math.inf):
            search.depth_max[depth] = float(top)
        # the argmax so far is shallower, or is -1/1, the smallest slope of
        # depth 1, so only a strictly larger value displaces it
        if top > search.best_value:
            slope, v = min(
                ((_tier_slope(depth, number, paths[i] if paths else i), v)
                 for (number, paths, _), values in zip(tier, tier_values)
                 for i, v in enumerate(values) if v == top),
                key=lambda candidate: candidate[0],
            )
            search.best_value = v = float(v)
            search.best_key = (-v, depth, slope.p, slope.q)
        if cut or depth == query.max_depth:
            break
        # the next tier drops the cells bounded below the best value so far,
        # unless this tier reached it, as in a self-distance: few would go
        best = search.best_value
        floor = (best - _PRUNE_MARGIN * abs(best)
                 if bound is not None and search.depth_max[depth] < best else None)
        children = []  # each cell splits at its mediant into two
        for (number, paths, left, right, opp), (_, _, mids) in zip(blocks, tier):
            if paths is not None:
                paths = [2 * i + j for i in paths for j in (0, 1)]
            children.append((number, paths, _interleave(left, mids), _interleave(mids, right),
                             _interleave(right, left)))
        blocks = children
    return search.result(False, None, hit_eval_cap=cut)


def _tier_slope(depth: int, block: int, index: int) -> Slope:
    """The slope of the cell at ``index`` in a tier's block (0 positive, 1 mirrored).

    The index read in binary is the cell's path below its block's root,
    0 for a left and 1 for a right child; the mirrored root sits at depth 1.
    """
    lp, lq, rp, rq = 0, 1, 1, 0
    for k in reversed(range(depth - block)):
        if index >> k & 1:
            lp, lq = lp + rp, lq + rq
        else:
            rp, rq = lp + rp, lq + rq
    return Slope._unchecked(-(lp + rp) if block else lp + rp, lq + rq)


def _maximize_certified(search: _Search, cells: tuple) -> SupRatioResult:
    query = search.query
    bound, combine = query.subtree_bound, query.combine

    heap: list[tuple] = []
    # Upper bounds over regions that max_depth prevented us from opening.
    truncated = -math.inf
    hit_eval_cap = False
    frontier_top = -math.inf

    def push(cell: tuple) -> None:
        # a cell (lp, lq, rp, rq, depth, sign, s_left, s_right, s_opp), keyed by its mediant
        nonlocal truncated
        lp, lq, rp, rq, depth, sign, s_left, s_right, s_opp = cell
        b = float(bound(s_left, s_right, s_opp))
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
    # -inf: the heap emptied with nothing truncated; +inf stays, unbounded
    frontier_bound = outstanding if outstanding > -math.inf else search.best_value
    return search.result(certified, frontier_bound, hit_eval_cap)
