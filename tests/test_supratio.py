import dataclasses
import math
import random

import pytest

from torusmetrics import ptorus
from torusmetrics.farey import Slope, enumerate_slopes, path_state
from torusmetrics.ptorus import (
    TraceCache,
    from_parameters,
    tangent_from_chart,
    thurston_distance,
    thurston_norm,
)
from torusmetrics.supratio import SupQuery, maximize

from _oracles import cone_directions, torus_bruteforce_sup, torus_form


def constant_bound(value):
    return lambda left, right, opp: value


class TestConstantObjective:
    def test_certifies_at_first_slope(self):
        res = maximize(SupQuery(lambda s: 1.0, constant_bound(1.0), tolerance=1e-9))
        assert res.value == 1.0
        assert res.certified
        assert res.argmax == Slope(0, 1)  # first evaluated slope wins ties
        assert res.frontier_bound - res.value <= 1e-9
        assert res.stabilization_depth == 0

    def test_value_equals_objective_at_argmax(self):
        obj = lambda s: 1.0 / (1.0 + abs(s.p - 2 * s.q))
        res = maximize(SupQuery(obj, None, max_depth=6))
        assert res.value == obj(res.argmax)
        assert res.argmax == Slope(2, 1)


class TestForcedTruncation:
    def test_useless_bound_reports_uncertified(self):
        # a sound but never-pruning bound forces descent to max_depth
        obj = lambda s: 1.0 / (1.0 + s.q)
        res = maximize(SupQuery(obj, constant_bound(50.0), tolerance=1e-9, max_depth=3))
        assert not res.certified
        assert res.frontier_bound == 50.0
        assert res.frontier_bound > res.value

    def test_max_evals_truncation_uncertified(self):
        obj = lambda s: 1.0 / (1.0 + s.q)
        res = maximize(SupQuery(obj, constant_bound(50.0), tolerance=1e-9,
                                max_depth=30, max_evals=20))
        assert not res.certified
        assert res.evals <= 20

    def test_depth_zero_keeps_roots_and_reports_truncation(self):
        # only the root slopes and both root mediants are evaluated; the
        # untouched subtrees surface through the frontier bound
        obj = lambda s: 1.0 / (1.0 + s.q)
        tight = maximize(SupQuery(obj, constant_bound(0.5), tolerance=1e-9, max_depth=0))
        assert tight.evals == 4
        assert tight.certified
        assert tight.value == 1.0  # at slope 1/0
        loose = maximize(SupQuery(obj, constant_bound(2.0), tolerance=1e-9, max_depth=0))
        assert loose.evals == 4
        assert not loose.certified
        assert loose.frontier_bound == 2.0

    def test_unbounded_frontier_stays_infinite(self):
        # cells the depth cap leaves closed under an infinite bound are
        # unbounded; the frontier bound must not fall back to the best value
        obj = lambda s: 1.0 / (1.0 + s.q)
        res = maximize(SupQuery(obj, constant_bound(math.inf), tolerance=1e-9, max_depth=2))
        assert not res.certified
        assert res.frontier_bound == math.inf
        assert res.to_json_dict()["frontier_bound"] is None
        capped = maximize(SupQuery(obj, constant_bound(math.inf), tolerance=1e-9,
                                   max_depth=30, max_evals=10))
        assert capped.hit_eval_cap and capped.frontier_bound == math.inf


class TestExtremalRatioExample:
    """sup Ext(2i)/Ext(i) over slopes: the quadratic-form workhorse query."""

    @staticmethod
    def _query(tol=1e-9):
        num = torus_form(0.0, 2.0)
        den = torus_form(0.0, 1.0)

        def obj(s):
            p, q = s.p, s.q
            return (num[0] * p * p + 2 * num[1] * p * q + num[2] * q * q) / (
                den[0] * p * p + 2 * den[1] * p * q + den[2] * q * q
            )

        return obj

    def test_certified_maximum_matches_bruteforce(self):
        from torusmetrics.torus import TorusPoint, teich_distance_enum

        res = teich_distance_enum(TorusPoint(0, 1), TorusPoint(0, 2), tol=1e-9)
        assert res.certified
        assert res.argmax == Slope(0, 1)
        assert res.value == pytest.approx(2.0, abs=1e-12)

        brute, brute_slope = torus_bruteforce_sup(torus_form(0.0, 2.0), torus_form(0.0, 1.0), 20)
        assert brute == pytest.approx(2.0, abs=1e-12)
        assert brute_slope == (0, 1)
        assert res.value <= brute <= res.value + 1e-9


class TestMonotonicityAndDeterminism:
    @staticmethod
    def _bumpy(s):
        # smooth direction functional with an interior maximum
        p, q = float(s.p), float(s.q)
        n = math.hypot(p, q)
        return 2.0 + (p / n) * 0.3 + (q / n) * 0.7 - 0.1 * (p / n) ** 2

    def test_value_nondecreasing_in_depth_exhaustive(self):
        values = [
            maximize(SupQuery(self._bumpy, None, max_depth=d)).value for d in range(0, 9)
        ]
        for lo, hi in zip(values, values[1:]):
            assert hi >= lo

    def test_value_nondecreasing_in_evals_exhaustive(self):
        values = [
            maximize(SupQuery(self._bumpy, None, max_depth=8, max_evals=m)).value
            for m in (4, 8, 16, 64, 256, 1024)
        ]
        for lo, hi in zip(values, values[1:]):
            assert hi >= lo

    def test_identical_queries_identical_results(self):
        q = SupQuery(self._bumpy, None, max_depth=7)
        assert maximize(q) == maximize(q)

    def test_json_payload(self):
        res = maximize(SupQuery(self._bumpy, None, max_depth=4))
        payload = res.to_json_dict()
        assert set(payload) == {
            "value", "argmax", "certified", "frontier_bound", "evals", "stabilization_depth",
        }
        assert payload["frontier_bound"] is None
        assert isinstance(payload["argmax"], str)


class TestErrorHandling:
    def test_non_finite_objective_names_slope(self):
        def bad(s):
            return math.inf if s == Slope(1, 2) else 1.0

        with pytest.raises(ValueError, match="1/2"):
            maximize(SupQuery(bad, None, max_depth=4))

    def test_query_validation(self):
        with pytest.raises(ValueError):
            SupQuery(lambda s: 1.0, None, tolerance=0.0)
        with pytest.raises(ValueError):
            SupQuery(lambda s: 1.0, None, max_depth=-1)
        with pytest.raises(ValueError):
            SupQuery(lambda s: 1.0, None, max_evals=2)
        with pytest.raises(ValueError, match="together"):
            SupQuery(lambda s: 1.0, None, roots=(1.0, 1.0, 1.0))
        with pytest.raises(ValueError, match="together"):
            SupQuery(lambda s: 1.0, None, combine=lambda a, b, c: a)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_non_finite_tolerance_is_rejected(self, tol):
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            SupQuery(lambda s: 1.0, None, tolerance=tol)


class TestStabilizationDepth:
    def test_peak_at_depth_three(self):
        target = Slope(2, 5)  # depth-3 slope: (1,1) -> (1,2) -> (1,3) -> (2,5)

        def obj(s):
            return 2.0 if s == target else 1.0

        res = maximize(SupQuery(obj, None, tolerance=1e-3, max_depth=6))
        assert res.value == 2.0
        assert res.argmax == target
        assert res.stabilization_depth == 3

    def test_negative_objective_supported(self):
        # norm-style objectives change sign across the circle of slopes;
        # this one peaks at sqrt(2) in the direction (-1, 1)
        def obj(s):
            p, q = float(s.p), float(s.q)
            return (q - p) / math.hypot(p, q)

        res = maximize(SupQuery(obj, None, max_depth=8))
        assert res.argmax == Slope(-1, 1)
        assert res.value == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert obj(res.argmax) == res.value


class TestTierSweepEquivalence:
    """The tier sweep against a naive per-slope reference on the same queries.

    The reference visits the slopes of enumerate_slopes in the engine's
    evaluation order, takes each state from path_state (the root-to-slope
    walk), and keeps the smallest key (-v, depth, p, q).  Given a subtree
    bound, it skips the slopes of every cell whose bound lies below the best
    value of the shallower tiers, less 1e-12 of it, unless the tier above
    reached that value (the root tier always does).
    """

    DEPTH = 8

    @classmethod
    def engine_order(cls):
        """(slope, depth) to DEPTH: breadth first, but -1/1 comes with the roots."""
        slopes = enumerate_slopes(cls.DEPTH)
        depths = [0, 0, 0] + [d for d in range(1, cls.DEPTH + 1) for _ in range(3 * 2 ** (d - 1))]
        order = list(zip(slopes, depths))
        order.insert(3, order.pop(5))
        assert order[3] == (Slope(-1, 1), 1)
        return order

    @staticmethod
    def cell_of(slope):
        """The tree cells down to the one whose mediant is slope, as (left, right, opp).

        Endpoints are positive-tree slopes, mirrored for the negative block;
        the mirrored root's opposite vertex is 1/1, mirrored -1/1.
        """
        p, q = abs(slope.p), slope.q
        cell = (Slope(0, 1), Slope(1, 0), None if slope.p > 0 else Slope(-1, 1))
        path = [cell]
        while True:
            left, right, _ = cell
            m = Slope(left.p + right.p, left.q + right.q)
            if (m.p, m.q) == (p, q):
                return path
            cell = (left, m, right) if p * m.q < q * m.p else (m, right, left)
            path.append(cell)

    @classmethod
    def naive_values(cls, query):
        def state(s):
            return path_state(s if sign > 0 else s.mirrored(), query.roots, query.combine)

        values, kept, depth_max, best, floor = [], set(), {}, -math.inf, None
        for i, (slope, depth) in enumerate(cls.engine_order()):
            if i >= 4 and query.subtree_bound is not None:
                if depth > values[-1][1]:  # the first slope of a tier
                    top = depth_max.get(depth - 1, -math.inf)
                    floor = None if top >= best else best - 1e-12 * abs(best)
                sign = 1 if slope.p > 0 else -1
                *parents, cell = [(sign, c) for c in cls.cell_of(slope)]
                if len(parents) > 1 and parents[-1] not in kept:
                    continue
                if floor is not None and query.subtree_bound(*map(state, cell[1])) < floor:
                    continue
                kept.add(cell)
            v = query.objective(path_state(slope, query.roots, query.combine))
            values.append((v, depth, slope))
            depth_max[depth] = max(depth_max.get(depth, -math.inf), v)
            best = max(best, v)
        return values

    @staticmethod
    def naive_result(values, query):
        # the four roots (-1/1 included) are always evaluated
        kept = [e for i, e in enumerate(values) if i < 4 or e[1] <= query.max_depth]
        kept = kept[:query.max_evals]
        best = min((-v, d, s.p, s.q) for v, d, s in kept)
        depth_max = {}
        for v, d, _ in kept:
            depth_max[d] = max(depth_max.get(d, -math.inf), v)
        running, stab = -math.inf, 0
        for d in sorted(depth_max):
            if depth_max[d] > running + query.tolerance:
                stab = d
            running = max(running, depth_max[d])
        return (-best[0], Slope(best[2], best[3]), len(kept), stab, max(depth_max))

    def check_against_reference(self, make_query):
        values = self.naive_values(make_query(self.DEPTH, 200_000))
        # full sweeps, and cuts inside the root tier and inside both blocks
        limits = [(d, m) for d in range(self.DEPTH + 1) for m in (*range(4, 51), 200_000)]
        for depth, max_evals in limits:
            query = make_query(depth, max_evals)
            res = maximize(query)
            got = (res.value, res.argmax, res.evals, res.stabilization_depth, res.depth_reached)
            assert got == self.naive_result(values, query), (depth, max_evals)
        return values

    @staticmethod
    def captured(call):
        """The SupQuery a ptorus entry point hands to the engine."""
        seen = []
        original = ptorus.maximize
        ptorus.maximize = lambda query: seen.append(query) or original(query)
        try:
            call()
        finally:
            ptorus.maximize = original
        return seen[0]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_thurston_distance_and_norm(self, seed):
        rng = random.Random(seed)
        src, dst = (from_parameters(rng.uniform(3, 6), rng.uniform(3, 6)) for _ in range(2))
        v = tangent_from_chart(src, rng.uniform(-1, 1), rng.uniform(-1, 1))
        distance = self.captured(lambda: thurston_distance(src, dst, max_depth=0))
        norm = self.captured(lambda: thurston_norm(src, v, max_depth=0))
        for query in (distance, norm):
            self.check_against_reference(
                lambda d, m: dataclasses.replace(query, max_depth=d, max_evals=m))

    def test_stateless_query(self):
        self.check_against_reference(
            lambda d, m: SupQuery(TestMonotonicityAndDeterminism._bumpy, None,
                                  max_depth=d, max_evals=m))

    @pytest.mark.parametrize("peaks", [("5/2", "2/5"), ("2/5", "-1/3"), ("-4/3", "-3/4", "7/2")])
    def test_ties_inside_a_tier_go_to_the_smaller_slope(self, peaks):
        # each set of peaks shares one depth; the smallest (p, q) must win
        peaks = {Slope.parse(text) for text in peaks}
        self.check_against_reference(
            lambda d, m: SupQuery(lambda s: 2.0 if s in peaks else 1.0, None,
                                  max_depth=d, max_evals=m))
        assert maximize(SupQuery(lambda s: 2.0 if s in peaks else 1.0, None)).argmax == min(peaks)

    def test_constant_objective_keeps_first_root(self):
        # a self-distance: every ratio is exactly 1, so every tier ties
        point = from_parameters(3.7, 5.2)
        query = self.captured(lambda: thurston_distance(point, point, max_depth=0))
        values = self.check_against_reference(
            lambda d, m: dataclasses.replace(query, max_depth=d, max_evals=m))
        assert {v for v, _, _ in values} == {1.0}
        for depth in range(self.DEPTH + 1):
            res = thurston_distance(point, point, max_depth=depth)
            assert (res.value, res.argmax) == (1.0, Slope(0, 1))
            assert res.evals == (3 * 2 ** depth if depth else 4)
        assert thurston_distance(point, point, max_depth=12, max_evals=1000).evals == 1000


class TestPrunedSweep:
    """An exhaustive query with a bound drops cells that cannot reach the best value."""

    def test_margin_keeps_a_bound_that_rounds_low(self):
        # the peak 2/5 beats the root 0/1 by one ulp, and the bound over the
        # cells above it rounds a few ulps under the peak, so under 0/1's value
        peak, top = Slope(2, 5), math.nextafter(2.0, 3.0)

        def obj(s):
            return top if s == peak else 2.0 if s == Slope(0, 1) else 1.0

        def bound(left, right, opp):
            (up, uq), (vp, vq) = cone_directions(left, right, opp)
            det = up * vq - uq * vp
            inside = (peak.p * vq - peak.q * vp) / det >= 1 and (up * peak.q - uq * peak.p) / det >= 1
            return (top if inside else 1.0) * (1.0 - 2.0 ** -50)

        res = maximize(SupQuery(obj, bound, max_depth=6, exhaustive=True))
        assert (res.value, res.argmax) == (top, peak)
        assert res.evals < 3 * 2 ** 6

    def test_eval_cap_flag_says_whether_a_kept_cell_was_left_out(self):
        obj = lambda s: 1.0 / (1.0 + s.q)
        full = 3 * 2 ** 5
        assert not maximize(SupQuery(obj, None, max_depth=5, max_evals=full)).hit_eval_cap
        assert maximize(SupQuery(obj, None, max_depth=5, max_evals=full - 1)).hit_eval_cap
        # the budget ends with a tier, and the next one still has cells
        assert maximize(SupQuery(obj, None, max_depth=6, max_evals=full)).hit_eval_cap
        # past depth 1 every value is at most 1/2, so the bound 1/2 drops every
        # cell of depth 2 against the best value 1 at 1/0: nothing is left out
        pruned = maximize(SupQuery(obj, constant_bound(0.5), max_depth=5, max_evals=6,
                                   exhaustive=True))
        assert (pruned.evals, pruned.hit_eval_cap) == (6, False)
        assert maximize(SupQuery(obj, constant_bound(0.5), max_depth=5, max_evals=5,
                                 exhaustive=True)).hit_eval_cap


class TestNonFiniteOnEitherBlock:
    @pytest.mark.parametrize("bad", ["-3/5", "-5/3", "-1/2", "-8/13", "3/5", "13/8", "1/7"])
    def test_error_names_the_slope(self, bad):
        target = Slope.parse(bad)

        def obj(s):
            return math.nan if s == target else 1.0

        with pytest.raises(ValueError, match=f"at slope {bad}$"):
            maximize(SupQuery(obj, None, max_depth=7))

    def test_carried_state_error_names_the_slope(self):
        # the objective sees states only, so the name comes from the cell index
        point = from_parameters(3.7, 5.2)
        query = TestTierSweepEquivalence.captured(
            lambda: thurston_distance(point, point, max_depth=0))
        bad = TraceCache(point).log_trace(Slope(-3, 5))

        def obj(state):
            return math.inf if state[0] == bad else 1.0

        with pytest.raises(ValueError, match="at slope -3/5$"):
            maximize(dataclasses.replace(query, objective=obj, max_depth=6))
