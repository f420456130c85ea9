import math
import random

import pytest

from torusmetrics.errors import InvalidPointError, OutOfChartError
from torusmetrics.farey import Slope, enumerate_slopes, root_nodes
from torusmetrics.ptorus import (
    MarkovPoint,
    TraceCache,
    WeightedLamination,
    d_length,
    dehn_twist,
    from_parameters,
    length,
    markov_residual,
    normalized_length_functional,
    tangent_from_chart,
    thurston_distance,
    thurston_norm,
    trace_of_slope,
    _subtree_ratio_bound,
)

from _oracles import central_diff, holonomy_matrices, ptorus_bruteforce_sup, word_trace

MODULAR = MarkovPoint(3.0, 3.0, 3.0)
MIRROR = MarkovPoint(3.0, 3.0, 6.0)


def lam(weight, p, q):
    return WeightedLamination(weight, Slope.of(p, q))


def random_chart_point(rng, lo=3.0, hi=6.0):
    return from_parameters(rng.uniform(lo, hi), rng.uniform(lo, hi))


class TestMarkovPoint:
    def test_modular_point_satisfies_relation(self):
        assert MODULAR.residual == 0.0
        assert markov_residual(3, 3, 6) == 0.0

    def test_rejects_off_variety_triples(self):
        with pytest.raises(InvalidPointError):
            MarkovPoint(3.0, 3.0, 4.0)

    def test_rejects_degenerate_traces(self):
        with pytest.raises(InvalidPointError):
            MarkovPoint(2.0, 12.0, 12.0)

    def test_parse_triple_and_chart(self):
        assert MarkovPoint.parse("3,3,3") == MODULAR
        assert MarkovPoint.parse("chart:3,3") == MIRROR
        with pytest.raises(InvalidPointError):
            MarkovPoint.parse("3,3")
        assert MarkovPoint.parse(str(MIRROR)) == MIRROR


class TestFromParameters:
    def test_takes_larger_root(self):
        point = from_parameters(3.0, 3.0)
        assert (point.x, point.y, point.z) == (3.0, 3.0, 6.0)
        assert 9 + 9 + 36 == 3 * 3 * 6

    def test_four_four_root(self):
        point = from_parameters(4.0, 4.0)
        assert point.z == pytest.approx(8.0 + 4.0 * math.sqrt(2.0), rel=1e-15)
        assert point.residual <= 1e-9

    def test_out_of_chart_rejected(self):
        with pytest.raises(OutOfChartError):
            from_parameters(2.5, 2.5)
        with pytest.raises(OutOfChartError):
            from_parameters(1.5, 8.0)

    def test_random_chart_points_satisfy_relation(self):
        rng = random.Random(3)
        for _ in range(50):
            point = random_chart_point(rng)
            assert point.residual <= 1e-9


class TestTraceOfSlope:
    def test_base_dictionary(self):
        jet = trace_of_slope(MODULAR, Slope(1, 0))
        assert jet.t == 3.0
        assert jet.grad == pytest.approx((1.0, 0.0, 0.0), abs=1e-15)
        assert trace_of_slope(MODULAR, Slope(0, 1)).t == 3.0
        assert trace_of_slope(MODULAR, Slope(1, 1)).t == 3.0

    def test_one_recursion_step(self):
        # 2/1 completes the triangle (1/1, 1/0): z*x - y
        assert trace_of_slope(MODULAR, Slope(2, 1)).t == pytest.approx(6.0, abs=1e-12)

    def test_mirror_side_traces(self):
        assert trace_of_slope(MODULAR, Slope(-1, 1)).t == pytest.approx(6.0, abs=1e-12)
        # x*(xy - z) - y at (3,3,3)
        assert trace_of_slope(MODULAR, Slope(-2, 1)).t == pytest.approx(15.0, abs=1e-12)

    def test_gradients_match_chart_finite_differences(self):
        rng = random.Random(17)
        slopes = enumerate_slopes(10)
        base = (3.4, 4.1)
        for s in [rng.choice(slopes) for _ in range(40)]:
            if s.q == 0 and s.p == 1:
                continue

            def trace_on_chart(x, y):
                return trace_of_slope(from_parameters(x, y), s).t

            point = from_parameters(*base)
            jet = trace_of_slope(point, s)
            fz = 2 * point.z - point.x * point.y
            dzdx = -(2 * point.x - point.y * point.z) / fz
            dzdy = -(2 * point.y - point.x * point.z) / fz
            expect_x = jet.grad[0] + jet.grad[2] * dzdx
            expect_y = jet.grad[1] + jet.grad[2] * dzdy
            got_x = central_diff(lambda x: trace_on_chart(x, base[1]), base[0])
            got_y = central_diff(lambda y: trace_on_chart(base[0], y), base[1])
            assert got_x == pytest.approx(expect_x, rel=1e-5, abs=1e-5)
            assert got_y == pytest.approx(expect_y, rel=1e-5, abs=1e-5)

    def test_vertex_relation_along_tree(self):
        # each Farey triangle's trace triple lies on the Markov variety
        cache = TraceCache(MODULAR)
        frontier = list(root_nodes())
        while frontier:
            node = frontier.pop()
            if node.depth > 10:
                continue
            a, b = node.endpoint_slopes()
            m = node.mediant_slope()
            ta, tb, tm = (cache.jet(s).t for s in (a, b, m))
            assert markov_residual(ta, tb, tm) <= 1e-9
            frontier.extend(node.children())

    @pytest.mark.parametrize("params", [(3.2, 4.1), (3.0, 3.0), (5.5, 3.3)])
    def test_against_explicit_holonomy_matrices(self, params):
        # build actual SL(2,R) generators with the prescribed traces and
        # multiply out the word of each curve; the cusp condition
        # tr[A,B] = -2 comes for free from the trace identity
        import numpy as np

        point = from_parameters(*params)
        a, b = holonomy_matrices(point)
        commutator = a @ b @ np.linalg.inv(a) @ np.linalg.inv(b)
        assert float(np.trace(commutator)) == pytest.approx(-2.0, abs=1e-9)
        for s in enumerate_slopes(6):
            expected = word_trace(s, a, b)
            assert trace_of_slope(point, s).t == pytest.approx(expected, rel=1e-9)

    def test_deep_slope_stays_finite_in_log_space(self):
        p, q = 610, 987  # consecutive Fibonacci numbers: a balanced deep slope
        jet = trace_of_slope(MODULAR, Slope(p, q))
        assert jet.t == math.inf
        assert math.isfinite(jet.log_t)
        ell = length(MODULAR, lam(1, p, q))
        assert ell == pytest.approx(2.0 * jet.log_t, rel=1e-9)


class TestLengthAndDifferential:
    def test_frozen_base_length(self):
        ell = length(MODULAR, lam(1, 1, 0))
        assert ell == pytest.approx(2.0 * math.acosh(1.5), abs=1e-12)
        assert math.cosh(ell / 2.0) == pytest.approx(1.5, abs=1e-12)

    def test_weight_scales_length_and_covector(self):
        g1 = d_length(MODULAR, lam(1, 1, 2))
        g2 = d_length(MODULAR, lam(2, 1, 2))
        assert length(MODULAR, lam(2, 1, 2)) == pytest.approx(
            2 * length(MODULAR, lam(1, 1, 2)), rel=1e-14
        )
        assert (g2.gx, g2.gy, g2.gz) == pytest.approx((2 * g1.gx, 2 * g1.gy, 2 * g1.gz))

    def test_differential_matches_chart_finite_differences(self):
        rng = random.Random(19)
        slopes = enumerate_slopes(5)
        for _ in range(60):
            x0, y0 = rng.uniform(3.1, 5.5), rng.uniform(3.1, 5.5)
            s = rng.choice(slopes)
            weighted = lam(rng.uniform(0.5, 2.0), s.p, s.q)
            point = from_parameters(x0, y0)
            got_x = d_length(point, weighted).pair(tangent_from_chart(point, 1.0, 0.0))
            got_y = d_length(point, weighted).pair(tangent_from_chart(point, 0.0, 1.0))
            fx = central_diff(lambda x: length(from_parameters(x, y0), weighted), x0)
            fy = central_diff(lambda y: length(from_parameters(x0, y), weighted), y0)
            scale = max(1.0, abs(fx), abs(fy))
            assert abs(got_x - fx) / scale < 1e-6
            assert abs(got_y - fy) / scale < 1e-6


class TestTangentLift:
    def test_lift_satisfies_tangency(self):
        v = tangent_from_chart(MIRROR, 1.0, -0.5)
        assert (v.wx, v.wy) == (1.0, -0.5)

    def test_singular_chart_boundary(self):
        s = 2.0 * math.sqrt(2.0)
        boundary = from_parameters(s, s)  # double root: z = xy/2
        with pytest.raises(OutOfChartError):
            tangent_from_chart(boundary, 1.0, 0.0)

    def test_rejects_non_tangent_triples(self):
        from torusmetrics.ptorus import PTTangent

        with pytest.raises(ValueError):
            PTTangent(1.0, 1.0, 1.0, MODULAR)


class TestThurstonDistance:
    def test_identical_points_give_zero(self):
        res = thurston_distance(MODULAR, MODULAR, max_depth=8)
        assert res.value == 1.0
        assert math.log(res.value) == 0.0

    def test_documented_pair_value(self):
        # sup located at 1/1; ratio arccosh(3)/arccosh(3/2)
        res = thurston_distance(MODULAR, MIRROR, max_depth=12)
        expected = math.acosh(3.0) / math.acosh(1.5)
        assert res.argmax == Slope(1, 1)
        assert res.value == pytest.approx(expected, rel=1e-12)
        assert math.log(res.value) >= math.log(1.83) > 0.6

    def test_matches_bruteforce_at_same_depth(self):
        for depth in (10, 14):
            res = thurston_distance(MODULAR, MIRROR, max_depth=depth)
            brute, brute_slope = ptorus_bruteforce_sup(MODULAR, MIRROR, depth)
            assert res.value == pytest.approx(brute, rel=1e-12)
            assert (res.argmax.p, res.argmax.q) == brute_slope

    def test_lower_bound_soundness(self):
        src, dst = MODULAR, from_parameters(3.0, 4.0)
        res = thurston_distance(src, dst, max_depth=12)
        reported = math.log(res.value)
        for s in enumerate_slopes(8):
            ratio = length(dst, lam(1, s.p, s.q)) / length(src, lam(1, s.p, s.q))
            assert math.log(ratio) <= reported + 1e-12

    def test_mirror_conjugate_pair_is_exactly_symmetric(self):
        # (3,3,6) is the image of (3,3,3) under the reflection that sends
        # each slope p/q to -p/q, which is a d_L isometry: the directed
        # distances agree and the maximizers are mirror images
        fwd = thurston_distance(MODULAR, MIRROR, max_depth=12)
        rev = thurston_distance(MIRROR, MODULAR, max_depth=12)
        assert math.log(fwd.value) == pytest.approx(math.log(rev.value), abs=1e-12)
        assert rev.argmax == fwd.argmax.mirrored()

    def test_documented_asymmetric_pair(self):
        src, dst = MODULAR, from_parameters(3.0, 4.0)
        fwd = math.log(thurston_distance(src, dst, max_depth=12).value)
        rev = math.log(thurston_distance(dst, src, max_depth=12).value)
        assert abs(fwd - rev) == pytest.approx(0.04802572291862728, abs=1e-9)
        assert abs(fwd - rev) > 0.01

    def test_directed_triangle_inequality(self):
        rng = random.Random(29)
        tol = 1e-3
        for _ in range(20):
            a, b, c = (random_chart_point(rng) for _ in range(3))
            dab = math.log(thurston_distance(a, b, tol=tol, max_depth=10).value)
            dbc = math.log(thurston_distance(b, c, tol=tol, max_depth=10).value)
            dac = math.log(thurston_distance(a, c, tol=tol, max_depth=10).value)
            assert dac <= dab + dbc + 3 * tol

    def test_certified_bound_is_sound_on_subtrees(self):
        # the pruning bound must dominate the true objective everywhere in
        # the cell: compare against explicit deep enumeration per cell
        cx, cy = TraceCache(MODULAR), TraceCache(from_parameters(3.0, 4.0))

        def bound(cell):
            # the (log t_X, log t_Y) states the sweep carries to the cell
            a, b = cell.endpoint_slopes()
            states = [(cx.log_trace(s), cy.log_trace(s)) for s in (a, b, cell.opposite_slope())]
            return _subtree_ratio_bound(*states)

        def interior_max(node, levels):
            best = -math.inf
            frontier = [node]
            for _ in range(levels):
                nxt = []
                for cell in frontier:
                    m = cell.mediant_slope()
                    best = max(best, cy.length(m) / cx.length(m))
                    nxt.extend(cell.children())
                frontier = nxt
            return best

        frontier = list(root_nodes())
        for _ in range(5):
            nxt = []
            for cell in frontier:
                assert bound(cell) >= interior_max(cell, 10)
                nxt.extend(cell.children())
            frontier = nxt

    def test_certified_run_brackets_bruteforce(self):
        tol = 5e-3
        res = thurston_distance(
            MODULAR, MIRROR, tol=tol, max_depth=2000, max_evals=100_000,
            certified_bound=True,
        )
        assert res.certified
        assert res.frontier_bound - res.value <= tol
        brute, _ = ptorus_bruteforce_sup(MODULAR, MIRROR, 16)
        assert res.value <= brute + 1e-9
        assert brute <= res.value + tol


class TestThurstonNorm:
    def test_zero_vector(self):
        v = tangent_from_chart(MODULAR, 0.0, 0.0)
        assert thurston_norm(MODULAR, v, max_depth=8).value == 0.0

    def test_single_curve_lower_bound(self):
        point = MODULAR
        v = tangent_from_chart(point, 1.0, 0.0)
        # d(log length) of the slope-1/0 curve along V, in closed form
        t = point.x
        analytic = (2.0 * v.wx / math.sqrt(t * t - 4.0)) / (2.0 * math.acosh(t / 2.0))
        res = thurston_norm(point, v, max_depth=10)
        assert res.value >= analytic - 1e-12
        assert analytic == pytest.approx(0.4646743619, abs=1e-9)

    def test_norm_vanishes_only_at_zero(self):
        rng = random.Random(31)
        for _ in range(10):
            point = random_chart_point(rng)
            v = tangent_from_chart(point, rng.uniform(-1, 1), rng.uniform(-1, 1))
            if abs(v.wx) + abs(v.wy) < 1e-3:
                continue
            assert thurston_norm(point, v, max_depth=10).value > 0.0

    def test_finite_difference_limit_linear_decay(self):
        rng = random.Random(37)
        for _ in range(5):
            x0, y0 = rng.uniform(3.2, 5.0), rng.uniform(3.2, 5.0)
            point = from_parameters(x0, y0)
            vx, vy = rng.uniform(-1, 1), rng.uniform(-1, 1)
            v = tangent_from_chart(point, vx, vy)
            n = thurston_norm(point, v, max_depth=10).value
            errs = []
            for t in (1e-2, 1e-3):
                moved = from_parameters(x0 + t * vx, y0 + t * vy)
                d = math.log(thurston_distance(point, moved, max_depth=10).value)
                errs.append(abs(d / t - n))
            assert errs[1] <= max(0.3 * errs[0], 1e-10)

    def test_weak_norm_axioms_exact_on_fixed_slope_family(self):
        rng = random.Random(41)
        for _ in range(50):
            point = random_chart_point(rng)
            v1 = tangent_from_chart(point, rng.uniform(-1, 1), rng.uniform(-1, 1))
            v2 = tangent_from_chart(point, rng.uniform(-1, 1), rng.uniform(-1, 1))
            t = rng.uniform(0.0, 3.0)
            n1 = thurston_norm(point, v1, max_depth=7).value
            n2 = thurston_norm(point, v2, max_depth=7).value
            scaled = thurston_norm(point, v1.scaled(t), max_depth=7).value
            total = thurston_norm(point, v1 + v2, max_depth=7).value
            assert scaled == pytest.approx(t * n1, rel=1e-9, abs=1e-12)
            assert total <= n1 + n2 + 1e-9 * max(1.0, n1 + n2)

    def test_documented_norm_asymmetry(self):
        point = from_parameters(3.0, 4.0)
        v = tangent_from_chart(point, 1.0, 0.0)
        fwd = thurston_norm(point, v, max_depth=10).value
        rev = thurston_norm(point, -v, max_depth=10).value
        assert abs(fwd - rev) == pytest.approx(0.0309750034, abs=1e-8)
        assert abs(fwd - rev) > 0.01

    def test_path_length_bounds_distance_below(self):
        rng = random.Random(43)
        tol = 1e-3
        for _ in range(4):
            x0, y0 = rng.uniform(3.2, 4.6), rng.uniform(3.2, 4.6)
            x1, y1 = x0 + rng.uniform(-0.5, 0.7), y0 + rng.uniform(-0.5, 0.7)
            src, dst = from_parameters(x0, y0), from_parameters(x1, y1)
            steps = 48
            total = 0.0
            for i in range(steps):
                s = (i + 0.5) / steps
                mid = from_parameters(x0 + s * (x1 - x0), y0 + s * (y1 - y0))
                vel = tangent_from_chart(mid, (x1 - x0) / steps, (y1 - y0) / steps)
                total += thurston_norm(mid, vel, tol=tol, max_depth=8).value
            d = math.log(thurston_distance(src, dst, tol=tol, max_depth=10).value)
            assert total >= d - 5 * tol


class TestDehnTwist:
    def test_zero_twists_is_identity(self):
        assert dehn_twist(MODULAR, Slope(1, 0), 0) == MODULAR

    def test_single_twist_matches_algebra(self):
        assert dehn_twist(MODULAR, Slope(1, 0), 1) == MIRROR
        # (x, y, z) -> (z, y, yz - x) about 0/1 and (y, yz - x, z) about 1/1
        assert dehn_twist(MODULAR, Slope(0, 1), 1) == MarkovPoint(3.0, 3.0, 6.0)
        assert dehn_twist(MODULAR, Slope(1, 1), 1) == MarkovPoint(3.0, 6.0, 3.0)

    def test_inverse_round_trip(self):
        # unwinding amplifies rounding by roughly z^2 per step, so only
        # short round trips stay inside the residual gate
        point = from_parameters(3.1, 3.3)
        for about in (Slope(1, 0), Slope(0, 1), Slope(1, 1)):
            for k in (1, 2, 3):
                there = dehn_twist(point, about, k)
                back = dehn_twist(there, about, -k)
                assert back.x == pytest.approx(point.x, rel=1e-9)
                assert back.y == pytest.approx(point.y, rel=1e-9)
                assert back.z == pytest.approx(point.z, rel=1e-9)

    def test_invariant_and_base_trace_preserved_along_orbit(self):
        point = MODULAR
        for k in range(1, 51):
            point = dehn_twist(point, Slope(1, 0), 1)
            assert point.residual <= 1e-9
            assert point.x == 3.0  # trace about the twisting curve

    def test_other_traces_grow_without_bound(self):
        values = [
            trace_of_slope(dehn_twist(MODULAR, Slope(1, 0), k), Slope(0, 1)).log_t
            for k in range(1, 30)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            dehn_twist(MODULAR, Slope(1, 0), 100_000)

    def test_rejects_non_base_slopes(self):
        with pytest.raises(ValueError):
            dehn_twist(MODULAR, Slope(1, 2), 1)


class TestBoundaryConvergence:
    def test_normalized_functional_at_basepoint(self):
        weighted = lam(1.0, 0, 1)
        value = normalized_length_functional(MODULAR, MODULAR, weighted, max_depth=8)
        assert value == pytest.approx(length(MODULAR, weighted), rel=1e-12)

    def test_ratio_trend_toward_intersection_numbers(self):
        # both curves cross the twisting curve once, so the normalized
        # ratio tends to 1; errors shrink along the orbit
        errs = {}
        for k in (10, 25, 50):
            point = dehn_twist(MODULAR, Slope(1, 0), k)
            r = length(point, lam(1, 0, 1)) / length(point, lam(1, 1, 1))
            errs[k] = abs(r - 1.0)
        assert errs[50] < errs[25] < errs[10]

    def test_twist_curve_itself_collapses_projectively(self):
        ratios = {}
        for k in (10, 50):
            point = dehn_twist(MODULAR, Slope(1, 0), k)
            ratios[k] = length(point, lam(1, 1, 0)) / length(point, lam(1, 0, 1))
        assert ratios[50] < ratios[10]
        assert ratios[50] < 0.05

    def test_normalization_cancels_in_ratios(self):
        point = dehn_twist(MODULAR, Slope(1, 0), 12)
        a, b = lam(1, 0, 1), lam(1, 1, 2)
        direct = length(point, a) / length(point, b)
        normalized = normalized_length_functional(
            MODULAR, point, a, max_depth=8
        ) / normalized_length_functional(MODULAR, point, b, max_depth=8)
        assert normalized == pytest.approx(direct, rel=1e-12)
