import dataclasses
import math
import random
import re

import pytest

from torusmetrics import ptorus
from torusmetrics.errors import InvalidPointError, OutOfChartError
from torusmetrics.farey import (
    SLOPE_ROOTS, Slope, add_slopes, enumerate_slopes, mediant_state, path_state, root_cells,
    root_nodes, split,
)
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
    _subtree_ratio_bound,
)
from torusmetrics.supratio import SupQuery, maximize

from _oracles import (
    LOG2,
    central_diff,
    dehn_twist_reference,
    dlen_factor_reference,
    ell_from_log_reference,
    exact_dlog_length,
    exact_length,
    holonomy_matrices,
    jet_step_reference,
    length_ratio_reference,
    log_step_reference,
    norm_objective_reference,
    pair_step_reference,
    ptorus_bruteforce_sup,
    swept_states,
    word_trace,
)

MODULAR = MarkovPoint(3.0, 3.0, 3.0)
MIRROR = MarkovPoint(3.0, 3.0, 6.0)


def lam(weight, p, q):
    return WeightedLamination(weight, Slope.of(p, q))


def random_chart_point(rng, lo=3.0, hi=6.0):
    return from_parameters(rng.uniform(lo, hi), rng.uniform(lo, hi))


def random_thin_point(rng):
    # near the chart's edge, where the 1/0 curve is short
    x = rng.uniform(2.2, 3.0)
    y_min = 2.0 * x / math.sqrt(x * x - 4.0)  # the chart is real from here on
    return from_parameters(x, rng.uniform(1.01 * y_min, y_min + 3.0))


class TestMarkovPoint:
    def test_modular_point_satisfies_relation(self):
        assert MODULAR.residual == 0.0
        assert markov_residual(3, 3, 6) == 0.0

    def test_rejects_off_variety_triples(self):
        with pytest.raises(InvalidPointError):
            MarkovPoint(3.0, 3.0, 4.0)

    def test_rejects_triples_whose_residual_is_nan(self):
        with pytest.raises(InvalidPointError):
            MarkovPoint(1e200, 1e200, 1e200)

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
        assert point.z == pytest.approx(8.0 + 4.0 * math.sqrt(2.0), rel=1e-15, abs=0)
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
        cache = TraceCache(MODULAR)
        assert cache.log_trace(Slope(1, 0)) == math.log(3.0)
        assert cache.log_trace(Slope(0, 1)) == math.log(3.0)
        assert cache.log_trace(Slope(1, 1)) == math.log(3.0)
        # d(2 arccosh(x/2))/dx = 2/sqrt(x^2 - 4) at the slope 1/0, which carries x
        _, *grad = cache.length_dlog(Slope(1, 0))
        assert grad == pytest.approx([2.0 / math.sqrt(5.0), 0.0, 0.0], abs=1e-15)

    def test_one_recursion_step(self):
        # 2/1 completes the triangle (1/1, 1/0): z*x - y
        log_t = TraceCache(MODULAR).log_trace(Slope(2, 1))
        assert log_t == pytest.approx(math.log(6.0), abs=1e-12)

    def test_mirror_side_traces(self):
        cache = TraceCache(MODULAR)
        assert cache.log_trace(Slope(-1, 1)) == pytest.approx(math.log(6.0), abs=1e-12)
        # x*(xy - z) - y at (3,3,3)
        assert cache.log_trace(Slope(-2, 1)) == pytest.approx(math.log(15.0), abs=1e-12)

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
            ta, tb, tm = (math.exp(cache.log_trace(s)) for s in (a, b, m))
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
        cache = TraceCache(point)
        for s in enumerate_slopes(6):
            expected = word_trace(s, a, b)
            assert math.exp(cache.log_trace(s)) == pytest.approx(expected, rel=1e-9, abs=0)

    def test_deep_slope_stays_finite_in_log_space(self):
        p, q = 610, 987  # consecutive Fibonacci numbers: a balanced deep slope
        log_t = TraceCache(MODULAR).log_trace(Slope(p, q))
        assert math.isfinite(log_t)
        ell = length(MODULAR, lam(1, p, q))
        assert ell == pytest.approx(2.0 * log_t, rel=1e-9, abs=0)

    @pytest.mark.xfail(
        strict=True,
        reason="log-space cancellation: t = t_a*t_b - t_c of a short curve under long "
               "neighbours keeps a ~0.3% error",
    )
    def test_short_curve_under_long_neighbours_matches_exact_recursion(self):
        # 11/13 at this twisted point is short (~1.406) between long Farey
        # neighbours; the library gives 1.4017948453979605, and so
        # thurston_distance(X, dehn_twist(base, 1/1, -3), tol=1e-6,
        # max_depth=2000, certified_bound=True) certifies 20.88813543205761 at
        # 11/13, 0.29% above the exact ratio 20.82684605085858
        X = dehn_twist(from_parameters(3.3, 4.1), Slope(1, 1), -6)
        s = Slope(11, 13)
        assert TraceCache(X).length(s) == pytest.approx(exact_length(X, s), rel=1e-9, abs=0)

    def test_n_over_1_and_its_children_match_exact_recursion(self):
        # the cells of +-n/1 combine their right endpoint 1/0 first, as every
        # cell does, which rounds unlike the other order; it must cost no
        # accuracy, at thick points and at thin ones whose 1/0 curve is short
        rng = random.Random(45)
        slopes = [Slope(sign * p, q) for n in range(2, 41) for p, q in ((n, 1), (2 * n - 1, 2))
                  for sign in (1, -1)]
        points = [random_chart_point(rng) for _ in range(4)]
        points += [random_thin_point(rng) for _ in range(4)]
        for point in points:
            cache = TraceCache(point)
            for s in slopes:
                assert cache.length(s) == pytest.approx(
                    exact_length(point, s), rel=1e-11, abs=0), (point, s)


class TestLengthAndDifferential:
    def test_frozen_base_length(self):
        ell = length(MODULAR, lam(1, 1, 0))
        assert ell == pytest.approx(2.0 * math.acosh(1.5), abs=1e-12)
        assert math.cosh(ell / 2.0) == pytest.approx(1.5, abs=1e-12)

    def test_weight_scales_length_and_covector(self):
        g1 = d_length(MODULAR, lam(1, 1, 2))
        g2 = d_length(MODULAR, lam(2, 1, 2))
        assert length(MODULAR, lam(2, 1, 2)) == pytest.approx(
            2 * length(MODULAR, lam(1, 1, 2)), rel=1e-14, abs=0
        )
        assert (g2.gx, g2.gy, g2.gz) == pytest.approx((2 * g1.gx, 2 * g1.gy, 2 * g1.gz))

    def test_differential_matches_chart_finite_differences(self):
        rng = random.Random(19)
        slopes = enumerate_slopes(5)
        cases = []
        for _ in range(60):
            x0, y0 = rng.uniform(3.1, 5.5), rng.uniform(3.1, 5.5)
            s = rng.choice(slopes)
            cases.append((x0, y0, lam(rng.uniform(0.5, 2.0), s.p, s.q)))
        # deeper slopes, down to depth 10, at one point
        rng = random.Random(17)
        deep = enumerate_slopes(10)
        cases += [(3.4, 4.1, lam(1.0, s.p, s.q)) for s in (rng.choice(deep) for _ in range(40))]
        for x0, y0, weighted in cases:
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_entries(self, bad):
        # a NaN defect compares false, so tangency alone would let it through
        from torusmetrics.ptorus import PTTangent

        for entries in ((bad, 0.0, 0.0), (0.0, bad, 0.0), (0.0, 0.0, bad)):
            with pytest.raises(ValueError, match="^tangent vector entries must be finite$"):
                PTTangent(*entries, MODULAR)
        with pytest.raises(ValueError, match="^tangent vector entries must be finite$"):
            tangent_from_chart(MIRROR, bad, 0.0)


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
        assert res.value == pytest.approx(expected, rel=1e-12, abs=0)
        assert math.log(res.value) >= math.log(1.83) > 0.6

    def test_matches_bruteforce_at_same_depth(self):
        for depth in (10, 14):
            res = thurston_distance(MODULAR, MIRROR, max_depth=depth)
            brute, brute_slope = ptorus_bruteforce_sup(MODULAR, MIRROR, depth)
            assert res.value == pytest.approx(brute, rel=1e-12, abs=0)
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

    @pytest.mark.parametrize("lo, hi", [(2.05, 3.5), (3.0, 6.0), (3.0, 9.0)])
    def test_certified_bound_is_sound_deep_along_rays(self, lo, hi):
        # on a ray of cells that keep one endpoint the bound closes slowest;
        # check cells up to 401 levels deep on every ray out of the roots'
        # children (toward 0/1, 1/0 and +-1/1) against their interiors
        def mediant(a, b, c):  # (log t_X, log t_Y) by t_m = t_a t_b - t_c
            return tuple(la + lb + math.log1p(-math.exp(lc - la - lb))
                         for la, lb, lc in zip(a, b, c))

        def ell(lt):
            return 2.0 * math.acosh(0.5 * math.exp(lt)) if lt < 30.0 else 2.0 * (
                lt - math.log(2.0) + math.log1p(math.sqrt(1.0 - 4.0 * math.exp(-2.0 * lt))))

        def ratio(state):
            return ell(state[1]) / ell(state[0])

        def child(cell, go_right):
            left, right, opp = cell
            mid = mediant(left, right, opp)
            return (mid, right, left) if go_right else (left, mid, right)

        def interior_max(cell, levels):
            best, frontier = -math.inf, [cell]
            for _ in range(levels):
                best = max(best, *(ratio(mediant(*c)) for c in frontier))
                frontier = [child(c, side) for c in frontier for side in (False, True)]
            return best

        def ray_max(cell, go_right, steps):
            best = -math.inf
            for _ in range(steps):
                best = max(best, ratio(mediant(*cell)))
                cell = child(cell, go_right)
            return best

        def chart_point(rng):  # rejection sampling: [2.05, 3.5]^2 is partly out of chart
            while True:
                try:
                    return random_chart_point(rng, lo, hi)
                except OutOfChartError:
                    pass

        rng = random.Random(f"deep rays {lo} {hi}")
        for _ in range(3):
            src, dst = chart_point(rng), chart_point(rng)
            s0, s_inf, s1 = ((math.log(a), math.log(b)) for a, b in
                             ((src.y, dst.y), (src.x, dst.x), (src.z, dst.z)))
            s_neg = mediant(s_inf, s0, s1)
            for root in ((s0, s_inf, s_neg), (s0, s_inf, s1)):
                for first in (False, True):
                    for go_right in (False, True):
                        cell = child(root, first)
                        depth = 0
                        for k in (20, 100, 400):
                            for _ in range(k - depth):
                                cell = child(cell, go_right)
                            depth = k
                            bound = _subtree_ratio_bound(*cell)
                            assert bound >= interior_max(cell, 10)
                            assert bound >= ray_max(cell, go_right, 600)

    @pytest.mark.parametrize("tol, max_evals", [(1e-6, 50), (1e-9, 100)])
    def test_documented_pair_certifies_tight_in_few_evals(self, tol, max_evals):
        res = thurston_distance(MODULAR, MIRROR, tol=tol, max_depth=2000, certified_bound=True)
        assert res.certified
        assert res.evals <= max_evals
        assert res.argmax == Slope(1, 1)
        assert res.value == pytest.approx(math.acosh(3.0) / math.acosh(1.5), rel=1e-12, abs=0)


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


    def test_objective_matches_exact_jets(self):
        # the swept (log t, D_V, D_W) states, scored by _dlog_length, against (t, dt)
        # carried exactly from the same float triple and tangent, to depth 7
        rng = random.Random(52)
        points = [random_chart_point(rng) for _ in range(4)]
        points += [random_thin_point(rng) for _ in range(4)]
        slopes, _ = swept_states(SLOPE_ROOTS, add_slopes, 7)
        for point in points:
            v = tangent_from_chart(point, rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
            states, _ = swept_states(_norm_query(point, v).roots, ptorus._jet_step, 7)
            assert len(states) == len(slopes) == 3 * 2 ** 7
            scale = max(abs(exact_dlog_length(point, v, s)) for s in SLOPE_ROOTS)
            for slope, state in zip(slopes, states):
                want = exact_dlog_length(point, v, slope)
                assert abs(ptorus._dlog_length(state) - want) <= 1e-12 * scale, (point, v, slope)


def _thin_point(rng):
    # x from 2.001: the 1/0 curve is as short as 0.06
    x = rng.uniform(2.001, 2.3)
    y_min = 2.0 * x / math.sqrt(x * x - 4.0)
    return from_parameters(x, rng.uniform(1.01 * y_min, y_min + 3.0))


_NORM_RNG = random.Random(20261022)
NORM_POINTS = {
    "thick": [random_chart_point(_NORM_RNG) for _ in range(2)],
    "thin": [_thin_point(_NORM_RNG) for _ in range(2)],
    "twisted": [dehn_twist(random_chart_point(_NORM_RNG), about, k)
                for about, k in ((Slope(1, 0), 3), (Slope(1, 1), -2))],
}


class TestNormBound:
    """_norm_bound against the slopes inside each cell, and the convexity it rests on."""

    DIRECTIONS = [(math.cos(math.pi * k / 6), math.sin(math.pi * k / 6)) for k in range(12)]

    @staticmethod
    def cells(roots, depth):
        """Every cell of the tree down to depth, as farey cells over (log t, D_V, D_W) states."""
        pos, neg = root_cells(roots)
        todo = [*split(pos, roots[2]), neg]
        for cell in todo:
            if cell[4] < depth:
                todo.extend(split(cell, mediant_state(cell, ptorus._jet_step)))
        return todo

    @staticmethod
    def interior(cell, levels):
        """The objective at every slope of the cell's first levels."""
        values, frontier = [], [cell]
        for _ in range(levels):
            mids = [mediant_state(c, ptorus._jet_step) for c in frontier]
            values += map(ptorus._dlog_length, mids)
            frontier = [child for c, m in zip(frontier, mids) for child in split(c, m)]
        return values

    @staticmethod
    def ray(cell, side, first=20, last=400):
        """The objective at right + j*left (side 0) or left + j*right (side 1), j = first..last."""
        values = []
        for j in range(1, last + 1):
            mid = mediant_state(cell, ptorus._jet_step)
            if j >= first:
                values.append(ptorus._dlog_length(mid))
            cell = split(cell, mid)[side]
        return values

    @pytest.mark.parametrize("kind", sorted(NORM_POINTS))
    def test_bound_covers_the_interior_and_both_rays(self, kind):
        checked = infinite = 0
        for point in NORM_POINTS[kind]:
            for vx, vy in self.DIRECTIONS:
                roots = _norm_query(point, tangent_from_chart(point, vx, vy)).roots
                for cell in self.cells(roots, 4):
                    bound = ptorus._norm_bound(*cell[5:])
                    inside = self.interior(cell, 8) + self.ray(cell, 0) + self.ray(cell, 1)
                    assert bound >= max(inside), (point, vx, vy, cell[:5])
                    checked += 1
                    infinite += bound == math.inf
        assert checked == 2 * 12 * 45 and infinite <= checked // 10

    @pytest.mark.parametrize("kind", sorted(NORM_POINTS))
    def test_covectors_are_in_convex_position_around_zero(self, kind):
        # Thurston's dual ball: the covectors d log ell_s of the slopes to depth 8,
        # in the (V, W) plane and in cyclic slope order, are the vertices of a
        # convex polygon that winds once round 0.  Deep corners are finer than a
        # double resolves, so a vertex may sit inside its neighbours' chord by
        # rounding, by at most 1e-14 of the largest covector (3.6e-16 was seen)
        slopes = sorted(enumerate_slopes(8), key=lambda s: (s.q > 0, s.p / max(s.q, 1)))

        def cross(a, b):
            return a[0] * b[1] - a[1] * b[0]

        def rounds(path):
            return sum(math.atan2(cross(a, b), a[0] * b[0] + a[1] * b[1])
                       for a, b in zip(path, path[1:] + path[:1])) / (2.0 * math.pi)

        for point in NORM_POINTS[kind]:
            for vx, vy in ((0.6, -0.8), (1.0, 0.0), (-0.3, 0.7)):
                roots = _norm_query(point, tangent_from_chart(point, vx, vy)).roots
                states = [path_state(s, roots, ptorus._jet_step) for s in slopes]
                g = [(ptorus._dlog_length(st), ptorus._dlog_length(st[::2])) for st in states]
                edges = [(b[0] - a[0], b[1] - a[1]) for a, b in zip(g, g[1:] + g[:1])]
                turn = round(rounds(g))
                assert turn in (-1, 1) and abs(rounds(g) - turn) < 1e-9, (point, vx, vy)
                assert abs(rounds(edges) - turn) < 1e-9, (point, vx, vy)
                # each vertex's distance from its neighbours' chord, outward
                lifts = [turn * cross(a, b) / math.hypot(a[0] + b[0], a[1] + b[1])
                         for a, b in zip(edges, edges[1:] + edges[:1])]
                assert min(lifts) >= -1e-14 * max(math.hypot(*c) for c in g), (point, vx, vy)


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
                assert back.x == pytest.approx(point.x, rel=1e-9, abs=0)
                assert back.y == pytest.approx(point.y, rel=1e-9, abs=0)
                assert back.z == pytest.approx(point.z, rel=1e-9, abs=0)

    def test_invariant_and_base_trace_preserved_along_orbit(self):
        for about, fixed in ((Slope(1, 0), "x"), (Slope(0, 1), "y"), (Slope(1, 1), "z")):
            point = MODULAR
            for _ in range(50):
                point = dehn_twist(point, about, 1)
                assert point.residual <= 1e-9
                assert getattr(point, fixed) == 3.0  # trace about the twisting curve

    def test_other_traces_grow_without_bound(self):
        values = [
            TraceCache(dehn_twist(MODULAR, Slope(1, 0), k)).log_trace(Slope(0, 1))
            for k in range(1, 30)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            dehn_twist(MODULAR, Slope(1, 0), 100_000)

    def test_rejects_non_base_slopes(self):
        with pytest.raises(ValueError):
            dehn_twist(MODULAR, Slope(1, 2), 1)

    @staticmethod
    def _outcome(twist, point, about, k):
        try:
            return twist(point, about, k)
        except (OverflowError, InvalidPointError) as exc:  # past 1e150, or off the relation
            return type(exc)

    def test_matches_the_polynomial_trace_maps_bit_for_bit(self):
        rng = random.Random(20261021)
        points = [MODULAR, MIRROR, *(random_chart_point(rng) for _ in range(40))]
        for point in points:
            for about in (Slope(1, 0), Slope(0, 1), Slope(1, 1)):
                # past |k| ~ 40 a twist overflows or leaves the trace relation, as the
                # reference does; there only the exception class is compared
                ks = [*range(-40, 41), -400, 400, *(rng.randrange(-400, 401) for _ in range(8))]
                for k in ks:
                    got = self._outcome(dehn_twist, point, about, k)
                    want = self._outcome(dehn_twist_reference, point, about, k)
                    assert got == want, (point, about, k)

    def test_twists_compose_bit_for_bit_on_integer_triples(self):
        # traces of integer triples stay integers below 2^53 here, so every
        # route to T^(a+b) P rounds nothing
        for point in (MODULAR, MIRROR, MarkovPoint(3.0, 6.0, 15.0)):
            for about in (Slope(1, 0), Slope(0, 1), Slope(1, 1)):
                for a in range(-10, 11):
                    for b in range(-10, 11):
                        twice = dehn_twist(dehn_twist(point, about, b), about, a)
                        assert twice == dehn_twist(point, about, a + b), (point, about, a, b)


class TestBoundaryConvergence:
    def test_normalized_functional_at_basepoint(self):
        weighted = lam(1.0, 0, 1)
        value = normalized_length_functional(MODULAR, MODULAR, weighted, max_depth=8)
        assert value == pytest.approx(length(MODULAR, weighted), rel=1e-12, abs=0)

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
        assert normalized == pytest.approx(direct, rel=1e-12, abs=0)


# -- the long-curve shortcuts match the full formulas bit for bit -------------

def _near_chart_boundary(x, eps):
    # the chart ends where x^2 y^2 = 4 (x^2 + y^2), at y = 2x / sqrt(x^2 - 4)
    return from_parameters(x, 2.0 * x / math.sqrt(x * x - 4.0) * (1.0 + eps))


def _twisted(point, k):
    # k twists about 1/0, then two back about 0/1: every root is long, and
    # the short curves lie deeper than the sweeps below reach
    return dehn_twist(dehn_twist(point, Slope(1, 0), k), Slope(0, 1), -2)


_SHORTCUT_RNG = random.Random(20261018)
CHART_POINTS = [random_chart_point(_SHORTCUT_RNG) for _ in range(24)]
BOUNDARY_POINTS = [
    _near_chart_boundary(x, eps)
    for x, eps in ((2.1, 1e-9), (2.5, 1e-6), (3.0, 1e-12), (3.5, 1e-3),
                   (4.5, 1e-8), (6.0, 1e-4), (9.0, 1e-10), (20.0, 1e-7))
]
TWISTED_POINTS = [
    dehn_twist(MODULAR, Slope(1, 0), 36),
    dehn_twist(MIRROR, Slope(1, 1), 33),
    dehn_twist(from_parameters(4.0, 5.0), Slope(1, 0), -35),
    dehn_twist(from_parameters(3.5, 5.5), Slope(1, 1), 36),
    _twisted(MODULAR, 34),
    _twisted(from_parameters(3.5, 5.5), 34),
    _twisted(from_parameters(3.5, 5.5), 36),
]
SHORTCUT_PAIRS = [
    *zip(CHART_POINTS, CHART_POINTS[1:] + CHART_POINTS[:1]),
    *zip(BOUNDARY_POINTS, CHART_POINTS),
    *zip(TWISTED_POINTS, TWISTED_POINTS[1:] + TWISTED_POINTS[:1]),
    *zip(TWISTED_POINTS, CHART_POINTS),
    *zip(CHART_POINTS, TWISTED_POINTS),
]


def _pair_roots(src, dst):
    return tuple((math.log(tx), math.log(ty))
                 for tx, ty in ((src.y, dst.y), (src.x, dst.x), (src.z, dst.z)))


def _norm_query(point, v):
    """The SupQuery that thurston_norm hands to the engine, at max_depth 0."""
    seen = []
    original = ptorus.maximize
    ptorus.maximize = lambda query: seen.append(query) or original(query)
    try:
        thurston_norm(point, v, max_depth=0)
    finally:
        ptorus.maximize = original
    return seen[0]


def _same_sup(pruned, full):
    """Everything but the eval count and the depth reached, as the pruned sweep promises."""
    return all(getattr(pruned, field) == getattr(full, field)
               for field in ("value", "argmax", "certified", "frontier_bound",
                             "stabilization_depth", "hit_eval_cap"))


def _same(got, want):
    # bit-equal, NaN included, through nested tuples
    if isinstance(want, tuple):
        return len(got) == len(want) and all(map(_same, got, want))
    return got == want or (got != got and want != want)


def _same_call(fn, reference, *args):
    try:
        want = reference(*args)
    except InvalidPointError as exc:
        with pytest.raises(InvalidPointError, match=re.escape(str(exc))):
            fn(*args)
        return
    got = fn(*args)
    assert _same(got, want), (args, got, want)


class TestLongCurveShortcuts:
    """The trace step and the length formula skip only terms that round away."""

    def test_twisted_points_start_long(self):
        long_roots = [sum(t > math.exp(30.0) for t in (p.x, p.y, p.z)) for p in TWISTED_POINTS]
        assert min(long_roots) == 2 and long_roots.count(3) == 3

    @pytest.mark.parametrize("src, dst", SHORTCUT_PAIRS)
    def test_distance_sweep_is_bit_identical(self, src, dst):
        roots = _pair_roots(src, dst)
        got, _ = swept_states(roots, ptorus._pair_step, 12)
        want, _ = swept_states(roots, pair_step_reference, 12)
        assert len(got) == 3 * 2 ** 12 and got == want
        reference = maximize(SupQuery(length_ratio_reference, ptorus._subtree_ratio_bound,
                                      max_depth=12, roots=roots, combine=pair_step_reference,
                                      exhaustive=True))
        # every field: value, argmax, evals, stabilization depth and the rest
        assert thurston_distance(src, dst, max_depth=12) == reference

    @pytest.mark.parametrize("point", CHART_POINTS[:4] + BOUNDARY_POINTS[:2] + TWISTED_POINTS)
    def test_norm_sweep_is_bit_identical(self, point):
        v = tangent_from_chart(point, 1.0, -0.5)
        roots = _norm_query(point, v).roots
        got, _ = swept_states(roots, ptorus._jet_step, 11)
        want, _ = swept_states(roots, jet_step_reference, 11)
        assert len(got) == 3 * 2 ** 11 and got == want
        reference = maximize(SupQuery(norm_objective_reference, ptorus._norm_bound, max_depth=11,
                                      roots=roots, combine=jet_step_reference, exhaustive=True))
        # every field: value, argmax, evals, stabilization depth and the rest
        assert thurston_norm(point, v, max_depth=11) == reference
        full = maximize(SupQuery(norm_objective_reference, None, max_depth=11,
                                 roots=roots, combine=jet_step_reference))
        assert _same_sup(reference, full)

    @pytest.mark.parametrize("total", [
        1.5, 2.0, math.nextafter(2.0, 0.0), 4.0, 64.0, math.nextafter(64.0, 0.0),
        96.0, 1024.0, 2.0 ** 20, math.nextafter(2.0 ** 20, math.inf),
    ])
    def test_trace_step_at_the_threshold(self, total):
        # la + lb == total exactly; d runs across -40 in single ulps and on a grid
        # that reaches the short trace steps, where the correction is kept
        la = lb = 0.5 * total
        targets = [-40.0, math.nextafter(-40.0, -math.inf), math.nextafter(-40.0, math.inf)]
        targets += [-45.0 + 0.125 * i for i in range(161)]
        checked_skip = checked_full = 0
        for d in targets:
            lc = d + total
            for _ in range(8):  # land lc - la - lb on d exactly where it can
                got = lc - la - lb
                if got == d:
                    break
                lc = math.nextafter(lc, math.inf if got < d else -math.inf)
            d = lc - la - lb
            checked_skip += d < -40.0
            checked_full += d >= -40.0
            _same_call(ptorus._log_step, log_step_reference, la, lb, lc)
            _same_call(ptorus._pair_step, pair_step_reference, (la, 1.0), (lb, 1.0), (lc, 0.5))
            _same_call(ptorus._pair_step, pair_step_reference, (1.0, la), (1.0, lb), (0.5, lc))
            for da, db, dc in ((0.25, 1.5, -7.0), (-1.0, 2.0, 0.5), (3.0, -0.125, 1e3)):
                _same_call(ptorus._jet_step, jet_step_reference,
                           (la, da, dc), (lb, db, da), (lc, dc, db))
        assert checked_skip >= 30 and checked_full >= 100

    def test_trace_step_on_inf_and_nan(self):
        inf, nan = math.inf, math.nan
        for la, lb, lc in ((inf, 1.0, 1.0), (1.0, inf, 1.0), (1.0, 1.0, inf), (inf, 1.0, inf),
                           (1.0, 1.0, -inf), (nan, 1.0, 1.0), (1.0, 1.0, nan), (inf, -inf, 1.0)):
            _same_call(ptorus._log_step, log_step_reference, la, lb, lc)
            _same_call(ptorus._pair_step, pair_step_reference, (la, 2.0), (lb, 2.0), (lc, 1.0))
            for da, db, dc in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)):
                _same_call(ptorus._jet_step, jet_step_reference,
                           (la, da, dc), (lb, db, da), (lc, dc, db))

    def test_length_formula_at_the_threshold(self):
        grid = [30.0, math.nextafter(30.0, -math.inf), math.nextafter(30.0, math.inf),
                29.0, 31.0, 32.0, math.nextafter(32.0, 0.0), 64.0, 1e3, 1e6, 1e300,
                math.inf, math.nan]
        grid += [0.7 + 0.173 * i for i in range(170)]  # short curves take acosh
        grid += [30.0 + 0.0371 * i for i in range(400)]
        for k in range(5, 1024):  # binade edges, where l - log 2 drops a binade
            edge = 2.0 ** k
            grid += [edge, math.nextafter(edge, 0.0), math.nextafter(edge, math.inf)]
            grid += [edge + LOG2, math.nextafter(edge + LOG2, 0.0)]
        for lt in grid:
            _same_call(ptorus._ell_from_log, ell_from_log_reference, lt)
            _same_call(ptorus._dlen_factor, dlen_factor_reference, lt)
        for lx in grid[:600:7]:
            for ly in grid[:600:11]:
                _same_call(ptorus._length_ratio, length_ratio_reference, (lx, ly))
            _same_call(ptorus._length_ratio, length_ratio_reference, (lx, 1.5))
            _same_call(ptorus._length_ratio, length_ratio_reference, (1.5, lx))


def _unpruned(src, dst, depth):
    """The default distance's sweep without its subtree bound: every slope to depth."""
    return maximize(SupQuery(ptorus._length_ratio, None, max_depth=depth,
                             roots=_pair_roots(src, dst), combine=ptorus._pair_step))


def _pruning_panel():
    """Seeded (src, dst, depth): chart pairs, twist orbits, near-diagonal pairs, self-distances."""
    rng = random.Random(20261019)
    panel = []
    for _ in range(40):
        panel.append((random_chart_point(rng, 3.0, 9.0), random_chart_point(rng, 3.0, 9.0)))
    for about in (Slope(1, 0), Slope(0, 1), Slope(1, 1)):
        for _ in range(10):
            base = random_chart_point(rng)
            k1, k2 = rng.sample(range(-9, 10), 2)
            panel.append((dehn_twist(base, about, k1), dehn_twist(base, about, k2)))
    for _ in range(30):
        x, y = rng.uniform(3.0, 6.0), rng.uniform(3.0, 6.0)
        rel = 10.0 ** rng.uniform(-15.0, -6.0)
        near = from_parameters(x * (1.0 + rel * rng.uniform(-1, 1)), y * (1.0 + rel * rng.uniform(-1, 1)))
        panel.append((from_parameters(x, y), near)[::rng.choice((1, -1))])
    for _ in range(8):
        point = random_chart_point(rng)
        panel.append((point, point))
    return [(src, dst, rng.randrange(13)) for src, dst in panel]


class TestPrunedSweep:
    """The distance and the norm drop cells bounded below the shallower tiers' best value.

    Everything it reports but the eval count and the depth reached must be
    the full sweep's, bit for bit.
    """

    def test_matches_the_full_sweep(self):
        compared = pruned_evals = full_evals = 0
        for src, dst, depth in _pruning_panel():
            try:
                full = _unpruned(src, dst, depth)
            except InvalidPointError:
                # a twisted point the recursion wrongly rejects (ROADMAP item 7):
                # the prune may skip the slope that trips it
                continue
            got = thurston_distance(src, dst, max_depth=depth)
            assert got.evals <= full.evals, (src, dst, depth)
            for field in ("value", "argmax", "certified", "frontier_bound",
                          "stabilization_depth", "hit_eval_cap"):
                assert getattr(got, field) == getattr(full, field), (field, src, dst, depth)
            compared += 1
            pruned_evals += got.evals
            full_evals += full.evals
        assert compared >= 100 and pruned_evals < full_evals / 5

    def test_norm_matches_the_full_sweep(self):
        # thick, thin and twisted points at every depth to 12, against the same
        # query without its subtree bound
        rng = random.Random(20261023)
        points = [random_chart_point(rng) for _ in range(24)]
        points += [_thin_point(rng) for _ in range(8)] + TWISTED_POINTS[:2] + NORM_POINTS["twisted"]
        pruned_evals = full_evals = 0
        for point in points:
            theta = rng.uniform(0.0, 2.0 * math.pi)
            query = _norm_query(point, tangent_from_chart(point, math.cos(theta), math.sin(theta)))
            query.max_depth = rng.randrange(13)
            got, full = maximize(query), maximize(dataclasses.replace(query, subtree_bound=None))
            assert got.evals <= full.evals and _same_sup(got, full), (point, theta, query.max_depth)
            pruned_evals += got.evals
            full_evals += full.evals
        assert pruned_evals < full_evals / 5

    def test_self_distance_makes_no_bound_calls(self, monkeypatch):
        # every ratio is 1, so each tier reaches the best value and none is tested
        calls = []
        bound = ptorus._subtree_ratio_bound
        monkeypatch.setattr(ptorus, "_subtree_ratio_bound", lambda *args: calls.append(1) or bound(*args))
        for point in (MODULAR, MIRROR, *CHART_POINTS[:4], *TWISTED_POINTS[:2]):
            assert thurston_distance(point, point, max_depth=10).evals == 3 * 2 ** 10
        assert calls == []
        thurston_distance(MODULAR, MIRROR, max_depth=10)
        assert calls

    @pytest.mark.parametrize("certified", [False, True])
    def test_degenerate_cell_is_reported_by_the_recursion(self, certified):
        # g = t_opp / (t_a t_b) >= 1 at a cell whose mediant the recursion
        # rejects: the bound keeps such a cell (inf) instead of failing in log1p
        base = MarkovPoint(4.613834295128161, 4.27668226329652, 17.465920321123118)
        src, dst = (dehn_twist(base, Slope(1, 1), k) for k in (-8, -7))
        with pytest.raises(InvalidPointError, match="trace recursion degenerated"):
            thurston_distance(src, dst, tol=1e-3, max_depth=2000 if certified else 12,
                              certified_bound=certified)
