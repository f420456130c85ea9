import math
import random
from array import array
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
import scipy.linalg
from scipy.spatial import ConvexHull

from torusmetrics import torus
from torusmetrics.errors import InvalidPointError
from torusmetrics.farey import Slope, enumerate_slopes
from torusmetrics.torus import (
    Covector,
    TangentVector,
    TorusPoint,
    WeightedFoliation,
    d_extremal,
    dual_sphere,
    dual_sphere_with_directions,
    extremal_length,
    gardiner_pairing,
    normalized_extremal_functional,
    quad_diff_of_foliation,
    teich_distance_enum,
    teich_distance_oracle,
    teich_norm,
)

from _oracles import (
    apply_form,
    central_diff,
    dual_sphere_reference,
    exact_sin_cos,
    norm_forms,
    polygon_is_convex_with_origin,
    teich_norm_sup_parts,
    torus_bruteforce_sup,
    torus_form,
)

I = TorusPoint(0.0, 1.0)


def fol(weight, p, q):
    return WeightedFoliation(weight, Slope.of(p, q))


def random_point(rng, ymin=0.3, ymax=4.0):
    return TorusPoint(rng.uniform(-2, 2), rng.uniform(ymin, ymax))


class TestTorusPoint:
    def test_rejects_lower_half_plane(self):
        with pytest.raises(InvalidPointError):
            TorusPoint(0.0, 0.0)
        with pytest.raises(InvalidPointError):
            TorusPoint(1.0, -2.0)

    @pytest.mark.parametrize(
        "text,x,y", [("i", 0, 1), ("2i", 0, 2), ("0.5+2i", 0.5, 2), ("-1+0.25i", -1, 0.25)]
    )
    def test_parse(self, text, x, y):
        tau = TorusPoint.parse(text)
        assert (tau.x, tau.y) == (x, y)

    def test_parse_rejects_garbage(self):
        with pytest.raises(InvalidPointError):
            TorusPoint.parse("one plus one eye")

    def test_str_round_trips(self):
        tau = TorusPoint(-1.25, 0.75)
        assert TorusPoint.parse(str(tau)) == tau


class TestExtremalLength:
    def test_unit_square_horizontal(self):
        assert extremal_length(fol(1, 1, 0), I) == 1.0

    def test_diagonal_on_square(self):
        assert extremal_length(fol(1, 1, 1), I) == pytest.approx(2.0, abs=1e-15)

    def test_quadratic_weight_homogeneity(self):
        assert extremal_length(fol(3, 1, 0), I) == pytest.approx(9.0, abs=1e-15)
        rng = random.Random(7)
        for _ in range(30):
            tau = random_point(rng)
            s = rng.choice(enumerate_slopes(4))
            a = rng.uniform(0.2, 3.0)
            assert extremal_length(fol(a, s.p, s.q), tau) == pytest.approx(
                a * a * extremal_length(fol(1, s.p, s.q), tau), rel=1e-13, abs=0
            )

    def test_cylinder_modulus_oracle(self):
        # the class-(p,q) annulus is the whole flat torus: circumference
        # |p+q*tau|, area y, and extremal length = circumference^2 / area
        rng = random.Random(11)
        for _ in range(25):
            tau = random_point(rng)
            s = rng.choice(enumerate_slopes(4))
            circumference = abs(complex(s.p, 0) + s.q * complex(tau.x, tau.y))
            expected = circumference ** 2 / tau.y
            assert extremal_length(fol(1, s.p, s.q), tau) == pytest.approx(
                expected, rel=1e-13, abs=0)

    def test_flat_metric_realizes_supremum(self):
        # in the flat metric the straight representative is shortest: any
        # wiggled representative of the class gives a larger length, so the
        # flat metric's ratio L^2/A equals the reported extremal length
        tau = TorusPoint(0.3, 1.4)
        s = Slope(2, 1)
        z_of = lambda t, amp: complex(
            t * s.p + amp * math.sin(2 * math.pi * t),
            0,
        ) + (t * s.q + amp * math.sin(2 * math.pi * t + 0.7)) * complex(tau.x, tau.y)

        def curve_length(amp, n=2000):
            total = 0.0
            prev = z_of(0.0, amp)
            for i in range(1, n + 1):
                cur = z_of(i / n, amp)
                total += abs(cur - prev)
                prev = cur
            return total

        straight = curve_length(0.0)
        assert straight ** 2 / tau.y == pytest.approx(
            extremal_length(fol(1, s.p, s.q), tau), rel=1e-6, abs=0
        )
        for amp in (0.05, 0.2):
            assert curve_length(amp) > straight

    def test_modular_transport_oracle(self):
        # transporting the curve to slope 1/0 by a mapping class and using
        # Ext_{1/0} = 1/Im(tau') recomputes the value along another route
        rng = random.Random(13)
        for _ in range(25):
            tau = random_point(rng)
            s = rng.choice([t for t in enumerate_slopes(4)])
            # a*p - b*q = 1 with g = [[a, b], [q, p]] sending the class to 1/0
            if s.q == 0:
                a, b = 0, -1
            else:
                b = -pow(s.p, -1, s.q) if s.q > 1 else 0
                a = (1 + b * s.q) // s.p if s.p != 0 else -1
                if s.p == 0:
                    a, b = -1, -1 if s.q == 1 else -1
            # fall back to brute search for a valid completion
            if a * s.p - b * s.q != 1:
                found = False
                for a in range(-12, 13):
                    for b in range(-12, 13):
                        if a * s.p - b * s.q == 1:
                            found = True
                            break
                    if found:
                        break
            z = complex(tau.x, tau.y)
            image = (a * z + b) / (s.q * z + s.p)
            assert extremal_length(fol(1, s.p, s.q), tau) == pytest.approx(
                1.0 / image.imag, rel=1e-10, abs=0
            )


class TestExtremalGradient:
    def test_frozen_axis_examples(self):
        g = d_extremal(fol(1, 1, 0), I)
        assert (g.gx, g.gy) == pytest.approx((0.0, -1.0), abs=1e-15)
        g = d_extremal(fol(1, 0, 1), I)
        assert (g.gx, g.gy) == pytest.approx((0.0, 1.0), abs=1e-15)

    def test_vertical_curve_independent_of_x_on_axis(self):
        g = d_extremal(fol(1, 0, 1), I)
        assert g.pair(TangentVector(1, 0)) == 0.0

    def test_matches_central_differences_on_grid(self):
        rng = random.Random(23)
        slopes = enumerate_slopes(4)
        for _ in range(100):
            tau = random_point(rng, ymin=0.4)
            lam = fol(rng.uniform(0.5, 2.0), *_pq(rng.choice(slopes)))
            g = d_extremal(lam, tau)
            fx = central_diff(lambda x: extremal_length(lam, TorusPoint(x, tau.y)), tau.x)
            fy = central_diff(lambda y: extremal_length(lam, TorusPoint(tau.x, y)), tau.y)
            scale = max(1.0, abs(fx), abs(fy))
            assert abs(g.gx - fx) / scale < 1e-6
            assert abs(g.gy - fy) / scale < 1e-6


class TestCovector:
    def test_is_an_immutable_hashable_named_pair(self):
        g = Covector(1.0, 2.0)
        with pytest.raises(AttributeError):
            g.gx = 3.0
        with pytest.raises(AttributeError):
            g.extra = 3.0
        assert g == Covector(gx=1.0, gy=2.0) == (1.0, 2.0)
        assert g != Covector(1.0, 2.5)
        assert hash(g) == hash(Covector(1.0, 2.0))
        assert len({g, Covector(1.0, 2.0), Covector(2.0, 1.0)}) == 2
        assert repr(g) == "Covector(gx=1.0, gy=2.0)"
        gx, gy = g
        assert (gx, gy) == (g.gx, g.gy) == (1.0, 2.0)
        assert g.pair(TangentVector(3.0, -0.25)) == 1.0 * 3.0 + 2.0 * -0.25

    def test_d_extremal_returns_a_covector(self):
        g = d_extremal(fol(1.5, 2, 3), TorusPoint(0.3, 1.2))
        assert type(g) is Covector


def _pq(s):
    return s.p, s.q


class TestQuadDiff:
    def test_horizontal_curve_on_square_torus(self):
        phi = quad_diff_of_foliation(fol(1, 1, 0), I)
        assert abs(phi.c) == pytest.approx(1.0, abs=1e-15)
        # vertical leaves of c*dz^2 run where c*v^2 < 0: here v = 1 (horizontal)
        assert phi.c.real == pytest.approx(-1.0, abs=1e-15)
        assert phi.c.imag == pytest.approx(0.0, abs=1e-15)

    def test_vertical_curve_phase(self):
        phi = quad_diff_of_foliation(fol(1, 0, 1), I)
        assert abs(phi.c) == pytest.approx(1.0, abs=1e-15)
        assert phi.c.real == pytest.approx(1.0, abs=1e-15)

    def test_vertical_foliation_direction_condition(self):
        rng = random.Random(31)
        for _ in range(40):
            tau = random_point(rng)
            s = rng.choice(enumerate_slopes(4))
            phi = quad_diff_of_foliation(fol(1, s.p, s.q), tau)
            v = complex(s.p, 0) + s.q * complex(tau.x, tau.y)
            value = phi.c * v * v
            assert value.real < 0
            assert abs(value.imag) <= 1e-9 * abs(value)

    def test_norm_identity_with_extremal_length(self):
        rng = random.Random(37)
        for _ in range(50):
            tau = random_point(rng)
            lam = fol(rng.uniform(0.5, 2.0), *_pq(rng.choice(enumerate_slopes(4))))
            phi = quad_diff_of_foliation(lam, tau)
            ext = extremal_length(lam, tau)
            assert abs(phi.norm() - ext) <= 1e-12 * max(1.0, ext)

    def test_weight_scaling_multiplies_c_by_four(self):
        tau = TorusPoint(0.7, 2.2)
        c1 = quad_diff_of_foliation(fol(1, 2, 3), tau).c
        c2 = quad_diff_of_foliation(fol(2, 2, 3), tau).c
        assert c2 == pytest.approx(4 * c1, rel=1e-14, abs=0)


class TestGardinerPairing:
    def test_zero_vector(self):
        phi = quad_diff_of_foliation(fol(1, 1, 0), I)
        assert gardiner_pairing(phi, TangentVector(0, 0), I) == 0.0

    def test_frozen_axis_values(self):
        up = TangentVector(0, 1)
        phi = quad_diff_of_foliation(fol(1, 1, 0), I)
        assert gardiner_pairing(phi, up, I) == pytest.approx(-1.0, abs=1e-15)
        phi = quad_diff_of_foliation(fol(1, 0, 1), I)
        assert gardiner_pairing(phi, up, I) == pytest.approx(1.0, abs=1e-15)

    def test_basepoint_mismatch_rejected(self):
        phi = quad_diff_of_foliation(fol(1, 1, 0), I)
        with pytest.raises(ValueError):
            gardiner_pairing(phi, TangentVector(0, 1), TorusPoint(0, 2))

    def test_identity_against_gradient_on_samples(self):
        rng = random.Random(41)
        checked = 0
        while checked < 100:
            tau = random_point(rng)
            lam = fol(rng.uniform(0.5, 2.0), *_pq(rng.choice(enumerate_slopes(5))))
            v = TangentVector(rng.uniform(-2, 2), rng.uniform(-2, 2))
            rhs = d_extremal(lam, tau).pair(v)
            if abs(rhs) < 1e-9:
                continue
            phi = quad_diff_of_foliation(lam, tau)
            lhs = gardiner_pairing(phi, v, tau)
            assert abs(lhs - rhs) / abs(rhs) < 1e-6
            checked += 1


class TestDistanceOracle:
    def test_coincident_points(self):
        assert teich_distance_oracle(I, I) == 0.0

    def test_frozen_half_log_two(self):
        d = teich_distance_oracle(I, TorusPoint(0, 2))
        assert d == pytest.approx(0.5 * math.log(2.0), abs=1e-12)

    def test_symmetry_and_translation_invariance(self):
        rng = random.Random(43)
        for _ in range(30):
            t1, t2 = random_point(rng), random_point(rng)
            d = teich_distance_oracle(t1, t2)
            assert d == pytest.approx(teich_distance_oracle(t2, t1), abs=1e-15)
            shifted = teich_distance_oracle(
                TorusPoint(t1.x + 1, t1.y), TorusPoint(t2.x + 1, t2.y)
            )
            assert d == pytest.approx(shifted, abs=1e-12)
            assert (d == 0.0) == (t1 == t2)

    def test_matches_affine_dilatation_route(self):
        # the extremal map between lattices is affine; half the log of its
        # dilatation (|a|+|b|)/(|a|-|b|) recomputes the distance
        rng = random.Random(45)
        for _ in range(50):
            p1, p2 = random_point(rng), random_point(rng)
            t1, t2 = complex(p1.x, p1.y), complex(p2.x, p2.y)
            alpha = (t2 - t1.conjugate()) / (t1 - t1.conjugate())
            beta = (t1 - t2) / (t1 - t1.conjugate())
            dilatation = (abs(alpha) + abs(beta)) / (abs(alpha) - abs(beta))
            assert teich_distance_oracle(p1, p2) == pytest.approx(
                0.5 * math.log(dilatation), abs=1e-12
            )

    def test_matches_generalized_eigenvalue_route(self):
        rng = random.Random(47)
        for _ in range(30):
            t1, t2 = random_point(rng), random_point(rng)
            a = torus_form(t2.x, t2.y)
            b = torus_form(t1.x, t1.y)
            top = max(
                scipy.linalg.eigh(
                    [[a[0], a[1]], [a[1], a[2]]],
                    [[b[0], b[1]], [b[1], b[2]]],
                    eigvals_only=True,
                )
            )
            assert teich_distance_oracle(t1, t2) == pytest.approx(
                0.5 * math.log(top), abs=1e-12
            )


class TestDistanceEnum:
    def test_square_to_double_square(self):
        res = teich_distance_enum(I, TorusPoint(0, 2))
        assert res.certified
        assert res.argmax == Slope(0, 1)
        assert res.value == pytest.approx(2.0, abs=1e-12)

    def test_oracle_sandwich_when_certified(self):
        rng = random.Random(53)
        tol = 1e-6
        for _ in range(25):
            t1, t2 = random_point(rng), random_point(rng)
            res = teich_distance_enum(t1, t2, tol=tol)
            assert res.certified
            d = teich_distance_oracle(t1, t2)
            assert 0.5 * math.log(res.value) <= d + 1e-12
            assert d <= 0.5 * math.log(res.value + tol) + 1e-12

    def test_coincident_points_certify_unit_ratio(self):
        res = teich_distance_enum(I, TorusPoint(0.0, 1.0))
        assert res.certified
        assert res.value == 1.0
        assert 0.5 * math.log(res.value) == 0.0

    @pytest.mark.parametrize(
        "t1, t2", [((0.0, 1.0), (0.0, 1e300)), ((0.0, 1e-300), (0.0, 1.0))], ids=["huge-y", "tiny-y"]
    )
    def test_extreme_moduli_certify_a_finite_distance(self, t1, t2):
        # x^2 + y^2 overflows at y = 1e300 and underflows to 0 at y = 1e-300
        res = teich_distance_enum(TorusPoint(*t1), TorusPoint(*t2))
        assert res.certified
        assert res.evals == 4
        assert res.argmax == Slope(0, 1)
        assert 0.5 * math.log(res.value) == pytest.approx(0.5 * math.log(1e300), rel=1e-15, abs=0)

    @pytest.mark.parametrize(
        "t1, t2, expected",
        [((0.0, 1.0), (0.0, 1e300), 0.5 * math.log(1e300)),
         ((0.0, 1e-300), (0.0, 1.0), 0.5 * math.log(1e300)),
         ((0.0, 1e-200), (0.0, 2e-200), 0.5 * math.log(2.0)),
         ((0.0, 1e308), (0.0, 1.7976931348623157e308), 0.5 * math.log(1.7976931348623157)),
         ((7.57711401583171e+169, 0.3236965357034844),
          (3.51894288113125e+169, 8.201004751305414e+169), 196.29405662360253),
         ((0.0, 1e300), (1e308, 1e308), 9.556913962256155)],
        ids=["huge-y", "tiny-y", "tiny-y1y2", "y-near-the-float-max", "huge-x", "form-overflows"],
    )
    def test_oracle_stays_finite_at_extreme_moduli(self, t1, t2, expected):
        # dy^2 overflows, or y1*y2 underflows to 0, inside the acosh argument;
        # near the float maximum 2*sqrt(y1*y2) overflows unless dz is halved first;
        # at huge-x |tau|^2/y overflows at both points, but not in the reduced frame;
        # at form-overflows |tau2|^2/y2 = 2e308 does there, and the walk scales A
        d = teich_distance_oracle(TorusPoint(*t1), TorusPoint(*t2))
        assert d == pytest.approx(expected, rel=1e-12, abs=0)
        res = teich_distance_enum(TorusPoint(*t1), TorusPoint(*t2))
        assert d == pytest.approx(0.5 * math.log(res.value), rel=1e-12, abs=0)
        assert res.certified and res.value <= res.frontier_bound

    @pytest.mark.parametrize(
        "t1, t2",
        [((0.0, 2.225073858507203e-309), (0.0, 1.0)), ((0.0, 1e-300), (0.0, 1e300)),
         ((0.0, 2.2e-309), (0.0, 3e-309))],
        ids=["subnormal-y", "ratio-overflows", "subnormal-y-both"],
    )
    def test_overflow_is_raised_as_overflow(self, t1, t2):
        # the supremum e^(2d) is not a finite float
        with pytest.raises(OverflowError):
            teich_distance_enum(TorusPoint(*t1), TorusPoint(*t2))

    def test_certified_runs_are_deterministic(self):
        t1, t2 = TorusPoint(0.4, 0.8), TorusPoint(-0.3, 2.1)
        assert teich_distance_enum(t1, t2) == teich_distance_enum(t1, t2)

    def test_translation_invariance_of_enumeration(self):
        tol = 1e-9
        t1, t2 = TorusPoint(0.3, 0.9), TorusPoint(-0.6, 1.7)
        base = teich_distance_enum(t1, t2, tol=tol)
        moved = teich_distance_enum(
            TorusPoint(t1.x + 1, t1.y), TorusPoint(t2.x + 1, t2.y), tol=tol
        )
        assert base.certified and moved.certified
        assert moved.value == pytest.approx(base.value, abs=2 * tol)
        # the maximizing curve transports by the inverse shear
        assert moved.argmax == Slope.of(base.argmax.p - base.argmax.q, base.argmax.q)

    def test_swap_changes_nothing_within_tolerance(self):
        tol = 1e-9
        t1, t2 = TorusPoint(0.4, 0.8), TorusPoint(-0.3, 2.1)
        a = teich_distance_enum(t1, t2, tol=tol)
        b = teich_distance_enum(t2, t1, tol=tol)
        assert 0.5 * math.log(a.value) == pytest.approx(0.5 * math.log(b.value), abs=2 * tol)

    def test_against_depth20_bruteforce(self):
        # the exhaustive depth-20 sweep can only undershoot (the engine may
        # chase maximizers deeper than depth 20), and must never exceed the
        # certified value; both stay within the eigenvalue oracle
        rng = random.Random(59)
        tol = 1e-9
        for _ in range(3):
            t1, t2 = random_point(rng, ymin=0.6, ymax=2.5), random_point(rng, ymin=0.6, ymax=2.5)
            res = teich_distance_enum(t1, t2, tol=tol)
            assert res.certified
            brute, _ = torus_bruteforce_sup(
                torus_form(t2.x, t2.y), torus_form(t1.x, t1.y), 20
            )
            assert brute <= res.value + tol
            d = teich_distance_oracle(t1, t2)
            assert 0.5 * math.log(brute) <= d + 1e-12
            assert d - 0.5 * math.log(brute) <= 1e-3
            assert abs(0.5 * math.log(res.value) - d) <= tol


def workload_modulus(rng):
    """A modulus drawn like the flat-torus benchmark's: x in [-1, 1], log y in [-2, 2]."""
    return TorusPoint(rng.uniform(-1.0, 1.0), math.exp(rng.uniform(-2.0, 2.0)))


def tree_depth(p, q):
    """Stern-Brocot depth of p/q: 1/1 at 0, -1/1 at 1, from the continued fraction."""
    if p == 0 or q == 0:
        return 0
    n, d, total = abs(p), q, 0
    while d:
        total += n // d
        n, d = d, n % d
    return total - 1 + (p < 0)


# tau1 = -0.198+6.648i to tau2 = -0.271+0.471i peaks on the ray -n/1, at -602/1, 602 deep
RAY_PAIR = (TorusPoint(-0.198, 6.648), TorusPoint(-0.271, 0.471))


class TestRayJumps:
    """teich_distance_enum walks the convergents of the stretch direction.

    Each step is a jump along a ray: (p, q)_{k+1} = (p, q)_{k-1} + a_{k+1} * (p, q)_k as
    vectors, so one evaluation stands for a partial quotient's worth of tree depth.
    """

    @staticmethod
    def record(monkeypatch):
        """Capture each slope (p, q) the walk evaluates, in the walk's reduced frame."""
        seen = []
        direction = torus.direction

        def record_direction(p, q):
            seen.append((p, q))
            return direction(p, q)

        monkeypatch.setattr(torus, "direction", record_direction)
        return seen

    def test_workload_panel_certifies_in_few_evaluations(self):
        rng = random.Random(20261020)
        tol = 1e-6
        evals = []
        for _ in range(1500):
            t1, t2 = workload_modulus(rng), workload_modulus(rng)
            res = teich_distance_enum(t1, t2)
            assert res.certified, (t1, t2)
            assert abs(res.value - math.exp(2.0 * teich_distance_oracle(t1, t2))) <= tol, (t1, t2)
            assert res.evals <= 20, (t1, t2)
            evals.append(res.evals)
        assert sorted(evals)[int(0.9 * len(evals))] <= 15

    def test_ray_pair_certifies_deeper_than_the_former_cap(self):
        res = teich_distance_enum(*RAY_PAIR)
        assert res.certified
        assert res.argmax == Slope(-602, 1)
        assert res.evals <= 10
        assert res.stabilization_depth == res.depth_reached == 602
        assert abs(res.value - math.exp(2.0 * teich_distance_oracle(*RAY_PAIR))) <= 1e-6

    def test_slopes_past_2_500_certify(self):
        # the argmax n/1 has 514 bits, and the walk's slope in the reduced frame
        # is past 2^500 too: squares of its floats overflow, so the forms are
        # evaluated on it scaled by a power of two
        pair = (TorusPoint(-4.9607694239991494e153, 9.887243906821714e153),
                TorusPoint(-2.898885002286508e153, 11.160320892826977))
        res = teich_distance_enum(*pair)
        assert res.certified and res.evals <= 10
        assert res.argmax.q == 1 and res.argmax.p.bit_length() > 500
        assert res.value == pytest.approx(
            math.exp(2.0 * teich_distance_oracle(*pair)), rel=1e-12, abs=0)
        # a cap clips the walk at the cap, under the same finite bound
        capped = teich_distance_enum(*pair, max_depth=10**6)
        assert not capped.certified and capped.depth_reached == 10**6
        assert capped.frontier_bound == res.frontier_bound

    @pytest.mark.parametrize("max_depth", [1, 5, 20, 256, 10**6])
    def test_evaluated_depths_are_tree_depths_within_the_cap(self, monkeypatch, max_depth):
        seen = self.record(monkeypatch)
        rng = random.Random(max_depth)
        pairs = [RAY_PAIR] + [(workload_modulus(rng), workload_modulus(rng)) for _ in range(40)]
        capped = 0
        for t1, t2 in pairs:
            seen.clear()
            res = teich_distance_enum(t1, t2, max_depth=max_depth)
            # back to the given frame, whose slope p/q is the reduced frame's (a p - b q)/(d q - c p)
            a, b, c, d = torus._reduced_frame(t1, t2)[0]
            given = [Slope.of(d * p + b * q, c * p + a * q) for p, q in seen]
            depths = [tree_depth(s.p, s.q) for s in given]
            assert len(depths) == res.evals
            assert res.depth_reached == max(depths) <= max_depth
            assert res.stabilization_depth == tree_depth(res.argmax.p, res.argmax.q)
            assert res.certified or res.depth_reached == max_depth
            capped += not res.certified
        assert capped > 0 if max_depth < 602 else capped == 0

    def test_bruteforce_stays_under_the_value_and_the_frontier_bound(self):
        # every slope to depth 14 scores at most the certified value plus tol,
        # and at most lambda_hi, which bounds every slope
        rng = random.Random(67)
        tol = 1e-6
        for t1, t2 in [RAY_PAIR] + [(workload_modulus(rng), workload_modulus(rng)) for _ in range(30)]:
            res = teich_distance_enum(t1, t2, tol=tol)
            brute, _ = torus_bruteforce_sup(torus_form(t2.x, t2.y), torus_form(t1.x, t1.y), 14)
            assert res.certified
            assert brute <= res.value + tol
            assert max(brute, res.value) <= res.frontier_bound


class TestTeichNorm:
    def test_zero_vector(self):
        assert teich_norm(I, TangentVector(0, 0)) == 0.0

    def test_frozen_halves(self):
        assert teich_norm(I, TangentVector(1, 0)) == pytest.approx(0.5, abs=1e-12)
        assert teich_norm(TorusPoint(0, 2), TangentVector(0, 2)) == pytest.approx(0.5, abs=1e-12)

    def test_finite_difference_of_distance_recovers_norm(self):
        # t much below 1e-4 runs into acosh cancellation in the oracle
        tau, v = I, TangentVector(1.0, 0.0)
        t = 1e-4
        fd = teich_distance_oracle(tau, TorusPoint(tau.x + t * v.vx, tau.y + t * v.vy)) / t
        assert fd == pytest.approx(teich_norm(tau, v), abs=1e-6)

    def test_oracle_agreement_on_samples(self):
        rng = random.Random(61)
        for _ in range(50):
            tau = random_point(rng)
            v = TangentVector(rng.uniform(-2, 2), rng.uniform(-2, 2))
            expected = math.hypot(v.vx, v.vy) / (2 * tau.y)
            assert teich_norm(tau, v) == pytest.approx(expected, abs=1e-6)

    def test_certified_farey_sup_brackets_circle_maximum(self):
        rng = random.Random(67)
        tol = 1e-6
        for _ in range(10):
            tau = random_point(rng)
            v = TangentVector(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if v.norm_sq() < 1e-4:
                continue
            circle, res = teich_norm_sup_parts(tau, v, tol, 48, 200_000)
            assert teich_norm(tau, v) == pytest.approx(circle, rel=1e-12, abs=0)
            assert res.certified
            assert res.value <= circle + 1e-12
            assert circle <= res.value + tol

    @pytest.mark.parametrize("x", [0.0, -0.7])
    @pytest.mark.parametrize("y", [1e-200, 1e-300, 1e200])
    def test_extreme_moduli_stay_finite(self, x, y):
        # the forms at tau divide by y^2, which underflows or overflows here
        for v in (TangentVector(1.0, 0.0), TangentVector(-3.0, 2.0), TangentVector(0.0, 1e-100)):
            n = teich_norm(TorusPoint(x, y), v)
            assert math.isfinite(n)
            assert n == pytest.approx(math.hypot(v.vx, v.vy) / (2 * y), rel=1e-12, abs=0)

    def test_a_norm_past_the_float_range_raises_overflow(self):
        tau = TorusPoint(0.0, 1e-310)
        with pytest.raises(OverflowError):
            teich_norm(tau, TangentVector(1.0, 0.0))
        assert teich_norm(tau, TangentVector(1e-10, 0.0)) == pytest.approx(5e299, rel=1e-12, abs=0)

    def test_weak_norm_axioms(self):
        rng = random.Random(71)
        for _ in range(200):
            tau = random_point(rng)
            v1 = TangentVector(rng.uniform(-2, 2), rng.uniform(-2, 2))
            v2 = TangentVector(rng.uniform(-2, 2), rng.uniform(-2, 2))
            t = rng.uniform(0.0, 3.0)
            n1, n2 = teich_norm(tau, v1), teich_norm(tau, v2)
            assert n1 >= 0.0
            scaled = teich_norm(tau, TangentVector(t * v1.vx, t * v1.vy))
            assert scaled == pytest.approx(t * n1, rel=1e-9, abs=1e-12)
            total = teich_norm(tau, TangentVector(v1.vx + v2.vx, v1.vy + v2.vy))
            assert total <= n1 + n2 + 1e-9 * max(1.0, n1 + n2)

    def test_infinitesimal_linear_decay(self):
        rng = random.Random(73)
        for _ in range(20):
            tau = random_point(rng, ymin=0.5)
            v = TangentVector(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if v.norm_sq() < 1e-2:
                continue
            n = teich_norm(tau, v)
            errs = []
            for t in (1e-2, 1e-3, 1e-4):
                moved = TorusPoint(tau.x + t * v.vx, tau.y + t * v.vy)
                errs.append(abs(teich_distance_oracle(tau, moved) / t - n))
            assert errs[1] <= max(0.35 * errs[0], 1e-12)
            assert errs[2] <= max(0.35 * errs[1], 1e-12)


class TestDualSphere:
    def test_requires_enough_samples(self):
        with pytest.raises(ValueError):
            dual_sphere(I, 8)

    def test_square_symmetry_swapping_axis_curves(self):
        # exchanging the two axis curves reflects the sphere across gy = 0
        samples = dual_sphere(I, 64)
        points = {(round(g.gx, 12), round(g.gy, 12)) for g in samples}
        reflected = {(gx, -gy) for gx, gy in points}
        assert points == reflected

    def test_unit_circle_at_square_point(self):
        for g in dual_sphere(I, 64):
            assert math.hypot(g.gx, g.gy) == pytest.approx(1.0, abs=1e-12)

    def test_support_function_equals_twice_norm(self):
        rng = random.Random(79)
        for _ in range(4):
            tau = random_point(rng, ymin=0.5, ymax=2.5)
            covs = dual_sphere(tau, 512)
            for _ in range(8):
                v = TangentVector(rng.uniform(-2, 2), rng.uniform(-2, 2))
                support = max(g.pair(v) for g in covs)
                assert abs(support - 2 * teich_norm(tau, v)) <= 1e-3

    def test_convex_polygon_containing_origin(self):
        rng = random.Random(83)
        for _ in range(5):
            tau = random_point(rng, ymin=0.4)
            pts = [(g.gx, g.gy) for g in dual_sphere(tau, 256)]
            assert polygon_is_convex_with_origin(pts)

    def test_every_sample_is_hull_extreme_point(self):
        rng = random.Random(89)
        for _ in range(3):
            tau = random_point(rng, ymin=0.4)
            pts = [(g.gx, g.gy) for g in dual_sphere(tau, 256)]
            hull = ConvexHull(pts)
            assert len(hull.vertices) == 256

    def test_covectors_are_dext_over_ext_differentiated_at_tau(self):
        # the library maps each direction to i; here the form is differentiated at tau
        rng = random.Random(97)
        for _ in range(6):
            tau = random_point(rng, ymin=0.05, ymax=20.0)
            dx, q = norm_forms(tau, TangentVector(1.0, 0.0))
            dy, _ = norm_forms(tau, TangentVector(0.0, 1.0))
            for theta, g in dual_sphere_with_directions(tau, 64):
                u = (math.cos(theta), math.sin(theta))
                ext = apply_form(q, u)
                assert abs(g.gx - apply_form(dx, u) / ext) <= 1e-12 / tau.y
                assert abs(g.gy - apply_form(dy, u) / ext) <= 1e-12 / tau.y

    def test_matches_the_two_pass_reference_bit_for_bit(self):
        def bits(rows):
            return array("d", [v for row in rows for v in row]).tobytes()

        rng = random.Random(107)
        moduli = [TorusPoint(rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-4.0, 4.0))
                  for _ in range(300)]
        moduli += [I, TorusPoint(0.3, 1.2), TorusPoint(-0.7, 1e-3), TorusPoint(0.0, 1e-300),
                   TorusPoint(-2.5, 1e308)]
        for tau in moduli:
            for n in (16, 17, 256, 1000):
                want = dual_sphere_reference(tau, n)
                samples = dual_sphere_with_directions(tau, n)
                assert bits((t, *g) for t, g in samples) == bits(want)
                assert bits(dual_sphere(tau, n)) == bits(w[1:] for w in want)
                assert all(type(g) is Covector for _, g in samples)

    def test_the_n_gon_symmetries_are_exact(self):
        # == on nonzero floats is bit equality, and no component is -0.0
        for tau in (I, TorusPoint(0.3, 1.2), TorusPoint(-0.7, 1e-300), TorusPoint(2.0, 1e300)):
            r = 1.0 / tau.y
            for n in [*range(16, 131), 256, 1000, 1024]:
                g = dual_sphere(tau, n)
                assert all(math.copysign(1.0, v) == 1.0 or v != 0.0 for p in g for v in p)
                assert all(g[n - j] == (0.0 - g[j].gx, g[j].gy) for j in range(1, n))
                assert g[0] == (0.0, -r)
                if n % 2 == 0:
                    assert all(g[j + n // 2] == (0.0 - g[j].gx, 0.0 - g[j].gy)
                               for j in range(n // 2))
                    assert g[n // 2] == (0.0, r)
                if n % 4 == 0:
                    assert all(g[j + n // 4] == (0.0 - g[j].gy, g[j].gx)
                               for j in range(3 * n // 4))
                    assert (g[n // 4], g[3 * n // 4]) == ((r, 0.0), (-r, 0.0))

    def test_every_component_is_within_2_ulp_of_the_exact_value(self):
        for n in [*range(16, 131), 256, 1000, 1024]:
            exact = [exact_sin_cos(Fraction(j, n)) for j in range(n)]
            for y in (1e-300, 1e-8, 1.0, 1e8, 1e300):
                with localcontext() as ctx:
                    ctx.prec = 40
                    dy, tol = Decimal(y), 2 * Decimal(math.ulp(1.0 / y))
                    for (gx, gy), (s, c) in zip(dual_sphere(TorusPoint(0.0, y), n), exact):
                        assert abs(Decimal(gx) - s / dy) <= tol
                        assert abs(Decimal(gy) + c / dy) <= tol

    def test_at_most_n_over_2_gcd_n_4_plus_one_sin_cos_pairs(self, monkeypatch):
        # the table is one octant of the n-gon; every other sample is a reflection or rotation
        calls = {"sin": 0, "cos": 0}

        def counting(name, f):
            def wrapper(x):
                calls[name] += 1
                return f(x)
            return wrapper

        monkeypatch.setattr(math, "sin", counting("sin", math.sin))
        monkeypatch.setattr(math, "cos", counting("cos", math.cos))
        for n in [*range(16, 131), 255, 256, 257, 1000, 1024]:
            calls.update(sin=0, cos=0)
            dual_sphere(TorusPoint(0.3, 1.2), n)
            # the bound is 33 at n = 256, where one call per sample made 256 of each
            assert 0 < min(calls.values())
            assert max(calls.values()) <= n // (2 * math.gcd(n, 4)) + 1

    def test_directions_cover_projective_circle_once(self):
        angles = [theta for theta, _ in dual_sphere_with_directions(I, 32)]
        assert angles[0] == 0.0
        assert max(angles) < math.pi
        assert len(set(angles)) == 32


class TestNormalizedExtremalFunctional:
    def test_at_basepoint(self):
        lam = fol(1.5, 1, 2)
        expected = math.sqrt(extremal_length(lam, I))
        assert normalized_extremal_functional(I, I, lam) == pytest.approx(
            expected, rel=1e-13, abs=0)

    def test_weight_rescaling_consistency(self):
        lam = fol(1.0, 2, 1)
        tau = TorusPoint(1.0, 3.0)
        for a in (0.5, 2.0, 7.0):
            scaled = normalized_extremal_functional(I, tau, fol(a, 2, 1))
            assert scaled / a == pytest.approx(
                normalized_extremal_functional(I, tau, lam), rel=1e-12, abs=0
            )

    def test_twist_sequence_ratios_stabilize(self):
        lam1, lam2 = fol(1, 0, 1), fol(1, 1, 1)
        ratios = {}
        for k in (5, 15, 40):
            tau_k = TorusPoint(float(k), 1.0)
            ratios[k] = normalized_extremal_functional(I, tau_k, lam1) / (
                normalized_extremal_functional(I, tau_k, lam2)
            )
        errs = {k: abs(r - 1.0) for k, r in ratios.items()}
        assert errs[40] < errs[15] < errs[5]
