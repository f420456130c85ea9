"""Flat-torus invariance: seeded moduli far from the fundamental domain.

SL(2,Z) acts on moduli by Teichmueller isometries that carry slopes along,
and so does the reflection tau -> -conj(tau); teich_distance_oracle is
exact.  So every certified distance must match the oracle, stay put under
tau -> tau + n, tau -> -1/tau and tau -> -conj(tau), and keep its argmax
up to the slope map of the isometry.  The bands are those where searching
in the given frame used to certify wrong distances: |x| from 1e4 to 1e12,
thin moduli, y from 1e-300 to 1e300, and y far below a small x.
"""

import math
import random
from fractions import Fraction

import pytest

from torusmetrics.errors import InvalidPointError
from torusmetrics.farey import Slope
from torusmetrics.torus import (
    TangentVector,
    TorusPoint,
    dual_sphere,
    teich_distance_enum,
    teich_distance_oracle,
    teich_norm,
)

from _oracles import polygon_is_convex_with_origin

TOL = 1e-6


def band_pairs(seed, count):
    """(band, source, target) with the target (x + U(-2, 2) y) + i y e^U(-1, 1)."""
    rng = random.Random(seed)

    def log_uniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    bands = {
        "x 1e4-1e5": lambda: (log_uniform(1e4, 1e5), log_uniform(0.1, 10.0)),
        "x 1e5-1e6": lambda: (log_uniform(1e5, 1e6), log_uniform(0.1, 10.0)),
        "x 1e6-1e7": lambda: (log_uniform(1e6, 1e7), log_uniform(0.1, 10.0)),
        "x 1e8-1e12": lambda: (log_uniform(1e8, 1e12), log_uniform(0.1, 10.0)),
        "thin": lambda: (rng.uniform(0.1, 1.0), log_uniform(1e-8, 1e-5)),
        "y 1e-300-1e300": lambda: (log_uniform(1e-3, 1e12), 10.0 ** rng.uniform(-300.0, 300.0)),
        # the reduced image's |x| passes 2^53 on the way, past what float steps resolve
        "y << x << 1": lambda: (10.0 ** rng.uniform(-100.0, -1.0), 10.0 ** rng.uniform(-150.0, -102.0)),
    }
    for band, draw in bands.items():
        for _ in range(count):
            x, y = draw()
            x *= rng.choice((-1.0, 1.0))
            target = (x + rng.uniform(-2.0, 2.0) * y, y * math.exp(rng.uniform(-1.0, 1.0)))
            yield band, (x, y), target


def distance_or_overflow(src, dst):
    try:
        return teich_distance_enum(TorusPoint(*src), TorusPoint(*dst), tol=TOL)
    except OverflowError:
        return None


def exact_ratio(src, dst, p, q):
    """Ext_dst(p, q) / Ext_src(p, q) in exact rational arithmetic."""
    (x1, y1), (x2, y2) = (map(Fraction, z) for z in (src, dst))
    return ((p + q * x2) ** 2 + (q * y2) ** 2) * y1 / (((p + q * x1) ** 2 + (q * y1) ** 2) * y2)


def lies_above_the_top_root(src, dst, lam):
    """lam >= the largest root of det(A - mu*B), with A, B the exact forms at dst, src."""
    (x1, y1), (x2, y2) = (map(Fraction, z) for z in (src, dst))
    a = (1 / y2, x2 / y2, (x2 * x2 + y2 * y2) / y2)
    b = (1 / y1, x1 / y1, (x1 * x1 + y1 * y1) / y1)
    c2 = b[0] * b[2] - b[1] * b[1]
    c1 = a[0] * b[2] + a[2] * b[0] - 2 * a[1] * b[1]
    c0 = a[0] * a[2] - a[1] * a[1]
    lam = Fraction(lam)
    return lam * 2 * c2 >= c1 and (c2 * lam - c1) * lam + c0 >= 0


def allowance(value):
    """tol, or the ratios' rounding floor at huge values, plus the oracle's own rounding."""
    return max(TOL, 2.0**-43 * value) + 1e-12 * value


def snapped(pair, n):
    """The pair's x rounded to a power-of-two grid on which x + n is exact too."""
    top = max(abs(x) + abs(n) for x, _ in pair)
    grid = 2.0 ** (math.frexp(top)[1] - 52)
    return tuple((round(x / grid) * grid, y) for x, y in pair)


def reflect(z):
    return (-z[0], z[1])


def invert(z):
    """(-1/z rounded once, how far the rounding moved it in units of its y).

    None off the float range.  The move bounds the hyperbolic distance
    between the rounded point and the exact image.
    """
    x, y = map(Fraction, z)
    r = x * x + y * y
    try:
        image = (float(-x / r), float(y / r))
    except OverflowError:
        return None, math.inf
    move = max(abs(Fraction(image[0]) + x / r), abs(Fraction(image[1]) - y / r)) / (y / r)
    return image, float(move)


class TestReducedFrame:
    def test_certified_values_match_the_oracle_under_lambda_hi(self):
        # every band certifies (or overflows a form at valid input), within tol of
        # the oracle, and lambda_hi lies above the exact supremum and every ratio
        certified = 0
        for band, src, dst in band_pairs(1, 40):
            res = distance_or_overflow(src, dst)
            if res is None:
                continue
            exact = math.exp(2.0 * teich_distance_oracle(TorusPoint(*src), TorusPoint(*dst)))
            assert res.certified, (band, src, dst)
            assert abs(res.value - exact) <= allowance(exact), (band, src, dst)
            assert res.value <= res.frontier_bound
            assert lies_above_the_top_root(src, dst, res.frontier_bound), (band, src, dst)
            assert exact_ratio(src, dst, res.argmax.p, res.argmax.q) >= exact - allowance(exact)
            certified += 1
        assert certified >= 200

    def test_extreme_draws_certify_or_overflow(self):
        # coordinates anywhere in the float range: a numeric fault is an
        # OverflowError, and a result is certified, within tol of the oracle
        # and under its own frontier bound
        rng = random.Random(7)

        def coordinate(positive):
            v = rng.choice([rng.uniform(-2.0, 2.0), 10.0 ** rng.uniform(-320.0, 308.0),
                            rng.uniform(0.0, 1e12), 5e-324, 1.7976931348623157e308])
            return abs(v) or 1.0 if positive else rng.choice((-1.0, 1.0)) * v

        certified = 0
        for _ in range(600):
            src, dst = (coordinate(False), coordinate(True)), (coordinate(False), coordinate(True))
            res = distance_or_overflow(src, dst)
            if res is None:
                continue
            exact = math.exp(2.0 * teich_distance_oracle(TorusPoint(*src), TorusPoint(*dst)))
            assert res.certified and res.value <= res.frontier_bound, (src, dst)
            assert abs(res.value - exact) <= allowance(exact), (src, dst)
            certified += 1
        assert certified >= 150

    @pytest.mark.parametrize(
        "src, dst, distance",
        [((1e8, 1.0), (1e8, 2.0), 0.5 * math.log(2.0)),
         ((1e8, 1.0), (-1e8, 1.0), math.asinh(1e8)),
         ((-53631.94008501017, 0.11022744463901644), (-53632.04780365433, 0.20628417004299918),
          None),
         ((1e4, 1e-300), (1e-300, 2.0), None),
         ((3.4298898631994833e-63, 4.558349018966968e-87), (-745281743992.2761, 0.6927533563556318),
          None)],
        ids=["translated", "far-apart", "thin", "tiny-y", "huge-image"],
    )
    def test_former_wrong_distances_certify(self, src, dst, distance):
        # each certified a wrong distance, some negative, when searched in the given frame
        res = teich_distance_enum(TorusPoint(*src), TorusPoint(*dst))
        oracle = teich_distance_oracle(TorusPoint(*src), TorusPoint(*dst))
        assert res.certified
        assert abs(0.5 * math.log(res.value) - oracle) <= 1e-6
        if distance is not None:
            assert oracle == pytest.approx(distance, rel=1e-12)

    def test_isometries_keep_the_distance_and_carry_the_argmax(self):
        rng = random.Random(3)
        checked = carried = 0
        for band, src, dst in band_pairs(3, 12):
            n = rng.choice((1, -7, 12345, -(10**9), 10**12))
            src, dst = snapped((src, dst), n)
            res = distance_or_overflow(src, dst)
            # each isometry, the map of slopes (p, q) it carries, and how far
            # rounding moved the images (only -1/z is rounded)
            (src_inv, src_move), (dst_inv, dst_move) = invert(src), invert(dst)
            images = [
                (((src[0] + n, src[1]), (dst[0] + n, dst[1])), lambda p, q: (p + n * q, q), 0.0),
                ((reflect(src), reflect(dst)), lambda p, q: (-p, q), 0.0),
                ((src_inv, dst_inv), lambda p, q: (-q, p), max(src_move, dst_move)),
            ]
            for (src2, dst2), carry, move in images:
                if res is None or src2 is None or dst2 is None:
                    continue
                try:
                    moved = distance_or_overflow(src2, dst2)
                except InvalidPointError:  # -1/z rounded to y = 0
                    continue
                if moved is None:
                    continue
                assert moved.certified, (band, src2, dst2)
                # rounding -1/z can move the true distance; the oracle measures by how much
                shift = abs(teich_distance_oracle(TorusPoint(*src2), TorusPoint(*dst2))
                            - teich_distance_oracle(TorusPoint(*src), TorusPoint(*dst)))
                d, d2 = 0.5 * math.log(res.value), 0.5 * math.log(moved.value)
                assert abs(d2 - d) <= TOL + shift + 1e-12 * d, (band, src, dst, src2)
                checked += 1
                if move == 0.0:
                    p, q = carry(moved.argmax.p, moved.argmax.q)
                    assert Slope.of(p, q) == res.argmax, (band, src, dst, src2)
                elif move < 1e-9:
                    # the argmax there, carried back, is a near-best slope here
                    p, q = carry(moved.argmax.p, moved.argmax.q)
                    exact = math.exp(2.0 * teich_distance_oracle(TorusPoint(*src), TorusPoint(*dst)))
                    slack = allowance(exact) + 2.0 * exact * math.expm1(4.0 * move)
                    assert exact_ratio(src, dst, p, q) >= exact - slack, (band, src, dst, src2)
                    carried += 1
        assert checked >= 150 and carried >= 20


@pytest.mark.parametrize("y", [1e-300, 1e-150, 1e-8, 0.05, 1.0, 40.0, 1e8, 1e150, 1e300])
def test_dual_sphere_keeps_criterion_5_at_every_modulus(y):
    # convex around the origin, and a support function within a factor
    # cos(pi/n) of 2*teich_norm; the polygon is checked at scale 1/y, where
    # the oracle's cross products neither overflow nor underflow
    rng = random.Random(repr(y))
    n = 256
    for x in (0.0, rng.uniform(-1.0, 1.0), rng.uniform(1e4, 1e5), -rng.uniform(1e8, 1e12)):
        tau = TorusPoint(x, y)
        covs = dual_sphere(tau, n)
        assert polygon_is_convex_with_origin([(g.gx * y, g.gy * y) for g in covs])
        for _ in range(8):
            v = TangentVector(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
            support, exact = max(g.pair(v) for g in covs), 2.0 * teich_norm(tau, v)
            assert exact * math.cos(math.pi / n) * (1.0 - 1e-12) <= support <= exact * (1.0 + 1e-12)
