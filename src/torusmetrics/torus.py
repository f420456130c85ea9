"""The flat-torus model: extremal lengths, quadratic differentials, norms.

A point tau = x + iy of the upper half-plane fixes the flat torus C/(Z +
tau Z).  The extremal length of a weighted slope is an explicit quadratic
form in (p, q), which makes every metric quantity here exactly computable:
distances reduce to a generalized eigenvalue of two positive quadratic
forms (equivalently half the hyperbolic half-plane distance), the Finsler
norm of a tangent vector to the sup of a ratio of quadratic forms over the
direction circle, and the dual unit sphere to an explicitly parametrized
convex curve of extremal-length differentials.

Conventions fixed here and validated against finite differences in tests:
a coordinate velocity V = (vx, vy) at tau corresponds to the constant
Beltrami coefficient i*(vx + i*vy)/(2y), and the quadratic differential
with unit-weight vertical foliation of slope p/q is c*dz^2 with
c = -(p + q*conj(tau))^2 / y^2.

Covector is a named tuple (gx, gy): dual_sphere builds one per sample,
and a tuple is the cheapest immutable record to build.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

from .errors import InvalidPointError
from .farey import Slope, direction
from .supratio import SupRatioResult
# stays importable as torus.maximize: perfbench/tracing.py wraps it; no code here calls it
from .supratio import maximize  # noqa: F401

__all__ = [
    "TorusPoint",
    "WeightedFoliation",
    "TangentVector",
    "QuadDiff",
    "Covector",
    "extremal_length",
    "d_extremal",
    "quad_diff_of_foliation",
    "gardiner_pairing",
    "teich_distance_oracle",
    "teich_distance_enum",
    "teich_norm",
    "dual_sphere",
    "dual_sphere_with_directions",
    "normalized_extremal_functional",
]


@dataclass(frozen=True)
class TorusPoint:
    """tau = x + iy with y > 0, the modulus of the lattice Z + tau Z."""

    x: float
    y: float

    def __post_init__(self):
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise InvalidPointError("torus point must have finite coordinates")
        if self.y <= 0:
            raise InvalidPointError(f"torus point needs y > 0, got y = {self.y}")

    @classmethod
    def parse(cls, text: str) -> "TorusPoint":
        """Parse 'x+yi' strings such as 'i', '2i', '0.5+2i', '-1+0.25i'."""
        try:
            value = complex(text.replace(" ", "").replace("i", "j"))
        except ValueError:
            raise InvalidPointError(f"cannot parse torus point {text!r}; expected 'x+yi'")
        return cls(value.real, value.imag)

    def __str__(self):
        return f"{self.x!r}+{self.y!r}i"


@dataclass(frozen=True)
class WeightedFoliation:
    """A measured foliation with rational direction: weight * slope."""

    weight: float
    slope: Slope

    def __post_init__(self):
        if not (self.weight > 0 and math.isfinite(self.weight)):
            raise ValueError(f"foliation weight must be positive, got {self.weight}")


@dataclass(frozen=True)
class TangentVector:
    """Coordinate velocity d(tau)/dt = vx + i*vy at a torus point."""

    vx: float
    vy: float

    def __post_init__(self):
        if not (math.isfinite(self.vx) and math.isfinite(self.vy)):
            raise ValueError("tangent vector entries must be finite")

    def norm_sq(self) -> float:
        return self.vx * self.vx + self.vy * self.vy


@dataclass(frozen=True)
class QuadDiff:
    """Constant quadratic differential c*dz^2 on the torus at ``at``."""

    c: complex
    at: TorusPoint

    def norm(self) -> float:
        """L1 norm over the fundamental domain, |c| * y."""
        return abs(self.c) * self.at.y


class Covector(namedtuple("Covector", "gx gy")):
    """Real linear functional on tangent vectors at a torus point, as (gx, gy)."""

    __slots__ = ()

    def pair(self, v: TangentVector) -> float:
        return self.gx * v.vx + self.gy * v.vy


# -- extremal length and its differential -----------------------------------

def extremal_length(lam: WeightedFoliation, tau: TorusPoint) -> float:
    """a^2 * |p + q*tau|^2 / y: the extremal length of the weighted slope."""
    p, q = lam.slope.p, lam.slope.q
    u = p + q * tau.x
    return lam.weight ** 2 * (u * u + (q * tau.y) ** 2) / tau.y


def d_extremal(lam: WeightedFoliation, tau: TorusPoint) -> Covector:
    """Exact partial derivatives of extremal_length in (x, y)."""
    p, q = lam.slope.p, lam.slope.q
    a2 = lam.weight ** 2
    u = p + q * tau.x
    gx = a2 * 2.0 * u * q / tau.y
    gy = a2 * (q * q - (u / tau.y) ** 2)
    return Covector(gx, gy)


def quad_diff_of_foliation(lam: WeightedFoliation, tau: TorusPoint) -> QuadDiff:
    """The quadratic differential whose vertical foliation is lam.

    c*dz^2 is negative on vectors parallel to p + q*tau (so those are the
    vertical directions) and its L1 norm |c|*y equals the extremal length.
    """
    p, q = lam.slope.p, lam.slope.q
    wbar = complex(p + q * tau.x, -q * tau.y)
    c = -(lam.weight ** 2) * wbar * wbar / (tau.y * tau.y)
    return QuadDiff(c, tau)


def gardiner_pairing(phi: QuadDiff, v: TangentVector, tau: TorusPoint) -> float:
    """-2 Re <phi, mu(V)> for the Beltrami representative mu(V) = iV/(2y).

    Equals d_extremal applied to V when phi comes from the same foliation
    and basepoint; the first variational formula of extremal length.
    """
    if phi.at != tau:
        raise ValueError(
            f"quadratic differential belongs to {phi.at}, pairing requested at {tau}"
        )
    # <phi, mu> integrates c * mu over the fundamental domain (area y), and
    # mu(V) = i(vx + i vy)/(2y); the pairing collapses to ci*vx + cr*vy.
    return phi.c.imag * v.vx + phi.c.real * v.vy


# -- the extremal-length form -------------------------------------------------

def _q_form(x: float, y: float) -> tuple[float, float, float]:
    """Symmetric form (f11, f12, f22) with Ext_(p,q) = [p q] F [p q]^T at x + iy."""
    f22 = (x * x + y * y) / y
    if not 0.0 < f22 < math.inf:
        # x^2 + y^2 overflowed (huge y) or underflowed to 0 (tiny x and y)
        f22 = x * (x / y) + y
    return (1.0 / y, x / y, f22)


# -- distances ----------------------------------------------------------------

def teich_distance_oracle(tau1: TorusPoint, tau2: TorusPoint) -> float:
    """Exact model distance: half the hyperbolic half-plane distance.

    Written as asinh(|dz|/(2 sqrt(y1 y2))), which neither overflows at
    extreme moduli nor cancels near the diagonal as acosh(1 + ...) does.
    Also equals half the log of the largest generalized eigenvalue of the
    two extremal-length forms; tests cross-check the two routes.
    """
    dz = math.hypot(tau2.x - tau1.x, tau2.y - tau1.y)
    # halving dz first keeps 2 sqrt(y1 y2) from overflowing at y near 1e308
    return math.asinh(0.5 * dz / (math.sqrt(tau1.y) * math.sqrt(tau2.y)))


# Relative rounding allowance of lambda_hi over e^(2d) and over every ratio
# computed (see teich_distance_enum)
_ROUNDING = 2.0**-44
# the root slopes 0/1, 1/0, 1/1 and -1/1, evaluated first
_ROOTS = ((0, 1), (1, 0), (1, 1), (-1, 1))


def _moebius(m: tuple, x: float, y: float) -> tuple[float, float]:
    """(a*tau + b)/(c*tau + d) at tau = x + iy for m = (a, b, c, d), exact in
    integers and rounded once (int true division rounds correctly)."""
    a, b, c, d = m
    xn, xd = x.as_integer_ratio()
    yn, yd = y.as_integer_ratio()
    # ((a x + b)(c x + d) + a c y^2 + i y) / ((c x + d)^2 + c^2 y^2), all times (xd yd)^2
    u, v, w = (a * xn + b * xd) * yd, (c * xn + d * xd) * yd, yn * xd
    den = v * v + (c * w) ** 2
    return (u * v + a * c * w * w) / den, yn * yd * xd * xd / den


def _reduced_frame(tau1: TorusPoint, tau2: TorusPoint) -> tuple:
    """(M, M tau1, M tau2): M = (a, b, c, d) in SL(2,Z) takes tau1 to the modular
    fundamental domain, and each image is exact, rounded once.

    Lagrange-Gauss reduction of the lattice Z + Z tau1 in integers (Cohen,
    GTM 138, ch. 5): the basis u = 1, v = tau1, times xd*yd, with
    v = a*tau1 + b and u = c*tau1 + d; translate v by the multiple of u
    nearest to it, and swap while v is the shorter.  Float steps cannot keep
    x to within 1/2 once the image's |x| passes 2^53.
    """
    xn, xd = tau1.x.as_integer_ratio()
    yn, yd = tau1.y.as_integer_ratio()
    u0, u1, v0, v1 = xd * yd, 0, xn * yd, yn * xd
    a, b, c, d = 1, 0, 0, 1
    while True:
        n = u0 * u0 + u1 * u1
        k = (2 * (u0 * v0 + u1 * v1) + n) // (2 * n)
        v0, v1, a, b = v0 - k * u0, v1 - k * u1, a - k * c, b - k * d
        if v0 * v0 + v1 * v1 >= n:
            break
        u0, u1, v0, v1, a, b, c, d = v0, v1, -u0, -u1, -c, -d, a, b
    m = (a, b, c, d)
    if m == (1, 0, 0, 1):
        return m, (tau1.x, tau1.y), (tau2.x, tau2.y)
    # tau1's image is v/u
    return m, ((u0 * v0 + u1 * v1) / n, (u0 * v1 - u1 * v0) / n), _moebius(m, tau2.x, tau2.y)


def _walk(ep: float, eq: float):
    """The root slopes, then the continued-fraction convergents of the slope ep/eq
    but the roots among them."""
    yield from _ROOTS
    if eq < 0.0:
        ep, eq = -ep, -eq
    if not 0.0 < eq or not abs(ep) / eq < math.inf:  # 1/0, a root, or no direction
        return
    sign = -1 if ep < 0.0 else 1
    n, d = (abs(ep) / eq).as_integer_ratio()
    h0, k0, h1, k1 = 0, 1, 1, 0
    while d:
        k, (n, d) = n // d, (d, n % d)
        h0, k0, h1, k1 = h1, k1, k * h1 + h0, k * k1 + k0
        if k1 > 1 or h1 > 1:
            yield sign * h1, k1


def _given_slope(m: tuple, p: int, q: int, max_depth) -> tuple:
    """(p', q', depth, clipped): the reduced frame's slope p/q in the given frame,
    with its Stern-Brocot depth, or its ancestor at max_depth when it lies deeper.

    The given frame's p'/q' is (a p' - b q')/(d q' - c p') in the reduced frame of
    m = (a, b, c, d).  depth is the partial quotients' sum less one (one more below
    0); the partial quotient that would pass max_depth is clipped.
    """
    ma, mb, mc, md = m
    p, q = md * p + mb * q, mc * p + ma * q
    if q < 0 or (q == 0 and p < 0):
        p, q = -p, -q
    sign, n, d = (-1, -p, q) if p < 0 else (1, p, q)
    depth, h0, k0, h1, k1 = (p < 0) - 1, 0, 1, 1, 0
    while d:
        k, (n, d) = n // d, (d, n % d)
        depth += k
        if max_depth is not None and depth > max_depth:
            if k > depth - max_depth:  # a semiconvergent, else the convergent h1/k1
                k -= depth - max_depth
                h1, k1 = k * h1 + h0, k * k1 + k0
            return (sign * h1 if k1 else 1), k1, max_depth, True
        h0, k0, h1, k1 = h1, k1, k * h1 + h0, k * k1 + k0
    return p, q, max(depth, 0), False


def _ratio(a: tuple, b: tuple, p: int, q: int) -> float:
    """(w A w)/(w B w) at the slope w = p/q."""
    u0, u1 = direction(p, q)
    v = ((a[0] * u0 * u0 + 2.0 * a[1] * u0 * u1 + a[2] * u1 * u1)
         / (b[0] * u0 * u0 + 2.0 * b[1] * u0 * u1 + b[2] * u1 * u1))
    if not math.isfinite(v):
        raise OverflowError(f"the extremal-length ratio at slope {p}/{q} is {v!r}")
    return v


def teich_distance_enum(
    tau1: TorusPoint,
    tau2: TorusPoint,
    tol: float = 1e-6,
    max_depth: int | None = None,
    max_evals: int = 200_000,
) -> SupRatioResult:
    """Certified sup of Ext(tau2)/Ext(tau1) over slopes; distance = log(value)/2.

    The ratio of the two extremal-length forms peaks once over all directions,
    at the stretch direction e+, with value lambda = e^(2d) (Kerckhoff).  The
    search evaluates the root slopes, then the continued-fraction convergents
    of e+ (best approximations, Khinchin), in the source's reduced frame
    (_reduced_frame), where the forms do not cancel, and stops once the best
    value is at least lambda_hi - tol; ties go to the slope evaluated first.
    So the slopes evaluated, and the argmax, do not depend on how the caller
    labels the torus.  Depth does: each slope is taken back to the given
    frame exactly in integers, ``max_depth`` (None: no cap) clips it to its
    ancestor at that depth there, which ends the walk past the roots, and
    ``stabilization_depth`` is the argmax's depth there.  e+ only steers;
    lambda_hi is ``frontier_bound``.

    lambda = (s + sqrt(1 + s^2))^2 adds and multiplies positive terms only,
    so it is within about 15 units of roundoff u = 2^-53 of e^(2d); with
    |x1| <= 1/2 and |tau1| >= 1 the forms cancel little, and a computed ratio
    exceeds its exact value, at most e^(2d), by a few tens of u.  lambda_hi =
    lambda * (1 + 2^-44), 512 u, covers both (seeded pairs with |x| to 1e12
    and y from 1e-300 to 1e300 erred by at most 8 u); a tol under the ratios'
    rounding floor 2^-43 * lambda_hi is taken at that floor.  Raises
    OverflowError when an entry of a form in the reduced frame, or e^(2d),
    is not a finite float.
    """
    if not 0 < tol < math.inf:
        raise ValueError("tolerance must be positive and finite")
    if max_depth is not None and max_depth < 0:
        raise ValueError("max_depth must be nonnegative")
    if max_evals < len(_ROOTS):
        raise ValueError("max_evals must allow at least the root evaluations")
    x1, y1, x2, y2 = tau1.x, tau1.y, tau2.x, tau2.y
    s = 0.5 * math.hypot(x2 - x1, y2 - y1) / (math.sqrt(y1) * math.sqrt(y2))
    lam = (s + math.sqrt(1.0 + s * s)) ** 2  # e^(2d), d = asinh(s) as in the oracle
    lam_hi = lam * (1.0 + _ROUNDING)
    if not lam_hi < math.inf:
        raise OverflowError(f"the extremal-length ratio from {tau1} to {tau2} overflows")
    m, (x1, y1), (x2, y2) = _reduced_frame(tau1, tau2)
    a, b = _q_form(x2, y2) if y2 > 0.0 else (math.inf,), _q_form(x1, y1)
    if not all(map(math.isfinite, a + b)):  # y2 may round to 0 in the reduced frame
        raise OverflowError(f"the extremal-length forms of {tau1} and {tau2} overflow in the reduced frame")
    target = lam_hi - max(tol, 2.0 * _ROUNDING * lam_hi)
    # e+ is normal to the row of A - lam*B further from 0, of those that stay finite
    rows = [r for r in ((a[0] - lam * b[0], a[1] - lam * b[1]), (a[1] - lam * b[1], a[2] - lam * b[2]))
            if math.isfinite(r[0]) and math.isfinite(r[1])]
    if not rows:
        raise OverflowError(f"the stretch direction from {tau1} to {tau2} overflows")
    row = max(rows, key=lambda r: max(abs(r[0]), abs(r[1])))
    best, evals, depth_reached, hit_eval_cap = -math.inf, 0, 0, False
    for rp, rq in _walk(-row[1], row[0]):
        if evals >= len(_ROOTS) and best >= target:
            break
        if evals >= max_evals:
            hit_eval_cap = True
            break
        cp, cq, c_depth, clipped = _given_slope(m, rp, rq, max_depth)
        if clipped:
            ma, mb, mc, md = m
            rp, rq = ma * cp - mb * cq, md * cq - mc * cp
        v, evals, depth_reached = _ratio(a, b, rp, rq), evals + 1, max(depth_reached, c_depth)
        if v > best:
            best, depth, p, q = v, c_depth, cp, cq
        if clipped and evals > len(_ROOTS):
            break
    return SupRatioResult(best, Slope._unchecked(p, q), best >= target, lam_hi, evals, depth,
                          depth_reached, hit_eval_cap)


# -- the Finsler norm and its dual sphere ------------------------------------

def teich_norm(tau: TorusPoint, v: TangentVector) -> float:
    """Finsler norm sup of d(Ext^1/2)(V)/Ext^1/2 over foliations: |V|/(2y).

    The sup over the full direction circle dominates the sup over rational
    slopes (the maximizer need not be rational).  The norm is invariant under
    the isometry tau -> (tau - x)/y, V -> V/y, and at i, where Ext is the
    form (1, 0, 1) and its derivative along V is (-vy, vx, vy), the top
    generalized eigenvalue of the two is |V|.  V is scaled to max(|vx|, |vy|)
    = 1 first, so nothing overflows at extreme moduli.
    """
    scale = max(abs(v.vx), abs(v.vy))
    if scale == 0.0:
        return 0.0
    return 0.5 * math.hypot(v.vx / scale, v.vy / scale) * scale / tau.y


# builds a Covector from its (gx, gy) tuple without running a Python __new__
_new_tuple = tuple.__new__


def dual_sphere(tau: TorusPoint, n: int) -> list[Covector]:
    """dExt samples of the embedded dual sphere at tau, n foliations spread evenly.

    tau -> (tau - x)/y takes tau to i, where the foliation of angle phi,
    normalized to extremal length one, has dExt = (sin 2phi, -cos 2phi); at
    tau that is divided by y.  So the dual sphere is the circle of radius
    1/y, and phi_j = pi*j/n spreads the samples evenly in the visual measure
    from tau: a convex polygon around the origin whose support function is
    within a factor cos(pi/n) of 2*teich_norm.
    """
    if n < 16:
        raise ValueError("need at least 16 samples to resolve the dual sphere")
    y = tau.y
    if 1.0 / y == math.inf:
        raise OverflowError(f"dual-sphere covectors of size 1/y overflow at y = {y!r}")
    sin, cos, neg_y, turn = math.sin, math.cos, -y, 2.0 * math.pi
    return [_new_tuple(Covector, (sin(t) / y, cos(t) / neg_y))  # t = 2*phi_j
            for t in [turn * j / n for j in range(n)]]


def dual_sphere_with_directions(tau: TorusPoint, n: int) -> list[tuple[float, Covector]]:
    """(angle, dExt) samples of dual_sphere, each labelled with the angle in [0, pi)
    of its foliation's direction at tau, (cos phi - x sin(phi)/y, sin(phi)/y)."""
    x, y = tau.x, tau.y
    out = []
    for j, g in enumerate(dual_sphere(tau, n)):
        phi = math.pi * j / n
        v = math.sin(phi) / y
        out.append((math.atan2(v, math.cos(phi) - x * v) % math.pi, g))
    return out


def normalized_extremal_functional(
    tau0: TorusPoint, tau: TorusPoint, lam: WeightedFoliation
) -> float:
    """Ext_lam(tau)^(1/2) divided by the extremal dilatation root exp(d_T)."""
    return math.sqrt(extremal_length(lam, tau)) * math.exp(-teich_distance_oracle(tau0, tau))
