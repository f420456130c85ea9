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
import sys
from collections import namedtuple
from dataclasses import dataclass

from .errors import InvalidPointError
from .farey import Slope, cone_directions, direction
from .supratio import SupQuery, SupRatioResult, maximize

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


# -- quadratic-form helpers --------------------------------------------------

def _q_form(tau: TorusPoint) -> tuple[float, float, float]:
    """Symmetric form (f11, f12, f22) with Ext_(p,q) = [p q] F [p q]^T."""
    x, y = tau.x, tau.y
    f22 = (x * x + y * y) / y
    if not 0.0 < f22 < math.inf:
        # x^2 + y^2 overflowed (huge y) or underflowed to 0 (tiny x and y)
        f22 = x * (x / y) + y
    return (1.0 / y, x / y, f22)


def _apply_form(f: tuple[float, float, float], u: tuple[float, float]) -> float:
    return f[0] * u[0] * u[0] + 2.0 * f[1] * u[0] * u[1] + f[2] * u[1] * u[1]


def _max_gen_eig(a: tuple[float, float, float], b: tuple[float, float, float]) -> float:
    """Largest root of det(A - mu*B) = 0 for symmetric A and positive B."""
    c2 = b[0] * b[2] - b[1] * b[1]
    c1 = a[0] * b[2] + a[2] * b[0] - 2.0 * a[1] * b[1]
    c0 = a[0] * a[2] - a[1] * a[1]
    disc = max(c1 * c1 - 4.0 * c2 * c0, 0.0)
    return (c1 + math.sqrt(disc)) / (2.0 * c2)


def _line_ratio(a, b, u, v) -> tuple[float, float, list[tuple[float, float]]]:
    """The ratio (w A w)/(w B w) along w = u + s*v: at s = 0, at s = inf, and at
    its finite real critical points, as (s, ratio) pairs.

    The ratio is a quotient of two quadratics in s, so its derivative
    vanishes on the roots of one quadratic.
    """
    auu, avv = _apply_form(a, u), _apply_form(a, v)
    buu, bvv = _apply_form(b, u), _apply_form(b, v)
    auv = a[0] * u[0] * v[0] + a[1] * (u[0] * v[1] + u[1] * v[0]) + a[2] * u[1] * v[1]
    buv = b[0] * u[0] * v[0] + b[1] * (u[0] * v[1] + u[1] * v[0]) + b[2] * u[1] * v[1]
    c2 = avv * buv - auv * bvv
    c1 = avv * buu - auu * bvv
    c0 = auv * buu - auu * buv
    roots = []
    if c2 != 0.0:
        disc = c1 * c1 - 4.0 * c2 * c0
        if disc >= 0.0:
            r = math.sqrt(disc)
            roots.extend(((-c1 + r) / (2.0 * c2), (-c1 - r) / (2.0 * c2)))
    elif c1 != 0.0:
        roots.append(-c0 / c1)
    critical = []
    for s in roots:
        if math.isfinite(s):
            num = auu + 2.0 * auv * s + avv * s * s
            den = buu + 2.0 * buv * s + bvv * s * s
            if den > 0.0:
                critical.append((s, num / den))
    return auu / buu, avv / bvv, critical


def _cone_ratio_max(
    a: tuple[float, float, float],
    b: tuple[float, float, float],
    u: tuple[float, float],
    v: tuple[float, float],
) -> float:
    """Exact max of (w A w)/(w B w) over the closed cone spanned by u, v.

    Restricting to w = u + s*v, s in [0, inf], the ratio is a rational
    function of s whose critical points solve a quadratic; the max over the
    candidates {0, inf, positive roots} is exact.  Slopes strictly inside a
    Stern-Brocot interval, or a fan of one, are positive integer combinations
    of its two sides, so this bounds the objective over the whole region.
    """
    at_u, at_v, critical = _line_ratio(a, b, u, v)
    return max(at_u, at_v, *(value for s, value in critical if s > 0.0))


def _ray_step(a, b, base: tuple[int, int], axis: tuple[int, int], jmax: int) -> int:
    """The step j in [1, jmax] next to the peak of the ratio along base + s*axis.

    The ratio of two forms has one peak over all directions; along the ray
    it peaks at a critical point or at s = inf.  j is the better of the
    integers either side of the peak, clipped to [1, jmax] (the smaller on
    ties).  A region whose bound exceeds its sides has its peak inside; the
    integer argmax over all of [1, jmax] could sit at the far end of a dip
    in the ratio instead, and the search would then shave one step a pop.
    """
    (bp, bq), (ap, aq) = base, axis
    _, peak_value, critical = _line_ratio(a, b, (float(bp), float(bq)), (float(ap), float(aq)))
    peak = math.inf
    for s, value in critical:
        if value > peak_value:
            peak, peak_value = s, value
    if not peak < jmax:
        return jmax
    if peak < 1.0:
        return 1

    def ratio(j: int) -> float:
        w = direction(bp + j * ap, bq + j * aq)
        return _apply_form(a, w) / _apply_form(b, w)

    j = math.floor(peak)
    return j if ratio(j) >= ratio(j + 1) else j + 1


# -- distances ----------------------------------------------------------------

def teich_distance_oracle(tau1: TorusPoint, tau2: TorusPoint) -> float:
    """Exact model distance: half the hyperbolic half-plane distance.

    Written as asinh(|dz|/(2 sqrt(y1 y2))), which neither overflows at
    extreme moduli nor cancels near the diagonal as acosh(1 + ...) does.
    Also equals half the log of the largest generalized eigenvalue of the
    two extremal-length forms; tests cross-check the two routes.
    """
    dz = math.hypot(tau2.x - tau1.x, tau2.y - tau1.y)
    return math.asinh(dz / (2.0 * math.sqrt(tau1.y) * math.sqrt(tau2.y)))


# e^(2d) is a finite float exactly when 2d is at most this
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def teich_distance_enum(
    tau1: TorusPoint,
    tau2: TorusPoint,
    tol: float = 1e-6,
    max_depth: int = 10**6,
    max_evals: int = 200_000,
) -> SupRatioResult:
    """Certified sup of Ext(tau2)/Ext(tau1) over slopes; distance = log(value)/2.

    The search jumps along rays of slopes (see supratio), so a deep argmax
    costs few evaluations and max_depth is only a cap.  Raises OverflowError
    when an entry of either extremal-length form or the supremum e^(2d) is not
    a finite float.
    """
    a = _q_form(tau2)
    b = _q_form(tau1)
    if not all(map(math.isfinite, a + b)):
        raise OverflowError(f"the extremal-length forms of {tau1} and {tau2} overflow")
    if 2.0 * teich_distance_oracle(tau1, tau2) > _LOG_FLOAT_MAX:
        raise OverflowError(f"the extremal-length ratio from {tau1} to {tau2} overflows")

    def objective(s: Slope) -> float:
        u = direction(s.p, s.q)
        return _apply_form(a, u) / _apply_form(b, u)

    def bound(left: Slope, right: Slope, opp: Slope) -> float:
        return _cone_ratio_max(a, b, *cone_directions(left, right, opp))

    def ray(base: Slope, axis: Slope, prev: Slope, jmax: int):
        bp, bq = base.p, base.q
        # the canonical 1/0 stands for (-1, 0) on the mirrored side; prev = base - axis
        ap, aq = (axis.p, axis.q) if axis.q else (bp - prev.p, bq - prev.q)
        j = _ray_step(a, b, (bp, bq), (ap, aq), jmax)
        return (j, Slope._unchecked(bp + j * ap, bq + j * aq),
                Slope._unchecked(bp + (j - 1) * ap, bq + (j - 1) * aq))

    return maximize(SupQuery(
        objective, bound, tolerance=tol, max_depth=max_depth, max_evals=max_evals, ray=ray))


# -- the Finsler norm and its dual sphere ------------------------------------

def teich_norm(tau: TorusPoint, v: TangentVector) -> float:
    """Finsler norm sup of d(Ext^1/2)(V)/Ext^1/2 over foliations.

    The sup over the full direction circle is a generalized eigenvalue of
    two quadratic forms, in closed form; it dominates the sup over rational
    slopes (the maximizer need not be rational).  The norm is invariant
    under the isometry tau -> (tau - x)/y, V -> V/y and positively
    homogeneous in V, so it is evaluated at i on V scaled to max(|vx|, |vy|)
    = 1: no intermediate overflows or divides by y^2 at extreme moduli.
    Equals |V|/(2y).
    """
    scale = max(abs(v.vx), abs(v.vy))
    if scale == 0.0:
        return 0.0
    vx, vy = v.vx / scale, v.vy / scale
    # at i, Ext is the form (1, 0, 1) and its derivative along V is (-vy, vx, vy)
    return 0.5 * _max_gen_eig((-vy, vx, vy), (1.0, 0.0, 1.0)) * scale / tau.y


# builds a Covector from its (gx, gy) tuple without running a Python __new__
_new_tuple = tuple.__new__


def dual_sphere(tau: TorusPoint, n: int) -> list[Covector]:
    """dExt samples of the embedded dual sphere at tau, at directions pi*j/n.

    Directions theta = pi*j/n sweep the projective circle of foliation
    directions once; each foliation is normalized to extremal length one,
    so the covector is dExt evaluated on the normalized foliation.  The
    resulting polygon is convex and strictly contains the origin.
    """
    if n < 16:
        raise ValueError("need at least 16 samples to resolve the dual sphere")
    x, y = tau.x, tau.y
    if 1.0 / y == math.inf:
        raise OverflowError(f"dual-sphere covectors of size 1/y overflow at y = {y!r}")
    # direction u at tau is (u0 + u1*x, u1*y) at i under tau -> (tau - x)/y; there
    # dExt/Ext of the unit direction (a, b) is (2ab, b^2 - a^2), here that over y
    out = []
    for j in range(n):
        theta = math.pi * j / n
        c, s = math.cos(theta), math.sin(theta)
        a, b = c + s * x, s * y
        r = math.hypot(a, b)
        a, b = a / r, b / r
        out.append(_new_tuple(Covector, (2.0 * a * b / y, (b - a) * (b + a) / y)))
    return out


def dual_sphere_with_directions(
    tau: TorusPoint, n: int
) -> list[tuple[float, Covector]]:
    """(angle, dExt) samples of the embedded dual sphere at tau; see dual_sphere."""
    return [(math.pi * j / n, g) for j, g in enumerate(dual_sphere(tau, n))]


def normalized_extremal_functional(
    tau0: TorusPoint, tau: TorusPoint, lam: WeightedFoliation
) -> float:
    """Ext_lam(tau)^(1/2) divided by the extremal dilatation root exp(d_T)."""
    return math.sqrt(extremal_length(lam, tau)) * math.exp(-teich_distance_oracle(tau0, tau))
