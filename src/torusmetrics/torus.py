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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidPointError
from .farey import FareyNode, Slope
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


@dataclass(frozen=True)
class Covector:
    """Real linear functional on tangent vectors at a torus point."""

    gx: float
    gy: float

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
    return (1.0 / tau.y, tau.x / tau.y, (tau.x * tau.x + tau.y * tau.y) / tau.y)


def _q_form_dx(tau: TorusPoint) -> tuple[float, float, float]:
    return (0.0, 1.0 / tau.y, 2.0 * tau.x / tau.y)


def _q_form_dy(tau: TorusPoint) -> tuple[float, float, float]:
    y2 = tau.y * tau.y
    return (-1.0 / y2, -tau.x / y2, 1.0 - tau.x * tau.x / y2)


def _apply_form(f: tuple[float, float, float], u: tuple[float, float]) -> float:
    return f[0] * u[0] * u[0] + 2.0 * f[1] * u[0] * u[1] + f[2] * u[1] * u[1]


def _max_gen_eig(a: tuple[float, float, float], b: tuple[float, float, float]) -> float:
    """Largest root of det(A - mu*B) = 0 for symmetric A and positive B."""
    c2 = b[0] * b[2] - b[1] * b[1]
    c1 = a[0] * b[2] + a[2] * b[0] - 2.0 * a[1] * b[1]
    c0 = a[0] * a[2] - a[1] * a[1]
    disc = max(c1 * c1 - 4.0 * c2 * c0, 0.0)
    return (c1 + math.sqrt(disc)) / (2.0 * c2)


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
    Stern-Brocot interval are positive integer combinations of the
    endpoints, so this bounds the objective over the whole subtree.
    """
    auu, avv = _apply_form(a, u), _apply_form(a, v)
    buu, bvv = _apply_form(b, u), _apply_form(b, v)
    auv = a[0] * u[0] * v[0] + a[1] * (u[0] * v[1] + u[1] * v[0]) + a[2] * u[1] * v[1]
    buv = b[0] * u[0] * v[0] + b[1] * (u[0] * v[1] + u[1] * v[0]) + b[2] * u[1] * v[1]

    best = max(auu / buu, avv / bvv)
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
    for s in roots:
        if s > 0.0 and math.isfinite(s):
            num = auu + 2.0 * auv * s + avv * s * s
            den = buu + 2.0 * buv * s + bvv * s * s
            if den > 0.0:
                best = max(best, num / den)
    return best


# -- distances ----------------------------------------------------------------

def teich_distance_oracle(tau1: TorusPoint, tau2: TorusPoint) -> float:
    """Exact model distance: half the hyperbolic half-plane distance.

    Also equals half the log of the largest generalized eigenvalue of the
    two extremal-length forms; tests cross-check the two routes.
    """
    dx = tau2.x - tau1.x
    dy = tau2.y - tau1.y
    return 0.5 * math.acosh(1.0 + (dx * dx + dy * dy) / (2.0 * tau1.y * tau2.y))


def teich_distance_enum(
    tau1: TorusPoint,
    tau2: TorusPoint,
    tol: float = 1e-6,
    max_depth: int = 256,
    max_evals: int = 200_000,
) -> SupRatioResult:
    """Certified sup of Ext(tau2)/Ext(tau1) over slopes; distance = log(value)/2."""
    a = _q_form(tau2)
    b = _q_form(tau1)

    def objective(s: Slope) -> float:
        u = s.direction()
        return _apply_form(a, u) / _apply_form(b, u)

    def bound(node: FareyNode) -> float:
        u, v = node.direction_pair()
        return _cone_ratio_max(a, b, u, v)

    return maximize(
        SupQuery(objective, bound, tolerance=tol, max_depth=max_depth, max_evals=max_evals)
    )


# -- the Finsler norm and its dual sphere ------------------------------------

def _norm_forms(tau: TorusPoint, v: TangentVector):
    dx, dy = _q_form_dx(tau), _q_form_dy(tau)
    g = tuple(v.vx * dxi + v.vy * dyi for dxi, dyi in zip(dx, dy))
    return g, _q_form(tau)


_I = TorusPoint(0.0, 1.0)


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
    g, q = _norm_forms(_I, TangentVector(v.vx / scale, v.vy / scale))
    return 0.5 * _max_gen_eig(g, q) * scale / tau.y


def dual_sphere_with_directions(
    tau: TorusPoint, n: int
) -> list[tuple[float, Covector]]:
    """(angle, dExt) samples of the embedded dual sphere at tau.

    Directions theta = pi*j/n sweep the projective circle of foliation
    directions once; each foliation is normalized to extremal length one,
    so the covector is dExt evaluated on the normalized foliation.  The
    resulting polygon is convex and strictly contains the origin.
    """
    if n < 16:
        raise ValueError("need at least 16 samples to resolve the dual sphere")
    q = _q_form(tau)
    dx, dy = _q_form_dx(tau), _q_form_dy(tau)
    out = []
    for j in range(n):
        theta = math.pi * j / n
        u = (math.cos(theta), math.sin(theta))
        scale = _apply_form(q, u)  # Ext of the unit-weight direction
        out.append((theta, Covector(_apply_form(dx, u) / scale, _apply_form(dy, u) / scale)))
    return out


def dual_sphere(tau: TorusPoint, n: int) -> list[Covector]:
    return [g for _, g in dual_sphere_with_directions(tau, n)]


def normalized_extremal_functional(
    tau0: TorusPoint, tau: TorusPoint, lam: WeightedFoliation
) -> float:
    """Ext_lam(tau)^(1/2) divided by the extremal dilatation root exp(d_T)."""
    return math.sqrt(extremal_length(lam, tau)) * math.exp(-teich_distance_oracle(tau0, tau))
