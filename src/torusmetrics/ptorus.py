"""The once-punctured-torus model in trace coordinates.

A discrete faithful representation of the punctured-torus group is pinned,
up to conjugacy, by the traces (x, y, z) of two generators and their
product.  Cusped structures satisfy x^2 + y^2 + z^2 = x*y*z, and the trace
of the simple closed curve of any slope follows from the vertex recursion
t_mediant = t_a * t_b - t_opposite over the Farey triangulation: slope 1/0
carries x, 0/1 carries y, 1/1 carries z.  Hyperbolic lengths are
2*arccosh(trace/2).

Traces grow doubly exponentially along balanced Farey paths and overflow
doubles near depth 12, so the recursion runs in log space (``_log_step``),
together with the gradient of log(trace) where a differential is needed;
lengths and their differentials stay accurate at any depth.  Public jets
still expose the raw trace and gradient, which may round to infinity for
very complicated curves.

Suprema over curves carry these values down the Stern-Brocot walk of the
sup engine, one recursion step per slope.  Random access to a single slope
applies the same steps along the slope's path from the root, so the two
agree bit for bit and nothing is memoized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidPointError, OutOfChartError
from .farey import Slope, path_state
# stays importable as ptorus.slope_parents: perfbench/tracing.py counts its calls
from .farey import slope_parents  # noqa: F401
from .supratio import SupQuery, SupRatioResult, maximize

__all__ = [
    "MarkovPoint",
    "TraceJet",
    "PTTangent",
    "PTCovector",
    "WeightedLamination",
    "from_parameters",
    "trace_of_slope",
    "TraceCache",
    "length",
    "d_length",
    "tangent_from_chart",
    "thurston_distance",
    "thurston_norm",
    "dehn_twist",
    "normalized_length_functional",
    "markov_residual",
]

_LOG2 = math.log(2.0)
_MIN_TRACE = 2.0 + 1e-12
_TWIST_OVERFLOW = 1e150
_DEGENERATE = "trace recursion degenerated; the point is not Fuchsian"
_SHORT_CURVE = "a simple closed curve has trace <= 2; the point is not Fuchsian"


def markov_residual(x: float, y: float, z: float) -> float:
    """Relative defect of the cusped trace relation x^2+y^2+z^2 = xyz."""
    return abs(x * x + y * y + z * z - x * y * z) / (1.0 + abs(x * y * z))


@dataclass(frozen=True)
class MarkovPoint:
    """Trace triple (x, y, z) of a cusped punctured-torus structure."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        for name in ("x", "y", "z"):
            object.__setattr__(self, name, float(getattr(self, name)))
        for name, t in (("x", self.x), ("y", self.y), ("z", self.z)):
            if not (math.isfinite(t) and t > _MIN_TRACE):
                raise InvalidPointError(
                    f"trace {name} = {t} is not above 2; the structure degenerates"
                )
        res = self.residual
        if res > 1e-9:
            raise InvalidPointError(
                f"triple ({self.x}, {self.y}, {self.z}) misses the trace relation "
                f"(relative residual {res:.3e})"
            )

    @property
    def residual(self) -> float:
        return markov_residual(self.x, self.y, self.z)

    @classmethod
    def parse(cls, text: str) -> "MarkovPoint":
        body = text.strip()
        try:
            if body.startswith("chart:"):
                parts = [float(p) for p in body[len("chart:"):].split(",")]
                if len(parts) != 2:
                    raise InvalidPointError(f"chart point must be 'chart:x,y', got {text!r}")
                return from_parameters(*parts)
            parts = [float(p) for p in body.split(",")]
        except ValueError:
            raise InvalidPointError(f"point must be 'x,y,z' or 'chart:x,y', got {text!r}")
        if len(parts) != 3:
            raise InvalidPointError(f"point must be 'x,y,z' or 'chart:x,y', got {text!r}")
        return cls(*parts)

    def to_json_dict(self) -> dict:
        return {"x": self.x, "y": self.y, "z": self.z}

    def __str__(self):
        return f"{self.x!r},{self.y!r},{self.z!r}"


def from_parameters(x: float, y: float) -> MarkovPoint:
    """The point with generator traces (x, y) and the larger product trace.

    z is the larger root of z^2 - xyz + (x^2 + y^2); the smaller root gives
    the mirror-image structure.
    """
    if not (x > 2.0 and y > 2.0):
        raise OutOfChartError(f"chart needs x > 2 and y > 2, got ({x}, {y})")
    disc = x * x * y * y - 4.0 * (x * x + y * y)
    if disc < 0.0:
        raise OutOfChartError(
            f"no real structure for chart parameters ({x}, {y}): discriminant {disc:.6g}"
        )
    z = 0.5 * (x * y + math.sqrt(disc))
    return MarkovPoint(x, y, z)


@dataclass(frozen=True)
class WeightedLamination:
    """weight * (simple closed curve of the given slope)."""

    weight: float
    slope: Slope

    def __post_init__(self):
        if not (self.weight > 0 and math.isfinite(self.weight)):
            raise ValueError(f"lamination weight must be positive, got {self.weight}")


@dataclass(frozen=True)
class TraceJet:
    """Trace of a slope's geodesic with its gradient in (x, y, z).

    ``t`` and ``grad`` may round to infinity for very complicated slopes;
    ``log_t`` and ``dlog`` (the gradient of log t) are always finite and
    are what the length computations consume.
    """

    t: float
    grad: tuple[float, float, float]
    log_t: float
    dlog: tuple[float, float, float]


@dataclass(frozen=True)
class PTTangent:
    """Tangent vector (wx, wy, wz) at a Markov point, tangent to the variety."""

    wx: float
    wy: float
    wz: float
    at: MarkovPoint

    def __post_init__(self):
        p = self.at
        f = (2 * p.x - p.y * p.z, 2 * p.y - p.x * p.z, 2 * p.z - p.x * p.y)
        pairing = f[0] * self.wx + f[1] * self.wy + f[2] * self.wz
        scale = math.sqrt(f[0] ** 2 + f[1] ** 2 + f[2] ** 2) * math.sqrt(
            self.wx ** 2 + self.wy ** 2 + self.wz ** 2
        )
        if abs(pairing) > 1e-9 * (1.0 + scale):
            raise ValueError(
                f"({self.wx}, {self.wy}, {self.wz}) is not tangent to the trace variety "
                f"at {self.at} (defect {pairing:.3e})"
            )

    def scaled(self, factor: float) -> "PTTangent":
        return PTTangent(factor * self.wx, factor * self.wy, factor * self.wz, self.at)

    def __neg__(self) -> "PTTangent":
        return self.scaled(-1.0)

    def __add__(self, other: "PTTangent") -> "PTTangent":
        if other.at != self.at:
            raise ValueError("cannot add tangent vectors at different points")
        return PTTangent(self.wx + other.wx, self.wy + other.wy, self.wz + other.wz, self.at)


@dataclass(frozen=True)
class PTCovector:
    """Linear functional on PTTangent vectors."""

    gx: float
    gy: float
    gz: float

    def pair(self, v: PTTangent) -> float:
        return self.gx * v.wx + self.gy * v.wy + self.gz * v.wz

    def scaled(self, factor: float) -> "PTCovector":
        return PTCovector(factor * self.gx, factor * self.gy, factor * self.gz)


def tangent_from_chart(point: MarkovPoint, vx: float, vy: float) -> PTTangent:
    """Lift a chart velocity (dx, dy) through the implicit trace relation."""
    fx = 2 * point.x - point.y * point.z
    fy = 2 * point.y - point.x * point.z
    fz = 2 * point.z - point.x * point.y
    if abs(fz) < 1e-12 * (1.0 + abs(point.x * point.y)):
        raise OutOfChartError(
            f"chart is singular at {point} (double root); cannot lift tangents"
        )
    vz = -(fx * vx + fy * vy) / fz
    return PTTangent(vx, vy, vz, point)


# -- trace recursion ----------------------------------------------------------

def _log_step(la: float, lb: float, lc: float) -> float:
    """log t_m from t_m = t_a t_b - t_c, for Farey parents a, b and opposite c."""
    ratio = math.exp(lc - la - lb)  # t_c / (t_a t_b), in (0, 1)
    if ratio >= 1.0:
        raise InvalidPointError(_DEGENERATE)
    lm = la + lb + math.log1p(-ratio)
    if lm <= _LOG2:
        raise InvalidPointError(_SHORT_CURVE)
    return lm


def _grad_step(a: tuple, b: tuple, c: tuple) -> tuple[float, tuple[float, float, float]]:
    """(log t, gradient of log t) at the mediant, from the same at a, b, c."""
    la, ua = a[0], a[1]
    lb, ub = b[0], b[1]
    lc, uc = c[0], c[1]
    lm = _log_step(la, lb, lc)
    r = math.exp(lc - lm)  # t_c / t_m
    s = 1.0 + r            # t_a t_b / t_m
    return lm, (
        s * (ua[0] + ub[0]) - r * uc[0],
        s * (ua[1] + ub[1]) - r * uc[1],
        s * (ua[2] + ub[2]) - r * uc[2],
    )


def _jet_step(a: tuple, b: tuple, c: tuple) -> tuple:
    """_grad_step plus the raw trace: exact float recursion while it fits."""
    product = a[2] * b[2]
    return (*_grad_step(a, b, c), math.inf if math.isinf(product) else product - c[2])


def _root_jets(point: MarkovPoint) -> tuple:
    """(log t, gradient of log t, t) at the slopes 0/1, 1/0, 1/1."""
    x, y, z = point.x, point.y, point.z
    return (
        (math.log(y), (0.0, 1.0 / y, 0.0), y),
        (math.log(x), (1.0 / x, 0.0, 0.0), x),
        (math.log(z), (0.0, 0.0, 1.0 / z), z),
    )


class TraceCache:
    """Random access to the trace jets of one Markov point, by slope.

    A lookup walks the slope's Stern-Brocot path from the root with the
    recursion the sweeps carry: O(depth), no memo, bit-identical values.
    """

    __slots__ = ("point", "_jets")

    def __init__(self, point: MarkovPoint):
        self.point = point
        self._jets = _root_jets(point)

    def log_trace(self, slope: Slope) -> float:
        return path_state(slope, tuple(j[0] for j in self._jets), _log_step)

    def jet(self, slope: Slope) -> TraceJet:
        lt, u, t = path_state(slope, self._jets, _jet_step)
        if math.isfinite(t):
            grad = (u[0] * t, u[1] * t, u[2] * t)
        else:
            grad = tuple(0.0 if ui == 0.0 else math.copysign(math.inf, ui) for ui in u)
        return TraceJet(t, grad, lt, u)

    def length(self, slope: Slope) -> float:
        """Geodesic length of the unit-weight curve, stable at any depth."""
        return _ell_from_log(self.log_trace(slope))

    def length_dlog(self, slope: Slope) -> tuple[float, float, float, float]:
        """(length, g1, g2, g3) with g the gradient of the unit-weight length."""
        lt, u = path_state(slope, tuple(j[:2] for j in self._jets), _grad_step)
        ell = _ell_from_log(lt)
        f = _dlen_factor(lt)
        return ell, f * u[0], f * u[1], f * u[2]


def _ell_from_log(lt: float) -> float:
    """2*arccosh(exp(lt)/2) without forming huge traces."""
    if lt < 30.0:
        return 2.0 * math.acosh(0.5 * math.exp(lt))
    return 2.0 * (lt - _LOG2 + math.log(1.0 + math.sqrt(1.0 - 4.0 * math.exp(-2.0 * lt))))


def _dlen_factor(lt: float) -> float:
    """d(length)/d(trace) * trace = 2 / sqrt(1 - 4/t^2)."""
    return 2.0 / math.sqrt(1.0 - 4.0 * math.exp(-2.0 * lt))


def trace_of_slope(point: MarkovPoint, slope: Slope) -> TraceJet:
    """Trace jet of the geodesic in the slope's isotopy class."""
    return TraceCache(point).jet(slope)


def length(point: MarkovPoint, lam: WeightedLamination) -> float:
    """Hyperbolic length weight * 2*arccosh(trace/2)."""
    return lam.weight * TraceCache(point).length(lam.slope)


def d_length(point: MarkovPoint, lam: WeightedLamination) -> PTCovector:
    """Exact differential of the length function in ambient (x, y, z)."""
    _, g1, g2, g3 = TraceCache(point).length_dlog(lam.slope)
    return PTCovector(lam.weight * g1, lam.weight * g2, lam.weight * g3)


# -- Thurston distance and norm ----------------------------------------------

def _collar_width(lt: float) -> float:
    """Embedded-collar width 2*arcsinh(1/sinh(length/2)) from log(trace)."""
    if lt < 300.0:
        t = math.exp(lt)
        return 2.0 * math.asinh(2.0 / math.sqrt(t * t - 4.0))
    return 4.0 * math.exp(-lt)


def _subtree_ratio_bound(left: tuple, right: tuple, opp: tuple) -> float:
    """Upper bound for sup of ell_Y/ell_X over the interior of a Farey cell.

    Each argument is the (log t_X, log t_Y) state of the cell's left
    endpoint a, right endpoint b, or opposite vertex.

    Every interior slope is mu*a + nu*b with integer mu, nu >= 1 in the
    endpoint curves a, b.  The numerator uses length subadditivity over
    mediants (cosh((la+lb)/2) >= (ta/2)(tb/2) >= tm/2), so
    ell_Y(s) <= mu*ell_Y(a) + nu*ell_Y(b) exactly.  The denominator takes
    the better of two lower bounds: the vertex recursion gives
    t_s >= (1-g)^(mu+nu-1) * t_a^mu * t_b^nu with g = t_opp/(t_a t_b),
    which only shrinks down the subtree; and the collar crossing bound
    ell_X(s) >= i(s, gamma)*width(gamma) for gamma in {a, b}.  Both yield
    affine-fractional programs over the (mu, nu) cone whose suprema sit at
    the corner (1, 1) or on the two rays, so the bound is exact for its
    inputs and tightens as cells shrink.
    """
    lta, ltb = left[0], right[0]
    na = _ell_from_log(left[1])
    nb = _ell_from_log(right[1])
    g = math.exp(opp[0] - lta - ltb)
    decay = math.log1p(-g)
    la = 2.0 * (lta + decay)
    lb = 2.0 * (ltb + decay)
    c0 = 2.0 * (_LOG2 + decay)
    product_route = math.inf
    corner = la + lb - c0  # equals 2*log(t_mediant/2) > 0
    if la > 0.0 and lb > 0.0 and corner > 0.0:
        product_route = max((na + nb) / corner, na / la, nb / lb)
    wa = _collar_width(lta)
    wb = _collar_width(ltb)
    if wa > 0.0 and wb > 0.0:  # widths underflow for very long curves
        collar_route = na / wb + nb / wa
    else:
        collar_route = math.inf
    return min(product_route, collar_route)


def _pair_step(a: tuple, b: tuple, c: tuple) -> tuple[float, float]:
    """_log_step at two points at once: states are (log t_X, log t_Y).

    Inlined for speed (this is the step of every distance sweep); the
    operations and checks are those of _log_step, in the same order.
    """
    la, lb, lc = a[0], b[0], c[0]
    ratio = math.exp(lc - la - lb)
    if ratio >= 1.0:
        raise InvalidPointError(_DEGENERATE)
    lx = la + lb + math.log1p(-ratio)
    if lx <= _LOG2:
        raise InvalidPointError(_SHORT_CURVE)
    la, lb, lc = a[1], b[1], c[1]
    ratio = math.exp(lc - la - lb)
    if ratio >= 1.0:
        raise InvalidPointError(_DEGENERATE)
    ly = la + lb + math.log1p(-ratio)
    if ly <= _LOG2:
        raise InvalidPointError(_SHORT_CURVE)
    return lx, ly


def _length_ratio(state: tuple[float, float]) -> float:
    """ell_Y / ell_X from (log t_X, log t_Y): _ell_from_log inlined at both.

    Both lengths drop _ell_from_log's exact factor 2, so the quotient is
    bit-identical to the ratio of the two lengths.
    """
    lx, ly = state
    if lx < 30.0:
        hx = math.acosh(0.5 * math.exp(lx))
    else:
        hx = lx - _LOG2 + math.log(1.0 + math.sqrt(1.0 - 4.0 * math.exp(-2.0 * lx)))
    if ly < 30.0:
        hy = math.acosh(0.5 * math.exp(ly))
    else:
        hy = ly - _LOG2 + math.log(1.0 + math.sqrt(1.0 - 4.0 * math.exp(-2.0 * ly)))
    return hy / hx


def thurston_distance(
    src: MarkovPoint,
    dst: MarkovPoint,
    tol: float = 1e-6,
    max_depth: int = 12,
    max_evals: int = 200_000,
    certified_bound: bool = False,
) -> SupRatioResult:
    """Sup of length ratios ell_dst/ell_src over slopes; distance = log(value).

    By default the engine sweeps the tree exhaustively to ``max_depth`` and
    reports certified = False with the empirical stabilization depth.  With
    ``certified_bound`` the collar/submultiplicativity subtree bound is
    used for best-first pruning; it certifies at coarse tolerances
    (roughly >= 1e-3) at practical cost.
    """
    pairs = ((src.y, dst.y), (src.x, dst.x), (src.z, dst.z))  # at 0/1, 1/0, 1/1
    roots = tuple((math.log(tx), math.log(ty)) for tx, ty in pairs)
    bound = _subtree_ratio_bound if certified_bound else None
    return maximize(
        SupQuery(_length_ratio, bound, tolerance=tol, max_depth=max_depth, max_evals=max_evals,
                 roots=roots, combine=_pair_step)
    )


def thurston_norm(
    point: MarkovPoint,
    v: PTTangent,
    tol: float = 1e-6,
    max_depth: int = 12,
    max_evals: int = 200_000,
) -> SupRatioResult:
    """Sup of d(log length)(V) over slopes: the asymmetric Finsler norm.

    Weights cancel in d(length)(V)/length, so the sup over weighted
    laminations reduces to unweighted slopes.  No certified subtree bound
    is available for this sign-indefinite objective; the exhaustive sweep
    reports its stabilization depth instead.
    """
    if v.at != point:
        raise ValueError("tangent vector belongs to a different point")

    wx, wy, wz = v.wx, v.wy, v.wz

    def objective(state: tuple) -> float:
        # _ell_from_log and _dlen_factor inlined; both use sqrt(1 - 4/t^2)
        lt, u = state
        root = math.sqrt(1.0 - 4.0 * math.exp(-2.0 * lt))
        if lt < 30.0:
            ell = 2.0 * math.acosh(0.5 * math.exp(lt))
        else:
            ell = 2.0 * (lt - _LOG2 + math.log(1.0 + root))
        f = 2.0 / root
        return (f * u[0] * wx + f * u[1] * wy + f * u[2] * wz) / ell

    return maximize(
        SupQuery(objective, None, tolerance=tol, max_depth=max_depth, max_evals=max_evals,
                 roots=tuple(j[:2] for j in _root_jets(point)), combine=_grad_step)
    )


# -- mapping classes and boundary experiments ---------------------------------

_TWIST_FORWARD = {
    (1, 0): lambda x, y, z: (x, z, x * z - y),
    (0, 1): lambda x, y, z: (z, y, y * z - x),
    (1, 1): lambda x, y, z: (y, y * z - x, z),
}

_TWIST_BACKWARD = {
    (1, 0): lambda x, y, z: (x, x * y - z, y),
    (0, 1): lambda x, y, z: (x * y - z, y, x),
    (1, 1): lambda x, y, z: (x * z - y, x, z),
}


def dehn_twist(point: MarkovPoint, about: Slope, k: int) -> MarkovPoint:
    """Apply k Dehn twists about one of the base slopes 1/0, 0/1, 1/1.

    The trace maps are polynomial and preserve the trace relation exactly;
    the trace of the twisting curve never changes.  Entries grow
    exponentially in |k| and the iteration refuses to overflow silently.
    """
    key = (about.p, about.q)
    if key not in _TWIST_FORWARD:
        raise ValueError(f"twists are implemented about 1/0, 0/1, 1/1, not {about}")
    step = _TWIST_FORWARD[key] if k >= 0 else _TWIST_BACKWARD[key]
    x, y, z = point.x, point.y, point.z
    for i in range(abs(k)):
        x, y, z = step(x, y, z)
        if max(abs(x), abs(y), abs(z)) > _TWIST_OVERFLOW:
            raise OverflowError(
                f"trace entries exceed {_TWIST_OVERFLOW:.0e} after {i + 1} twists"
            )
    return MarkovPoint(x, y, z)


def normalized_length_functional(
    base: MarkovPoint,
    point: MarkovPoint,
    lam: WeightedLamination,
    tol: float = 1e-6,
    max_depth: int = 12,
) -> float:
    """Length of lam at ``point`` divided by the best Lipschitz stretch from base.

    The normalizer is exp of the directed distance base -> point, i.e. the
    sup ratio itself.
    """
    stretch = thurston_distance(base, point, tol=tol, max_depth=max_depth).value
    return length(point, lam) / stretch
