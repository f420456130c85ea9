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
with the derivative of log(trace) along one direction where a differential
is needed (``_jet_step``); lengths and their differentials stay accurate.

Long curves take two shortcuts that skip work whose result rounds away,
so every value is bit-identical to the full formula:

- The step adds log1p(-e^d) to la + lb, where d = lc - la - lb.  When
  d < -40 that term is below 4.3e-18 in size, while every state exceeds
  log 2, so la + lb >= 1.38 and half an ulp of it (half the spacing below,
  at a power of two) is at least 1.1e-16: the sum rounds back to la + lb,
  which is returned without exp, log1p or the checks.  A NaN d fails the
  test and takes the full path.
- Lengths are 2*((l - log 2) + log(1 + sqrt(1 - 4/t^2))) for l = log t
  >= 30.  There 4/t^2 < 3.6e-26 is below half an ulp of 1, so the root is
  1.0, the log term is log 2 and the length factor 2/root is 2.0.  And
  (l - log 2) + log 2 rounds back to l: the difference misses l - log 2
  by less than half its ulp (never exactly half, as the lowest set bit of
  log 2, 2^-53, sits below half an ulp of any number above 16), which is
  less than half the spacing around l.  So the length is 2*l, bit for bit.

Suprema over curves carry these values down the Stern-Brocot walk of the
sup engine, one recursion step per slope.  Random access to a single slope
applies the same steps along the slope's path from the root, so the two
agree bit for bit and nothing is memoized.

Dehn twists act on slopes through ``farey.act``: a twisted point's traces
are its traces at the images of 1/0, 0/1, 1/1, by the same recursion in
plain traces (``_trace_step``), which raises OverflowError past 1e150.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidPointError, OutOfChartError
from .farey import Slope, act, path_state
# stays importable as ptorus.slope_parents: perfbench/tracing.py counts its calls
from .farey import slope_parents  # noqa: F401
from .supratio import SupQuery, SupRatioResult, maximize

__all__ = [
    "MarkovPoint",
    "PTTangent",
    "PTCovector",
    "WeightedLamination",
    "from_parameters",
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
# below this log(t_c / (t_a t_b)) the trace step's correction rounds away
_FAR = -40.0
# from this log trace on, the length is 2*log t and its factor 2, bit for bit
_LONG = 30.0
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
        if not res <= 1e-9:  # NaN where x^2 + y^2 + z^2 and xyz both overflow
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
class PTTangent:
    """Tangent vector (wx, wy, wz) at a Markov point, tangent to the variety."""

    wx: float
    wy: float
    wz: float
    at: MarkovPoint

    def __post_init__(self):
        if not all(map(math.isfinite, (self.wx, self.wy, self.wz))):
            raise ValueError("tangent vector entries must be finite")
        p = self.at
        f = (2 * p.x - p.y * p.z, 2 * p.y - p.x * p.z, 2 * p.z - p.x * p.y)
        pairing = f[0] * self.wx + f[1] * self.wy + f[2] * self.wz
        scale = math.hypot(*f) * math.hypot(self.wx, self.wy, self.wz)
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
    d = lc - la - lb  # log(t_c / (t_a t_b)), below 0
    if d < _FAR:
        return la + lb  # exact: see the module docstring
    ratio = math.exp(d)
    if ratio >= 1.0:
        raise InvalidPointError(_DEGENERATE)
    lm = la + lb + math.log1p(-ratio)
    if lm <= _LOG2:
        raise InvalidPointError(_SHORT_CURVE)
    return lm


def _jet_step(a: tuple, b: tuple, c: tuple) -> tuple[float, float]:
    """(log t, D = d(log t)(V)) at the mediant, from the same at a, b, c.

    D_m = (1 + r)(D_a + D_b) - r D_c, with r = t_c / t_m, is t_m = t_a t_b - t_c differentiated.
    """
    lm = _log_step(a[0], b[0], c[0])
    r = math.exp(c[0] - lm)
    return lm, (1.0 + r) * (a[1] + b[1]) - r * c[1]


def _root_jets(point: MarkovPoint, wx: float, wy: float, wz: float) -> tuple:
    """(log t, D) at the slopes 0/1, 1/0, 1/1, along V = (wx, wy, wz)."""
    x, y, z = point.x, point.y, point.z
    return (math.log(y), wy / y), (math.log(x), wx / x), (math.log(z), wz / z)


class TraceCache:
    """Random access to the log traces of one Markov point, by slope.

    A lookup walks the slope's Stern-Brocot path from the root with the
    recursion the sweeps carry: O(depth), no memo, bit-identical values.
    """

    __slots__ = ("point", "_logs")

    def __init__(self, point: MarkovPoint):
        self.point = point
        self._logs = (math.log(point.y), math.log(point.x), math.log(point.z))

    def log_trace(self, slope: Slope) -> float:
        return path_state(slope, self._logs, _log_step)

    def length(self, slope: Slope) -> float:
        """Geodesic length of the unit-weight curve, stable at any depth."""
        return _ell_from_log(self.log_trace(slope))

    def length_dlog(self, slope: Slope) -> tuple[float, float, float, float]:
        """(length, g1, g2, g3), g the unit-weight length's gradient: one jet walk per axis."""
        (lt, dx), (_, dy), (_, dz) = (
            path_state(slope, _root_jets(self.point, *axis), _jet_step)
            for axis in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)))
        f = _dlen_factor(lt)
        return _ell_from_log(lt), f * dx, f * dy, f * dz


def _ell_from_log(lt: float) -> float:
    """2*arccosh(exp(lt)/2) without forming huge traces."""
    if lt < _LONG:
        return 2.0 * math.acosh(0.5 * math.exp(lt))
    return 2.0 * lt  # 2*(lt - log 2 + log(1 + sqrt(1 - 4/t^2))), bit for bit


def _dlen_factor(lt: float) -> float:
    """d(length)/d(trace) * trace = 2 / sqrt(1 - 4/t^2)."""
    if lt >= _LONG:
        return 2.0  # the root rounds to 1
    return 2.0 / math.sqrt(1.0 - 4.0 * math.exp(-2.0 * lt))


def _dlog_length(state: tuple[float, float]) -> float:
    """d(log length)(V) from the (log t, D) state of one slope."""
    lt, dt = state
    return _dlen_factor(lt) * dt / _ell_from_log(lt)


def length(point: MarkovPoint, lam: WeightedLamination) -> float:
    """Hyperbolic length weight * 2*arccosh(trace/2)."""
    return lam.weight * TraceCache(point).length(lam.slope)


def d_length(point: MarkovPoint, lam: WeightedLamination) -> PTCovector:
    """Exact differential of the length function in ambient (x, y, z)."""
    _, g1, g2, g3 = TraceCache(point).length_dlog(lam.slope)
    return PTCovector(lam.weight * g1, lam.weight * g2, lam.weight * g3)


# -- Thurston distance and norm ----------------------------------------------

def _subtree_ratio_bound(left: tuple, right: tuple, opp: tuple) -> float:
    """Upper bound for sup of ell_Y/ell_X over the interior of a Farey cell.

    Each argument is the (log t_X, log t_Y) state of the cell's left
    endpoint a, right endpoint b, or opposite vertex.

    Every interior slope is mu*a + nu*b with integer mu, nu >= 1 in the
    endpoint curves a, b.  The numerator uses length subadditivity over
    mediants (cosh((la+lb)/2) >= (ta/2)(tb/2) >= tm/2), so
    ell_Y(s) <= mu*ell_Y(a) + nu*ell_Y(b) exactly.  For the denominator the
    vertex recursion gives log t_s >= A(mu, nu) = mu*log t_a + nu*log t_b
    + (mu+nu-1)*log(1-g) with g = t_opp/(t_a t_b), which only shrinks down
    the subtree; A is least at (1, 1), where it is L_m = log t_mediant.
    The length is 2*arccosh(t/2) = 2*log t - 2*delta(log t) with delta
    decreasing, so ell_X(s) >= 2*A(mu, nu) - 2*delta(L_m): the floor is
    exact at the mediant, and the deficit delta(L) ~ exp(-2L) vanishes on
    long curves.  (No collar-crossing bound is taken: next to this floor it
    changed no value, argmax, certificate or eval count on 300 seeded chart
    pairs.)  Both sides give an affine-fractional program over the (mu, nu)
    cone whose supremum sits at the corner (1, 1) or on the two rays, so the
    bound is exact for its inputs and tightens as cells shrink.
    """
    lta, ltb = left[0], right[0]
    g = math.exp(opp[0] - lta - ltb)
    # g >= 1: the mediant is degenerate, and its own evaluation says so
    decay = math.log1p(-g) if g < 1.0 else -math.inf
    la = 2.0 * (lta + decay)
    lb = 2.0 * (ltb + decay)
    lm = lta + ltb + decay
    if not (la > 0.0 and lb > 0.0 and lm > _LOG2):
        return math.inf
    # delta(L) = -log((1 + sqrt(1 - 4 e^-2L)) / 2), without cancellation
    e = math.exp(-2.0 * lm)
    delta = -math.log1p(-2.0 * e / (1.0 + math.sqrt(1.0 - 4.0 * e)))
    corner = la + lb - 2.0 * (delta + decay)  # equals ell_X at the mediant
    na = _ell_from_log(left[1])
    nb = _ell_from_log(right[1])
    return max((na + nb) / corner, na / la, nb / lb)


def _pair_step(a: tuple, b: tuple, c: tuple) -> tuple[float, float]:
    """_log_step at two points at once: states are (log t_X, log t_Y).

    Inlined for speed (this is the step of every distance sweep); the
    operations and checks are those of _log_step, in the same order.
    """
    la, lb, lc = a[0], b[0], c[0]
    d = lc - la - lb
    if d < _FAR:
        lx = la + lb
    else:
        ratio = math.exp(d)
        if ratio >= 1.0:
            raise InvalidPointError(_DEGENERATE)
        lx = la + lb + math.log1p(-ratio)
        if lx <= _LOG2:
            raise InvalidPointError(_SHORT_CURVE)
    la, lb, lc = a[1], b[1], c[1]
    d = lc - la - lb
    if d < _FAR:
        ly = la + lb
    else:
        ratio = math.exp(d)
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
    hx = math.acosh(0.5 * math.exp(lx)) if lx < _LONG else lx
    hy = math.acosh(0.5 * math.exp(ly)) if ly < _LONG else ly
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

    By default the engine sweeps the tree to ``max_depth``, less the cells
    _subtree_ratio_bound puts below the shallower tiers' best ratio (which
    changes only ``evals``), and reports certified = False with the
    empirical stabilization depth.  With ``certified_bound`` a best-first
    search pruned by the same bound certifies tight tolerances, except that
    cells on a ray of slopes that converges to a rational argmax (such as
    -1/1, 1/1, 2/3 or 1/2) close only like 1/depth, so such an argmax can
    stop uncertified at ``max_depth``.
    """
    pairs = ((src.y, dst.y), (src.x, dst.x), (src.z, dst.z))  # at 0/1, 1/0, 1/1
    roots = tuple((math.log(tx), math.log(ty)) for tx, ty in pairs)
    return maximize(
        SupQuery(_length_ratio, _subtree_ratio_bound, tolerance=tol, max_depth=max_depth,
                 max_evals=max_evals, roots=roots, combine=_pair_step,
                 exhaustive=not certified_bound)
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
    laminations reduces to unweighted slopes, and only d(log t)(V) goes down
    the tree.  No certified subtree bound is available for this
    sign-indefinite objective; the exhaustive sweep reports its
    stabilization depth instead.
    """
    if v.at != point:
        raise ValueError("tangent vector belongs to a different point")
    return maximize(
        SupQuery(_dlog_length, None, tolerance=tol, max_depth=max_depth, max_evals=max_evals,
                 roots=_root_jets(point, v.wx, v.wy, v.wz), combine=_jet_step)
    )


# -- mapping classes and boundary experiments ---------------------------------

_TWIST_SENSE = {Slope(1, 0): 1, Slope(0, 1): -1, Slope(1, 1): 1}


def _trace_step(a: float, b: float, c: float) -> float:
    """t_m = t_a t_b - t_c in plain traces, refusing to pass _TWIST_OVERFLOW."""
    t = a * b - c
    if not t <= _TWIST_OVERFLOW:
        raise OverflowError(f"a twisted trace exceeds {_TWIST_OVERFLOW:.0e}")
    return t


def dehn_twist(point: MarkovPoint, about: Slope, k: int) -> MarkovPoint:
    """Apply k Dehn twists about one of the base slopes 1/0, 0/1, 1/1.

    On slopes, k twists about u = a/b are v -> v + s*det(u, v)*u, for s = k
    times the sense in _TWIST_SENSE, which twists about 0/1 the other way.
    The trace of the twisting curve never changes; the others grow
    exponentially in |k|.
    """
    sense = _TWIST_SENSE.get(about)
    if sense is None:
        raise ValueError(f"twists are implemented about 1/0, 0/1, 1/1, not {about}")
    a, b, s = about.p, about.q, sense * k
    m = (1 - s * a * b, s * a * a, -s * b * b, 1 + s * a * b)
    roots = (point.y, point.x, point.z)  # at 0/1, 1/0, 1/1
    return MarkovPoint(*(path_state(Slope(*act(m, p, q)), roots, _trace_step)
                         for p, q in ((1, 0), (0, 1), (1, 1))))


def normalized_length_functional(
    base: MarkovPoint,
    point: MarkovPoint,
    lam: WeightedLamination,
    max_depth: int = 12,
) -> float:
    """Length of lam at ``point`` divided by the best Lipschitz stretch from base.

    The normalizer is exp of the directed distance base -> point, i.e. the
    sup ratio itself, from the exhaustive sweep to max_depth.
    """
    stretch = thurston_distance(base, point, max_depth=max_depth).value
    return length(point, lam) / stretch
