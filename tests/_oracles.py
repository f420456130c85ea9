"""Independent numeric oracles shared by the test modules.

Everything here recomputes expected values by a route different from the
library code under test: finite differences for gradients, exhaustive
level-by-level tree walks for suprema, direct lattice geometry for
intersection numbers, exact rational arithmetic for the trace recursion
and its derivative, and scipy for hulls and generalized eigenvalues.
The flat-torus norm's closed form is cross-checked against its certified
sup over rational slopes, found by the Farey engine.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from torusmetrics.errors import InvalidPointError
from torusmetrics.farey import Slope, direction
from torusmetrics.ptorus import MarkovPoint
from torusmetrics.supratio import SupQuery, SupRatioResult, maximize
from torusmetrics.torus import TangentVector, TorusPoint

LOG2 = math.log(2.0)
_DEGENERATE = "trace recursion degenerated; the point is not Fuchsian"
_SHORT_CURVE = "a simple closed curve has trace <= 2; the point is not Fuchsian"


def central_diff(f, x: float, h: float = 1e-6) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


# -- lattice-geometry intersection count -------------------------------------

def lattice_intersection_count(a: Slope, b: Slope, offset=(0.37, 0.215)) -> int:
    """Count transversal crossings of two straight torus curves directly.

    The class-(p, q) curve is the projection of the segment t*(p, q); with a
    generic relative offset, crossings with the class-(r, s) curve are the
    solutions of t*(p, q) - u*(r, s) = offset (mod Z^2) with t, u in [0, 1).
    """
    p1, q1 = a.p, a.q
    p2, q2 = b.p, b.q
    det = p1 * (-q2) - (-p2) * q1
    if det == 0:
        return 0
    ox, oy = offset
    box_x = abs(p1) + abs(p2) + 1
    box_y = abs(q1) + abs(q2) + 1
    count = 0
    for m in range(-box_x, box_x + 1):
        for n in range(-box_y, box_y + 1):
            rx, ry = ox + m, oy + n
            t = (rx * (-q2) - (-p2) * ry) / det
            u = (p1 * ry - q1 * rx) / det
            if 0.0 <= t < 1.0 and 0.0 <= u < 1.0:
                count += 1
    return count


# -- the states the exhaustive engine visits -----------------------------------

def swept_states(roots: tuple, combine, max_depth: int, max_evals: int = 200_000):
    """Every state the exhaustive engine scores, in its order, and its result.

    The objective records each state it is given and scores it 0, so no
    value ever moves the argmax and no state goes unrecorded.
    """
    states = []
    result = maximize(SupQuery(lambda state: states.append(state) or 0.0, max_depth=max_depth,
                               max_evals=max_evals, roots=roots, combine=combine))
    return states, result


# -- exhaustive slope enumeration with values (flat torus) --------------------

def torus_form(tau_x: float, tau_y: float) -> tuple[float, float, float]:
    return (1.0 / tau_y, tau_x / tau_y, (tau_x ** 2 + tau_y ** 2) / tau_y)


def apply_form(f, u) -> float:
    """The quadratic form f = (f11, f12, f22) at the vector u."""
    return f[0] * u[0] * u[0] + 2.0 * f[1] * u[0] * u[1] + f[2] * u[1] * u[1]


def max_gen_eig(a, b) -> float:
    """Largest root of det(A - mu*B) = 0, from its characteristic quadratic."""
    c2 = b[0] * b[2] - b[1] * b[1]
    c1 = a[0] * b[2] + a[2] * b[0] - 2.0 * a[1] * b[1]
    c0 = a[0] * a[2] - a[1] * a[1]
    return (c1 + math.sqrt(max(c1 * c1 - 4.0 * c2 * c0, 0.0))) / (2.0 * c2)


def cone_directions(left: Slope, right: Slope, opp: Slope):
    """The endpoint directions u, v of an engine cell that carries slope states.

    Every slope strictly inside the cell is mu*u + nu*v with integers
    mu, nu >= 1.  The right endpoint of a mirrored cell below 1/0 points
    along (-1, 0), which the cell shows by left + right == opp.
    """
    rp, rq = right.p, right.q
    if left.p + rp == opp.p and left.q + rq == opp.q:
        rp, rq = -rp, -rq
    return direction(left.p, left.q), direction(rp, rq)


def cone_ratio_max(a, b, u, v) -> float:
    """Exact max of (w A w)/(w B w) over the closed cone spanned by u and v.

    Along w = u + s*v, s in [0, inf], the ratio is a quotient of two
    quadratics in s, whose derivative vanishes on the roots of one
    quadratic; the max over s = 0, s = inf and the positive roots is exact.
    """
    auu, avv, buu, bvv = apply_form(a, u), apply_form(a, v), apply_form(b, u), apply_form(b, v)
    auv = a[0] * u[0] * v[0] + a[1] * (u[0] * v[1] + u[1] * v[0]) + a[2] * u[1] * v[1]
    buv = b[0] * u[0] * v[0] + b[1] * (u[0] * v[1] + u[1] * v[0]) + b[2] * u[1] * v[1]
    c2, c1, c0 = avv * buv - auv * bvv, avv * buu - auu * bvv, auv * buu - auu * buv
    roots = []
    if c2 != 0.0:
        disc = c1 * c1 - 4.0 * c2 * c0
        if disc >= 0.0:
            r = math.sqrt(disc)
            roots += [(-c1 + r) / (2.0 * c2), (-c1 - r) / (2.0 * c2)]
    elif c1 != 0.0:
        roots.append(-c0 / c1)
    best = max(auu / buu, avv / bvv)
    for s in roots:
        if 0.0 < s < math.inf:
            den = buu + 2.0 * buv * s + bvv * s * s
            if den > 0.0:
                best = max(best, (auu + 2.0 * auv * s + avv * s * s) / den)
    return best


def torus_bruteforce_sup(form_num, form_den, depth: int):
    """Max of the quadratic-form ratio over every slope to the given depth.

    Walks both wedges of the Stern-Brocot tree level by level with numpy,
    entirely independent of the package's search engine.  Returns
    (max_ratio, (p, q)).
    """

    def ratio(p, q):
        num = form_num[0] * p * p + 2 * form_num[1] * p * q + form_num[2] * q * q
        den = form_den[0] * p * p + 2 * form_den[1] * p * q + form_den[2] * q * q
        return num / den

    best = -np.inf
    best_slope = None

    def consider(p, q):
        nonlocal best, best_slope
        r = ratio(np.asarray(p, dtype=float), np.asarray(q, dtype=float))
        i = int(np.argmax(r))
        if r.flat[i] > best:
            best = float(r.flat[i])
            best_slope = (int(np.asarray(p).flat[i]), int(np.asarray(q).flat[i]))

    consider([0, 1, 1, -1], [1, 0, 1, 1])
    for start in ((0, 1, 1, 0), (0, 1, -1, 0)):
        pl = np.array([start[0]], dtype=np.int64)
        ql = np.array([start[1]], dtype=np.int64)
        pr = np.array([start[2]], dtype=np.int64)
        qr = np.array([start[3]], dtype=np.int64)
        for _ in range(depth + 1):
            pm, qm = pl + pr, ql + qr
            consider(pm, qm)
            pl = np.concatenate([pl, pm])
            ql = np.concatenate([ql, qm])
            pr = np.concatenate([pm, pr])
            qr = np.concatenate([qm, qr])
    return best, best_slope


# -- exhaustive punctured-torus length-ratio sup ------------------------------

def ell_np(log_t: np.ndarray) -> np.ndarray:
    """Vectorized 2*arccosh(exp(L)/2), stable for any L."""
    log_t = np.asarray(log_t, dtype=float)
    out = np.empty_like(log_t)
    small = log_t < 30.0
    out[small] = 2.0 * np.arccosh(0.5 * np.exp(log_t[small]))
    big = log_t[~small]
    out[~small] = 2.0 * (big - LOG2 + np.log1p(np.sqrt(1.0 - 4.0 * np.exp(-2.0 * big))))
    return out


def _point_logs(point):
    x, y, z = point.x, point.y, point.z
    return math.log(x), math.log(y), math.log(z), math.log(x * y - z)


def ptorus_bruteforce_ratios(src, dst, depth: int):
    """ell_dst/ell_src at every slope to the given depth, and the slopes.

    Carries log traces of the two endpoint curves and the opposite vertex
    of each Farey cell for both points, level by level; O(1) per slope and
    immune to trace overflow.  Returns (ratios, ps, qs): 0/1 and 1/0, then
    the positive wedge and the negative one level by level, the negative
    one a level deeper.
    """
    lx, ly, lz, lw = _point_logs(src)
    mx, my, mz, mw = _point_logs(dst)

    base = np.array([[ly, lx], [my, mx]])
    ratios, ps, qs = [ell_np(base[1]) / ell_np(base[0])], [np.array([0, 1])], [np.array([1, 0])]

    # (a, b, opposite) log traces per wedge, for src and dst in parallel;
    # the positive wedge's opposite vertex is -1/1, the negative wedge's 1/1.
    starts = [
        ((ly, lx, lw), (my, mx, mw), (0, 1), (1, 0)),
        ((ly, lx, lz), (my, mx, mz), (0, 1), (-1, 0)),
    ]

    for (s_logs, d_logs, a_slope, b_slope) in starts:
        la = np.array([s_logs[0]])
        lb = np.array([s_logs[1]])
        lc = np.array([s_logs[2]])
        ma = np.array([d_logs[0]])
        mb = np.array([d_logs[1]])
        mc = np.array([d_logs[2]])
        pa = np.array([a_slope[0]], dtype=np.int64)
        qa = np.array([a_slope[1]], dtype=np.int64)
        pb = np.array([b_slope[0]], dtype=np.int64)
        qb = np.array([b_slope[1]], dtype=np.int64)
        for _ in range(depth + 1):
            lm = la + lb + np.log1p(-np.exp(lc - la - lb))
            mm = ma + mb + np.log1p(-np.exp(mc - ma - mb))
            pm, qm = pa + pb, qa + qb
            ratios.append(ell_np(mm) / ell_np(lm))
            ps.append(pm)
            qs.append(qm)
            la, lb, lc = np.concatenate([la, lm]), np.concatenate([lm, lb]), np.concatenate([lb, la])
            ma, mb, mc = np.concatenate([ma, mm]), np.concatenate([mm, mb]), np.concatenate([mb, ma])
            pa, qa = np.concatenate([pa, pm]), np.concatenate([qa, qm])
            pb, qb = np.concatenate([pm, pb]), np.concatenate([qm, qb])
    return np.concatenate(ratios), np.concatenate(ps), np.concatenate(qs)


def ptorus_bruteforce_sup(src, dst, depth: int):
    """Max of ell_dst/ell_src over every slope to the given depth, as
    (max_ratio, (p, q)); ties go to the first slope in ptorus_bruteforce_ratios."""
    ratios, ps, qs = ptorus_bruteforce_ratios(src, dst, depth)
    i = int(np.argmax(ratios))
    return float(ratios[i]), (int(ps[i]), int(qs[i]))


# -- the punctured-torus trace step and length formula, in full ---------------
#
# The library skips the parts of these that round away on long curves; these
# references always take the full formula, so the library must match them
# bit for bit.

def log_step_reference(la: float, lb: float, lc: float) -> float:
    """log t_m from t_m = t_a t_b - t_c, for Farey parents a, b and opposite c."""
    ratio = math.exp(lc - la - lb)  # t_c / (t_a t_b), in (0, 1)
    if ratio >= 1.0:
        raise InvalidPointError(_DEGENERATE)
    lm = la + lb + math.log1p(-ratio)
    if lm <= LOG2:
        raise InvalidPointError(_SHORT_CURVE)
    return lm


def ell_from_log_reference(lt: float) -> float:
    """2*arccosh(exp(lt)/2) without forming huge traces."""
    if lt < 30.0:
        return 2.0 * math.acosh(0.5 * math.exp(lt))
    return 2.0 * (lt - LOG2 + math.log(1.0 + math.sqrt(1.0 - 4.0 * math.exp(-2.0 * lt))))


def dlen_factor_reference(lt: float) -> float:
    """d(length)/d(trace) * trace = 2 / sqrt(1 - 4/t^2)."""
    return 2.0 / math.sqrt(1.0 - 4.0 * math.exp(-2.0 * lt))


def pair_step_reference(a: tuple, b: tuple, c: tuple) -> tuple[float, float]:
    return (log_step_reference(a[0], b[0], c[0]), log_step_reference(a[1], b[1], c[1]))


def jet_step_reference(a: tuple, b: tuple, c: tuple) -> tuple[float, float, float]:
    """(log t, D_V, D_W) at the mediant, D the derivative of log t along V and along W."""
    lm = log_step_reference(a[0], b[0], c[0])
    r = math.exp(c[0] - lm)  # t_c / t_m
    return (lm, *((1.0 + r) * (a[i] + b[i]) - r * c[i] for i in (1, 2)))


def length_ratio_reference(state: tuple[float, float]) -> float:
    return ell_from_log_reference(state[1]) / ell_from_log_reference(state[0])


def norm_objective_reference(state: tuple) -> float:
    """The thurston_norm objective at a (log t, D_V, D_W) state, from the full formulas."""
    lt, dt, _ = state
    return dlen_factor_reference(lt) * dt / ell_from_log_reference(lt)


def exact_jet(point, slope, w=(0.0, 0.0, 0.0)) -> tuple[Fraction, Fraction]:
    """(t, dt) at the slope from t_m = t_a t_b - t_c in exact arithmetic.

    The recursion runs in Fraction on the point's float trace triple (x at
    1/0, y at 0/1, z at 1/1) and the float tangent w = (wx, wy, wz), down the
    Stern-Brocot path of the slope, with dt_m = dt_a t_b + t_a dt_b - dt_c,
    so no cancellation is lost.
    """
    x, y, z = ((Fraction(t), Fraction(dt)) for t, dt in zip((point.x, point.y, point.z), w))

    def step(a, b, c):
        return a[0] * b[0] - c[0], a[1] * b[0] + a[0] * b[1] - c[1]

    target = (slope.p, slope.q)
    if target in ((1, 0), (0, 1)):
        return x if target == (1, 0) else y
    # a cell's endpoints (left, right) with jets jl, jr and its opposite vertex's jc
    if slope.p >= 0:
        left, jl, right, jr, jc = (0, 1), y, (1, 0), x, step(x, y, z)
    else:
        left, jl, right, jr, jc = (-1, 0), x, (0, 1), y, z
    while True:
        mid, jet = (left[0] + right[0], left[1] + right[1]), step(jl, jr, jc)
        if mid == target:
            return jet
        if target[0] * mid[1] - target[1] * mid[0] < 0:
            right, jr, jc = mid, jet, jr
        else:
            left, jl, jc = mid, jet, jl


def exact_length(point, slope) -> float:
    """Length of the slope's curve from the exact trace; only that trace is rounded."""
    return 2.0 * math.acosh(float(exact_jet(point, slope)[0]) / 2.0)


def exact_dlog_length(point, v, slope) -> float:
    """d(log length)(V) = 2 dt / (sqrt(t^2 - 4) * 2 arccosh(t/2)) from the exact (t, dt)."""
    t, dt = exact_jet(point, slope, (v.wx, v.wy, v.wz))
    root = math.sqrt(float(1 - 4 / (t * t)))  # sqrt(t^2 - 4) / t
    return float(dt / t) / (root * math.acosh(float(t) / 2.0))


# -- Dehn twists as polynomial maps of the trace triple ------------------------

_TWIST_OVERFLOW = 1e150

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


def dehn_twist_reference(point, about: Slope, k: int):
    """k Dehn twists about 1/0, 0/1 or 1/1, one polynomial trace map per twist.

    Each map sends (x, y, z) to the traces at the images of 1/0, 0/1, 1/1
    under one twist (about 0/1 in the inverse sense), so the iteration
    never leaves the triple; it raises OverflowError once an entry passes
    1e150.
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


# -- explicit holonomy representation of a cusped punctured torus -------------

def holonomy_matrices(point):
    """SL(2, R) generators with the prescribed trace triple.

    A is diagonal with trace x; B is filled in so that tr B = y and
    tr AB = z; the commutator trace is then forced to -2 by the trace
    identity, which the caller should assert.
    """
    x, y, z = point.x, point.y, point.z
    lam = (x + math.sqrt(x * x - 4.0)) / 2.0
    p = (z - y / lam) / (lam - 1.0 / lam)
    s = y - p
    a = np.array([[lam, 0.0], [0.0, 1.0 / lam]])
    b = np.array([[p, 1.0], [p * s - 1.0, s]])
    return a, b


def word_trace(slope, a, b):
    """Trace of the slope's curve from explicit matrix products.

    Simple closed curves on the punctured torus are the Christoffel words:
    W(1/0) = A, W(0/1) = B, and the word of a mediant is the product of
    the words of its Farey parents.  Negative slopes use A^-1.
    """
    target = (slope.p, slope.q)
    if target == (1, 0):
        return abs(float(np.trace(a)))
    if target == (0, 1):
        return abs(float(np.trace(b)))
    if slope.p >= 0:
        left, left_m, right, right_m = (0, 1), b, (1, 0), a
    else:
        left, left_m, right, right_m = (-1, 0), np.linalg.inv(a), (0, 1), b
    while True:
        mid = (left[0] + right[0], left[1] + right[1])
        mid_m = left_m @ right_m
        if mid == target:
            return abs(float(np.trace(mid_m)))
        if target[0] * mid[1] - target[1] * mid[0] < 0:
            right, right_m = mid, mid_m
        else:
            left, left_m = mid, mid_m


def polygon_is_convex_with_origin(points) -> bool:
    """All turns of one sign and the origin strictly inside (ccw assumed)."""
    n = len(points)
    cross_sign = None
    for i in range(n):
        ax, ay = points[i]
        bx, by = points[(i + 1) % n]
        cx, cy = points[(i + 2) % n]
        cross = (bx - ax) * (cy - by) - (by - ay) * (cx - bx)
        if cross == 0.0:
            return False
        sign = cross > 0.0
        if cross_sign is None:
            cross_sign = sign
        elif sign != cross_sign:
            return False
    for i in range(n):
        ax, ay = points[i]
        bx, by = points[(i + 1) % n]
        edge_cross = ax * by - ay * bx
        if (edge_cross > 0.0) != cross_sign:
            return False
    return True


# -- the dual sphere's samples, one at a time ---------------------------------

def dual_sphere_reference(tau: TorusPoint, n: int) -> list[tuple[float, float, float]]:
    """(theta, gx, gy) per sample, each computed on its own in a plain loop.

    Sample j is the foliation of angle phi = pi*j/n at i, (sin 2phi,
    -cos 2phi)/y at tau, labelled with the angle theta in [0, pi) of its
    direction (cos phi - x sin(phi)/y, sin(phi)/y) at tau.  With 4j = k*n + r,
    2phi is k quarter turns past a = (pi/2)*r/n: past n/2, r folds to n - r
    with sin and cos swapped, at r = n/2 both are sqrt(1/2), and the quarter
    turns rotate (sin a, -cos a)/y by (gx, gy) -> (-gy, gx).  The per-sample
    arithmetic is torus.dual_sphere's and dual_sphere_with_directions', so
    the library must match it bit for bit.
    """
    x, y = tau.x, tau.y
    out = []
    for j in range(n):
        phi = math.pi * j / n
        v = math.sin(phi) / y
        theta = math.atan2(v, math.cos(phi) - x * v) % math.pi
        k, r = divmod(4 * j, n)
        if 2 * r == n:
            s = c = math.sqrt(0.5) / y
        elif 2 * r < n:
            a = 0.5 * math.pi * r / n
            s, c = math.sin(a) / y, math.cos(a) / y
        else:
            a = 0.5 * math.pi * (n - r) / n
            s, c = math.cos(a) / y, math.sin(a) / y
        gx, gy = s, 0.0 - c
        for _ in range(k):
            gx, gy = 0.0 - gy, gx
        out.append((theta, gx, gy))
    return out


# -- sines and cosines in decimal arithmetic ----------------------------------

# pi to 50 digits, written out so that nothing here comes from math's rounding
_PI = Decimal("3.14159265358979323846264338327950288419716939937510")


def exact_sin_cos(turns: Fraction) -> tuple[Decimal, Decimal]:
    """(sin, cos) of 2*pi*turns to about 37 digits: the Taylor series of e^(ix)
    summed in 40-digit decimal arithmetic, turns reduced exactly to [0, 1)."""
    with localcontext() as ctx:
        ctx.prec = 40
        turns %= 1
        x = 2 * _PI * turns.numerator / turns.denominator
        parts, term, k = [Decimal(0)] * 4, Decimal(1), 0
        while abs(term) > Decimal("1e-45"):  # i^k x^k / k! adds to part k mod 4
            parts[k % 4] += term
            k += 1
            term = term * x / k
        return parts[1] - parts[3], parts[0] - parts[2]


# -- the flat-torus norm by the Farey engine --------------------------------

def norm_forms(tau: TorusPoint, v: TangentVector):
    """(dExt along v, Ext) as forms in (p, q), differentiated at tau itself.

    The library works at the normalised point i instead; Ext at x + iy is
    (1/y, x/y, (x^2 + y^2)/y), differentiated here term by term.
    """
    x, y = tau.x, tau.y
    dx = (0.0, 1.0 / y, 2.0 * x / y)
    dy = (-1.0 / (y * y), -x / (y * y), 1.0 - x * x / (y * y))
    g = tuple(v.vx * dxi + v.vy * dyi for dxi, dyi in zip(dx, dy))
    return g, (1.0 / y, x / y, (x * x + y * y) / y)


def teich_norm_sup_parts(
    tau: TorusPoint,
    v: TangentVector,
    tol: float,
    max_depth: int,
    max_evals: int,
) -> tuple[float, SupRatioResult]:
    """(closed-form circle max at tau, certified Farey sup) of dExt/(2 Ext)."""
    g, q = norm_forms(tau, v)
    circle = 0.5 * max_gen_eig(g, q)
    # The engine wants finite objectives and works with an absolute
    # tolerance; shift the sign-indefinite ratio into positive territory.
    low = -0.5 * max_gen_eig(tuple(-gi for gi in g), q)
    shift = 1.0 + max(0.0, -low)

    def objective(s: Slope) -> float:
        u = s.direction()
        return 0.5 * apply_form(g, u) / apply_form(q, u) + shift

    def bound(left: Slope, right: Slope, opp: Slope) -> float:
        return 0.5 * cone_ratio_max(g, q, *cone_directions(left, right, opp)) + shift

    res = maximize(
        SupQuery(objective, bound, tolerance=tol, max_depth=max_depth, max_evals=max_evals)
    )
    res.value -= shift
    if res.frontier_bound is not None:
        res.frontier_bound -= shift
    return circle, res
