"""Independent numeric oracles shared by the test modules.

Everything here recomputes expected values by a route different from the
library code under test: finite differences for gradients, exhaustive
level-by-level tree walks for suprema, direct lattice geometry for
intersection numbers, and scipy for hulls and generalized eigenvalues.
The flat-torus norm's closed form is cross-checked against its certified
sup over rational slopes, found by the Farey engine.
"""

from __future__ import annotations

import math

import numpy as np

from torusmetrics.farey import FareyNode, Slope
from torusmetrics.supratio import SupQuery, SupRatioResult, maximize
from torusmetrics.torus import (
    TangentVector,
    TorusPoint,
    _apply_form,
    _cone_ratio_max,
    _max_gen_eig,
    _norm_forms,
)

LOG2 = math.log(2.0)


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


# -- exhaustive slope enumeration with values (flat torus) --------------------

def torus_form(tau_x: float, tau_y: float) -> tuple[float, float, float]:
    return (1.0 / tau_y, tau_x / tau_y, (tau_x ** 2 + tau_y ** 2) / tau_y)


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


def ptorus_bruteforce_sup(src, dst, depth: int):
    """Max of ell_dst/ell_src over every slope to the given depth.

    Carries log traces of the two endpoint curves and the opposite vertex
    of each Farey cell for both points, level by level; O(1) per slope and
    immune to trace overflow.  Returns (max_ratio, (p, q)).
    """
    lx, ly, lz, lw = _point_logs(src)
    mx, my, mz, mw = _point_logs(dst)

    best = -np.inf
    best_slope = None

    def consider(ratios, ps, qs):
        nonlocal best, best_slope
        i = int(np.argmax(ratios))
        if ratios[i] > best:
            best = float(ratios[i])
            best_slope = (int(ps[i]), int(qs[i]))

    base = np.array([[ly, lx], [my, mx]])
    consider(ell_np(base[1]) / ell_np(base[0]), np.array([0, 1]), np.array([1, 0]))

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
            consider(ell_np(mm) / ell_np(lm), pm, qm)
            la, lb, lc = np.concatenate([la, lm]), np.concatenate([lm, lb]), np.concatenate([lb, la])
            ma, mb, mc = np.concatenate([ma, mm]), np.concatenate([mm, mb]), np.concatenate([mb, ma])
            pa, qa = np.concatenate([pa, pm]), np.concatenate([qa, qm])
            pb, qb = np.concatenate([pm, pb]), np.concatenate([qm, qb])
    return best, best_slope


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


# -- the flat-torus norm by the Farey engine --------------------------------

def teich_norm_sup_parts(
    tau: TorusPoint,
    v: TangentVector,
    tol: float,
    max_depth: int,
    max_evals: int,
) -> tuple[float, SupRatioResult]:
    """(closed-form circle max at tau, certified Farey sup) of dExt/(2 Ext)."""
    g, q = _norm_forms(tau, v)
    circle = 0.5 * _max_gen_eig(g, q)
    # The engine wants finite objectives and works with an absolute
    # tolerance; shift the sign-indefinite ratio into positive territory.
    low = -0.5 * _max_gen_eig(tuple(-gi for gi in g), q)
    shift = 1.0 + max(0.0, -low)

    def objective(s: Slope) -> float:
        u = s.direction()
        return 0.5 * _apply_form(g, u) / _apply_form(q, u) + shift

    def bound(node: FareyNode) -> float:
        u, w = node.direction_pair()
        return 0.5 * _cone_ratio_max(g, q, u, w) + shift

    res = maximize(
        SupQuery(objective, bound, tolerance=tol, max_depth=max_depth, max_evals=max_evals)
    )
    res.value -= shift
    if res.frontier_bound is not None:
        res.frontier_bound -= shift
    return circle, res
