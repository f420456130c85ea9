"""Stdlib reference values that the benchmark checks every query against.

Nothing here calls torusmetrics.  Punctured-torus lengths come from explicit
SL(2, R) holonomy matrices multiplied along Christoffel words, with every
product renormalised and its log scale carried separately, so deep words
never overflow.  Thurston-norm objectives are differentiated by the complex
step, which is exact to rounding.  Flat-torus values use the hyperbolic
closed form and the quadratic form of extremal length.
"""

from __future__ import annotations

import cmath
import math

LOG2 = math.log(2.0)
COMPLEX_STEP = 1e-30

# Relative agreement required between the program and the reference.
REL_TOL = 1e-9


# -- punctured torus: holonomy matrices and word traces -------------------------

def _renormalise(a, b, c, d, log_scale):
    scale = max(abs(a.real), abs(b.real), abs(c.real), abs(d.real))
    return (a / scale, b / scale, c / scale, d / scale, log_scale + math.log(scale))


def _mul(m, n):
    a, b, c, d, s = m
    e, f, g, h, t = n
    return _renormalise(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h, s + t)


def holonomy(x, y, z):
    """Generators (A, B, A^-1) with tr A = x, tr B = y, tr AB = z.

    Accepts complex traces, so a complex-step perturbation of the point
    propagates through every word trace analytically.
    """
    lam = (x + cmath.sqrt(x * x - 4.0)) / 2.0
    p = (z - y / lam) / (lam - 1.0 / lam)
    s = y - p
    a = _renormalise(lam, 0.0, 0.0, 1.0 / lam, 0.0)
    b = _renormalise(p, 1.0, p * s - 1.0, s, 0.0)
    a_inv = _renormalise(1.0 / lam, 0.0, 0.0, lam, 0.0)
    return a, b, a_inv


def word_matrix(p, q, gens):
    """Holonomy of the simple closed curve of slope p/q (canonical, q >= 0).

    W(1/0) = A and W(0/1) = B; the word of a mediant is the product of the
    words of its two Farey parents, left times right.  Negative slopes use
    the mirrored wedge spanned by A^-1 and B.
    """
    a, b, a_inv = gens
    if (p, q) == (1, 0):
        return a
    if (p, q) == (0, 1):
        return b
    if p >= 0:
        left, left_m, right, right_m = (0, 1), b, (1, 0), a
    else:
        left, left_m, right, right_m = (-1, 0), a_inv, (0, 1), b
    while True:
        mid = (left[0] + right[0], left[1] + right[1])
        mid_m = _mul(left_m, right_m)
        if mid == (p, q):
            return mid_m
        if p * mid[1] - q * mid[0] < 0:
            right, right_m = mid, mid_m
        else:
            left, left_m = mid, mid_m


def length_of(m):
    """Hyperbolic length 2*arccosh(|tr M|/2) of a renormalised matrix."""
    a, _, _, d, log_scale = m
    t = a + d
    if t.real < 0.0:
        t = -t
    log_t = cmath.log(t) + log_scale
    if log_t.real < 30.0:
        return 2.0 * cmath.acosh(0.5 * cmath.exp(log_t))
    return 2.0 * (log_t - LOG2 + cmath.log(1.0 + cmath.sqrt(1.0 - 4.0 * cmath.exp(-2.0 * log_t))))


def chart_z(x, y):
    """Larger root z of z^2 - xyz + x^2 + y^2 = 0 (complex-capable)."""
    return 0.5 * (x * y + cmath.sqrt(x * x * y * y - 4.0 * (x * x + y * y)))


def distance_ratio(gens_src, gens_dst, p, q):
    """ell_dst / ell_src of slope p/q."""
    return length_of(word_matrix(p, q, gens_dst)).real / length_of(word_matrix(p, q, gens_src)).real


def norm_objective(gens_step, p, q):
    """d(ell)(V) / ell for slope p/q, from a complex-step generator triple."""
    return _norm_score((word_matrix(p, q, gens_step),))


def norm_generators(x, y, vx, vy):
    """Generators at the chart point (x, y) pushed a complex step along (vx, vy)."""
    xs = complex(x, COMPLEX_STEP * vx)
    ys = complex(y, COMPLEX_STEP * vy)
    return holonomy(xs, ys, chart_z(xs, ys))


def bruteforce_max(gens_list, score, depth):
    """Max of score(matrices) over every slope of tree depth <= depth.

    gens_list holds one generator triple per point; score gets the slope's
    matrix under each, in the same order.  Depth follows the program's
    convention: 0/1, 1/0 and 1/1 are depth 0, the mirrored root cell
    (mediant -1/1) sits at depth 1, and each mediant step adds one.
    Matrices are carried down the tree, one product per slope per point.
    """
    a, b, a_inv = (tuple(gens[i] for gens in gens_list) for i in range(3))
    best = max(score(a), score(b))
    # (cell depth, left matrices, right matrices)
    stack = [(0, b, a), (1, a_inv, b)]
    while stack:
        d, left, right = stack.pop()
        if d > depth:
            continue
        mid = tuple(_mul(m, n) for m, n in zip(left, right))
        best = max(best, score(mid))
        stack.append((d + 1, left, mid))
        stack.append((d + 1, mid, right))
    return best


def bruteforce_max_ratio(gens_src, gens_dst, depth):
    """Max of ell_dst/ell_src over every slope of tree depth <= depth."""
    return bruteforce_max(
        (gens_src, gens_dst), lambda m: length_of(m[1]).real / length_of(m[0]).real, depth
    )


def _norm_score(matrices):
    ell = length_of(matrices[0])
    return ell.imag / COMPLEX_STEP / ell.real


def bruteforce_max_norm(gens_step, depth):
    """Max of the norm objective over every slope of tree depth <= depth."""
    return bruteforce_max((gens_step,), _norm_score, depth)


def check_sup(value, argmax, ratio_at):
    """The value dominates the root ratios and equals the ratio at its argmax."""
    slack = REL_TOL * max(abs(value), 1e-12)
    roots_ok = all(value >= ratio_at(p, q) - slack for p, q in ((0, 1), (1, 0), (1, 1)))
    return roots_ok and abs(value - ratio_at(*argmax)) <= slack


# -- flat torus ------------------------------------------------------------------

def teich_sup_closed_form(x1, y1, x2, y2):
    """exp(2 d_T): the sup of Ext(tau2)/Ext(tau1), from the hyperbolic distance."""
    c = 1.0 + ((x2 - x1) ** 2 + (y2 - y1) ** 2) / (2.0 * y1 * y2)
    return c + math.sqrt(c * c - 1.0)


def extremal_length(p, q, x, y):
    return ((p + q * x) ** 2 + (q * y) ** 2) / y


def convex_with_origin(points):
    """Every turn has one sign and the origin lies strictly inside."""
    n = len(points)
    sign = None
    for i in range(n):
        ax, ay = points[i]
        bx, by = points[(i + 1) % n]
        cx, cy = points[(i + 2) % n]
        cross = (bx - ax) * (cy - by) - (by - ay) * (cx - bx)
        if cross == 0.0 or (sign is not None and (cross > 0.0) != sign):
            return False
        sign = cross > 0.0
    return all(
        (points[i][0] * points[(i + 1) % n][1] - points[i][1] * points[(i + 1) % n][0] > 0.0) == sign
        for i in range(n)
    )
