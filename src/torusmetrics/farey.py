"""Rational slopes on the torus and their Stern-Brocot/Farey combinatorics.

A slope p/q labels the isotopy class of an essential simple closed curve on
the (punctured) torus.  Two slopes are Farey neighbors when |p1*q2 - q1*p2|
is 1; the mediant of a neighbor pair splits their interval, and iterating
this builds the Stern-Brocot tree, which reaches every slope exactly once.
All suprema over curves in this package are searched by descending it.

Negative slopes carry p < 0, q > 0.  The tree over them is the mirror image
(p -> -p) of the positive tree, which keeps one canonical label per curve
class and avoids double counting.

The sup engine carries a caller-defined state per slope down the tree, so a
recursion over Farey triangles costs O(1) per slope; the plainest state is
the slope itself (``SLOPE_ROOTS`` and ``add_slopes``).  Its certified mode
and random access to one slope (``path_state``) walk plain tuple cells
(``split``) with the combine and operand order of ``mediant_state``; the
exhaustive mode's tier loop lives in supratio and keeps that order, so all
three agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add, neg

__all__ = [
    "Slope",
    "FareyNode",
    "mediant",
    "intersection_number",
    "enumerate_slopes",
    "slope_parents",
    "root_nodes",
    "MAX_ENUM_DEPTH",
]

# Exhaustive enumeration grows as 3 * 2**depth; refuse to blow up silently.
MAX_ENUM_DEPTH = 22


@dataclass(frozen=True, order=True)
class Slope:
    """A primitive integer pair p/q in canonical form.

    Canonical means q > 0, or (p, q) == (1, 0) for the slope at infinity.
    Python integers never wrap, so arbitrarily deep descent is exact.
    """

    p: int
    q: int

    def __post_init__(self):
        if self.q == 0:
            if self.p != 1:
                raise ValueError(f"slope {self.p}/{self.q} is not canonical; infinity is 1/0")
            return
        if self.q < 0:
            raise ValueError(f"slope {self.p}/{self.q} is not canonical; q must be positive")
        if math.gcd(abs(self.p), self.q) != 1:
            raise ValueError(f"slope {self.p}/{self.q} is not primitive")

    @classmethod
    def _unchecked(cls, p: int, q: int) -> "Slope":
        """A slope already known to be canonical, such as a tree mediant."""
        s = object.__new__(cls)
        object.__setattr__(s, "p", p)
        object.__setattr__(s, "q", q)
        return s

    @classmethod
    def of(cls, p: int, q: int) -> "Slope":
        """Canonicalize an arbitrary nonzero integer pair."""
        if p == 0 and q == 0:
            raise ValueError("the zero pair is not a slope")
        if q == 0:
            return cls(1, 0)
        if q < 0:
            p, q = -p, -q
        g = math.gcd(abs(p), q)
        return cls(p // g, q // g)

    @classmethod
    def parse(cls, text: str) -> "Slope":
        num, _, den = text.partition("/")
        if not _:
            raise ValueError(f"slope must look like 'p/q', got {text!r}")
        return cls.of(int(num), int(den))

    def mirrored(self) -> "Slope":
        """The slope reflected by p -> -p (fixes 0/1 and 1/0)."""
        return Slope.of(-self.p, self.q)

    def direction(self) -> tuple[float, float]:
        return direction(self.p, self.q)

    def __str__(self):
        return f"{self.p}/{self.q}"


_HUGE_BITS = 500
_HUGE = 2**_HUGE_BITS


def direction(p: int, q: int) -> tuple[float, float]:
    """(p, q) as floats, scaled by 2^-k once an entry reaches 2^500.

    The scaled vector's largest entry lies in [2^499, 2^500), the size of
    the largest unscaled ones, so quadratic forms in it stay as finite as
    at those slopes however deep the slope is.  Integer true division
    rounds correctly past the float range, and a power-of-two scale is
    exact, so ratios of forms (homogeneous of degree 0) keep their value,
    and every smaller vector keeps its bits.
    """
    if -_HUGE < p < _HUGE and -_HUGE < q < _HUGE:
        return (float(p), float(q))
    k = max(abs(p), abs(q)).bit_length() - _HUGE_BITS
    return (p / 2**k, q / 2**k)


def mediant(a: Slope, b: Slope) -> Slope:
    """Mediant of a Farey neighbor pair; rejects non-neighbors."""
    det = a.p * b.q - a.q * b.p
    if abs(det) != 1:
        raise ValueError(f"{a} and {b} are not Farey neighbors (determinant {det})")
    return Slope.of(a.p + b.p, a.q + b.q)


def intersection_number(a: Slope, b: Slope) -> int:
    """Geometric intersection number of the two curve classes, |p1 q2 - q1 p2|."""
    return abs(a.p * b.q - a.q * b.p)


@dataclass(frozen=True)
class FareyNode:
    """A Stern-Brocot interval, checked: the reference form of a ``split`` cell.

    ``left`` and ``right`` are always stored as positive-tree endpoints;
    ``mirrored`` marks cells of the negative-slope copy of the tree.  The
    slope a node contributes is the (possibly mirrored) mediant of its
    endpoints, and ``depth`` counts mediant steps from the root interval.
    """

    left: Slope
    right: Slope
    depth: int
    mirrored: bool = False

    def __post_init__(self):
        det = self.left.p * self.right.q - self.left.q * self.right.p
        if abs(det) != 1:
            raise ValueError(f"node endpoints {self.left}, {self.right} are not Farey neighbors")
        if self.depth < 0:
            raise ValueError("node depth must be nonnegative")

    def mediant_slope(self) -> Slope:
        m = Slope(self.left.p + self.right.p, self.left.q + self.right.q)
        return m.mirrored() if self.mirrored else m

    def children(self) -> tuple["FareyNode", "FareyNode"]:
        m = Slope(self.left.p + self.right.p, self.left.q + self.right.q)
        return (
            FareyNode(self.left, m, self.depth + 1, self.mirrored),
            FareyNode(m, self.right, self.depth + 1, self.mirrored),
        )

    def endpoint_slopes(self) -> tuple[Slope, Slope]:
        """The curve classes of the interval endpoints, mirror applied."""
        if not self.mirrored:
            return (self.left, self.right)
        return (self.left.mirrored(), self.right.mirrored())

    def opposite_slope(self) -> Slope:
        """The completion of the endpoint edge on the far side of the mediant."""
        c = Slope.of(self.left.p - self.right.p, self.left.q - self.right.q)
        return c.mirrored() if self.mirrored else c


def root_nodes() -> tuple[FareyNode, FareyNode]:
    """The two root intervals covering positive and negative slopes.

    The positive root's mediant is 1/1 at depth 0; the mirrored root sits
    at depth 1 so its mediant -1/1 counts as the first negative-side step.
    """
    zero, inf = Slope(0, 1), Slope(1, 0)
    return FareyNode(zero, inf, 0), FareyNode(zero, inf, 1, mirrored=True)


# -- cells with carried state ---------------------------------------------------
#
# The certified search and random access walk cells
# (lp, lq, rp, rq, depth, sign, s_left, s_right, s_opp):
# the interval between positive-tree endpoints lp/lq < rp/rq, mirrored when
# sign is -1, with caller-defined states at its endpoints and its opposite
# vertex.  combine(s_a, s_b, s_c) gives the state at a mediant from its Farey
# parents a, b and opposite vertex c, in slope_parents order.

# The states of a query that carries each slope as its own state.
SLOPE_ROOTS = (Slope(0, 1), Slope(1, 0), Slope(1, 1))


def add_slopes(a: Slope, b: Slope, c: Slope) -> Slope:
    """combine for slope states: the completion of the edge a, b that is not c.

    That is a + b, except on the mirrored side of 1/0, where the canonical
    1/0 stands for the vector (-1, 0) and a + b is c; there it is a - b.
    """
    p, q = a.p + b.p, a.q + b.q
    if p == c.p and q == c.q:
        p, q = a.p - b.p, a.q - b.q
        if q < 0:
            p, q = -p, -q
    return Slope._unchecked(p, q)


def root_cells(roots: tuple) -> tuple[tuple, tuple]:
    """The positive and mirrored root cells over the states at 0/1, 1/0, 1/1."""
    s0, s_inf, s1 = roots
    # children take their opposite vertex from their parent's endpoints, so
    # the positive root's (-1/1) is never needed
    return (0, 1, 1, 0, 0, 1, s0, s_inf, None), (0, 1, 1, 0, 1, -1, s0, s_inf, s1)


def mediant_state(cell: tuple, combine):
    """The state at the cell's mediant."""
    lp, lq, rp, rq, _, _, s_left, s_right, s_opp = cell
    if rq == 0 and lq == 1 and lp > 0:  # n/1 below 1/0: the left endpoint comes first
        return combine(s_left, s_right, s_opp)
    return combine(s_right, s_left, s_opp)


def split(cell: tuple, s_mid) -> tuple[tuple, tuple]:
    """The two children of a cell whose mediant has state s_mid."""
    lp, lq, rp, rq, depth, sign, s_left, s_right, _ = cell
    mp, mq = lp + rp, lq + rq
    return ((lp, lq, mp, mq, depth + 1, sign, s_left, s_mid, s_right),
            (mp, mq, rp, rq, depth + 1, sign, s_mid, s_right, s_left))


def path_state(slope: Slope, roots: tuple, combine):
    """The state at one slope, combined down its path: bit-identical to the engine's."""
    p, q = slope.p, slope.q
    if p == 0 or q == 0:  # 0/1 or 1/0
        return roots[p]
    pos, neg = root_cells(roots)
    cell, state = (pos, roots[2]) if p > 0 else (neg, mediant_state(neg, combine))
    p = abs(p)
    while (cell[0] + cell[2], cell[1] + cell[3]) != (p, q):
        left, right = split(cell, state)
        cell = left if p * left[3] < q * left[2] else right  # left of the mediant?
        state = mediant_state(cell, combine)
    return state


def enumerate_slopes(max_depth: int) -> list[Slope]:
    """All slopes of tree depth <= max_depth, roots first, each exactly once.

    Depth 0 is the three root slopes 0/1, 1/0, 1/1; depth d >= 1 adds the
    2**d positive mediants and the mirrored tier, for 3 * 2**d in total.
    """
    if max_depth < 0:
        raise ValueError("max_depth must be nonnegative")
    if max_depth > MAX_ENUM_DEPTH:
        raise ValueError(
            f"enumeration to depth {max_depth} would produce {3 * 2 ** max_depth} slopes; "
            f"the supported limit is depth {MAX_ENUM_DEPTH}"
        )
    out = [Slope(0, 1), Slope(1, 0), Slope(1, 1)]
    seq_p, seq_q = [0, 1], [1, 0]  # the sorted Stern-Brocot sequence so far
    tier_p, tier_q = [1], [1]  # its mediants: the sums of adjacent entries
    for _ in range(max_depth):
        seq_p, seq_q = _interleave(seq_p, tier_p), _interleave(seq_q, tier_q)
        up_p, up_q = tier_p, tier_q
        tier_p, tier_q = list(map(add, seq_p, seq_p[1:])), list(map(add, seq_q, seq_q[1:]))
        out += map(Slope._unchecked, tier_p, tier_q)
        # the mirrored tier is the positive tier a depth up, p negated
        out += map(Slope._unchecked, map(neg, up_p), up_q)
    return out


def _interleave(seq: list, mids: list) -> list:
    """seq with mids[i] after seq[i]: a Stern-Brocot sequence, or a tier's cells, refined."""
    out = [None] * (len(seq) + len(mids))
    out[0::2], out[1::2] = seq, mids
    return out


def slope_parents(s: Slope) -> tuple[Slope, Slope, Slope]:
    """Farey parents (a, b) of s plus the opposite vertex c.

    a and b are the neighbor pair spanning the edge below s in the Farey
    tessellation; s and c are the classes of a + b and a - b, the two
    completions of that edge into a triangle.  (On the negative wedge the
    canonical form of the infinity endpoint hides a sign, so s is not
    always literally the canonical mediant of a and b.)  Trace recursions
    combine values at a, b, c into the value at s.
    """
    p, q = s.p, s.q
    if (p, q) in ((0, 1), (1, 0)):
        raise ValueError(f"root slope {s} has no Farey parents")
    if p < 0:
        a, b, c = slope_parents(Slope(-p, q))
        return a.mirrored(), b.mirrored(), c.mirrored()
    if p == 1 and q == 1:
        return Slope(1, 0), Slope(0, 1), Slope(-1, 1)
    if q == 1:  # p >= 2
        return Slope(p - 1, 1), Slope(1, 0), Slope.of(p - 2, 1)
    if p == 1:  # q >= 2
        return Slope(1, q - 1), Slope(0, 1), Slope.of(1, q - 2)
    u = pow(q, -1, p)
    v = (u * q - 1) // p
    return Slope(u, v), Slope(p - u, q - v), Slope.of(2 * u - p, 2 * v - q)
