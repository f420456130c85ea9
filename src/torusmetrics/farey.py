"""Rational slopes on the torus and their Stern-Brocot/Farey combinatorics.

A slope p/q labels the isotopy class of an essential simple closed curve on
the (punctured) torus.  Two slopes are Farey neighbors when |p1*q2 - q1*p2|
is 1; the mediant of a neighbor pair splits their interval, and iterating
this builds the Stern-Brocot tree, which reaches every slope exactly once.
All suprema over curves in this package are searched by descending it.

Negative slopes carry p < 0, q > 0.  The tree over them is the mirror image
(p -> -p) of the positive tree, which keeps one canonical label per curve
class and avoids double counting.

A slope's path down the tree is derived in one place, the continued-fraction
kernel in Python ints: ``convergents``, ``ancestor`` (a slope's depth, or its
ancestor at a depth) and ``act`` (GL(2,Z) on slopes).

The sup engine carries a caller-defined state per slope down the tree, so a
recursion over Farey triangles costs O(1) per slope; the plainest state is
the slope itself (``SLOPE_ROOTS`` and ``add_slopes``).  A cell is its two
signed endpoint vectors (``split``): the mirrored root is (0/1, -1/0).  The
certified mode, random access to one slope (``path_state``) and supratio's
tier loop all combine a mediant's state in the one operand order of
``slope_parents`` (``mediant_state``), so they agree bit for bit.
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
    "convergents",
    "ancestor",
    "act",
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
    ``mirrored`` marks the negative-slope copy, whose split cells negate p.  The
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
# (lp, lq, rp, rq, depth, s_left, s_right, s_opp): the signed endpoint vectors,
# (lp, lq) the one nearer 0/1, with caller-defined states at the endpoints and
# the opposite vertex.  combine(s_a, s_b, s_c) gives the state at a mediant from
# its Farey parents a, b and opposite vertex c, in slope_parents order, which is
# combine(s_right, s_left, s_opp) in every cell.

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


# (p, q, depth) of the root slopes and -1/1, in the order every search evaluates them
ROOT_TIER = ((0, 1, 0), (1, 0, 0), (1, 1, 0), (-1, 1, 1))


def root_cells(roots: tuple) -> tuple[tuple, tuple]:
    """The root cells (0/1, 1/0) and (0/1, -1/0) over the states at 0/1, 1/0, 1/1."""
    s0, s_inf, s1 = roots
    # children take their opposite vertex from their parent's endpoints, so
    # the positive root's (-1/1) is never needed
    return (0, 1, 1, 0, 0, s0, s_inf, None), (0, 1, -1, 0, 1, s0, s_inf, s1)


def mediant_state(cell: tuple, combine):
    """The state at the cell's mediant."""
    _, _, _, _, _, s_left, s_right, s_opp = cell
    return combine(s_right, s_left, s_opp)


def split(cell: tuple, s_mid) -> tuple[tuple, tuple]:
    """The two children of a cell whose mediant has state s_mid."""
    lp, lq, rp, rq, depth, s_left, s_right, _ = cell
    mp, mq = lp + rp, lq + rq
    return ((lp, lq, mp, mq, depth + 1, s_left, s_mid, s_right),
            (mp, mq, rp, rq, depth + 1, s_mid, s_right, s_left))


def path_state(slope: Slope, roots: tuple, combine):
    """The state at one slope, combined down its path: bit-identical to the engine's."""
    p, q = slope.p, slope.q
    if p == 0 or q == 0:  # 0/1 or 1/0
        return roots[p]
    pos, neg = root_cells(roots)
    cell, state = (pos, roots[2]) if p > 0 else (neg, mediant_state(neg, combine))
    # away from 0/1 (right) down to the first convergent's depth, then left to the next's, ...
    for turn, (_, _, depth) in enumerate(convergents(p, q)):
        while cell[4] <= depth and (cell[0] + cell[2], cell[1] + cell[3]) != (p, q):
            cell = split(cell, state)[~turn & 1]
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
    tessellation, a the right endpoint of s's cell (the one farther from
    0/1) and b its left; s and c are the classes of a + b and a - b, the two
    completions of that edge into a triangle.  (On the negative wedge the
    canonical 1/0 hides a sign, so s is not always literally the canonical
    mediant of a and b.)  Trace recursions combine values at a, b, c into
    the value at s.  One parent is the convergent before s, +-1/0 before +-n/1.
    """
    p, q = s.p, s.q
    if (p, q) in ((0, 1), (1, 0)):
        raise ValueError(f"root slope {s} has no Farey parents")
    h, k, _ = [(-1 if p < 0 else 1, 0, 0), *convergents(p, q)][-2]
    a, b = ((h, k), (p - h, q - k)) if abs(h) * q > k * abs(p) else ((p - h, q - k), (h, k))
    return Slope.of(*a), Slope.of(*b), Slope.of(a[0] - b[0], a[1] - b[1])


# -- the continued-fraction kernel ------------------------------------------------

def convergents(n: int, d: int):
    """(h, k, depth) for each continued-fraction convergent h/k of n/d, d > 0, up to
    n/d in lowest terms (Graham, Knuth and Patashnik, "Concrete Mathematics", 4.5).
    depth is h/k's Stern-Brocot depth, but -1 at a convergent 0/1 of n/d >= 0;
    it steps by the partial quotients, the runs of n/d's path."""
    h0, k0, h1, k1, depth = 0, 1, 1, 0, -1
    if n < 0:
        n, h1, depth = -n, -1, 0
    while d:
        a, (n, d) = n // d, (d, n % d)
        h0, k0, h1, k1, depth = h1, k1, a * h1 + h0, a * k1 + k0, depth + a
        yield h1, k1, depth


def ancestor(p: int, q: int, depth: int | None = None) -> tuple[int, int, int]:
    """(p', q', d): the canonical slope p/q at its Stern-Brocot depth d, or past ``depth``
    its ancestor there, where a partial quotient passes it: a semiconvergent, or the
    convergent before (below 0, depth 0 gives the root endpoint on p/q's side, 1/0 from
    -1/1 on).  d alone takes a plain loop, twice as fast as walking the convergents."""
    d, n, m = (p < 0) - 1, abs(p), q
    while m:
        d += n // m
        n, m = m, n % m
    if depth is None or d <= depth:
        return p, q, max(d, 0)
    h0, k0, h1, k1, d1 = 0, 1, -1 if p < 0 else 1, 0, (p < 0) - 1
    for h, k, d in convergents(p, q):
        if d > depth:
            if j := depth - d1:  # the steps of the clipped partial quotient
                h1, k1 = j * h1 + h0, j * k1 + k0
            return (h1 if k1 else 1), k1, depth
        h0, k0, h1, k1, d1 = h1, k1, h, k, d


def act(m: tuple, p: int, q: int) -> tuple[int, int]:
    """The canonical slope (p', q') of m (p, q), for m = (a, b, c, d) in GL(2, Z)."""
    p, q = m[0] * p + m[1] * q, m[2] * p + m[3] * q
    return (-p, -q) if q < 0 or (q == 0 and p < 0) else (p, q)
