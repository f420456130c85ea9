"""The four workloads: a seeded, fixed query list, the timed call, the check.

A workload turns (seed, seconds) into a fixed list of plain-data queries, so
the same seed always gives the same inputs and the same counts.  The list
length depends only on --seconds, never on how fast this host is: RATE is the
number of queries that took about one second on the reference host
(2-core x86-64 VM, CPython 3.11), so wall_s reads roughly --seconds there.
Each workload keeps its latencies inside one cost mode, so that the median
and the tail sit inside a mode instead of on a boundary between two.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass

import reference as ref
from torusmetrics import cli, ptorus, torus

CHART_LO, CHART_HI = 3.0, 6.0
TIGHT_TOLS = (1e-3, 3e-4, 1e-4)
TWISTS = (-2, -1, 0, 1, 2)
DUAL_SAMPLES = 256
TEICH_TOL = 1e-6  # teich_distance_enum's default tolerance
# Depth of the reference brute force; every Thurston workload sweeps deeper.
BRUTE_DEPTH = 8


@dataclass
class Check:
    """Outcome of one query's correctness check."""

    ok: bool
    certified: bool
    evals: int
    exit_code: int = 0


def _chart(rng):
    return (rng.uniform(CHART_LO, CHART_HI), rng.uniform(CHART_LO, CHART_HI))


def _direction(rng):
    theta = rng.uniform(0.0, 2.0 * math.pi)
    return (math.cos(theta), math.sin(theta))


def _dominates(value, brute):
    """An exhaustive sweep deeper than the brute force finds at least its maximum."""
    return value >= brute - ref.REL_TOL * max(abs(value), 1e-12)


def _check_distance(res, src, dst):
    """src, dst: (x, y, z) triples.  Exhaustive sweeps: never certified."""
    gx, gy = ref.holonomy(*src), ref.holonomy(*dst)
    ok = ref.check_sup(
        res.value, (res.argmax.p, res.argmax.q), lambda p, q: ref.distance_ratio(gx, gy, p, q)
    ) and _dominates(res.value, ref.bruteforce_max_ratio(gx, gy, BRUTE_DEPTH))
    return Check(ok and not res.certified, res.certified, res.evals)


class ThurstonCold:
    """Exhaustive distance (3 in 4) and norm (1 in 4) at depth 11, fresh points.

    Every query draws new chart points, far more than the 16-slot per-point
    cache holds, so every trace is computed rather than looked up.
    """

    name = "thurston-cold"
    RATE = 5.0
    DEPTH = 11

    def build(self, seed, seconds):
        n = 4 * max(5, round(seconds * self.RATE / 4))
        rng = random.Random(f"{self.name}:{seed}")
        kinds = ["norm"] * (n // 4) + ["dist"] * (n - n // 4)
        rng.shuffle(kinds)
        return [
            ("norm", *_chart(rng), *_direction(rng)) if kind == "norm" else ("dist", *_chart(rng), *_chart(rng))
            for kind in kinds
        ]

    def setup(self, queries):
        prepared = []
        for kind, a, b, c, d in queries:
            point = ptorus.from_parameters(a, b)
            if kind == "norm":
                prepared.append((kind, point, ptorus.tangent_from_chart(point, c, d)))
            else:
                prepared.append((kind, point, ptorus.from_parameters(c, d)))
        return prepared

    def call(self, prepared):
        kind, point, other = prepared
        if kind == "norm":
            return ptorus.thurston_norm(point, other, max_depth=self.DEPTH)
        return ptorus.thurston_distance(point, other, max_depth=self.DEPTH)

    def check(self, query, res):
        kind, a, b, c, d = query
        if kind == "dist":
            return _check_distance(res, (a, b, ref.chart_z(a, b).real), (c, d, ref.chart_z(c, d).real))
        gens = ref.norm_generators(a, b, c, d)
        ok = ref.check_sup(
            res.value, (res.argmax.p, res.argmax.q), lambda p, q: ref.norm_objective(gens, p, q)
        ) and _dominates(res.value, ref.bruteforce_max_norm(gens, BRUTE_DEPTH))
        return Check(ok and not res.certified, res.certified, res.evals)


class ThurstonWarm:
    """Exhaustive distance at depth 12 between points of a 12-point pool.

    The pool is smaller than the per-point cache, and set-up fills every
    point's trace cache to depth 12, so the timed phase reads traces.
    """

    name = "thurston-warm"
    RATE = 6.5
    DEPTH = 12
    POOL = 12

    def build(self, seed, seconds):
        n = max(20, round(seconds * self.RATE))
        rng = random.Random(f"{self.name}:{seed}")
        pool = [_chart(rng) for _ in range(self.POOL)]
        pairs = [rng.sample(range(self.POOL), 2) for _ in range(n)]
        return [("dist", *pool[i], *pool[j]) for i, j in pairs]

    def setup(self, queries):
        points = {}
        for _, a, b, c, d in queries:
            for xy in ((a, b), (c, d)):
                if xy not in points:
                    points[xy] = ptorus.from_parameters(*xy)
        for point in points.values():
            ptorus.thurston_distance(point, point, max_depth=self.DEPTH)
        return [(points[(a, b)], points[(c, d)]) for _, a, b, c, d in queries]

    def call(self, prepared):
        return ptorus.thurston_distance(*prepared, max_depth=self.DEPTH)

    def check(self, query, res):
        _, a, b, c, d = query
        return _check_distance(res, (a, b, ref.chart_z(a, b).real), (c, d, ref.chart_z(c, d).real))


class ThurstonCertified:
    """In-process `dist-thurston --certified-bound --require-certified` calls.

    Three queries in four are panel pairs at tol 1e-2 or 5e-3.  Every fourth
    query cycles through the 15 tight combinations: the pair
    (3,3,3) -> (3,3,6) twisted k times about 1/0, k in -2..2, at tol 1e-3,
    3e-4 and 1e-4.  Twisting is an isometry, so all five pairs are at the
    same distance.  Tight queries at 3e-4 and 1e-4 stop uncertified today.

    Panel pairs are stratified: a fixed design of chart pairs, each jittered
    by the seed by up to JITTER per coordinate, in a fixed order.
    Certification cost varies about 30-fold between unrelated random pairs,
    so independent draws would tie the median and the tail to the seed; and
    the per-point caches a query leaves behind depend on the order, which
    moved peak RSS by 8% between seeds when the order was seeded.
    """

    name = "thurston-certified"
    RATE = 9.0
    PANEL_TOLS = (1e-2, 5e-3)
    JITTER = 0.02
    MAX_DEPTH = 2000

    def build(self, seed, seconds):
        n = 4 * max(15, round(seconds * self.RATE / 4))
        design = random.Random(f"{self.name}:panel")
        rng = random.Random(f"{self.name}:{seed}")
        tight = [
            (_triple(_twist((3.0, 3.0, 3.0), k)), _triple(_twist((3.0, 3.0, 6.0), k)), tol)
            for k in TWISTS
            for tol in TIGHT_TOLS
        ]
        queries = []
        for i in range(n):
            if i % 4 == 3:
                src, dst, tol = tight[(i // 4) % len(tight)]
            else:
                base = [design.uniform(CHART_LO + self.JITTER, CHART_HI - self.JITTER) for _ in range(4)]
                a, b, c, d = (v + rng.uniform(-self.JITTER, self.JITTER) for v in base)
                src, dst = f"chart:{a!r},{b!r}", f"chart:{c!r},{d!r}"
                tol = self.PANEL_TOLS[i % 2]
            queries.append(("cli", src, dst, tol))
        return queries

    def setup(self, queries):
        return [
            ["dist-thurston", "--from", src, "--to", dst, "--certified-bound", "--tol", repr(tol),
             "--max-depth", str(self.MAX_DEPTH), "--require-certified"]
            for _, src, dst, tol in queries
        ]

    def call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()

    def check(self, query, output):
        _, src, dst, tol = query
        code, text = output
        if code not in (0, 3):
            return Check(False, False, 0, code)
        engine = json.loads(text)["engine"]
        certified = engine["certified"]
        if certified != (code == 0):
            return Check(False, certified, engine["evals"], code)
        gx, gy = ref.holonomy(*_parse_point(src)), ref.holonomy(*_parse_point(dst))
        value = engine["value"]
        p, q = (int(v) for v in engine["argmax"].split("/"))
        ok = ref.check_sup(value, (p, q), lambda p, q: ref.distance_ratio(gx, gy, p, q))
        if certified:
            brute = ref.bruteforce_max_ratio(gx, gy, BRUTE_DEPTH)
            ok = ok and brute <= value + tol + ref.REL_TOL * value
        return Check(ok, certified, engine["evals"], code)


def _twist(point, k):
    """k Dehn twists about 1/0 on trace triples (exact for integer traces)."""
    x, y, z = point
    for _ in range(abs(k)):
        x, y, z = (x, z, x * z - y) if k > 0 else (x, x * y - z, y)
    return (x, y, z)


def _triple(point):
    return ",".join(repr(v) for v in point)


def _parse_point(text):
    if text.startswith("chart:"):
        x, y = (float(v) for v in text[len("chart:"):].split(","))
        return (x, y, ref.chart_z(x, y).real)
    return tuple(float(v) for v in text.split(","))


class FlatTorus:
    """teich_distance_enum, teich_norm and dual_sphere(256) at one modulus.

    No Thurston code runs, and each objective costs a few microseconds, so
    engine bookkeeping is the largest share of the time here.
    """

    name = "flat-torus"
    RATE = 750.0

    def build(self, seed, seconds):
        n = max(40, round(seconds * self.RATE))
        rng = random.Random(f"{self.name}:{seed}")
        return [(*_modulus(rng), *_modulus(rng), *_direction(rng)) for _ in range(n)]

    def setup(self, queries):
        return [
            (torus.TorusPoint(x1, y1), torus.TorusPoint(x2, y2), torus.TangentVector(vx, vy))
            for x1, y1, x2, y2, vx, vy in queries
        ]

    def call(self, prepared):
        tau, other, v = prepared
        return (
            torus.teich_distance_enum(tau, other),
            torus.teich_norm(tau, v),
            torus.dual_sphere(tau, DUAL_SAMPLES),
        )

    def check(self, query, output):
        x1, y1, x2, y2, vx, vy = query
        res, norm, sphere = output
        rel = ref.REL_TOL
        exact = ref.teich_sup_closed_form(x1, y1, x2, y2)
        p, q = res.argmax.p, res.argmax.q
        at_argmax = ref.extremal_length(p, q, x2, y2) / ref.extremal_length(p, q, x1, y1)
        ok = (
            res.value <= exact * (1.0 + rel)
            and (not res.certified or res.value >= exact - TEICH_TOL - rel * exact)
            and abs(res.value - at_argmax) <= rel * res.value
            and abs(norm - math.hypot(vx, vy) / (2.0 * y1)) <= rel * norm
            and len(sphere) == DUAL_SAMPLES
            and ref.convex_with_origin([(g.gx, g.gy) for g in sphere])
        )
        return Check(ok, res.certified, res.evals)


def _modulus(rng):
    return (rng.uniform(-1.0, 1.0), math.exp(rng.uniform(-2.0, 2.0)))


WORKLOADS = {w.name: w for w in (ThurstonCold(), ThurstonWarm(), ThurstonCertified(), FlatTorus())}
