"""Command-line front end: distances, norms, dual spheres, experiments.

Every command writes one machine-readable artifact (JSON or CSV) to the
output path or stdout.  Only the four searches for a supremum over slopes
take --tol, --max-depth and --require-certified, and they carry the tolerance
and certification metadata that produced each number.  Runs are
deterministic: identical arguments produce byte-identical output.

Exit codes: 0 success, 1 a numeric fault (overflow, underflow to zero, an
output value that is not finite) at extreme but valid input, 2 malformed
or out-of-chart input, 3 when --require-certified is set and an
enumerated supremum was not certified.
``main(argv)`` is the in-process entry point and returns the exit code.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import ptorus, torus
from .farey import Slope, enumerate_slopes, intersection_number
from .supratio import SupRatioResult

__all__ = ["main", "entry"]


def _engine_meta(res: SupRatioResult, args: argparse.Namespace) -> dict:
    meta = res.to_json_dict()
    meta["tol"] = args.tol
    meta["max_depth"] = args.max_depth
    return meta


def _note_cut_sweep(res: SupRatioResult, args: argparse.Namespace, where: str = "") -> None:
    """Say on stderr when max_evals stopped an exhaustive sweep short of max_depth."""
    if res.hit_eval_cap:
        # slopes of depth <= max_depth (see farey.enumerate_slopes); past depth
        # 64 the count is too long to build or print in full
        total = 3 * 2 ** args.max_depth if args.max_depth <= 64 else f"3*2^{args.max_depth}"
        print(
            f"note: max_evals stopped the sweep{where} at depth {res.depth_reached} of "
            f"{args.max_depth} after {res.evals} of {total} evaluations",
            file=sys.stderr,
        )


def _note_uncertified(res: SupRatioResult, args: argparse.Namespace) -> None:
    """Say on stderr why a certified search stopped short of the tolerance."""
    if not res.certified:
        reason = (f"eval cap after {res.evals} evaluations" if res.hit_eval_cap
                  else f"depth cap at {args.max_depth}" if args.max_depth is not None
                  else f"the walk ended after {res.evals} evaluations")
        print(f"note: not certified at tol {args.tol!r}: {reason}, gap frontier_bound - value"
              f" = {res.frontier_bound - res.value!r}", file=sys.stderr)


def _run_dist_teich(args: argparse.Namespace):
    src = torus.TorusPoint.parse(args.src)
    dst = torus.TorusPoint.parse(args.dst)
    res = torus.teich_distance_enum(src, dst, tol=args.tol, max_depth=args.max_depth)
    _note_uncertified(res, args)
    out = {
        "command": args.command,
        "from": str(src),
        "to": str(dst),
        "distance": 0.5 * math.log(res.value),
        "engine": _engine_meta(res, args),
    }
    return out, res.certified


def _run_dist_thurston(args: argparse.Namespace):
    src = ptorus.MarkovPoint.parse(args.src)
    dst = ptorus.MarkovPoint.parse(args.dst)
    res = ptorus.thurston_distance(
        src, dst, tol=args.tol, max_depth=args.max_depth,
        certified_bound=args.certified_bound,
    )
    if args.certified_bound:
        _note_uncertified(res, args)
    else:
        _note_cut_sweep(res, args)
    out = {
        "command": args.command,
        "from": src.to_json_dict(),
        "to": dst.to_json_dict(),
        "distance": math.log(res.value),
        "engine": _engine_meta(res, args),
    }
    return out, res.certified


def _run_norm_teich(args: argparse.Namespace):
    at = torus.TorusPoint.parse(args.at)
    v = torus.TangentVector(args.vx, args.vy)
    value = torus.teich_norm(at, v)
    out = {
        "command": args.command,
        "at": str(at),
        "vx": v.vx,
        "vy": v.vy,
        "norm": value,
        "certified": True,
    }
    return out, True


def _run_norm_thurston(args: argparse.Namespace):
    at = ptorus.MarkovPoint.parse(args.at)
    # The norm is homogeneous: scale the tangent and tol by 2^-e (exact) so that the
    # lift and objectives run in normal floats, neither overflowing nor subnormal;
    # e stays large enough that tol * 2^-e is finite
    e = max(math.frexp(max(abs(args.vx), abs(args.vy)))[1], math.frexp(args.tol)[1] - 1024)
    v = ptorus.tangent_from_chart(at, math.ldexp(args.vx, -e), math.ldexp(args.vy, -e))
    res = ptorus.thurston_norm(at, v, tol=math.ldexp(args.tol, -e), max_depth=args.max_depth)
    _note_cut_sweep(res, args)
    engine = _engine_meta(res, args)
    engine["value"] = value = math.ldexp(res.value, e)
    out = {
        "command": args.command,
        "at": at.to_json_dict(),
        "chart_vx": args.vx,
        "chart_vy": args.vy,
        "norm": value,
        "engine": engine,
    }
    return out, res.certified


def _run_dual_sphere(args: argparse.Namespace):
    at = torus.TorusPoint.parse(args.at)
    n = args.samples
    samples = torus.dual_sphere_with_directions(at, n)
    if args.format == "json":
        out = {
            "command": args.command,
            "at": str(at),
            "samples": n,
            "method": "closed form, exact per sample",
            "points": [
                {"gx": g.gx, "gy": g.gy, "angle": theta} for theta, g in samples
            ],
        }
        return out, True
    rows = [(g.gx, g.gy, _direction_label(theta)) for theta, g in samples]
    header = ["gx", "gy", "slope_or_angle"]
    meta = f"# dual unit sphere of extremal-length differentials at={at} samples={n} method=closed-form"
    return (meta, header, rows), True


def _direction_label(theta: float) -> str:
    """Label axis directions by their slope, others by the angle."""
    if theta == 0.0:
        return "1/0"
    if abs(theta - math.pi / 2) < 1e-15:
        return "0/1"
    return repr(theta)


def _run_converge_boundary(args: argparse.Namespace):
    base = ptorus.MarkovPoint.parse(args.base)
    about = Slope.parse(args.about)
    ks = [int(part) for part in args.ks.split(",") if part]
    lams = [Slope.parse(part) for part in args.slopes.split(",") if part]
    rows = []
    certified = True
    for k in ks:
        try:
            point = ptorus.dehn_twist(base, about, k)
        except OverflowError as exc:
            raise OverflowError(f"--ks {k}: {exc}") from exc
        res = ptorus.thurston_distance(base, point, tol=args.tol, max_depth=args.max_depth)
        _note_cut_sweep(res, args, f" for k={k}")
        stretch = res.value
        certified = certified and res.certified
        for s in lams:
            ell = ptorus.length(point, ptorus.WeightedLamination(1.0, s))
            rows.append(
                {
                    "k": k,
                    "slope": str(s),
                    "length": ell,
                    "stretch": stretch,
                    "normalized_value": ell / stretch,
                    "intersection_with_twist": intersection_number(about, s),
                    "certified": res.certified,
                }
            )
    if args.format == "json":
        out = {
            "command": args.command,
            "base": base.to_json_dict(),
            "about": str(about),
            "tol": args.tol,
            "max_depth": args.max_depth,
            "rows": rows,
        }
        return out, certified
    header = ["k", "slope", "length", "stretch", "normalized_value"]
    meta = (
        f"# normalized length functional along twists about {about} of {base}"
        f" tol={args.tol!r} max_depth={args.max_depth} certified={str(certified).lower()}"
    )
    floats = ("length", "stretch", "normalized_value")
    csv_rows = [(r["k"], r["slope"], *(r[f] for f in floats)) for r in rows]
    return (meta, header, csv_rows), certified


def _run_converge_gm(args: argparse.Namespace):
    base = torus.TorusPoint.parse(args.base)
    ks = [int(part) for part in args.ks.split(",") if part]
    lams = [Slope.parse(part) for part in args.slopes.split(",") if part]
    rows = []
    for k in ks:
        point = torus.TorusPoint(base.x + k, base.y)
        growth = math.exp(torus.teich_distance_oracle(base, point))
        for s in lams:
            root = torus.extremal_length_root(torus.WeightedFoliation(1.0, s), point)
            rows.append((k, str(s), root, growth, root / growth))
    if args.format == "json":
        out = {
            "command": args.command,
            "base": str(base),
            "rows": [
                {
                    "k": k,
                    "slope": s,
                    "ext_root": r,
                    "dilatation_root": g,
                    "normalized_value": nv,
                }
                for k, s, r, g, nv in rows
            ],
        }
        return out, True
    header = ["k", "slope", "ext_root", "dilatation_root", "normalized_value"]
    meta = f"# normalized extremal-length functional along twists of {base} method=closed-form"
    return (meta, header, rows), True


def _run_gardiner_check(args: argparse.Namespace):
    at = torus.TorusPoint.parse(args.at)
    n = args.samples
    if n < 1:
        raise ValueError("samples must be at least 1")
    import random  # only this command draws: at module level every call paid ~1 ms for it

    rng = random.Random(args.seed)
    slopes = enumerate_slopes(6)
    worst = 0.0
    for _ in range(n):
        lam = torus.WeightedFoliation(rng.uniform(0.5, 2.0), rng.choice(slopes))
        v = torus.TangentVector(rng.uniform(-2, 2), rng.uniform(-2, 2))
        phi = torus.quad_diff_of_foliation(lam, at)
        lhs = torus.gardiner_pairing(phi, v, at)
        rhs = torus.d_extremal(lam, at).pair(v)
        denom = max(abs(rhs), 1e-12)
        worst = max(worst, abs(lhs - rhs) / denom)
    out = {
        "command": args.command,
        "at": str(at),
        "samples": n,
        "seed": args.seed,
        "max_rel_err": worst,
        "tol": args.tol,
        "pass": worst <= args.tol,
    }
    return out, True


def _render(payload, fmt: str) -> str:
    """The payload as text; a value that is not finite is a numeric fault."""
    if fmt == "json":
        try:
            return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
        except ValueError:
            raise FloatingPointError("a value in the output is not finite") from None
    meta, header, rows = payload
    if not all(math.isfinite(v) for row in rows for v in row if isinstance(v, float)):
        raise FloatingPointError("a value in the output is not finite")
    lines = [meta, ",".join(header)]
    lines += (",".join(v if isinstance(v, str) else repr(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _new_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torusmetrics",
        description=(
            "Distances, Finsler norms and dual convex bodies for the Thurston "
            "and Teichmuller metrics on the torus models"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, run, csv=False):
        p.set_defaults(run=run, format="json")
        p.add_argument("--output", default=None, help="output file (default stdout)")
        if csv:
            p.add_argument("--format", choices=("json", "csv"), default="json")

    def search(p, run, depth_default, csv=False):
        p.add_argument("--tol", type=float, default=1e-6)
        p.add_argument("--max-depth", type=int, default=depth_default)
        p.add_argument("--require-certified", action="store_true")
        common(p, run, csv)

    p = sub.add_parser("dist-teich", help="Teichmuller distance between torus points")
    p.add_argument("--from", dest="src", required=True, metavar="X+YI")
    p.add_argument("--to", dest="dst", required=True, metavar="X+YI")
    search(p, _run_dist_teich, None)

    p = sub.add_parser("dist-thurston", help="directed Thurston distance between Markov points")
    p.add_argument("--from", dest="src", required=True, metavar="X,Y,Z")
    p.add_argument("--to", dest="dst", required=True, metavar="X,Y,Z")
    p.add_argument("--certified-bound", action="store_true",
                   help="prune a best-first search with a sound subtree bound, "
                        "so the result can be certified")
    search(p, _run_dist_thurston, 12)

    p = sub.add_parser("norm-teich", help="Teichmuller Finsler norm of a tangent vector")
    p.add_argument("--at", required=True, metavar="X+YI")
    p.add_argument("--vx", type=float, required=True)
    p.add_argument("--vy", type=float, required=True)
    common(p, _run_norm_teich)

    p = sub.add_parser("norm-thurston", help="Thurston Finsler norm of a chart tangent")
    p.add_argument("--at", required=True, metavar="X,Y,Z")
    p.add_argument("--vx", type=float, required=True, help="chart dx component")
    p.add_argument("--vy", type=float, required=True, help="chart dy component")
    search(p, _run_norm_thurston, 12)

    p = sub.add_parser("dual-sphere", help="sample the dual sphere of extremal-length differentials")
    p.add_argument("--at", required=True, metavar="X+YI")
    p.add_argument("--samples", type=int, default=256)
    common(p, _run_dual_sphere, csv=True)

    p = sub.add_parser("converge-boundary", help="normalized lengths along a twist sequence")
    p.add_argument("--base", required=True, metavar="X,Y,Z")
    p.add_argument("--about", default="1/0", metavar="P/Q")
    p.add_argument("--ks", default="10,25,50", help="comma-separated twist counts")
    p.add_argument("--slopes", default="0/1,1/1,1/2", help="comma-separated slopes to track")
    search(p, _run_converge_boundary, 12, csv=True)

    p = sub.add_parser("converge-gm", help="normalized extremal lengths along a twist sequence")
    p.add_argument("--base", required=True, metavar="X+YI")
    p.add_argument("--ks", default="10,25,50")
    p.add_argument("--slopes", default="0/1,1/1,1/2")
    common(p, _run_converge_gm, csv=True)

    p = sub.add_parser("gardiner-check", help="variational formula against the exact gradient")
    p.add_argument("--at", required=True, metavar="X+YI")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=20240101)
    p.add_argument("--tol", type=float, default=1e-6, help="pass threshold on max_rel_err")
    common(p, _run_gardiner_check)

    return parser


# built once, at import: parsing keeps no state between calls
_PARSER = _new_parser()


def main(argv=None) -> int:
    """Run one command line in-process; returns the exit status."""
    args = _PARSER.parse_args(argv)
    try:
        if "tol" in args and not 0 < args.tol < math.inf:
            raise ValueError("tol must be positive and finite")
        if getattr(args, "max_depth", None) is not None and args.max_depth < 1:
            raise ValueError("max-depth must be at least 1")
        payload, certified = args.run(args)
        text = _render(payload, args.format)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: numeric fault ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 1
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    # only the searches can return uncertified results, and only they take the flag
    if not certified and args.require_certified:
        print("error: result was not certified at the requested tolerance", file=sys.stderr)
        return 3
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
