"""Command-line front end: distances, norms, dual spheres, experiments.

Every command writes one machine-readable artifact (JSON or CSV) to the
output path or stdout, carrying the tolerance and certification metadata
that produced each number.  Runs are deterministic: identical arguments
produce byte-identical output.

Exit codes: 0 success, 2 malformed or out-of-chart input points, 3 when
--require-certified is set and an enumerated supremum was not certified.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from dataclasses import dataclass

from . import ptorus, torus
from .errors import InvalidPointError
from .farey import Slope, intersection_number
from .supratio import SupRatioResult

__all__ = ["RunConfig", "run", "main", "entry"]

_COMMANDS = (
    "dist-teich",
    "dist-thurston",
    "norm-teich",
    "norm-thurston",
    "dual-sphere",
    "converge-boundary",
    "converge-gm",
    "gardiner-check",
)


@dataclass
class RunConfig:
    """A fully parsed invocation; ``options`` holds per-command parameters."""

    command: str
    options: dict
    tol: float
    max_depth: int
    output_path: str | None
    format: str
    require_certified: bool = False

    def __post_init__(self):
        if self.command not in _COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_depth < 1:
            raise ValueError("max-depth must be at least 1")
        if self.format not in ("json", "csv"):
            raise ValueError(f"unknown format {self.format!r}")


def _engine_meta(res: SupRatioResult, cfg: RunConfig) -> dict:
    meta = res.to_json_dict()
    meta["tol"] = cfg.tol
    meta["max_depth"] = cfg.max_depth
    return meta


def _note_cut_sweep(res: SupRatioResult, cfg: RunConfig) -> None:
    """Say on stderr when max_evals stopped an exhaustive sweep short of max_depth."""
    full = 3 * 2 ** cfg.max_depth  # slopes of depth <= max_depth (see farey.enumerate_slopes)
    if res.evals < full:
        print(
            f"note: max_evals stopped the sweep at depth {res.depth_reached} of "
            f"{cfg.max_depth} after {res.evals} of {full} evaluations",
            file=sys.stderr,
        )


def _run_dist_teich(cfg: RunConfig):
    src = torus.TorusPoint.parse(cfg.options["src"])
    dst = torus.TorusPoint.parse(cfg.options["dst"])
    res = torus.teich_distance_enum(src, dst, tol=cfg.tol, max_depth=cfg.max_depth)
    out = {
        "command": cfg.command,
        "from": str(src),
        "to": str(dst),
        "distance": 0.5 * math.log(res.value),
        "engine": _engine_meta(res, cfg),
    }
    return out, res.certified


def _run_dist_thurston(cfg: RunConfig):
    src = ptorus.MarkovPoint.parse(cfg.options["src"])
    dst = ptorus.MarkovPoint.parse(cfg.options["dst"])
    res = ptorus.thurston_distance(
        src, dst, tol=cfg.tol, max_depth=cfg.max_depth,
        certified_bound=cfg.options["certified_bound"],
    )
    if not cfg.options["certified_bound"]:
        _note_cut_sweep(res, cfg)
    out = {
        "command": cfg.command,
        "from": src.to_json_dict(),
        "to": dst.to_json_dict(),
        "distance": math.log(res.value),
        "engine": _engine_meta(res, cfg),
    }
    return out, res.certified


def _run_norm_teich(cfg: RunConfig):
    at = torus.TorusPoint.parse(cfg.options["at"])
    v = torus.TangentVector(cfg.options["vx"], cfg.options["vy"])
    value = torus.teich_norm(at, v)
    out = {
        "command": cfg.command,
        "at": str(at),
        "vx": v.vx,
        "vy": v.vy,
        "norm": value,
        "certified": True,
        "tol": cfg.tol,
        "max_depth": cfg.max_depth,
    }
    return out, True


def _run_norm_thurston(cfg: RunConfig):
    at = ptorus.MarkovPoint.parse(cfg.options["at"])
    v = ptorus.tangent_from_chart(at, cfg.options["vx"], cfg.options["vy"])
    res = ptorus.thurston_norm(at, v, tol=cfg.tol, max_depth=cfg.max_depth)
    _note_cut_sweep(res, cfg)
    out = {
        "command": cfg.command,
        "at": at.to_json_dict(),
        "chart_vx": cfg.options["vx"],
        "chart_vy": cfg.options["vy"],
        "norm": res.value,
        "engine": _engine_meta(res, cfg),
    }
    return out, res.certified


def _run_dual_sphere(cfg: RunConfig):
    at = torus.TorusPoint.parse(cfg.options["at"])
    n = cfg.options["samples"]
    samples = torus.dual_sphere_with_directions(at, n)
    if cfg.format == "json":
        out = {
            "command": cfg.command,
            "at": str(at),
            "samples": n,
            "method": "closed form, exact per sample",
            "points": [
                {"gx": g.gx, "gy": g.gy, "angle": theta} for theta, g in samples
            ],
        }
        return out, True
    rows = [(repr(g.gx), repr(g.gy), _direction_label(theta)) for theta, g in samples]
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


def _run_converge_boundary(cfg: RunConfig):
    base = ptorus.MarkovPoint.parse(cfg.options["base"])
    about = Slope.parse(cfg.options["about"])
    ks = cfg.options["ks"]
    lams = [Slope.parse(s) for s in cfg.options["slopes"]]
    rows = []
    results = []
    certified = True
    for k in ks:
        try:
            point = ptorus.dehn_twist(base, about, k)
        except OverflowError as exc:
            raise ValueError(f"--ks {k}: {exc}") from exc
        res = ptorus.thurston_distance(base, point, tol=cfg.tol, max_depth=cfg.max_depth)
        stretch = res.value
        certified = certified and res.certified
        for s in lams:
            ell = ptorus.length(point, ptorus.WeightedLamination(1.0, s))
            rows.append((k, str(s), ell, stretch, ell / stretch))
            results.append(
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
    if cfg.format == "json":
        out = {
            "command": cfg.command,
            "base": base.to_json_dict(),
            "about": str(about),
            "tol": cfg.tol,
            "max_depth": cfg.max_depth,
            "rows": results,
        }
        return out, certified
    header = ["k", "slope", "length", "L_X", "normalized_value"]
    meta = (
        f"# normalized length functional along twists about {about} of {base}"
        f" tol={cfg.tol!r} max_depth={cfg.max_depth} certified=false"
    )
    csv_rows = [(str(k), s, repr(l), repr(L), repr(nv)) for k, s, l, L, nv in rows]
    return (meta, header, csv_rows), certified


def _run_converge_gm(cfg: RunConfig):
    base = torus.TorusPoint.parse(cfg.options["base"])
    ks = cfg.options["ks"]
    lams = [Slope.parse(s) for s in cfg.options["slopes"]]
    rows = []
    for k in ks:
        point = torus.TorusPoint(base.x + k, base.y)
        growth = math.exp(torus.teich_distance_oracle(base, point))
        for s in lams:
            root = math.sqrt(
                torus.extremal_length(torus.WeightedFoliation(1.0, s), point)
            )
            rows.append((k, str(s), root, growth, root / growth))
    if cfg.format == "json":
        out = {
            "command": cfg.command,
            "base": str(base),
            "tol": cfg.tol,
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
    header = ["k", "slope", "ext_root", "K_root", "normalized_value"]
    meta = f"# normalized extremal-length functional along twists of {base} method=closed-form"
    csv_rows = [(str(k), s, repr(r), repr(g), repr(nv)) for k, s, r, g, nv in rows]
    return (meta, header, csv_rows), True


def _run_gardiner_check(cfg: RunConfig):
    import random

    at = torus.TorusPoint.parse(cfg.options["at"])
    n = cfg.options["samples"]
    rng = random.Random(cfg.options["seed"])
    from .farey import enumerate_slopes

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
        "command": cfg.command,
        "at": str(at),
        "samples": n,
        "seed": cfg.options["seed"],
        "max_rel_err": worst,
        "tol": cfg.tol,
        "pass": worst <= cfg.tol,
    }
    return out, True


_RUNNERS = {
    "dist-teich": _run_dist_teich,
    "dist-thurston": _run_dist_thurston,
    "norm-teich": _run_norm_teich,
    "norm-thurston": _run_norm_thurston,
    "dual-sphere": _run_dual_sphere,
    "converge-boundary": _run_converge_boundary,
    "converge-gm": _run_converge_gm,
    "gardiner-check": _run_gardiner_check,
}


def _render(payload, cfg: RunConfig) -> str:
    if cfg.format == "json":
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    meta, header, rows = payload
    buf = io.StringIO()
    buf.write(meta + "\n")
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(row) + "\n")
    return buf.getvalue()


def run(cfg: RunConfig) -> int:
    """Execute one command; returns the process exit status."""
    try:
        payload, certified = _RUNNERS[cfg.command](cfg)
    except (InvalidPointError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = _render(payload, cfg)
    if cfg.output_path:
        with open(cfg.output_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if cfg.require_certified and not certified:
        print("error: result was not certified at the requested tolerance", file=sys.stderr)
        return 3
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torusmetrics",
        description=(
            "Distances, Finsler norms and dual convex bodies for the Thurston "
            "and Teichmuller metrics on the torus models"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, depth_default):
        p.add_argument("--tol", type=float, default=1e-6)
        p.add_argument("--max-depth", type=int, default=depth_default)
        p.add_argument("--output", default=None, help="output file (default stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--require-certified", action="store_true")

    p = sub.add_parser("dist-teich", help="Teichmuller distance between torus points")
    p.add_argument("--from", dest="src", required=True, metavar="X+YI")
    p.add_argument("--to", dest="dst", required=True, metavar="X+YI")
    common(p, 256)

    p = sub.add_parser("dist-thurston", help="directed Thurston distance between Markov points")
    p.add_argument("--from", dest="src", required=True, metavar="X,Y,Z")
    p.add_argument("--to", dest="dst", required=True, metavar="X,Y,Z")
    p.add_argument("--certified-bound", action="store_true",
                   help="prune with the collar subtree bound (coarse tolerances only)")
    common(p, 12)

    p = sub.add_parser("norm-teich", help="Teichmuller Finsler norm of a tangent vector")
    p.add_argument("--at", required=True, metavar="X+YI")
    p.add_argument("--vx", type=float, required=True)
    p.add_argument("--vy", type=float, required=True)
    common(p, 256)

    p = sub.add_parser("norm-thurston", help="Thurston Finsler norm of a chart tangent")
    p.add_argument("--at", required=True, metavar="X,Y,Z")
    p.add_argument("--vx", type=float, required=True, help="chart dx component")
    p.add_argument("--vy", type=float, required=True, help="chart dy component")
    common(p, 12)

    p = sub.add_parser("dual-sphere", help="sample the dual sphere of extremal-length differentials")
    p.add_argument("--at", required=True, metavar="X+YI")
    p.add_argument("--samples", type=int, default=256)
    common(p, 1)

    p = sub.add_parser("converge-boundary", help="normalized lengths along a twist sequence")
    p.add_argument("--base", required=True, metavar="X,Y,Z")
    p.add_argument("--about", default="1/0", metavar="P/Q")
    p.add_argument("--ks", default="10,25,50", help="comma-separated twist counts")
    p.add_argument("--slopes", default="0/1,1/1,1/2", help="comma-separated slopes to track")
    common(p, 12)

    p = sub.add_parser("converge-gm", help="normalized extremal lengths along a twist sequence")
    p.add_argument("--base", required=True, metavar="X+YI")
    p.add_argument("--ks", default="10,25,50")
    p.add_argument("--slopes", default="0/1,1/1,1/2")
    common(p, 1)

    p = sub.add_parser("gardiner-check", help="variational formula against the exact gradient")
    p.add_argument("--at", required=True, metavar="X+YI")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=20240101)
    common(p, 6)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    options = {}
    for key in ("src", "dst", "at", "vx", "vy", "samples", "seed", "base", "about"):
        if hasattr(args, key):
            options[key] = getattr(args, key)
    if hasattr(args, "certified_bound"):
        options["certified_bound"] = args.certified_bound
    if hasattr(args, "ks"):
        options["ks"] = [int(part) for part in args.ks.split(",") if part]
    if hasattr(args, "slopes"):
        options["slopes"] = [part for part in args.slopes.split(",") if part]
    return RunConfig(
        command=args.command,
        options=options,
        tol=args.tol,
        max_depth=args.max_depth,
        output_path=args.output,
        format=args.format,
        require_certified=args.require_certified,
    )


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
