"""Command-line front end: flow extraction, sublevel-growth checks, cube
covers, and equidistribution sweeps, with reproducible artifacts.

Every run writes its resolved configuration (with a content hash) next to
its outputs; identical configuration and seed give byte-identical files
for any worker count.  Exit codes: 0 ok, 1 invariant failure, 2 usage,
3 catalog error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .catalog import get_map
from .errors import BoxflowError, CatalogError
from .experiment import _fmt, convergence_sweep, twodim_bcondition_sweep
from .flowlimit import (
    compute_flow,
    flow_of,
    group_law_check,
    normalize_exponents,
    rescale,
    twodim_flow,
)
from .goodness import (
    BoxRegion,
    besicovitch_select,
    good_inequality_check,
    poly_grid_fn,
)
from .homspace import parse_observable
from .polyalg import parse_poly

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_USAGE = 2
EXIT_CATALOG = 3

OUT_ENV = "BOXFLOW_OUT"


def _parse_fractions(text: str):
    return tuple(Fraction(part) for part in text.split(","))


def _parse_floats(text: str):
    return tuple(float(part) for part in text.split(","))


def _parse_box(text: str) -> BoxRegion:
    lows, highs = [], []
    for axis in text.split(";"):
        lo, hi = axis.split(",")
        lows.append(float(lo))
        highs.append(float(hi))
    return BoxRegion(tuple(lows), tuple(highs))


def _parse_pair(text: str):
    n, k = (int(v) for v in text.split(","))
    return n, k


def _parse_observables(text: str):
    return [parse_observable(o) for o in text.split(",")]


def _typed(parse, expected: str, keep_text: bool = False):
    """``parse`` as an argparse ``type``: text it cannot read as a number
    is a usage error (exit 2).  With ``keep_text`` the option keeps its
    checked text, which the run configuration records verbatim."""

    def convert(text):
        try:
            value = parse(text)
        except (ValueError, ZeroDivisionError):
            raise argparse.ArgumentTypeError(
                f"expected {expected}, got {text!r}") from None
        return text if keep_text else value

    return convert


def _points_file(path: str):
    """(path, rows) of a ``cover --points`` CSV file; a file that cannot be
    read as rows of numbers is a usage error (exit 2)."""
    try:
        with open(path, encoding="utf-8") as fh:
            return path, np.loadtxt(fh, delimiter=",", ndmin=2)
    except (OSError, ValueError) as err:
        raise argparse.ArgumentTypeError(f"cannot read {path!r}: {err}") from None


def _resolve_out(args) -> Path:
    out = args.out or os.environ.get(OUT_ENV) or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def _write_run(out_dir: Path, name: str, config: dict, artifacts: dict) -> str:
    """Persist the resolved config plus artifacts; returns the config hash.

    The worker count is execution machinery, never part of the config, so
    rerunning with a different parallelism yields identical bytes.
    """
    digest = _config_hash(config)
    payload = dict(config)
    payload["config_hash"] = digest
    (out_dir / f"{name}_config.json").write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    for fname, text in artifacts.items():
        (out_dir / fname).write_text(text, encoding="utf-8")
    return digest


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_flow(args) -> int:
    entry = get_map(args.map, args.catalog)
    out_dir = _resolve_out(args)
    if args.twodim:
        if entry.k != 2:
            print(f"map {entry.name} is not two-variable", file=sys.stderr)
            return EXIT_USAGE
        res = twodim_flow(entry.matrix, *entry.map_vars)
        lines = [
            f"map: {entry.name}",
            f"q = {res.q}",
            f"d0 = {res.d0}",
            f"generator(y) = {res.lambda_of_y}",
            f"d = {res.d}",
            f"leading = {res.lambda0}",
            f"p = {res.p}",
            f"b = {res.b}",
            f"flow(s) = {res.flow()}",
            f"ratio set = {[(str(t), str(r)) for t, r in res.ratio_set]}",
            f"dominant ratio = {res.dominant_ratio}",
        ]
        machine = {
            "map": entry.name,
            "q": str(res.q),
            "d0": res.d0,
            "generator_y": res.lambda_of_y.to_text(),
            "d": res.d,
            "leading": res.lambda0.to_text(),
            "p": res.p,
            "b": str(res.b),
            "flow": res.flow().to_text(),
            "ratio_set": [[str(t), str(r)] for t, r in res.ratio_set],
            "dominant_ratio": (
                [str(v) for v in res.dominant_ratio]
                if res.dominant_ratio
                else None
            ),
        }
        config = {
            "subcommand": "flow",
            "map": entry.name,
            "twodim": True,
            "seed": args.seed,
        }
    else:
        lam = args.lam or entry.default_lambda
        c, lam_norm = normalize_exponents(lam)
        theta = rescale(entry.matrix, lam_norm, entry.map_vars)
        res = compute_flow(theta)
        report = group_law_check(res, trials=args.trials, seed=args.seed)
        if not report.passed:
            print("group-law check failed:", *report.failures, file=sys.stderr)
            return EXIT_INVARIANT
        lines = [
            f"map: {entry.name}",
            f"lambda = {','.join(str(v) for v in lam)}",
            f"normalization c = {c}; scaled lambda = "
            f"{','.join(str(v) for v in lam_norm)}",
            f"q = {res.q}",
            f"d = {res.d}",
        ]
        for i, m in enumerate(res.limits, start=1):
            lines.append(f"M_{i} = {m}")
        lines.append(f"generator = {res.generator}")
        lines.append(f"flow(s) = {flow_of(res)}")
        lines.append(
            "degenerate locus = "
            + "; ".join(p.to_text() for p in res.degenerate_locus)
        )
        lines.append(
            f"group law: exact symbolic pass, exp deviation "
            f"{report.exp_max_err:.3e} over {report.trials} trials"
        )
        machine = {
            "map": entry.name,
            "lambda": [str(v) for v in lam],
            "c": str(c),
            "lambda_scaled": [str(v) for v in lam_norm],
            "q": str(res.q),
            "d": res.d,
            "limits": [m.to_text() for m in res.limits],
            "generator": res.generator.to_text(),
            "flow": flow_of(res).to_text(),
            "degenerate_locus": [p.to_text() for p in res.degenerate_locus],
            "group_law_passed": report.passed,
        }
        config = {
            "subcommand": "flow",
            "map": entry.name,
            "lambda": [str(v) for v in lam],
            "trials": args.trials,
            "seed": args.seed,
        }
    digest = _write_run(
        out_dir,
        "flow",
        config,
        {
            "flow.txt": "\n".join(lines) + "\n",
            "flow.json": json.dumps(machine, indent=2) + "\n",
        },
    )
    print("\n".join(lines))
    print(f"config hash: {digest}; artifacts in {out_dir}")
    return EXIT_OK


def _cmd_good(args) -> int:
    poly = parse_poly(args.poly)
    box = args.box
    var_order = args.poly_vars.split(",") if args.poly_vars else sorted(
        poly.variables()
    )
    if len(var_order) != box.dim:
        print("box dimension must match the variable count", file=sys.stderr)
        return EXIT_USAGE
    f = poly_grid_fn(poly, var_order)
    alpha = args.alpha
    rows = ["delta,lhs,rhs,holds"]
    lines = []
    failed = False
    for delta in args.deltas:
        chk = good_inequality_check(
            f, box, delta, args.c, alpha, args.grid,
            mc_samples=args.mc_samples, seed=args.seed,
        )
        rows.append(f"{_fmt(delta)},{_fmt(chk.lhs)},{_fmt(chk.rhs)},{chk.holds}")
        lines.append(
            f"delta={delta:g}: lhs={chk.lhs:.6g} rhs={chk.rhs:.6g} "
            f"{'holds' if chk.holds else 'FAILS'}"
        )
        failed = failed or not chk.holds
    config = {
        "subcommand": "good",
        "poly": poly.to_text(),
        "vars": var_order,
        "box": [list(box.lower), list(box.upper)],
        "deltas": list(args.deltas),
        "alpha": str(alpha),
        "C": args.c,
        "grid": args.grid,
        "mc_samples": args.mc_samples,
        "seed": args.seed,
    }
    out_dir = _resolve_out(args)
    digest = _write_run(out_dir, "good", config, {"good.csv": "\n".join(rows) + "\n"})
    print("\n".join(lines))
    print(f"config hash: {digest}; artifacts in {out_dir}")
    return EXIT_INVARIANT if failed else EXIT_OK


def _cmd_cover(args) -> int:
    if args.points:
        path, data = args.points
        centers, halfwidths = data[:, :-1], data[:, -1]
        spec = {"points_file": path}
    else:
        n, k = args.random
        rng = np.random.default_rng(np.random.SeedSequence([args.seed, 0xC04E5]))
        centers = rng.random((n, k)) * 4.0
        halfwidths = rng.random(n) * 0.6 + 0.05
        spec = {"random": [n, k]}
    cover = besicovitch_select(centers, halfwidths, bound=args.bound)
    lines = [
        f"input cubes: {len(halfwidths)}",
        f"selected cubes: {len(cover.halfwidths)}",
        f"coverage: {'total' if cover.covered else 'INCOMPLETE'}",
        f"max multiplicity: {cover.max_multiplicity} "
        f"(configured bound {cover.configured_bound})",
        f"histogram: {cover.multiplicity_histogram}",
    ]
    rows = ["center,halfwidth"]
    for c, h in zip(cover.centers, cover.halfwidths):
        rows.append(";".join(_fmt(v) for v in c) + f",{_fmt(h)}")
    config = {
        "subcommand": "cover",
        **spec,
        "bound": args.bound,
        "seed": args.seed,
    }
    out_dir = _resolve_out(args)
    digest = _write_run(
        out_dir, "cover", config, {"cover.csv": "\n".join(rows) + "\n"}
    )
    print("\n".join(lines))
    print(f"config hash: {digest}; artifacts in {out_dir}")
    ok = cover.covered and cover.within_bound
    return EXIT_OK if ok else EXIT_INVARIANT


def _cmd_equi(args) -> int:
    entry = get_map(args.map, args.catalog)
    observables = _parse_observables(args.obs)
    eps0 = args.eps0
    out_dir = _resolve_out(args)
    if args.t2:
        t2_list = args.t2
        b = args.b
        if b is None:
            b = twodim_flow(entry.matrix, *entry.map_vars).b
        result = twodim_bcondition_sweep(
            entry, b, t2_list, observables, grid=args.grid, eps0_list=eps0,
            seed=args.seed, workers=args.workers, method=args.method,
        )
        config = {
            "subcommand": "equi",
            "map": entry.name,
            "T2": list(t2_list),
            "b": str(b),
            "obs": args.obs,
            "grid": args.grid,
            "eps0": list(eps0),
            "method": args.method,
            "seed": args.seed,
        }
    else:
        lam = args.lam or entry.default_lambda
        T_list = args.T
        J = _parse_box(args.J) if args.J else None
        result = convergence_sweep(
            entry, lam, T_list, observables, J=J, grid=args.grid,
            eps0_list=eps0, seed=args.seed, workers=args.workers,
            method=args.method,
        )
        config = {
            "subcommand": "equi",
            "map": entry.name,
            "lambda": [str(v) for v in lam],
            "T": list(T_list),
            "J": args.J,
            "obs": args.obs,
            "grid": args.grid,
            "eps0": list(eps0),
            "method": args.method,
            "seed": args.seed,
        }
    digest = _write_run(
        out_dir,
        "equi",
        config,
        {"equi.csv": result.csv_text(), "equi_plot.csv": result.plot_text()},
    )
    for row in result.rows:
        print(
            f"T={row.T:g} {row.observable}: average={row.average:.6f} "
            f"reference={row.reference:.6f} rel_gap={row.rel_gap:.4%}"
        )
    print(f"config hash: {digest}; artifacts in {out_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boxflow",
        description="Limiting unipotent flows of polynomial trajectories and "
        "desk-scale equidistribution experiments",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    fractions = _typed(_parse_fractions, "comma-separated rationals")
    floats = _typed(_parse_floats, "comma-separated numbers")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help=f"output directory (or ${OUT_ENV})")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--catalog", help="catalog JSON instead of built-ins")

    p_flow = sub.add_parser("flow", parents=[common],
                            help="extract the limiting flow of a map")
    p_flow.add_argument("--map", required=True)
    p_flow.add_argument("--lambda", dest="lam", type=fractions,
                        help="comma-separated box exponents, e.g. 5/2 or 1,1/2")
    p_flow.add_argument("--twodim", action="store_true",
                        help="joint (x, y) expansion instead of box rescaling")
    p_flow.add_argument("--trials", type=int, default=100)
    p_flow.set_defaults(func=_cmd_flow)

    p_good = sub.add_parser("good", parents=[common],
                            help="sublevel-growth inequality table")
    p_good.add_argument("--poly", required=True, help="polynomial text")
    p_good.add_argument("--poly-vars", help="comma-separated variable order")
    p_good.add_argument("--box", required=True,
                        type=_typed(_parse_box, "lo,hi[;lo,hi...]"),
                        help="lo,hi[;lo,hi...]")
    p_good.add_argument("--deltas", required=True, type=floats,
                        help="comma-separated deltas")
    p_good.add_argument("--alpha", required=True, type=_typed(Fraction, "a rational"),
                        help="rational exponent")
    p_good.add_argument("--C", dest="c", type=float, default=1.0)
    p_good.add_argument("--grid", type=int, default=400)
    p_good.add_argument("--mc-samples", type=int, default=None)
    p_good.set_defaults(func=_cmd_good)

    p_cover = sub.add_parser("cover", parents=[common],
                             help="greedy bounded-multiplicity cube cover")
    group = p_cover.add_mutually_exclusive_group(required=True)
    group.add_argument("--points", type=_points_file,
                       help="CSV of center coords + halfwidth")
    group.add_argument("--random", type=_typed(_parse_pair, "two integers n,k"),
                       help="n,k random instance")
    p_cover.add_argument("--bound", type=int, default=None,
                         help="multiplicity bound (default 2^k + 1)")
    p_cover.set_defaults(func=_cmd_cover)

    p_equi = sub.add_parser("equi", parents=[common],
                            help="equidistribution sweeps")
    p_equi.add_argument("--map", required=True)
    p_equi.add_argument("--lambda", dest="lam", type=fractions,
                        help="box exponents (default: catalog entry)")
    p_equi.add_argument("--T", type=floats, help="comma-separated box parameters")
    p_equi.add_argument("--t2", type=floats, help="comma-separated T2 list "
                        "(two-variable box-exponent sweep)")
    p_equi.add_argument("--b", type=_typed(Fraction, "a rational"),
                        help="box exponent for the T2 sweep "
                        "(default: extracted from the map)")
    p_equi.add_argument("--J", type=_typed(_parse_box, "lo,hi;lo,hi", keep_text=True),
                        help="subbox of the unit cube, lo,hi;lo,hi")
    p_equi.add_argument("--obs", default="siegel:indicator:1",
                        type=_typed(_parse_observables, "siegel:KIND:RADIUS[,...]",
                                    keep_text=True))
    p_equi.add_argument("--grid", type=int, default=200)
    p_equi.add_argument("--eps0", type=floats, default="0.1,0.05")
    p_equi.add_argument("--method", default="grid",
                        choices=("grid", "jitter", "mc"))
    p_equi.add_argument("--workers", type=int, default=1)
    p_equi.set_defaults(func=_cmd_equi)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        # the option types build observables and boxes, whose invariant
        # failures exit 1 as the subcommands' do
        args = parser.parse_args(argv)
        if args.subcommand == "equi" and not (args.T or args.t2):
            parser.error("equi needs --T or --t2")
        return args.func(args)
    except CatalogError as err:
        print(f"catalog error: {err}", file=sys.stderr)
        return EXIT_CATALOG
    except BoxflowError as err:
        print(f"invariant failure: {err}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
