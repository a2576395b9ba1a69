"""Command-line front end: every experiment as a reproducible subcommand.

Exit codes: 0 success, 1 numerical-accuracy failure (the message names the
violated tolerance), 2 usage error.  All tabular output goes to --out (or
stdout) as CSV or JSON; JSON payloads carry the resolved config, a version
string, and any fits, and contain nothing run-dependent, so identical
invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from . import __version__, acceptance, bands, linearization, transition
from .asymptotics import empirical_ratio, limit_constant, model_triples
from .dynamics import GeodesicState, integrate, neck_transit
from .errors import AccuracyError, IntegrationStallError
from .experiments import (
    ExperimentConfig,
    distortion_suite,
    scaling_suite,
    tail_estimate,
)
from .outputs import (
    BAND_COLUMNS,
    SCAN_COLUMNS,
    TRAJECTORY_COLUMNS,
    ZETA_COLUMNS,
    csv_text,
    json_payload,
    json_text,
    trajectory_rows,
)
from .surface import SurfaceProfile

_DEFAULTS = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    g = common.add_argument_group("common")
    for key, text in (
        ("r", "profile exponent"),
        ("eps0", "neck half-width"),
        ("n0", "shallowest tracked band"),
        ("seed", "RNG seed"),
        ("samples", "Monte-Carlo sample count"),
        ("n_min", "smallest band index"),
        ("n_max", "largest band index"),
        ("threads", "accepted and ignored; tails runs on one thread"),
    ):
        default = _DEFAULTS[key]
        g.add_argument(
            "--" + key.replace("_", "-"),
            type=type(default),
            help=f"{text} (default {default})",
        )
    g.add_argument("--out", help="output file (default stdout)")
    g.add_argument("--format", choices=("csv", "json"), help="output format")
    g.add_argument("--config", help="key=value file; flags override it")

    p = argparse.ArgumentParser(
        prog="neckflow",
        description="geodesic neck dynamics: transits, bands, tails, scans",
    )
    p.add_argument("--version", action="version", version=f"neckflow {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("geodesic", parents=[common], help="integrate one orbit")
    sp.add_argument("--s", type=float, default=-1.0, help="initial meridian value")
    sp.add_argument("--theta", type=float, default=0.0)
    sp.add_argument("--psi", type=float, required=True, help="initial angle")
    sp.add_argument("--time", type=float, default=50.0, help="integration horizon")
    sp.add_argument("--points", type=int, default=1000, help="output sample count")
    sp.add_argument(
        "--tol", type=float, default=1e-8, help="Clairaut drift tolerance (default 1e-08)"
    )
    sp.set_defaults(func=cmd_geodesic, default_format="csv")

    sp = sub.add_parser("transit", parents=[common], help="one analytic-vs-ODE transit")
    sp.add_argument("--psi", type=float, help="entry angle at s=-eps0")
    sp.add_argument("--band", type=int, help="band index (alternative to --psi)")
    sp.add_argument("--side", choices=bands.SIDES, default=bands.CROSSING)
    sp.set_defaults(func=cmd_transit, default_format="json")

    sp = sub.add_parser("zeta", parents=[common], help="transition map over bands")
    sp.set_defaults(func=cmd_zeta, default_format="csv")

    sp = sub.add_parser("bands", parents=[common], help="band geometry table")
    sp.set_defaults(func=cmd_bands, default_format="csv")

    sp = sub.add_parser("tails", parents=[common], help="residence-time tail fit")
    sp.set_defaults(func=cmd_tails, default_format="json")

    sp = sub.add_parser("scaling", parents=[common], help="band scaling exponents")
    sp.set_defaults(func=cmd_scaling, default_format="json")

    sp = sub.add_parser("distortion", parents=[common], help="distortion statistic")
    sp.set_defaults(func=cmd_distortion, default_format="json")

    sp = sub.add_parser(
        "asymptotics", parents=[common], help="model-integral convergence table"
    )
    sp.set_defaults(func=cmd_asymptotics, default_format="csv")

    sp = sub.add_parser(
        "hyperbolicity", parents=[common], help="horocycle curvature scan"
    )
    sp.add_argument("--relax-time", type=float, default=20.0)
    sp.add_argument("--spread-tol", type=float, default=0.25)
    sp.set_defaults(func=cmd_hyperbolicity, default_format="csv")

    sp = sub.add_parser("report", parents=[common], help="run the acceptance suite")
    sp.add_argument(
        "--only",
        type=int,
        nargs="+",
        metavar="N",
        help="criterion numbers to run (default: all)",
    )
    sp.set_defaults(func=cmd_report, default_format="json")
    return p


def _load_config_file(path: str) -> dict:
    values = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {raw.strip()!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            values[key.replace("-", "_")] = val
    return values


def resolve(args: argparse.Namespace) -> dict:
    """Merge builtin defaults, config file, and explicit flags (in that order)."""
    merged = dict(_DEFAULTS)
    if getattr(args, "config", None):
        file_vals = _load_config_file(args.config)
        for key, val in file_vals.items():
            if key not in _DEFAULTS:
                raise ValueError(f"unknown config key {key!r}")
            merged[key] = type(_DEFAULTS[key])(val)
    for key in _DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    return merged


def _profile(cfg: dict) -> SurfaceProfile:
    return SurfaceProfile(r=cfg["r"], eps0=cfg["eps0"])


def _emit(args, cfg, rows=None, columns=None, tables=None, fits=None, fmt=None) -> None:
    fmt = fmt or args.format or args.default_format
    if fmt == "csv":
        text = csv_text(rows or [], columns)
    else:
        tables = dict(tables or {})
        if rows is not None:
            tables.setdefault("rows", rows)
        # threads is accepted and ignored, so it is not echoed
        echo = {key: val for key, val in cfg.items() if key != "threads"}
        text = json_text(json_payload(echo, tables, fits or {}))
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _band_range(cfg) -> np.ndarray:
    return np.unique(np.geomspace(cfg["n_min"], cfg["n_max"], 12).astype(int))


def cmd_geodesic(args, cfg) -> int:
    profile = _profile(cfg)
    state = GeodesicState(s=args.s, theta=args.theta, psi=args.psi)
    path = integrate(profile, state, (0.0, args.time), drift_tol=args.tol)
    ts = np.linspace(0.0, path.t_end, args.points)
    rows = trajectory_rows(path.sample(ts))
    _emit(
        args,
        {**cfg, **{key: getattr(args, key) for key in ("s", "theta", "psi", "time", "tol")}},
        rows=rows,
        columns=TRAJECTORY_COLUMNS,
        tables={"drift": path.drift, "terminated": path.terminated},
    )
    return 0


def _entry_angle(args, profile, n0: int) -> float:
    if args.psi is not None:
        return args.psi
    if args.band is not None:
        _, psi = bands.band_midpoint(profile, args.band, args.side, n0)
        return psi
    raise ValueError("transit needs --psi or --band")


def cmd_transit(args, cfg) -> int:
    profile = _profile(cfg)
    psi = _entry_angle(args, profile, cfg["n0"])
    tr = neck_transit(profile, GeodesicState(-profile.eps0, 0.0, psi))
    ev = transition.evaluate(profile, psi, with_derivs=False)
    row = {
        "psi": psi,
        "klass": tr.klass.value,
        "transit_time": tr.transit_time,
        "dtheta": tr.dtheta,
        "exit_s": tr.exit.s,
        "exit_psi": tr.exit.psi,
        "zeta": ev.zeta,
        "upsilon0": ev.upsilon0,
        "time_vs_quadrature": tr.transit_time - 2.0 * ev.upsilon0,
        "angle_vs_quadrature": abs(tr.dtheta) - ev.zeta,
    }
    _emit(args, {**cfg, "psi": psi}, rows=[row], columns=list(row))
    return 0


def cmd_zeta(args, cfg) -> int:
    profile = _profile(cfg)
    rows = transition.tabulate_bands(profile, _band_range(cfg), n0=cfg["n0"])
    _emit(args, cfg, rows=rows, columns=ZETA_COLUMNS)
    return 0


def cmd_bands(args, cfg) -> int:
    profile = _profile(cfg)
    rows = []
    for n in _band_range(cfg):
        for side in bands.SIDES:
            (c_lo, c_hi), (p_lo, p_hi) = bands.band_boundaries(
                profile, int(n), side, n0=cfg["n0"]
            )
            rows.append(
                {
                    "n": int(n),
                    "side": side,
                    "c_lo": c_lo,
                    "c_hi": c_hi,
                    "psi_lo": p_lo,
                    "psi_hi": p_hi,
                    "width": p_hi - p_lo,
                    "width_asymptote": bands.width_asymptote(profile, int(n)),
                    "accumulation": bands.accumulation_distance(
                        profile, int(n), side, n0=cfg["n0"]
                    ),
                }
            )
    _emit(args, cfg, rows=rows, columns=BAND_COLUMNS)
    return 0


def cmd_tails(args, cfg) -> int:
    est = tail_estimate(ExperimentConfig(**cfg))
    rows = [
        {"threshold": float(t), "survivors": int(k), "survival": float(k) / est.total}
        for t, k in zip(est.thresholds, est.counts)
    ]
    _emit(
        args,
        cfg,
        rows=rows,
        columns=["threshold", "survivors", "survival"],
        tables={"exponent": est.exponent, "dropped_thresholds": list(est.dropped)},
        fits={"survival": est.fit},
    )
    return 0


def cmd_scaling(args, cfg) -> int:
    suite = scaling_suite(ExperimentConfig(**cfg))
    _emit(
        args,
        cfg,
        rows=list(suite.rows),
        columns=list(suite.rows[0].keys()),
        fits=suite.fits,
    )
    return 0


def cmd_distortion(args, cfg) -> int:
    suite = distortion_suite(ExperimentConfig(**cfg))
    _emit(
        args,
        cfg,
        rows=list(suite.rows),
        columns=["n", "m_n"],
        fits=suite.fits,
    )
    return 0


def cmd_asymptotics(args, cfg) -> int:
    r = cfg["r"]
    rows = []
    for kind, alpha, beta, q in model_triples(r):
        b_floor = 1e-6 if kind == "1a" else 1e-4
        b_values = np.geomspace(1e-2, b_floor, 5)
        constant = limit_constant(kind, r, alpha, q=q, beta=beta)
        ratios = empirical_ratio(
            kind, r, alpha, b_values, eps=2.0, q=q, beta=beta
        )
        for b, ratio in zip(b_values, ratios):
            rows.append(
                {
                    "kind": kind,
                    "alpha": alpha,
                    "beta": beta,
                    "q": q,
                    "b": float(b),
                    "limit_constant": constant,
                    "ratio": float(ratio),
                }
            )
    _emit(
        args,
        cfg,
        rows=rows,
        columns=["kind", "alpha", "beta", "q", "b", "limit_constant", "ratio"],
    )
    return 0


def cmd_hyperbolicity(args, cfg) -> int:
    profile = _profile(cfg)
    scan = linearization.horocycle_scan(
        profile, relax_time=args.relax_time, spread_tol=args.spread_tol
    )
    _emit(
        args,
        {**cfg, "relax_time": args.relax_time, "spread_tol": args.spread_tol},
        rows=scan.rows,
        columns=SCAN_COLUMNS,
        tables={
            "c3": scan.c3,
            "c4": scan.c4,
            "c7": scan.c7,
            "frac_unconfident": scan.frac_unconfident,
        },
    )
    return 0


def cmd_report(args, cfg) -> int:
    results = acceptance.run_all(args.only)
    payload = acceptance.report_payload(results)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] criterion {res.number}: {res.name} ({res.runtime:.1f}s)")
    # the report is a nested document, so it is JSON whatever --format says
    _emit(args, cfg, tables={"report": payload}, fmt="json")
    return 0 if payload["passed"] else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve(args)
        return args.func(args, cfg)
    except (AccuracyError, IntegrationStallError) as exc:
        print(f"neckflow: accuracy failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"neckflow: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
