"""The package's quantitative acceptance suite.

Each criterion is one function returning a CriterionResult with a pass
flag, the measured numbers, and any failure messages.  The tests and the
CLI `report` subcommand both run exactly these; nothing here is mocked or
scaled down, so a green suite is the package's actual accuracy contract:

 1. Clairaut conservation along 1000 random ODE transits, flowed as one
    dynamics.neck_transits batch with the drift taken at step ends.
 2. ODE transit time / angle advance of 200 entries, one neck_transits
    batch, vs one batch of the graded-panel quadrature.
 3. Band-index scaling exponents at r=4.
 4. Band-index scaling exponents at r=6.
 5. Monte-Carlo residence-time tail exponents at r=4 and r=6.
 6. Band width and accumulation asymptotics.
 7. Model-integral limit ratios and brute-force oracle agreement.
 8. Curvature pinching on the punctured neck.
 9. Jacobi/Riccati consistency, flat closed form and Sasaki sandwich,
    sampled by one linearization.co_flow_rows batch, and horocycle-constant
    scan stability.
10. Bounded-distortion trend flatness.
11. Byte-identical reruns.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import bands, transition
from .asymptotics import fit_exponent, model_table
from .dynamics import neck_transits
from .experiments import (
    ExperimentConfig,
    chunk_rng,
    distortion_suite,
    scaling_suite,
    tail_estimate,
)
from .linearization import co_flow_rows, horocycle_scan, riccati_flat, sasaki_growth
from .outputs import json_payload, json_text
from .surface import SurfaceProfile


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    runtime: float
    details: dict
    failures: tuple[str, ...]


def _result(number, name, t0, details, failures) -> CriterionResult:
    return CriterionResult(
        number=number,
        name=name,
        passed=not failures,
        runtime=time.perf_counter() - t0,
        details=details,
        failures=tuple(failures),
    )


def _check(failures: list, ok: bool, msg: str) -> None:
    if not ok:
        failures.append(msg)


def _in(failures, value, target, tol, label) -> None:
    _check(
        failures,
        abs(value - target) <= tol,
        f"{label} = {value:.6g}, outside {target:.6g} +- {tol:g}",
    )


def _random_entry(profile: SurfaceProfile, rng, u_floor: float = 1e-4) -> float:
    """Uniform entry angle at s = -eps0, rejecting near-asymptotic ones."""
    while True:
        psi = rng.uniform(0.02, 0.5 * math.pi - 0.02)
        c = profile.boundary_radius * math.cos(psi)
        if abs(abs(c) - 1.0) >= u_floor:
            return psi


def criterion_1_conservation(seed: int = 0) -> CriterionResult:
    """Max relative Clairaut drift at step ends of 1000 random transits at rtol 1e-10."""
    t0 = time.perf_counter()
    failures: list[str] = []
    profile = SurfaceProfile(r=4.0, eps0=1.0)
    rng = chunk_rng(seed, 101)
    psi = np.array([_random_entry(profile, rng) for _ in range(1000)])
    *_, drift = neck_transits(profile, psi)
    worst = float(np.max(drift / np.abs(profile.boundary_radius * np.cos(psi))))
    _check(failures, worst <= 1e-8, f"max relative drift {worst:.3e} > 1e-8")
    runtime = time.perf_counter() - t0
    _check(failures, runtime < 30.0, f"runtime {runtime:.1f}s over the 30s budget")
    return _result(1, "clairaut-conservation", t0, {"max_rel_drift": worst}, failures)


def criterion_2_transit_oracle(seed: int = 0) -> CriterionResult:
    """ODE transits vs the transition integrals: times and angle advances to 1e-6."""
    t0 = time.perf_counter()
    failures: list[str] = []
    profile = SurfaceProfile(r=4.0, eps0=1.0)
    rng = chunk_rng(seed, 202)
    psi = []
    for _ in range(200):
        n = int(rng.integers(10, 101))
        side = bands.BOUNCING if rng.random() < 0.5 else bands.CROSSING
        _, (psi_lo, psi_hi) = bands.band_boundaries(profile, n, side)
        psi.append(psi_lo + (0.05 + 0.9 * rng.random()) * (psi_hi - psi_lo))
    transit_time, dtheta, *_ = neck_transits(profile, psi)
    (ups, zeta), _ = transition.excursion_integrals(profile, psi, ("upsilon0", "zeta"))
    worst_t = float(np.max(np.abs(2.0 * ups - transit_time)))
    worst_z = float(np.max(np.abs(zeta - np.abs(dtheta))))
    _check(failures, worst_t <= 1e-6, f"|2*Upsilon0 - transit_time| = {worst_t:.3e}")
    _check(failures, worst_z <= 1e-6, f"|zeta - |dtheta|| = {worst_z:.3e}")
    runtime = time.perf_counter() - t0
    _check(failures, runtime < 60.0, f"runtime {runtime:.1f}s over the 60s budget")
    return _result(
        2,
        "transit-oracle-agreement",
        t0,
        {"max_time_diff": worst_t, "max_angle_diff": worst_z},
        failures,
    )


def _scaling_criterion(number: int, r: float) -> CriterionResult:
    t0 = time.perf_counter()
    failures: list[str] = []
    cfg = ExperimentConfig(r=r, n_min=25, n_max=3200)
    suite = scaling_suite(cfg)
    f = {k: v.exponent for k, v in suite.fits.items()}
    ups, zp, zs = (r - 2.0) / r, 3.0 - 2.0 / r, 5.0 - 2.0 / r
    _in(failures, f["upsilon0_pooled"], ups, 0.05, "upsilon0 exponent")
    for side in bands.SIDES:
        _in(failures, f[f"zeta_prime_{side}"], zp, 0.1, f"|zeta'| exponent ({side})")
        for tag in ("0", "p1", "m1"):
            _in(
                failures,
                f[f"growth_{tag}_{side}"],
                zp,
                0.1,
                f"growth exponent (slope {tag}, {side})",
            )
    _in(failures, f["zeta_second_crossing"], zs, 0.15, "zeta'' exponent (crossing)")
    if number == 3:
        runtime = time.perf_counter() - t0
        _check(failures, runtime < 120.0, f"runtime {runtime:.1f}s over the 2min budget")
    return _result(number, f"scaling-exponents-r{r:g}", t0, f, failures)


def criterion_3_scaling_r4() -> CriterionResult:
    return _scaling_criterion(3, 4.0)


def criterion_4_scaling_r6() -> CriterionResult:
    return _scaling_criterion(4, 6.0)


def criterion_5_tails(seed: int = 0, samples: int = 1_000_000) -> CriterionResult:
    t0 = time.perf_counter()
    failures: list[str] = []
    details = {}
    for r, target in ((4.0, 4.0), (6.0, 3.0)):
        t_r = time.perf_counter()
        est = tail_estimate(ExperimentConfig(r=r, seed=seed, samples=samples))
        took = time.perf_counter() - t_r
        details[f"exponent_r{r:g}"] = est.exponent
        details[f"min_survivors_r{r:g}"] = est.min_survivors
        _in(failures, est.exponent, target, 0.2, f"survival exponent (r={r:g})")
        _check(
            failures, took < 300.0, f"r={r:g} run took {took:.0f}s, over the 5min budget"
        )
    return _result(5, "residence-tail-exponents", t0, details, failures)


def criterion_6_band_geometry() -> CriterionResult:
    t0 = time.perf_counter()
    failures: list[str] = []
    profile = SurfaceProfile(r=4.0, eps0=1.0)
    details = {}
    for n in (100, 1000):
        for side in bands.SIDES:
            ratio = bands.band_width(profile, n, side) / bands.width_asymptote(
                profile, n
            )
            details[f"width_ratio_{side}_{n}"] = ratio
            _check(
                failures,
                0.95 <= ratio <= 1.05,
                f"width/asymptote = {ratio:.4f} at n={n} ({side})",
            )
    ns = bands.band_range(50, 5000)
    for side in bands.SIDES:
        fit = fit_exponent(ns, [bands.accumulation_distance(profile, n, side) for n in ns])
        details[f"accumulation_slope_{side}"] = fit.exponent
        _in(failures, fit.exponent, -2.0, 0.05, f"accumulation slope ({side})")
    return _result(6, "band-geometry-asymptotics", t0, details, failures)


def _simpson(f, a: float, b: float, panels: int) -> float:
    xs = np.linspace(a, b, panels + 1)
    w = np.ones(panels + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return (b - a) / (3.0 * panels) * float(np.dot(w, f(xs)))


def _brute_c1(r: float, alpha: float, panels: int = 1 << 14) -> float:
    """Fixed-grid Simpson value of C1 via the x -> 1/x fold onto [0, 1]."""
    near = _simpson(lambda x: (x**r + 1.0) ** -alpha, 0.0, 1.0, panels)
    far = _simpson(
        lambda t: t ** (alpha * r - 2.0) * (1.0 + t**r) ** -alpha, 0.0, 1.0, panels
    )
    return near + far


def _brute_c2(r, q, alpha, beta, panels: int = 1 << 14) -> float:
    """Fixed-grid Simpson value of C2: substitution near 1, 1/x fold beyond 2."""
    m = 1.0 / (1.0 + beta - alpha)

    def near(w):
        z = w**m
        ratio_r = np.where(z > 0.0, np.expm1(r * np.log1p(z)) / np.where(z > 0, z, 1), r)
        val = m * ratio_r**-alpha
        if beta != 0.0:
            ratio_q = np.where(
                z > 0.0, np.expm1(q * np.log1p(z)) / np.where(z > 0, z, 1), q
            )
            val = val * ratio_q**beta
        return val

    def far(t):
        val = t ** (alpha * r - beta * q - 2.0) * (1.0 - t**r) ** -alpha
        if beta != 0.0:
            val = val * (1.0 - t**q) ** beta
        return val

    return _simpson(near, 0.0, 1.0, panels) + _simpson(far, 0.0, 0.5, panels)


def criterion_7_model_integrals() -> CriterionResult:
    t0 = time.perf_counter()
    failures: list[str] = []
    details = {}
    r = 4.0
    floors = {}  # each triple's last table row, at its smallest scale
    for row in model_table(r):
        floors[row["kind"], row["alpha"], row["beta"]] = row
    for (kind, alpha, beta), row in floors.items():
        tol = 0.01 if kind == "1a" else 0.02
        ratio = row["ratio"]
        label = f"{kind}_a{alpha:g}_b{beta:g}"
        details[f"ratio_{label}"] = ratio
        _check(
            failures,
            abs(ratio - 1.0) <= tol,
            f"ratio {label} = {ratio:.5f}, off 1 by more than {tol:.0%}",
        )
        ours, q = row["limit_constant"], row["q"]
        brute = _brute_c1(r, alpha) if kind == "1a" else _brute_c2(r, q, alpha, beta)
        rel = abs(ours - brute) / brute
        details[f"oracle_rel_{label}"] = rel
        _check(
            failures, rel <= 1e-6, f"constant {label} off brute oracle by {rel:.2e}"
        )
    return _result(7, "model-integral-limits", t0, details, failures)


def criterion_8_pinching() -> CriterionResult:
    t0 = time.perf_counter()
    failures: list[str] = []
    profile = SurfaceProfile(r=4.0, eps0=1.0)
    lo, hi = profile.pinching_bounds()
    s = np.linspace(-1.0, 1.0, 10_001)
    s = s[s != 0.0]
    ratio = profile.curvature_ratio(s)
    rmin, rmax = float(ratio.min()), float(ratio.max())
    _check(
        failures,
        rmin >= lo * (1.0 - 1e-12) and rmax <= hi * (1.0 + 1e-12),
        f"pinching ratio range [{rmin:.6g}, {rmax:.6g}] leaves [{lo:.6g}, {hi:.6g}]",
    )
    _check(failures, abs(hi - 12.0) == 0.0, f"upper pinching bound {hi} != 12")
    _check(
        failures,
        abs(lo - 12.0 / 578.0) < 1e-15,
        f"lower pinching bound {lo} != 12/578",
    )
    return _result(
        8,
        "curvature-pinching",
        t0,
        {"ratio_min": rmin, "ratio_max": rmax, "lo": lo, "hi": hi},
        failures,
    )


def _linearization_rows(profile):
    """Criterion 9's co-flow batch (s, psi, u0, t), 1202 rows: 200 sample
    times along each of three transits of different type, 101 along the
    degenerate parallel orbit for each of two u0, and 400 along a meridian
    transit, every time span from one neck_transits batch."""
    transits = ((0.52, 0.7), (0.62, 0.3), (0.5 * math.pi - 0.01, 1.0))
    span, *_ = neck_transits(profile, [psi for psi, _ in transits] + [0.5 * math.pi])
    groups = [(-1.0, psi, u0, np.linspace(0.0, T, 200)) for (psi, u0), T in zip(transits, span)]
    groups += [(0.0, 0.0, u0, np.linspace(0.0, 5.0, 101)) for u0 in (0.5, 1.0)]
    groups.append((-1.0, 0.5 * math.pi, 0.8, np.linspace(0.0, span[3], 400)))
    return [np.concatenate(c) for c in zip(*(np.broadcast_arrays(*g) for g in groups))]


def criterion_9_linearization() -> CriterionResult:
    t0 = time.perf_counter()
    failures: list[str] = []
    details = {}
    profile = SurfaceProfile(r=4.0, eps0=1.0)
    s, psi, u0, t = _linearization_rows(profile)
    j, jp, u, int_u, _ = co_flow_rows(profile, s, psi, u0, t)
    transits, ridge, meridian = slice(0, 600), slice(600, 802), slice(802, None)

    # Riccati/Jacobi consistency along the three transits
    worst = float(np.max(np.abs(jp[transits] / j[transits] - u[transits])))
    details["consistency"] = worst
    _check(failures, worst <= 1e-7, f"|j'/j - u| = {worst:.3e} > 1e-7")

    # flat closed form along the degenerate parallel orbit
    flat_err = float(np.max(np.abs(u[ridge] - riccati_flat(u0[ridge], t[ridge]))))
    details["flat_error"] = flat_err
    _check(failures, flat_err <= 1e-9, f"flat Riccati error {flat_err:.3e} > 1e-9")

    # delta-sandwich along the meridian transit, whose last row ends its span
    us = u[meridian]
    base = math.exp(int_u[-1])
    prev = math.inf
    for delta in (0.1, 0.01, 0.001):
        c_delta = float(np.sqrt(1.0 + delta * us**2).max())
        ratio = float(sasaki_growth(u0[-1], u[-1], int_u[-1], delta)) / base
        details[f"c_delta_{delta:g}"] = c_delta
        _check(
            failures,
            1.0 / c_delta <= ratio <= c_delta,
            f"delta={delta:g}: growth/exp(int u) = {ratio:.6f} outside sandwich "
            f"[{1 / c_delta:.6f}, {c_delta:.6f}]",
        )
        _check(
            failures,
            1.0 <= c_delta < prev,
            f"C_delta not decreasing toward 1 at delta={delta:g}",
        )
        prev = c_delta

    # horocycle constants: positive, finite, grid-refinement stable
    scan1 = horocycle_scan(profile)
    fine_s = np.linspace(0.05, 0.5, 8)
    scan2 = horocycle_scan(
        profile,
        s_values=np.concatenate([-fine_s[::-1], fine_s]),
        psi_values=np.linspace(0.05, 0.5, 8),
    )
    for name in ("c3", "c4", "c7"):
        v1, v2 = getattr(scan1, name), getattr(scan2, name)
        details[name] = v1
        details[f"{name}_refined"] = v2
        _check(
            failures,
            math.isfinite(v1) and v1 > 0.0,
            f"{name} = {v1} is not finite positive",
        )
        _check(
            failures,
            abs(v2 - v1) <= 0.10 * abs(v1),
            f"{name} moved {v1:.4f} -> {v2:.4f} under refinement (>10%)",
        )
    details["frac_unconfident"] = scan1.frac_unconfident
    return _result(9, "linearization-bounds", t0, details, failures)


def criterion_10_distortion() -> CriterionResult:
    t0 = time.perf_counter()
    failures: list[str] = []
    suite = distortion_suite(ExperimentConfig(r=4.0, n_min=25, n_max=1600))
    slope = suite.fits["m_n_trend"].exponent
    _in(failures, slope, 0.0, 0.1, "distortion trend slope")
    return _result(
        10,
        "bounded-distortion-trend",
        t0,
        {"slope": slope, "m_n": {row["n"]: row["m_n"] for row in suite.rows}},
        failures,
    )


def criterion_11_determinism(seed: int = 7) -> CriterionResult:
    t0 = time.perf_counter()
    failures: list[str] = []
    base = ExperimentConfig(r=4.0, seed=seed, samples=1 << 17)

    def render(est):
        return json_text(
            json_payload(
                est.config.as_dict(),
                {"counts": est.counts, "thresholds": est.thresholds},
                {"survival": est.fit},
            )
        )

    a = render(tail_estimate(base))
    b = render(tail_estimate(base))
    _check(failures, a == b, "identical reruns differ")
    cfg = ExperimentConfig(r=4.0, n_min=25, n_max=200)
    s1 = scaling_suite(cfg, n_points=6)
    s2 = scaling_suite(cfg, n_points=6)
    _check(
        failures,
        json_text(json_payload(cfg.as_dict(), {}, s1.fits))
        == json_text(json_payload(cfg.as_dict(), {}, s2.fits)),
        "scaling suite reruns differ",
    )
    return _result(11, "deterministic-outputs", t0, {"bytes": len(a)}, failures)


CRITERIA = (
    criterion_1_conservation,
    criterion_2_transit_oracle,
    criterion_3_scaling_r4,
    criterion_4_scaling_r6,
    criterion_5_tails,
    criterion_6_band_geometry,
    criterion_7_model_integrals,
    criterion_8_pinching,
    criterion_9_linearization,
    criterion_10_distortion,
    criterion_11_determinism,
)


def run_all(numbers=None) -> list[CriterionResult]:
    """Run the full suite, or the given criterion numbers, in order."""
    wanted = None if numbers is None else set(numbers)
    return [
        fn()
        for idx, fn in enumerate(CRITERIA, start=1)
        if wanted is None or idx in wanted
    ]


def report_payload(results: list[CriterionResult]) -> dict:
    """The deterministic report document; runtimes stay out of it, so a
    rerun writes the same bytes."""
    return {
        "passed": all(r.passed for r in results),
        "criteria": [
            {
                "number": r.number,
                "name": r.name,
                "passed": r.passed,
                "details": r.details,
                "failures": list(r.failures),
            }
            for r in results
        ],
        "failures": [
            f"criterion {r.number} ({r.name}): {msg}"
            for r in results
            if not r.passed
            for msg in r.failures
        ],
    }
