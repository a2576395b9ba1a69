"""Jacobi and Riccati equations along host geodesics.

The scalar linearized equations

    j'' + K(t) j = 0          (Jacobi)
    u'  + u^2 + K(t) = 0      (Riccati, u = j'/j)

are solved along a host geodesic.  integrate_jacobi and integrate_riccati
take an integrated host path (dynamics.integrate) as fixed data and read
K(t) off its dense output.  unstable_riccati flows its own host instead:
since K <= 0 on the neck, Riccati solutions started at u >= 0 stay
nonnegative, and the unstable curvature k+ of a vector is recovered by
relaxing two seeds over a finite backward window and reading off their
common value at the endpoint.  The seeds ride in one DOP853 run together
with the footpoint they need, and the host's return to the input vector
is the runtime error estimate.  The residual seed separation is reported
as an explicit confidence diagnostic, because the contraction that
forgets the seed is weak near the degenerate parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .dynamics import (
    GeodesicPath,
    GeodesicState,
    _check_stall,
    _make_events,
    _make_rhs,
    reverse,
)
from .errors import AccuracyError
from .surface import SurfaceProfile

_RTOL = 1e-11
_ATOL = 1e-13
_BLOWUP = 1e8
# the relaxed host must land back on the input vector to this (s and psi)
_CLOSURE_TOL = 1e-9
# scipy clamps a smaller rtol to this, with a UserWarning
_RTOL_FLOOR = 100.0 * np.finfo(float).eps


def _host_curvature(profile: SurfaceProfile, path: GeodesicPath):
    sol = path._sol
    curvature_unchecked = profile.curvature_unchecked

    def K(t):
        return curvature_unchecked(float(sol(t)[0]))

    return K


@dataclass
class JacobiPath:
    """Jacobi amplitude along a host path: j'' = -K j from (j0, jp0)."""

    t: np.ndarray
    j: np.ndarray
    jp: np.ndarray
    _sol: object

    def at(self, t: float) -> tuple[float, float]:
        y = self._sol(t)
        return float(y[0]), float(y[1])


def integrate_jacobi(
    profile: SurfaceProfile,
    path: GeodesicPath,
    j0: float,
    jp0: float,
    rtol: float = _RTOL,
    atol: float = _ATOL,
) -> JacobiPath:
    K = _host_curvature(profile, path)

    def rhs(t, y):
        return (y[1], -K(t) * y[0])

    sol = solve_ivp(
        rhs,
        (float(path.t[0]), path.t_end),
        [j0, jp0],
        method="DOP853",
        dense_output=True,
        rtol=rtol,
        atol=atol,
    )
    _check_stall(sol)
    return JacobiPath(t=sol.t, j=sol.y[0], jp=sol.y[1], _sol=sol.sol)


@dataclass
class RiccatiPath:
    """u = j'/j along a host path, with its running integral co-computed.

    int_u holds I(t) = int_{t0}^t u, accumulated inside the same solver run
    as u itself so that exp(I) is consistent with u to solver accuracy.
    blow_up brackets the finite-time escape u -> -inf when one occurs; the
    path then ends at the bracket's left edge.
    """

    t: np.ndarray
    u: np.ndarray
    int_u: np.ndarray
    blow_up: tuple[float, float] | None
    _sol: object

    def at(self, t: float) -> tuple[float, float]:
        y = self._sol(t)
        return float(y[0]), float(y[1])


def riccati_flat(u0: float, t) -> np.ndarray:
    """Zero-curvature Riccati solution u(t) = u0 / (1 + u0 t)."""
    t = np.asarray(t, dtype=float)
    return u0 / (1.0 + u0 * t)


def integrate_riccati(
    profile: SurfaceProfile,
    path: GeodesicPath,
    u0: float,
    rtol: float = _RTOL,
    atol: float = _ATOL,
) -> RiccatiPath:
    if not math.isfinite(u0):
        raise ValueError("Riccati initial value must be finite")
    K = _host_curvature(profile, path)

    def rhs(t, y):
        u = y[0]
        return (-(u * u) - K(t), u)

    def escape(t, y):
        return y[0] + _BLOWUP

    escape.terminal = True
    escape.direction = -1.0

    sol = solve_ivp(
        rhs,
        (float(path.t[0]), path.t_end),
        [u0, 0.0],
        method="DOP853",
        dense_output=True,
        events=[escape],
        rtol=rtol,
        atol=atol,
    )
    _check_stall(sol)
    blow_up = None
    if sol.t_events[0].size:
        # past u = -B the solution reaches -inf within 1/B; bracket it
        t_hit = float(sol.t_events[0][0])
        blow_up = (t_hit, t_hit + 2.0 / _BLOWUP)
    return RiccatiPath(t=sol.t, u=sol.y[0], int_u=sol.y[1], blow_up=blow_up, _sol=sol.sol)


def sasaki_growth(rpath: RiccatiPath, delta: float, t: float | None = None) -> float:
    """Norm growth sqrt((1+delta*u(t)^2)/(1+delta*u(0)^2)) * exp(int_0^t u).

    This equals the delta-weighted norm sqrt(j^2 + delta j'^2) of the Jacobi
    solution with (j, j')(0) = (1, u(0)), divided by its initial norm: the
    identity j = exp(int u), j' = u j turns one into the other.
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    if t is None:
        t = float(rpath.t[-1])
    u1, i1 = rpath.at(t)
    u0 = float(rpath.u[0])
    return math.sqrt((1.0 + delta * u1 * u1) / (1.0 + delta * u0 * u0)) * math.exp(i1)


@dataclass(frozen=True)
class UnstableEstimate:
    """Finite-window estimate of the unstable Riccati value at a vector."""

    value: float
    spread: float
    seed_values: tuple[float, float]
    window: float  # backward window actually used
    truncated: bool  # True if the orbit left the neck before relax_time
    confident: bool


def _relax(profile, state, relax_time, seeds, rtol, atol):
    """Both legs of unstable_riccati: (window, truncated, seed ends, closure)."""
    host = _make_rhs(profile)
    back = solve_ivp(
        host,
        (0.0, relax_time),
        reverse(state).as_array(),
        method="DOP853",
        events=_make_events(profile)[:2],
        rtol=max(rtol / 100.0, _RTOL_FLOOR),
        atol=atol / 100.0,
    )
    _check_stall(back)
    window = float(back.t[-1])
    curvature_unchecked = profile.curvature_unchecked

    def rhs(tau, y):
        # theta is left out: no right-hand side reads it
        s, psi, u0, u1 = y
        ds, _, dpsi = host(tau, (s, 0.0, psi))
        k = curvature_unchecked(s)
        return (ds, dpsi, -(u0 * u0) - k, -(u1 * u1) - k)

    s_start, _, psi_start = back.y[:, -1]
    fwd = solve_ivp(
        rhs,
        (0.0, window),
        [s_start, psi_start + math.pi, seeds[0], seeds[1]],
        method="DOP853",
        rtol=rtol,
        atol=atol,
    )
    _check_stall(fwd)
    s_end, psi_end, end0, end1 = (float(v) for v in fwd.y[:, -1])
    closure = max(
        abs(s_end - state.s), abs(math.remainder(psi_end - state.psi, 2.0 * math.pi))
    )
    return window, back.status == 1, (end0, end1), closure


def unstable_riccati(
    profile: SurfaceProfile,
    state: GeodesicState,
    relax_time: float = 20.0,
    seeds: tuple[float, float] = (0.0, 1.0),
    spread_tol: float = 0.25,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> UnstableEstimate:
    """Estimate k+(v) by relaxing the Riccati equation over a past window.

    Two DOP853 runs, no dense output.  The backward leg flows the reversed
    vector (whose orbit is the backward orbit of v) to the neck boundary or
    to relax_time, whichever comes first, at rtol/100 (but no lower than
    scipy's floor of 100 eps) and atol/100: the forward leg amplifies its
    endpoint error along the unstable direction.
    The forward leg reverses that endpoint and integrates the state
    (s, psi, u_seed0, u_seed1) over the window at rtol and atol, so each
    seed reads K at the footpoint flowed alongside it.  The seeds' mean at
    the endpoint is the estimate and their separation the confidence
    spread.  Seeds must be nonnegative so the comparison principle keeps
    u >= 0 throughout.

    The host must land back on v.  If its closure error in s or psi
    exceeds _CLOSURE_TOL, both legs are repeated once at a tenth of their
    tolerances, and a run that still misses raises AccuracyError.  Solver
    breakdown raises IntegrationStallError.
    """
    if min(seeds) < 0.0:
        raise ValueError("seeds must be nonnegative")
    profile._check_domain(state.s)
    for scale in (1.0, 0.1):
        window, truncated, (end0, end1), closure = _relax(
            profile, state, relax_time, seeds, rtol * scale, atol * scale
        )
        if closure <= _CLOSURE_TOL:
            break
    else:
        raise AccuracyError(
            f"relaxed host misses the input vector by {closure:.3e} "
            f"(tolerance {_CLOSURE_TOL:.0e}) at s={state.s}, psi={state.psi}, "
            "even after tightening",
            achieved=closure,
        )
    spread = abs(end1 - end0)
    value = max(0.5 * (end0 + end1), 0.0)
    return UnstableEstimate(
        value=value,
        spread=spread,
        seed_values=(end0, end1),
        window=window,
        truncated=truncated,
        confident=spread <= spread_tol,
    )


def k_plus(profile: SurfaceProfile, state: GeodesicState, **kw) -> UnstableEstimate:
    return unstable_riccati(profile, state, **kw)


def k_minus(profile: SurfaceProfile, state: GeodesicState, **kw) -> UnstableEstimate:
    """Stable-horocycle curvature magnitude, via time reversal of k+."""
    return unstable_riccati(profile, reverse(state), **kw)


@dataclass
class ScanReport:
    """Empirical lower-bound constants for horocycle curvatures on a grid."""

    rows: list[dict]
    c3: float
    c4: float
    c7: float
    frac_unconfident: float
    relax_time: float


def horocycle_scan(
    profile: SurfaceProfile,
    s_values=None,
    psi_values=None,
    relax_time: float = 20.0,
    spread_tol: float = 0.25,
    max_unconfident: float = 0.2,
) -> ScanReport:
    """Scan k+/k- over a grid near the degenerate parallel.

    Reports C3 = min k+ / max(|s|^((r-2)/2), |psi|^((r-2)/r)), C4 = min
    k+ / sqrt(-K), and C7 = max k-/k+, all over confident grid points (psi
    is measured as angular distance to the parallel directions {0, pi}).
    Aborts when more than max_unconfident of the grid is low-confidence,
    since the constants would then reflect seed memory rather than geometry.
    """
    if s_values is None:
        half = np.linspace(0.05, 0.5, 4) * profile.eps0
        s_values = np.concatenate([-half[::-1], half])
    if psi_values is None:
        psi_values = np.linspace(0.05, 0.5, 4)
    rows = []
    r = profile.r
    for s in np.asarray(s_values, dtype=float):
        for psi in np.asarray(psi_values, dtype=float):
            st = GeodesicState(s=float(s), theta=0.0, psi=float(psi))
            plus = unstable_riccati(
                profile, st, relax_time=relax_time, spread_tol=spread_tol
            )
            minus = unstable_riccati(
                profile, reverse(st), relax_time=relax_time, spread_tol=spread_tol
            )
            K = profile.curvature(float(s))
            rows.append(
                {
                    "s": float(s),
                    "psi": float(psi),
                    "k_plus": plus.value,
                    "k_minus": minus.value,
                    "K": K,
                    "spread": max(plus.spread, minus.spread),
                    "confident": plus.confident and minus.confident,
                }
            )
    n_bad = sum(1 for row in rows if not row["confident"])
    frac = n_bad / len(rows)
    if frac > max_unconfident:
        raise AccuracyError(
            f"{n_bad}/{len(rows)} grid points low-confidence at "
            f"relax_time={relax_time}; rerun with a longer window "
            f"(try {2.0 * relax_time:g}) or a coarser spread tolerance",
            achieved=frac,
        )
    good = [row for row in rows if row["confident"]]
    c3 = min(
        row["k_plus"]
        / max(
            abs(row["s"]) ** (0.5 * (r - 2.0)),
            _dist_to_parallel(row["psi"]) ** ((r - 2.0) / r),
        )
        for row in good
    )
    c4 = min(row["k_plus"] / math.sqrt(-row["K"]) for row in good if row["K"] < 0.0)
    c7 = max(row["k_minus"] / row["k_plus"] for row in good if row["k_plus"] > 0.0)
    return ScanReport(
        rows=rows, c3=c3, c4=c4, c7=c7, frac_unconfident=frac, relax_time=relax_time
    )


def _dist_to_parallel(psi: float) -> float:
    """Angular distance of psi to the parallel directions {0, pi}."""
    p = abs(psi) % math.pi
    return min(p, math.pi - p)
