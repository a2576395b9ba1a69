"""Jacobi and Riccati equations along frozen host geodesics.

The geodesic path is integrated first (dynamics.integrate) and treated as
fixed data here; the scalar linearized equations

    j'' + K(t) j = 0          (Jacobi)
    u'  + u^2 + K(t) = 0      (Riccati, u = j'/j)

are then solved over its dense output.  Since K <= 0 on the neck, Riccati
solutions started at u >= 0 stay nonnegative, and the unstable curvature
k+ of a vector is recovered by relaxing two seeds over a finite backward
window and reading off their common value at the endpoint; the residual
seed separation is reported as an explicit confidence diagnostic, because
the contraction that forgets the seed is weak near the degenerate parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .dynamics import GeodesicPath, GeodesicState, integrate, reverse
from .errors import AccuracyError
from .surface import SurfaceProfile

_RTOL = 1e-11
_ATOL = 1e-13
_BLOWUP = 1e8


def _curvature_unchecked(profile: SurfaceProfile, s: float) -> float:
    # dense outputs can overshoot |s|=eps0 by a root-finding ulp or two,
    # where the profile formula still extends smoothly
    r = profile.r
    a = abs(s)
    ar = a**r
    xi = 1.0 + ar
    d1 = r * a ** (r - 1.0)
    d2 = r * (r - 1.0) * a ** (r - 2.0)
    return -d2 / (xi * (1.0 + d1 * d1) ** 2)


def _host_curvature(profile: SurfaceProfile, path: GeodesicPath):
    sol = path._sol

    def K(t):
        return _curvature_unchecked(profile, float(sol(t)[0]))

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

    The backward orbit of v is realized as the forward orbit of the reversed
    vector (the curvature along it is the same footpoint function), cut at
    the neck boundary or at relax_time, whichever comes first.  Each seed is
    integrated forward over the window; their mean at the endpoint is the
    estimate and their separation the confidence spread.  Seeds must be
    nonnegative so the comparison principle keeps u >= 0 throughout.
    """
    if min(seeds) < 0.0:
        raise ValueError("seeds must be nonnegative")
    rev_path = integrate(
        profile,
        reverse(state),
        (0.0, relax_time),
        rtol=rtol,
        atol=atol,
        drift_tol=None,
        log_events=False,
    )
    window = rev_path.t_end
    truncated = rev_path.terminated
    sol = rev_path._sol

    def K(tau):
        # host time t = tau - window; footpoint of the host at t is the
        # footpoint of the reversed orbit at window - tau
        return _curvature_unchecked(profile, float(sol(window - tau)[0]))

    def rhs(tau, y):
        u = y[0]
        return (-(u * u) - K(tau),)

    ends = []
    for seed in seeds:
        rsol = solve_ivp(
            rhs, (0.0, window), [seed], method="DOP853", rtol=rtol, atol=atol
        )
        ends.append(float(rsol.y[0][-1]))
    spread = abs(ends[1] - ends[0])
    value = max(0.5 * (ends[0] + ends[1]), 0.0)
    return UnstableEstimate(
        value=value,
        spread=spread,
        seed_values=(ends[0], ends[1]),
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
            K = _curvature_unchecked(profile, float(s))
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
