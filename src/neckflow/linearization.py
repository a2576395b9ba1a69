"""Jacobi and Riccati equations along host geodesics.

The scalar linearized equations

    j'' + K(t) j = 0          (Jacobi)
    u'  + u^2 + K(t) = 0      (Riccati, u = j'/j)

are solved along a host geodesic, and every one rides with its host: the
footpoint (s, psi) is flowed in the same DOP853 run and K is read there.
integrate_jacobi and integrate_riccati do this with solve_ivp (_co_flow),
whose dense output their paths keep; their error gauge is the co-flowed
host's Clairaut drift.

Since K <= 0 on the neck, Riccati solutions started at u >= 0 stay
nonnegative, and unstable_riccati recovers the unstable curvature k+ of a
vector by relaxing two seeds over a finite backward window and reading off
their common value at the endpoint.  horocycle_scan relaxes its whole grid,
k+ and k- of every point at two tolerance levels, in two lockstep batches of
dynamics._lockstep (one per leg); unstable_riccati is the one-row case of the
same code, so a vector's numbers do not depend on the batch it rides in.
Each vector carries two runtime error estimates: the host's return to the
input vector, and the distance between its seeds at the two levels.  The
residual seed separation is reported as an explicit confidence diagnostic,
because the contraction that forgets the seed is weak near the degenerate
parallel.
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
    _clairaut_drift,
    _lockstep,
    _make_events,
    _make_rhs,
    reverse,
)
from .errors import AccuracyError, IntegrationStallError
from .surface import SurfaceProfile

# integrate_jacobi and integrate_riccati: tolerances, and the Clairaut drift
# their co-flowed host may show
_RTOL, _ATOL, _DRIFT_TOL = 1e-11, 1e-13, 1e-8
_BLOWUP = 1e8
# unstable_riccati's forward-leg tolerances at scale 1 (see _LEVELS); the
# backward leg runs at a hundredth, its rtol no lower than scipy's floor of
# 100 eps
_RELAX_RTOL = 1e-10
_RELAX_ATOL = 1e-12
_RTOL_FLOOR = 100.0 * np.finfo(float).eps
# tolerance scales: every vector runs at the first two in one batch, and a
# vector that misses a check is redone at the third
_LEVELS = (1.0, 0.1, 0.01)
_SEEDS = (0.0, 1.0)  # nonnegative, so the comparison principle keeps u >= 0
# the relaxed host must land back on the input vector to this (s and psi),
# and the seeds' estimated error must stay below _SEED_TOL
_CLOSURE_TOL = 1e-9
_SEED_TOL = 1e-9
_MAX_UNCONFIDENT = 0.2  # share of low-confidence points horocycle_scan accepts
# unstable_riccati's and horocycle_scan's defaults (hyperbolicity's flags)
RELAX_TIME, SPREAD_TOL = 20.0, 0.25


def _co_rhs(profile, linear, xp=math):
    """Derivative of (s, psi, *y) over the namespace xp (see _make_rhs);
    linear(k, y) is the derivative of y[2:] given the state y and k = K(s)."""
    host = _make_rhs(profile, xp)
    curvature_unchecked = profile.curvature_unchecked

    def rhs(t, y):
        # theta is left out: no right-hand side reads it
        s, psi = y[0], y[1]
        ds, _, dpsi = host(t, (s, 0.0, psi))
        return (ds, dpsi, *linear(curvature_unchecked(s), y))

    return rhs


def _co_flow(profile, start, t_span, linear, y0, rtol, atol, events=None):
    """One DOP853 run of (s, psi, *y0) from the footpoint start = (s, psi),
    with dense output."""
    sol = solve_ivp(
        _co_rhs(profile, linear),
        t_span,
        [*start, *y0],
        method="DOP853",
        dense_output=True,
        events=events,
        rtol=rtol,
        atol=atol,
    )
    _check_stall(sol)
    return sol


def _along(profile: SurfaceProfile, path: GeodesicPath, linear, y0, events=None):
    """_co_flow over path's span from its first state; AccuracyError if the
    host's Clairaut drift from path.c0 over the accepted steps exceeds _DRIFT_TOL."""
    s0, _, psi0 = path.states[:, 0]
    t_span = (float(path.t[0]), path.t_end)
    sol = _co_flow(profile, (s0, psi0), t_span, linear, y0, _RTOL, _ATOL, events)
    drift = float(np.max(np.abs(_clairaut_drift(profile, sol.y[0], sol.y[1], path.c0))))
    if drift > _DRIFT_TOL:
        raise AccuracyError(
            f"co-flowed host drifts {drift:.3e} in its Clairaut constant "
            f"(tolerance {_DRIFT_TOL:.0e})",
            achieved=drift,
        )
    return sol


@dataclass
class JacobiPath:
    """Jacobi amplitude along a host path: j'' = -K j from (j0, jp0)."""

    t: np.ndarray
    j: np.ndarray
    jp: np.ndarray
    _sol: object

    def at(self, t: float) -> tuple[float, float]:
        y = self._sol(t)
        return float(y[2]), float(y[3])


def integrate_jacobi(
    profile: SurfaceProfile, path: GeodesicPath, j0: float, jp0: float
) -> JacobiPath:
    sol = _along(profile, path, lambda k, y: (y[3], -k * y[2]), (j0, jp0))
    return JacobiPath(t=sol.t, j=sol.y[2], jp=sol.y[3], _sol=sol.sol)


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
        return float(y[2]), float(y[3])


def riccati_flat(u0: float, t) -> np.ndarray:
    """Zero-curvature Riccati solution u(t) = u0 / (1 + u0 t)."""
    t = np.asarray(t, dtype=float)
    return u0 / (1.0 + u0 * t)


def integrate_riccati(profile: SurfaceProfile, path: GeodesicPath, u0: float) -> RiccatiPath:
    if not math.isfinite(u0):
        raise ValueError("Riccati initial value must be finite")

    def escape(t, y):
        return y[2] + _BLOWUP

    escape.terminal = True
    escape.direction = -1.0

    sol = _along(profile, path, lambda k, y: (-(y[2] * y[2]) - k, y[2]), (u0, 0.0), [escape])
    blow_up = None
    if sol.t_events[0].size:
        # past u = -B the solution reaches -inf within 1/B; bracket it
        t_hit = float(sol.t_events[0][0])
        blow_up = (t_hit, t_hit + 2.0 / _BLOWUP)
    return RiccatiPath(t=sol.t, u=sol.y[2], int_u=sol.y[3], blow_up=blow_up, _sol=sol.sol)


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
    seed_error: float  # |coarse - fine| seeds, the estimate of their error
    window: float  # backward window actually used
    truncated: bool  # True if the orbit left the neck before relax_time
    confident: bool


def _seed_pair(k, y):
    return (-(y[2] * y[2]) - k, -(y[3] * y[3]) - k)


def _relax(profile, states, relax_time, scale):
    """Both legs of the relaxation for every state at once, row i at scale[i]
    times _RELAX_RTOL and _RELAX_ATOL: (window, truncated, seeds, closure).
    A stall raises IntegrationStallError naming the state of its row."""
    rtol, atol = _RELAX_RTOL * scale, _RELAX_ATOL * scale
    try:
        window, back, truncated, _ = _lockstep(
            _make_rhs(profile, np),
            [reverse(st).as_array() for st in states],
            relax_time,
            np.maximum(rtol / 100.0, _RTOL_FLOOR),
            atol / 100.0,
            _make_events(profile),
        )
        start = np.column_stack(
            [back[:, 0], back[:, 2] + math.pi, np.full((len(states), 2), _SEEDS)]
        )
        _, end, _, _ = _lockstep(_co_rhs(profile, _seed_pair, np), start, window, rtol, atol)
    except IntegrationStallError as exc:
        st = states[exc.row]
        raise IntegrationStallError(f"{exc} at s={st.s}, psi={st.psi}", exc.t_reached) from exc
    closure = np.array(
        [
            max(abs(s - st.s), abs(math.remainder(psi - st.psi, 2.0 * math.pi)))
            for st, s, psi in zip(states, end[:, 0], end[:, 1])
        ]
    )
    return window, truncated, end[:, 2:], closure


def _unstable_batch(profile, states, relax_time, spread_tol):
    """unstable_riccati for a list of states, relaxed in lockstep batches."""
    if not (math.isfinite(relax_time) and relax_time > 0.0):
        raise ValueError(f"relax_time must be finite and positive, got {relax_time}")
    if not (math.isfinite(spread_tol) and spread_tol >= 0.0):
        raise ValueError(f"spread_tol must be finite and nonnegative, got {spread_tol}")
    for st in states:
        profile._check_domain(st.s)
    n = len(states)
    window, truncated, seeds, closure = _relax(
        profile, states * 2, relax_time, np.repeat(_LEVELS[:2], n)
    )
    coarse = seeds[:n]
    window, truncated, seeds, closure = window[n:], truncated[n:], seeds[n:], closure[n:]
    error = np.max(np.abs(seeds - coarse), axis=1)
    redo = np.flatnonzero((closure > _CLOSURE_TOL) | (error > _SEED_TOL))
    if redo.size:
        finer = _relax(profile, [states[i] for i in redo], relax_time, _LEVELS[2])
        error[redo] = np.max(np.abs(finer[2] - seeds[redo]), axis=1)
        window[redo], truncated[redo], seeds[redo], closure[redo] = finer
    for i in redo:
        where = f"at s={states[i].s}, psi={states[i].psi}, even after tightening"
        if closure[i] > _CLOSURE_TOL:
            raise AccuracyError(
                f"relaxed host misses the input vector by {closure[i]:.3e} "
                f"(tolerance {_CLOSURE_TOL:.0e}) {where}",
                achieved=float(closure[i]),
            )
        if error[i] > _SEED_TOL:
            raise AccuracyError(
                f"relaxed seeds carry an estimated error of {error[i]:.3e} "
                f"(tolerance {_SEED_TOL:.0e}) {where}",
                achieved=float(error[i]),
            )
    out = []
    for i in range(n):
        end0, end1 = float(seeds[i, 0]), float(seeds[i, 1])
        spread = abs(end1 - end0)
        out.append(
            UnstableEstimate(
                value=max(0.5 * (end0 + end1), 0.0),
                spread=spread,
                seed_values=(end0, end1),
                seed_error=float(error[i]),
                window=float(window[i]),
                truncated=bool(truncated[i]),
                confident=spread <= spread_tol,
            )
        )
    return out


def unstable_riccati(
    profile: SurfaceProfile,
    state: GeodesicState,
    relax_time: float = RELAX_TIME,
    spread_tol: float = SPREAD_TOL,
) -> UnstableEstimate:
    """Estimate k+(v) by relaxing the Riccati equation over a past window.

    The one-row case of horocycle_scan's batch, run by dynamics._lockstep
    with no dense output.  The backward leg flows the reversed vector
    (whose orbit is the backward orbit of v) to the neck boundary or to
    relax_time, whichever comes first, at a hundredth of the forward leg's
    tolerances: the forward leg amplifies its endpoint error along the
    unstable direction.  The forward leg reverses that endpoint and
    co-flows the two _SEEDS with it over the window, so each seed reads K
    at the footpoint flowed alongside it.  The seeds' mean at the endpoint
    is the estimate and their separation the confidence spread.

    Both legs run at two tolerance levels (_LEVELS) in one batch.  The
    finer level's seeds are returned, and their distance to the coarser
    level's is the seed_error estimate.  The host must also land back on
    v.  If its closure error in s or psi exceeds _CLOSURE_TOL, or the
    estimate exceeds _SEED_TOL, both legs are redone one level tighter
    (the estimate then compares the last two levels), and a vector that
    still misses raises AccuracyError naming it.  relax_time must be
    finite and positive and spread_tol finite and nonnegative (ValueError).
    Solver breakdown raises IntegrationStallError.
    """
    return _unstable_batch(profile, [state], relax_time, spread_tol)[0]


def k_plus(profile: SurfaceProfile, state: GeodesicState) -> UnstableEstimate:
    return unstable_riccati(profile, state)


def k_minus(profile: SurfaceProfile, state: GeodesicState) -> UnstableEstimate:
    """Stable-horocycle curvature magnitude, via time reversal of k+."""
    return unstable_riccati(profile, reverse(state))


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
    relax_time: float = RELAX_TIME,
    spread_tol: float = SPREAD_TOL,
) -> ScanReport:
    """Scan k+/k- over a grid near the degenerate parallel.

    Reports C3 = min k+ / max(|s|^((r-2)/2), |psi|^((r-2)/r)), C4 = min
    k+ / sqrt(-K), and C7 = max k-/k+, all over confident grid points (psi
    is measured as angular distance to the parallel directions {0, pi}; C3
    skips the ridge vector s = 0, psi = 0, where its denominator is 0).
    Aborts when more than _MAX_UNCONFIDENT of the grid is low-confidence,
    since the constants would then reflect seed memory rather than geometry.
    Every vector of the grid is relaxed as unstable_riccati relaxes it, all
    in one batch; a grid with no confident point off the ridge vector, or
    none of K < 0, raises ValueError.
    """
    if s_values is None:
        half = np.linspace(0.05, 0.5, 4) * profile.eps0
        s_values = np.concatenate([-half[::-1], half])
    if psi_values is None:
        psi_values = np.linspace(0.05, 0.5, 4)
    grid = [
        GeodesicState(s=float(s), theta=0.0, psi=float(psi))
        for s in np.asarray(s_values, dtype=float)
        for psi in np.asarray(psi_values, dtype=float)
    ]
    if not grid:
        raise ValueError("the scan grid is empty")
    # k+ of every grid vector, then k- (k+ of the reversed vectors), in one batch
    vectors = grid + [reverse(st) for st in grid]
    estimates = _unstable_batch(profile, vectors, relax_time, spread_tol)
    rows = []
    r = profile.r
    for st, plus, minus in zip(grid, estimates, estimates[len(grid) :]):
        rows.append(
            {
                "s": st.s,
                "psi": st.psi,
                "k_plus": plus.value,
                "k_minus": minus.value,
                "K": profile.curvature(st.s),
                "spread": max(plus.spread, minus.spread),
                "confident": plus.confident and minus.confident,
            }
        )
    n_bad = sum(1 for row in rows if not row["confident"])
    frac = n_bad / len(rows)
    if frac > _MAX_UNCONFIDENT:
        raise AccuracyError(
            f"{n_bad}/{len(rows)} grid points low-confidence at "
            f"relax_time={relax_time}; rerun with a longer window "
            f"(try {2.0 * relax_time:g}) or a coarser spread tolerance",
            achieved=frac,
        )
    good = [row for row in rows if row["confident"]]
    # C3's denominator vanishes only at the ridge vector (s = 0, psi in
    # {0, pi}), where the bound holds for any C3
    scales = [
        max(
            abs(row["s"]) ** (0.5 * (r - 2.0)),
            _dist_to_parallel(row["psi"]) ** ((r - 2.0) / r),
        )
        for row in good
    ]
    if not any(scale > 0.0 for scale in scales):
        raise ValueError("no confident grid point is off the ridge vector, so C3 is undefined")
    c3 = min(row["k_plus"] / scale for row, scale in zip(good, scales) if scale > 0.0)
    curved = [row for row in good if row["K"] < 0.0]
    if not curved:
        raise ValueError("no confident grid point has K < 0, so C4 is undefined")
    c4 = min(row["k_plus"] / math.sqrt(-row["K"]) for row in curved)
    c7 = max(row["k_minus"] / row["k_plus"] for row in good if row["k_plus"] > 0.0)
    return ScanReport(
        rows=rows, c3=c3, c4=c4, c7=c7, frac_unconfident=frac, relax_time=relax_time
    )


def _dist_to_parallel(psi: float) -> float:
    """Angular distance of psi to the parallel directions {0, pi}."""
    p = abs(psi) % math.pi
    return min(p, math.pi - p)
