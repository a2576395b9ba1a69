"""Jacobi and Riccati equations along host geodesics.

The scalar linearized equations

    j'' + K(t) j = 0          (Jacobi)
    u'  + u^2 + K(t) = 0      (Riccati, u = j'/j)

are solved along a host geodesic, and every one rides with its host: the
footpoint (s, psi) is flowed in the same DOP853 run and K is read there.
All of it runs on dynamics._lockstep.  co_flow_rows co-flows j, j', u and
the integral of u with one row per sample time, each row ending at its own
time, so no dense output is needed; its error gauge is the co-flowed host's
Clairaut drift.

Since K <= 0 on the neck, Riccati solutions started at u >= 0 stay
nonnegative, and unstable_riccati recovers the unstable curvature k+ of a
vector by relaxing two seeds over a finite backward window and reading off
their common value at the endpoint.  horocycle_scan relaxes its whole grid,
k+ and k- of every point at two tolerance levels, in two lockstep batches
(one per leg); unstable_riccati is the one-row case of the same code, so a
vector's numbers do not depend on the batch it rides in.  Each vector
carries two runtime error estimates: the host's return to the input vector,
and the distance between its seeds at the two levels.  The residual seed
separation is reported as an explicit confidence diagnostic, because the
contraction that forgets the seed is weak near the degenerate parallel.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp  # noqa: F401  perfbench/tracing.py wraps it by name

from .dynamics import (
    GeodesicState,
    _clairaut_drift,
    _lockstep,
    _make_events,
    _make_rhs,
    reverse,
)
from .errors import AccuracyError, IntegrationStallError
from .surface import SurfaceProfile

# co_flow_rows: tolerances, and the Clairaut drift its co-flowed host may show
_RTOL, _ATOL, _DRIFT_TOL = 1e-11, 1e-13, 1e-8
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


def _jacobi_riccati(k, y):
    """Derivative of (j, j', u, int u) in the rows (s, psi, j, j', u, int u)."""
    return (y[3], -k * y[2], -(y[4] * y[4]) - k, y[4])


def co_flow_rows(profile: SurfaceProfile, s, psi, u0, t):
    """Jacobi and Riccati solutions at sample times, one _lockstep row each.

    Row i co-flows (s, psi, j, j', u, int u) from (s[i], psi[i], 1, u0[i],
    u0[i], 0) to t[i] (the arguments broadcast together), so j solves
    Jacobi's equation from (j, j')(0) = (1, u0), u Riccati's from u0 and int
    u is u's running integral, all reading K at the footpoint flowed with
    them.  A row ends at its own time and rows are batch-invariant, so every
    sample gets the bits it would get alone.  Returns the arrays (j, jp, u,
    int_u, drift), drift being each row's largest Clairaut drift over its
    start and accepted steps.  u0 must be finite and t finite and
    nonnegative (ValueError).  A drift above _DRIFT_TOL raises AccuracyError
    and solver breakdown IntegrationStallError, both naming the row's start
    and time; a Riccati escape u -> -inf, which K <= 0 rules out from u0 >=
    0, breaks the solver down at the escape time.
    """
    arrays = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (s, psi, u0, t)))
    s, psi, u0, t = (np.ravel(v) for v in arrays)
    if not (np.all(np.isfinite(u0)) and np.all(np.isfinite(t) & (t >= 0.0))):
        raise ValueError("Jacobi/Riccati rows need a finite u0 and a finite time t >= 0")
    profile._check_domain(s)
    c0 = _clairaut_drift(profile, s, psi, 0.0)

    def where(i):
        return f"at s={float(s[i])}, psi={float(psi[i])}, u0={float(u0[i])}, t={float(t[i])}"

    try:
        _, y, _, drift = _lockstep(
            _co_rhs(profile, _jacobi_riccati, np),
            np.column_stack([s, psi, np.ones(s.size), u0, u0, np.zeros(s.size)]),
            t,
            _RTOL,
            _ATOL,
            (),
            lambda rows, y: _clairaut_drift(profile, y[0], y[1], c0[rows]),
        )
    except IntegrationStallError as exc:
        raise IntegrationStallError(f"{exc} {where(exc.row)}", exc.t_reached) from exc
    bad = np.flatnonzero(drift > _DRIFT_TOL)
    if bad.size:
        i = bad[np.argmax(drift[bad])]
        raise AccuracyError(
            f"co-flowed host drifts {drift[i]:.3e} in its Clairaut constant "
            f"(tolerance {_DRIFT_TOL:.0e}) {where(i)}",
            achieved=float(drift[i]),
        )
    return y[:, 2], y[:, 3], y[:, 4], y[:, 5], drift


def riccati_flat(u0: float, t) -> np.ndarray:
    """Zero-curvature Riccati solution u(t) = u0 / (1 + u0 t)."""
    t = np.asarray(t, dtype=float)
    return u0 / (1.0 + u0 * t)


def sasaki_growth(u0, u, int_u, delta: float) -> np.ndarray:
    """Norm growth sqrt((1+delta*u^2)/(1+delta*u0^2)) * exp(int_u), elementwise.

    For a co_flow_rows row this equals the delta-weighted norm sqrt(j^2 +
    delta j'^2) of the Jacobi solution with (j, j')(0) = (1, u0), divided by
    its initial norm: the identity j = exp(int u), j' = u j turns one into
    the other.
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    return np.sqrt((1.0 + delta * u * u) / (1.0 + delta * u0 * u0)) * np.exp(int_u)


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
