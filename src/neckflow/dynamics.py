"""Geodesic flow through the neck, reduced to first order.

Unit-speed geodesics of a surface of revolution with profile xi(s) close
under the angle coordinate: with psi the angle from the parallel direction,

    s'     = sin(psi) / sqrt(1 + xi'^2)
    theta' = cos(psi) / xi
    psi'   = xi' cos(psi) / (xi sqrt(1 + xi'^2)),

its factors from SurfaceProfile.geometry, the one form of the metric that
transition's excursion integrands read too.  The Clairaut constant c =
xi(s) cos(psi) (SurfaceProfile.clairaut_*) is a first integral whose
measured drift is the error gauge.  The one event is leaving the neck:
_exit_event's |s| - eps0 rising through 0.  integrate (and neck_transit on
it) rides scipy's DOP853 to it with dense output; _lockstep runs rows in one
batch without it, for neck_transits and linearization's relaxations, and
locates the same event on each row's DOP853 interpolant.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AccuracyError, AsymptoticEntryError, IntegrationStallError, NeckDomainError
from .surface import SurfaceProfile, TrajectoryClass, classify

_RTOL, _ATOL = 1e-10, 1e-12  # integrate's; a drifting run retries at a hundredth
DRIFT_TOL = 1e-8  # integrate's default Clairaut drift tolerance (geodesic --tol)
_T_MAX = 1e6  # neck_transit's time cap for near-asymptotic entries


@dataclass(frozen=True)
class GeodesicState:
    """Point of the unit tangent bundle in (s, theta, psi) coordinates."""

    s: float
    theta: float
    psi: float

    def clairaut(self, profile: SurfaceProfile) -> float:
        return float(profile.clairaut_constant(self.s, self.psi))

    def as_array(self) -> np.ndarray:
        return np.array([self.s, self.theta, self.psi])


def reverse(state: GeodesicState) -> GeodesicState:
    """Same footpoint, opposite direction: psi -> psi + pi in (-pi, pi]."""
    psi = state.psi + math.pi
    if psi > math.pi:
        psi -= 2.0 * math.pi
    return GeodesicState(s=state.s, theta=state.theta, psi=psi)


def vector_field(profile: SurfaceProfile, state: GeodesicState) -> tuple[float, float, float]:
    """(s', theta', psi') at a state; footpoint must lie in the neck."""
    profile._check_domain(state.s)
    rhs = _make_rhs(profile)
    ds, dth, dps = rhs(0.0, (state.s, state.theta, state.psi))
    return ds, dth, dps


def _make_rhs(profile: SurfaceProfile, xp=math):
    """RHS closure over the namespace xp: math for one state, computed on
    Python floats, numpy for rows of states, one array per component.  The
    metric factors are SurfaceProfile.geometry's, which tolerates small
    overshoot past |s|=eps0."""
    geometry = profile.geometry
    sin, cos = xp.sin, xp.cos
    scalar = xp is math

    def rhs(t, y):
        s, psi = (float(y[0]), float(y[2])) if scalar else (y[0], y[2])
        _, xi, d1, g = geometry(s, xp)
        cp = cos(psi)
        return (sin(psi) / g, cp / xi, d1 * cp / (xi * g))

    return rhs


def _exit_event(profile: SurfaceProfile):
    """The terminal event |s| - eps0, crossed upward as the footpoint leaves
    the neck through either boundary.  Near s = -eps0 it is exactly -(s +
    eps0), so a row starting there and pointing in never triggers it."""
    eps0 = profile.eps0

    def leaves(t, y):
        return abs(y[0]) - eps0

    leaves.terminal = True
    leaves.direction = 1.0
    return leaves


@dataclass
class GeodesicPath:
    """One solve_ivp run to a neck boundary, with dense output and drift."""

    profile: SurfaceProfile
    c0: float
    t: np.ndarray
    states: np.ndarray  # shape (3, len(t)); rows s, theta, psi
    drift: float
    terminated: bool  # True if a boundary event ended the run
    _sol: object = field(repr=False, default=None)

    @property
    def t_end(self) -> float:
        return float(self.t[-1])

    def state_at(self, t: float) -> GeodesicState:
        s, th, ps = self._sol(t)
        return GeodesicState(s=float(s), theta=float(th), psi=float(ps))

    def sample(self, times) -> np.ndarray:
        """Rows (t, s, theta, psi, c drift) at the requested times."""
        times = np.asarray(times, dtype=float)
        y = self._sol(times)
        drift = self.profile.clairaut_unchecked(y[0], y[2]) - self.c0
        return np.column_stack([times, y[0], y[1], y[2], drift])


# scipy is imported where it is first used, so paths that run no ODE solver
# (tails, the transition tables) never load it


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on the first call."""
    from scipy.integrate import solve_ivp

    return solve_ivp(*args, **kwargs)


def brentq(*args, **kwargs):
    """scipy.optimize.brentq, imported on the first call."""
    from scipy.optimize import brentq

    return brentq(*args, **kwargs)


@functools.cache
def _tableau():
    """_lockstep's DOP853: the Hairer-Norsett-Wanner 8(5,3) tableau as scipy
    ships it, scipy's own arrays (C, A, B, E3, E5, D), read on first use."""
    from scipy.integrate._ivp import dop853_coefficients

    return dop853_coefficients


# the step-size controller constants of scipy's RungeKutta
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1.0 / 8.0  # the error estimator has order 7
_ROOT_TOL = 4.0 * np.finfo(float).eps  # solve_ivp's event tolerance


def _combine(K, a):
    """sum_j a[j] K[j] over the leading axis of the stage buffer K, (stages,
    dim, rows), for the len(a) stages a covers.  np.add.reduce adds the
    terms in stage order, one element at a time, when numpy's inner loop
    runs over components and rows (dim >= 2; a lone element per stage would
    be summed pairwise from 8 stages on), so no row's bits depend on the
    rows beside it; a zero coefficient adds a signed zero, which leaves a
    nonzero partial sum as it is.  BLAS sums (dot, @, tensordot) reorder terms."""
    return np.add.reduce(a[:, None, None] * K[: a.size], axis=0)


def _sum_sq(x):
    """Per-row sum of squares over the components of x (dim, rows), added in
    component order: for one row numpy sums the components as its inner
    loop, in order below 8 of them and pairwise from 8 on."""
    return np.add.reduce(x * x, axis=0)


def _lockstep(fun, y0, t_bound, rtol, atol, event=None, monitor=None):
    """DOP853 over rows of y' = fun(t, y) from t = 0, all rows in lockstep.

    y0 is (rows, dim), 2 <= dim <= 7 (see _combine and _sum_sq: outside it
    a lone row's sums are added pairwise, and rows would not be
    batch-invariant), else ValueError; t_bound (> 0, finite), rtol and atol
    give one value per row or one for all.  fun(t, y) and event(t, y)
    receive t with one time per row and y as (dim, rows), so y[0] is the
    rows' first component; fun returns one array per component.  Each row
    runs scipy's DOP853 controller on its own -- initial step, error norm,
    SAFETY and factor limits, rejection flag -- and a finished row drops
    out.  The event is terminal: a row ends where its event value goes from
    <= 0 to >= 0 over an accepted step, the three extra dense-output stages
    are computed only for those rows, and each root is found on the row's
    interpolant as solve_ivp finds it.

    Returns (t_end, y_end, hit, peak): y_end is (rows, dim), hit marks the
    rows the event ended, and peak holds each row's largest |monitor(rows, y)|
    (rows the indices of y's columns) over its start, accepted steps and
    event root, or is None, at no cost, without a monitor.  A row whose step
    falls below 10 ulps of its t raises IntegrationStallError with the row.
    """
    tab = _tableau()
    y = np.array(y0, dtype=float).T.copy()
    dim, rows = y.shape
    if not 2 <= dim <= 7:
        raise ValueError(f"lockstep rows need 2 to 7 components, got {dim}")
    t_bound, rtol, atol = (
        np.broadcast_to(np.asarray(v, dtype=float), (rows,)).copy()
        for v in (t_bound, rtol, atol)
    )
    t_end, y_end, hit = np.zeros(rows), y.copy(), np.zeros(rows, dtype=bool)
    peak = None if monitor is None else np.abs(monitor(np.arange(rows), y))
    live = np.flatnonzero(t_bound > 0.0)  # a zero span ends where it starts
    y = y[:, live]
    t, t_bound, rtol, atol = np.zeros(live.size), t_bound[live], rtol[live], atol[live]

    # select_initial_step, row by row
    f = np.array(fun(t, y))
    scale = atol + np.abs(y) * rtol
    d0, d1 = np.sqrt(_sum_sq(y / scale) / dim), np.sqrt(_sum_sq(f / scale) / dim)
    with np.errstate(divide="ignore", invalid="ignore"):
        h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
        h0 = np.minimum(h0, t_bound)
        d2 = np.sqrt(_sum_sq((np.array(fun(t + h0, y + h0 * f)) - f) / scale) / dim) / h0
        h1 = np.where(
            (d1 <= 1e-15) & (d2 <= 1e-15),
            np.maximum(1e-6, h0 * 1e-3),
            (0.01 / np.maximum(d1, d2)) ** (1.0 / 8.0),
        )
    h_abs = np.minimum(np.minimum(100.0 * h0, h1), t_bound)
    rejected = np.zeros(live.size, dtype=bool)
    g = None if event is None else event(t, y)

    while live.size:
        min_step = 10.0 * (np.nextafter(t, np.inf) - t)
        # a fresh step starts at least at min_step; a rejected one may not go below it
        h_abs = np.where(rejected, h_abs, np.maximum(h_abs, min_step))
        stalled = np.flatnonzero(h_abs < min_step)
        if stalled.size:
            i = stalled[0]
            raise IntegrationStallError(
                f"solver stalled in row {live[i]}: step size below 10 ulps of "
                f"t={float(t[i])!r}",
                t_reached=float(t[i]),
                row=int(live[i]),
            )
        t_new = np.minimum(t + h_abs, t_bound)
        h = t_new - t
        K = np.empty((tab.N_STAGES_EXTENDED, dim, live.size))
        K[0] = f
        for i in range(1, tab.N_STAGES):
            K[i] = fun(t + tab.C[i] * h, y + _combine(K, tab.A[i, :i]) * h)
        y_new = y + h * _combine(K, tab.B)
        K[tab.N_STAGES] = fun(t_new, y_new)
        scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        err5 = _sum_sq(_combine(K, tab.E5) / scale)
        err3 = _sum_sq(_combine(K, tab.E3) / scale)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            norm = np.where(
                (err5 == 0.0) & (err3 == 0.0),
                0.0,
                h * err5 / np.sqrt((err5 + 0.01 * err3) * dim),
            )
            grow = _SAFETY * norm**_ERROR_EXPONENT
        accept = norm < 1.0  # False for a NaN norm, which shrinks like any rejection
        factor = np.where(
            accept, np.minimum(_MAX_FACTOR, grow), np.fmax(_MIN_FACTOR, grow)
        )
        factor = np.where(accept & rejected, np.minimum(1.0, factor), factor)
        h_abs = h * factor
        rejected = ~accept
        if not accept.any():
            continue

        t_old, y_old = t, y
        t = np.where(accept, t_new, t)
        y = np.where(accept, y_new, y)
        f = np.where(accept, K[tab.N_STAGES], f)
        done = accept & (t >= t_bound)
        if event is not None:
            g_old, g = g, event(t, y)
            sub = np.flatnonzero(accept & (g_old <= 0.0) & (g >= 0.0))
            if sub.size:
                roots = _event_roots(
                    fun, event, K[:, :, sub], t_old[sub], t[sub], y_old[:, sub], y[:, sub]
                )
                # these rows end at their roots (t and y are fresh arrays)
                for i, (root, y_root) in zip(sub, roots):
                    t[i], y[:, i] = root, y_root
                done[sub] = True
                hit[live[sub]] = True
        if monitor is not None:  # rejected rows repeat their last state
            peak[live] = np.maximum(peak[live], np.abs(monitor(live, y)))
        if done.any():
            t_end[live[done]], y_end[:, live[done]] = t[done], y[:, done]
            keep = ~done
            live, t, y, f = live[keep], t[keep], y[:, keep], f[:, keep]
            t_bound, rtol, atol = t_bound[keep], rtol[keep], atol[keep]
            h_abs, rejected = h_abs[keep], rejected[keep]
            g = None if event is None else g[keep]
    return t_end, y_end.T, hit, peak


def _event_roots(fun, event, K, t_old, t_new, y_old, y_new):
    """(root, state) of the event's crossing per row, one brentq on the
    row's DOP853 interpolant over the step.  K is the step's stage buffer
    for these rows only, (stages, dim, rows); its three dense-output stages
    are filled here, in place."""
    tab = _tableau()
    h = t_new - t_old
    for i in range(tab.N_STAGES + 1, tab.N_STAGES_EXTENDED):
        K[i] = fun(t_old + tab.C[i] * h, y_old + _combine(K, tab.A[i, :i]) * h)
    dy = y_new - y_old
    F = [dy, h * K[0] - dy, 2.0 * dy - h * (K[tab.N_STAGES] + K[0])]
    F += [h * _combine(K, d) for d in tab.D]
    out = []
    for i in range(h.size):
        # the row's interpolant in float arithmetic, the same operations as
        # scipy's Dop853DenseOutput
        Fi = [Fk[:, i].tolist() for Fk in reversed(F)]
        t0, t1, hi, y0 = float(t_old[i]), float(t_new[i]), float(h[i]), y_old[:, i].tolist()

        def state(t):
            x = (t - t0) / hi
            y = []
            for c, yc in enumerate(y0):
                v = 0.0
                for k, Fk in enumerate(Fi):
                    v = (v + Fk[c]) * (x if k % 2 == 0 else 1.0 - x)
                y.append(v + yc)
            return y

        root = brentq(lambda t: event(t, state(t)), t0, t1, xtol=_ROOT_TOL, rtol=_ROOT_TOL)
        out.append((root, state(root)))
    return out


def integrate(
    profile: SurfaceProfile,
    state: GeodesicState,
    t_span: tuple[float, float],
    drift_tol: float = DRIFT_TOL,
) -> GeodesicPath:
    """Flow a state across t_span with solve_ivp, stopping at a neck boundary.

    The Clairaut drift over the run is measured on a dense sample; if it
    exceeds drift_tol the run is repeated once at a hundredth of _RTOL and
    _ATOL, and a run that still drifts raises AccuracyError.  Solver
    breakdown raises IntegrationStallError carrying the time reached.
    """
    profile._check_domain(state.s)
    c0 = state.clairaut(profile)
    rhs = _make_rhs(profile)
    y0 = [state.s, state.theta, state.psi]

    tols = (_RTOL, _ATOL)
    for attempt in range(2):
        sol = solve_ivp(
            rhs,
            t_span,
            y0,
            method="DOP853",
            events=_exit_event(profile),
            dense_output=True,
            rtol=tols[0],
            atol=tols[1],
        )
        if sol.status == -1:
            raise IntegrationStallError(f"solver stalled: {sol.message}", float(sol.t[-1]))
        y = sol.sol(np.linspace(t_span[0], sol.t[-1], 257))
        drift = float(np.max(np.abs(profile.clairaut_unchecked(y[0], y[2]) - c0)))
        if drift <= drift_tol:
            break
        tols = (tols[0] / 100.0, tols[1] / 100.0)
    else:
        raise AccuracyError(
            f"Clairaut drift {drift:.3e} above tolerance {drift_tol:.1e} "
            "even after tightening",
            achieved=drift,
        )
    return GeodesicPath(
        profile=profile,
        c0=c0,
        t=sol.t,
        states=sol.y,
        drift=drift,
        terminated=sol.status == 1,
        _sol=sol.sol,
    )


@dataclass(frozen=True)
class NeckTransit:
    """One excursion flowed by integrate, from entry to exit, with its path."""

    entry: GeodesicState
    exit: GeodesicState
    transit_time: float
    dtheta: float
    klass: TrajectoryClass
    path: GeodesicPath


def neck_transit(
    profile: SurfaceProfile,
    entry: GeodesicState,
) -> NeckTransit:
    """Flow an entry vector at s = -eps0 through the neck until it leaves.

    Asymptotic entries (|c| = 1) never leave and are rejected up front;
    near-asymptotic ones are capped at _T_MAX and raise IntegrationStallError
    when the cap is hit.
    """
    eps0 = profile.eps0
    if not math.isclose(entry.s, -eps0, rel_tol=0.0, abs_tol=1e-12 * max(1.0, eps0)):
        raise NeckDomainError(f"transit entry must sit at s=-eps0, got s={entry.s}")
    if math.sin(entry.psi) <= 0.0:
        raise ValueError("entry vector must point into the neck (sin psi > 0)")
    c0 = entry.clairaut(profile)
    if classify(c0) is TrajectoryClass.ASYMPTOTIC:
        raise AsymptoticEntryError("entry is asymptotic; the excursion never returns")

    path = integrate(profile, entry, (0.0, _T_MAX))
    if not path.terminated:
        raise IntegrationStallError(
            f"no boundary exit before t_max={_T_MAX}", t_reached=path.t_end
        )
    t_exit = path.t_end
    exit_state = path.state_at(t_exit)
    # pin the exit footpoint onto the boundary the event detected
    s_exit = math.copysign(eps0, exit_state.s)
    exit_state = GeodesicState(s=s_exit, theta=exit_state.theta, psi=exit_state.psi)
    return NeckTransit(
        entry=entry,
        exit=exit_state,
        transit_time=t_exit,
        dtheta=exit_state.theta - entry.theta,
        klass=classify(c0),
        path=path,
    )


def neck_transits(profile: SurfaceProfile, psi):
    """neck_transit of the entries (-eps0, 0, psi) as rows of one _lockstep
    batch at integrate's tolerances: arrays (transit_time, dtheta, s, psi,
    drift) with the exit state as its event root left it, and each row's
    largest Clairaut drift over its start, steps and exit.  Rows are
    batch-invariant.  Errors name the entry angle: AsymptoticEntryError, and
    IntegrationStallError for a row that stalls or is still in at _T_MAX.
    """
    psi = np.asarray(psi, dtype=float)
    if not np.all(np.sin(psi) > 0.0):
        raise ValueError("entry vectors must point into the neck (sin psi > 0)")
    y0 = np.column_stack([np.full(psi.shape, -profile.eps0), np.zeros(psi.shape), psi])
    c0 = profile.clairaut_constant(y0[:, 0], psi)
    if np.any(np.abs(c0) == 1.0):
        raise AsymptoticEntryError(f"entry psi={float(psi[np.abs(c0) == 1.0][0])!r} is asymptotic")
    try:
        t, y, hit, drift = _lockstep(
            _make_rhs(profile, np), y0, _T_MAX, _RTOL, _ATOL, _exit_event(profile),
            lambda rows, y: profile.clairaut_unchecked(y[0], y[2]) - c0[rows],
        )
        if not hit.all():
            i = int(np.argmin(hit))
            raise IntegrationStallError(f"no boundary exit before t_max={_T_MAX}", float(t[i]), i)
    except IntegrationStallError as exc:
        msg = f"{exc} at entry psi={float(psi[exc.row])!r}"
        raise IntegrationStallError(msg, exc.t_reached) from exc
    return t, y[:, 1], y[:, 0], y[:, 2], drift
