"""Geodesic flow through the neck, reduced to first order.

Unit-speed geodesics of a surface of revolution with profile xi(s) close
under the angle coordinate: with psi the angle from the parallel direction,

    s'     = sin(psi) / sqrt(1 + xi'^2)
    theta' = cos(psi) / xi
    psi'   = xi' cos(psi) / (xi sqrt(1 + xi'^2))

and the Clairaut constant c = xi(s) cos(psi) is a first integral.  The
integrator below rides scipy's DOP853 with terminal boundary events and
uses the measured drift of c as an a-posteriori error gauge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .errors import AccuracyError, AsymptoticEntryError, IntegrationStallError, NeckDomainError
from .surface import SurfaceProfile, TrajectoryClass, classify

_RTOL, _ATOL = 1e-10, 1e-12  # integrate's; a drifting run retries at a hundredth
_T_MAX = 1e6  # neck_transit's time cap for near-asymptotic entries


@dataclass(frozen=True)
class GeodesicState:
    """Point of the unit tangent bundle in (s, theta, psi) coordinates."""

    s: float
    theta: float
    psi: float

    def clairaut(self, profile: SurfaceProfile) -> float:
        xi, _, _ = profile.profile_eval(self.s)
        return float(xi) * math.cos(self.psi)

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


def _make_rhs(profile: SurfaceProfile):
    """Scalar-math RHS closure; tolerates small overshoot past |s|=eps0."""
    r = profile.r

    def rhs(t, y):
        s, _, psi = y
        ar = abs(s) ** r
        xi = 1.0 + ar
        xp = 0.0 if s == 0.0 else math.copysign(r * ar / abs(s), s)
        g = math.sqrt(1.0 + xp * xp)
        cp = math.cos(psi)
        return (math.sin(psi) / g, cp / xi, xp * cp / (xi * g))

    return rhs


def _make_events(profile: SurfaceProfile):
    eps0 = profile.eps0

    def exit_plus(t, y):
        return y[0] - eps0

    exit_plus.terminal = True
    exit_plus.direction = 1.0

    def exit_minus(t, y):
        return y[0] + eps0

    exit_minus.terminal = True
    exit_minus.direction = -1.0

    def turning(t, y):
        return math.sin(y[2])

    turning.terminal = False
    turning.direction = 0.0

    def equator(t, y):
        return y[0]

    equator.terminal = False
    equator.direction = 0.0

    return [exit_plus, exit_minus, turning, equator]


_EVENT_NAMES = ("exit_plus", "exit_minus", "turning", "equator")
_TERMINAL_ONLY = ("exit_plus", "exit_minus")


@dataclass
class GeodesicPath:
    """One integrated stretch of flow with dense output and event log."""

    profile: SurfaceProfile
    c0: float
    t: np.ndarray
    states: np.ndarray  # shape (3, len(t)); rows s, theta, psi
    events: dict[str, np.ndarray]
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
        drift = _clairaut_drift(self.profile, y[0], y[2], self.c0)
        return np.column_stack([times, y[0], y[1], y[2], drift])


def _check_stall(sol) -> None:
    """Raise IntegrationStallError, with the time reached, if solve_ivp broke down."""
    if sol.status == -1:
        raise IntegrationStallError(
            f"solver stalled: {sol.message}", t_reached=float(sol.t[-1])
        )


def _clairaut_drift(profile: SurfaceProfile, s, psi, c0: float):
    """xi(s) cos(psi) - c0 at footpoints that may overshoot |s| = eps0."""
    xi = 1.0 + np.abs(s) ** profile.r
    return xi * np.cos(psi) - c0


def _measure_drift(profile: SurfaceProfile, sol, c0: float, t0: float, t1: float) -> float:
    ts = np.linspace(t0, t1, 257)
    y = sol.sol(ts)
    return float(np.max(np.abs(_clairaut_drift(profile, y[0], y[2], c0))))


def integrate(
    profile: SurfaceProfile,
    state: GeodesicState,
    t_span: tuple[float, float],
    drift_tol: float | None = 1e-8,
    log_events: bool = True,
) -> GeodesicPath:
    """Flow a state across t_span, stopping early at a neck boundary.

    The Clairaut drift over the run is measured on a dense sample; if it
    exceeds drift_tol the run is repeated once at a hundredth of _RTOL and
    _ATOL, and a run that still drifts raises AccuracyError.  Solver
    breakdown raises IntegrationStallError carrying the time reached.
    log_events=False keeps only the terminal boundary events -- use it for
    host paths that ride along the ridge, where sin(psi) vanishes
    identically and would register a spurious turning event on every step.
    """
    profile._check_domain(state.s)
    c0 = state.clairaut(profile)
    rhs = _make_rhs(profile)
    y0 = [state.s, state.theta, state.psi]
    ev_funcs = _make_events(profile)
    ev_names = _EVENT_NAMES
    if not log_events:
        ev_funcs, ev_names = ev_funcs[:2], _TERMINAL_ONLY

    tols = (_RTOL, _ATOL)
    for attempt in range(2):
        sol = solve_ivp(
            rhs,
            t_span,
            y0,
            method="DOP853",
            events=ev_funcs,
            dense_output=True,
            rtol=tols[0],
            atol=tols[1],
        )
        _check_stall(sol)
        drift = _measure_drift(profile, sol, c0, t_span[0], sol.t[-1])
        if drift_tol is None or drift <= drift_tol:
            break
        tols = (tols[0] / 100.0, tols[1] / 100.0)
    else:
        raise AccuracyError(
            f"Clairaut drift {drift:.3e} above tolerance {drift_tol:.1e} "
            "even after tightening",
            achieved=drift,
        )

    events = {name: np.asarray(sol.t_events[i]) for i, name in enumerate(ev_names)}
    return GeodesicPath(
        profile=profile,
        c0=c0,
        t=sol.t,
        states=sol.y,
        events=events,
        drift=drift,
        terminated=sol.status == 1,
        _sol=sol.sol,
    )


@dataclass(frozen=True)
class NeckTransit:
    """Numerically flowed excursion: entry to exit, with the event log."""

    entry: GeodesicState
    exit: GeodesicState
    transit_time: float
    dtheta: float
    turning_times: tuple[float, ...]
    equator_times: tuple[float, ...]
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
        turning_times=tuple(path.events["turning"].tolist()),
        equator_times=tuple(path.events["equator"].tolist()),
        klass=classify(c0),
        path=path,
    )
