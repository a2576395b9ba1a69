"""The analytic neck transition map and its derivatives.

An excursion entering the neck at s = -eps0 with angle psi in (0, pi/2)
advances the rotation angle by

    zeta(psi) = 2 * int_y^eps0  (|c|/xi) sqrt((1+xi'^2)/(xi^2-c^2)) ds

and spends time 2*Upsilon0 inside, where

    Upsilon0(psi) = int_y^eps0  xi sqrt(1+xi'^2) / sqrt(xi^2-c^2) ds,

c = (1+eps0^r) cos(psi) is the Clairaut constant, and y = |s| at the
midpoint of the excursion: the turning radius (|c|-1)^(1/r) for bouncing
entries, 0 for crossing ones.  Both integrands blow up like an inverse
square root:

  * bouncing: xi(s)^2-c^2 vanishes simply at s=y, an integrable endpoint
    singularity.  The substitution s = y + w^2 removes it exactly --
    ds = 2w dw cancels the (s-y)^(-1/2) -- leaving a smooth integrand that
    adaptive Gauss-Kronrod quadrature resolves to near machine precision.
  * crossing: xi^2-c^2 >= 1-c^2 > 0, but the integrand has a spike of
    height ~ (1-c)^(-1/2) and width (1-c)^(1/r) at s=0, so the first panel
    is split at that width before adaptive subdivision.

Cancellation note: everything difficult lives in xi(s)^2 - c^2 with both
quantities near 1.  It is always evaluated factored as (xi-c)(xi+c), with
xi-c = s^r + (1-c) for crossing and xi-c = y^r * expm1(r*log1p(w^2/y)) for
bouncing, both exact to a few ulp however deep the band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from . import bands
from .bands import HomogeneityBand, band_of_gap
from .errors import AccuracyError, AsymptoticEntryError, BandTooDeepError
from .surface import SurfaceProfile, TrajectoryClass

#: quadrature request; the certified post-condition is 1e-9 relative
_EPSREL = 1e-11
_ERR_CEILING = 1e-9


@dataclass(frozen=True)
class EntryData:
    """Entry angle resolved into Clairaut data, cancellation-free.

    u = | |c|-1 | is computed from the exact angle difference psi - psi0
    via the product formula for cos(psi) - cos(psi0), then corrected by the
    one-ulp residual of the angle inversion, so it stays smooth in psi all
    the way into the deepest bands.
    """

    psi: float
    c: float
    u: float
    klass: TrajectoryClass


def entry_data(profile: SurfaceProfile, psi: float) -> EntryData:
    if not 0.0 < psi < 0.5 * math.pi:
        raise ValueError(f"entry angle must lie in (0, pi/2), got {psi}")
    a = profile.boundary_radius
    psi0 = profile.asymptotic_angle()
    if psi == psi0:
        raise AsymptoticEntryError("entry angle equals the asymptotic angle")
    resid = a * math.cos(psi0) - 1.0  # O(ulp) rounding of the inversion
    d = psi - psi0
    prod = 2.0 * a * math.sin(0.5 * (psi + psi0)) * abs(math.sin(0.5 * d))
    cm1 = (prod if d < 0.0 else -prod) + resid  # c - 1
    if cm1 == 0.0:
        raise AsymptoticEntryError("entry is exactly asymptotic (c = 1)")
    klass = TrajectoryClass.BOUNCING if cm1 > 0.0 else TrajectoryClass.CROSSING
    return EntryData(psi=psi, c=1.0 + cm1, u=abs(cm1), klass=klass)


def _bouncing_integrand(profile: SurfaceProfile, ent: EntryData, which: str):
    """Integrand in the regularized variable w, s = y + w^2."""
    r = profile.r
    y = ent.u ** (1.0 / r)
    q = y**r  # equals u to rounding; keeps xi-c internally consistent
    c = ent.c

    def f(w):
        s = y + w * w
        sr = s**r
        xi = 1.0 + sr
        xp = r * sr / s
        ximc = q * math.expm1(r * math.log1p(w * w / y))
        xipc = 2.0 + ent.u + sr
        root = math.sqrt(ximc * xipc)
        g = math.sqrt(1.0 + xp * xp)
        if which == "zeta":
            return 2.0 * c * g * 2.0 * w / (xi * root)
        return xi * g * 2.0 * w / root

    return f, y


def _crossing_integrand(profile: SurfaceProfile, ent: EntryData, which: str):
    r = profile.r
    u = ent.u
    c = ent.c

    def f(s):
        sr = s**r
        xi = 1.0 + sr
        xp = r * s ** (r - 1.0)
        root = math.sqrt((sr + u) * (2.0 - u + sr))
        g = math.sqrt(1.0 + xp * xp)
        if which == "zeta":
            return 2.0 * c * g / (xi * root)
        return xi * g / root

    return f


def _excursion_value(
    profile: SurfaceProfile, psi: float, which: str, epsrel: float = _EPSREL
) -> tuple[float, float]:
    """(value, abs error estimate) of zeta or upsilon0 at one entry angle."""
    ent = entry_data(profile, psi)
    if ent.klass is TrajectoryClass.BOUNCING:
        f, y = _bouncing_integrand(profile, ent, which)
        hi = math.sqrt(profile.eps0 - y)
        val, err = quad(f, 0.0, hi, epsabs=0.0, epsrel=epsrel, limit=200)
    else:
        f = _crossing_integrand(profile, ent, which)
        peak = min(ent.u ** (1.0 / profile.r), 0.5 * profile.eps0)
        val, err = quad(
            f, 0.0, profile.eps0, points=[peak], epsabs=0.0, epsrel=epsrel, limit=200
        )
    if not err <= _ERR_CEILING * abs(val):
        raise AccuracyError(
            f"{which} quadrature achieved {err:.3e} (relative "
            f"{err / abs(val):.3e}), above the 1e-9 ceiling",
            achieved=err / abs(val),
        )
    return val, err


def zeta(profile: SurfaceProfile, psi: float) -> float:
    """Total angular advance of one excursion entering at angle psi.

    Diverges (through the band structure) as psi approaches the asymptotic
    angle from either side, and vanishes linearly in c as psi -> pi/2.
    """
    return _excursion_value(profile, psi, "zeta")[0]


def upsilon0(profile: SurfaceProfile, psi: float) -> float:
    """Half transit time of one excursion entering at angle psi."""
    return _excursion_value(profile, psi, "upsilon0")[0]


@dataclass(frozen=True)
class TransitionDerivs:
    zeta_prime: float
    zeta_prime_err: float
    zeta_second: float | None
    zeta_second_err: float


def _crossing_derivs(profile: SurfaceProfile, ent: EntryData) -> TransitionDerivs:
    """Closed-form derivative integrals for a crossing entry.

    With a = 1+eps0^r and A(s) = sqrt(1+xi'^2)/xi:

        zeta'(psi)  = -2a sin(psi) int_0^eps0 A xi^2 [xi^2-c^2]^(-3/2) ds
        zeta''(psi) =  2a cos(psi) int_0^eps0 A xi^2 [3(a^2-c^2)
                         - (xi^2-c^2)] [xi^2-c^2]^(-5/2) ds

    (differentiating under the integral; dc/dpsi = -a sin psi and
    3a^2 sin^2 psi + a^2 cos^2 psi - xi^2 = 3(a^2-c^2) - (xi^2-c^2)).
    """
    r = profile.r
    a = profile.boundary_radius
    u, c, psi = ent.u, ent.c, ent.psi
    amc = (a - c) * (a + c)  # a^2 - c^2, no cancellation: a-1 >> |c-1|

    def f1(s):
        sr = s**r
        xi = 1.0 + sr
        xp = r * s ** (r - 1.0)
        dd = (sr + u) * (2.0 - u + sr)
        return xi * math.sqrt(1.0 + xp * xp) * dd**-1.5

    def f2(s):
        sr = s**r
        xi = 1.0 + sr
        xp = r * s ** (r - 1.0)
        dd = (sr + u) * (2.0 - u + sr)
        return xi * math.sqrt(1.0 + xp * xp) * (3.0 * amc - dd) * dd**-2.5

    peak = min(u ** (1.0 / r), 0.5 * profile.eps0)
    kw = dict(points=[peak], epsabs=0.0, epsrel=_EPSREL, limit=200)
    i1, e1 = quad(f1, 0.0, profile.eps0, **kw)
    i2, e2 = quad(f2, 0.0, profile.eps0, **kw)
    zp = -2.0 * a * math.sin(psi) * i1
    zs = 2.0 * a * math.cos(psi) * i2
    return TransitionDerivs(
        zeta_prime=zp,
        zeta_prime_err=2.0 * a * e1,
        zeta_second=zs,
        zeta_second_err=2.0 * a * e2,
    )


def _bouncing_derivs(
    profile: SurfaceProfile, ent: EntryData, band: HomogeneityBand, step_fraction: float
) -> TransitionDerivs:
    """Richardson-extrapolated central differences for a bouncing entry.

    The turning radius makes the parameter derivative of the endpoint
    contribute, so there is no closed form here; instead zeta is sampled at
    psi +- h and psi +- h/2 with h a fixed fraction of the band width.  The
    second derivative reuses the same five-point stencil and is dropped
    (None) when its noise estimate swamps the value, which happens in deep
    bands where h^2 amplifies quadrature error.
    """
    psi = ent.psi
    h = step_fraction * bands.band_width(profile, band.n, band.side, n0=band.n)
    # keep the stencil inside (0, psi0): zeta is smooth across band labels
    # but singular at the asymptotic angle itself
    h = min(h, 0.45 * psi, 0.45 * (profile.asymptotic_angle() - psi))
    if psi + h == psi or h < 8.0 * math.ulp(psi):
        raise BandTooDeepError(
            f"band n={band.n}: differentiation step {h:.3e} underflows at psi={psi}"
        )
    vals = {}
    errs = {}
    for k in (-2, -1, 0, 1, 2):
        vals[k], errs[k] = _excursion_value(profile, psi + 0.5 * k * h, "zeta")
    qnoise = max(errs.values())

    d_h = (vals[2] - vals[-2]) / (2.0 * h)
    d_h2 = (vals[1] - vals[-1]) / h
    zp = (4.0 * d_h2 - d_h) / 3.0
    zp_err = abs(zp - d_h2) / 3.0 + 2.0 * qnoise / h

    s_h = (vals[2] - 2.0 * vals[0] + vals[-2]) / (h * h)
    s_h2 = (vals[1] - 2.0 * vals[0] + vals[-1]) / (0.25 * h * h)
    zs = (4.0 * s_h2 - s_h) / 3.0
    zs_err = abs(zs - s_h2) / 3.0 + 16.0 * qnoise / (h * h)
    second = zs if zs_err <= 0.5 * abs(zs) else None
    return TransitionDerivs(
        zeta_prime=zp, zeta_prime_err=zp_err, zeta_second=second, zeta_second_err=zs_err
    )


def zeta_derivs(
    profile: SurfaceProfile,
    psi: float,
    band: HomogeneityBand | None = None,
    step_fraction: float = 0.1,
) -> TransitionDerivs:
    """First (and where reliable, second) derivative of zeta at psi.

    psi must lie strictly inside a homogeneity band; pass the band if the
    caller already knows it, otherwise it is recovered from the angle's
    exact gap u, not from the rounded c.
    Crossing bands use closed-form singular quadrature; bouncing bands use
    central differences with step = step_fraction * band width.
    """
    ent = entry_data(profile, psi)
    if band is None:
        band = band_of_gap(ent.u, ent.klass.value, n0=1)
    if band is None:
        raise ValueError(
            "entry angle sits on a band boundary; derivatives need an "
            "angle strictly inside a band"
        )
    if ent.klass is TrajectoryClass.CROSSING:
        return _crossing_derivs(profile, ent)
    return _bouncing_derivs(profile, ent, band, step_fraction)


@dataclass(frozen=True)
class TransitionEval:
    """One full evaluation of the transition map data at an entry angle."""

    psi: float
    c: float
    klass: TrajectoryClass
    zeta: float
    upsilon0: float
    zeta_err: float
    upsilon0_err: float
    zeta_prime: float | None = None
    zeta_prime_err: float | None = None
    zeta_second: float | None = None
    zeta_second_err: float | None = None


def evaluate(
    profile: SurfaceProfile, psi: float, with_derivs: bool = True
) -> TransitionEval:
    ent = entry_data(profile, psi)
    z, ze = _excursion_value(profile, psi, "zeta")
    up, ue = _excursion_value(profile, psi, "upsilon0")
    zp = zpe = zs = zse = None
    if with_derivs:
        d = zeta_derivs(profile, psi)
        zp, zpe, zs, zse = d.zeta_prime, d.zeta_prime_err, d.zeta_second, d.zeta_second_err
    return TransitionEval(
        psi=psi,
        c=ent.c,
        klass=ent.klass,
        zeta=z,
        upsilon0=up,
        zeta_err=ze,
        upsilon0_err=ue,
        zeta_prime=zp,
        zeta_prime_err=zpe,
        zeta_second=zs,
        zeta_second_err=zse,
    )


def apply_f0(profile: SurfaceProfile, state) -> "GeodesicState":
    """Map an entry vector at s = -eps0 to its exit vector analytically.

    Bouncing: (-eps0, theta + sign(c) zeta, -psi); the excursion returns to
    the entry circle with the meridian angle reflected.  Crossing:
    (+eps0, theta + sign(c) zeta, psi).  The theta advance carries the sign
    of c because theta' = c/xi^2 does.
    """
    from .dynamics import GeodesicState

    if abs(state.s + profile.eps0) > 1e-12 * max(1.0, profile.eps0):
        raise ValueError(f"entry must sit on s = -eps0, got s={state.s}")
    ent = entry_data(profile, state.psi)
    dtheta = math.copysign(zeta(profile, state.psi), ent.c)
    if ent.klass is TrajectoryClass.BOUNCING:
        return GeodesicState(s=-profile.eps0, theta=state.theta + dtheta, psi=-state.psi)
    return GeodesicState(s=profile.eps0, theta=state.theta + dtheta, psi=state.psi)


def df0(profile: SurfaceProfile, psi: float) -> np.ndarray:
    """Differential of the transition map in (theta, psi): [[1, z'], [0, +-1]].

    The lower-right entry is -1 for bouncing (the psi reflection) and +1
    for crossing; |det| = 1 always.
    """
    ent = entry_data(profile, psi)
    d = zeta_derivs(profile, psi)
    sign = -1.0 if ent.klass is TrajectoryClass.BOUNCING else 1.0
    return np.array([[1.0, d.zeta_prime], [0.0, sign]])


def growth_factor(
    profile: SurfaceProfile,
    psi: float,
    slope: float,
    zeta_prime: float | None = None,
) -> float:
    """Expansion of df0 on a line of slope `slope` in the 1-norm.

    A tangent direction (1, a) has 1-norm 1+|a| and maps to (1, a+zeta'),
    so the factor is (1+|a+zeta'|)/(1+|a|).
    """
    if zeta_prime is None:
        zeta_prime = zeta_derivs(profile, psi).zeta_prime
    return (1.0 + abs(slope + zeta_prime)) / (1.0 + abs(slope))


def tabulate_bands(
    profile: SurfaceProfile,
    n_values,
    sides=bands.SIDES,
    n0: int = bands.DEFAULT_N0,
) -> list[dict]:
    """Transition-map table at band midpoints: one row per (n, side)."""
    rows = []
    for n in n_values:
        for side in sides:
            _, psi_mid = bands.band_midpoint(profile, n, side, n0)
            ev = evaluate(profile, psi_mid)
            rel = max(
                ev.zeta_err / ev.zeta,
                ev.upsilon0_err / ev.upsilon0,
                (ev.zeta_prime_err / abs(ev.zeta_prime)) if ev.zeta_prime else 0.0,
            )
            rows.append(
                {
                    "n": n,
                    "side": side,
                    "psi_mid": psi_mid,
                    "c": ev.c,
                    "zeta": ev.zeta,
                    "upsilon0": ev.upsilon0,
                    "zeta_prime": ev.zeta_prime,
                    "zeta_second": ev.zeta_second,
                    "err_est": rel,
                }
            )
    return rows
