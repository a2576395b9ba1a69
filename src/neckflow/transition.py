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

zeta' and zeta'' are exact integrals on both sides, differentiated under the
integral sign (for bouncing entries by Leibniz's rule, as the turning point
moves the upper limit); each carries its quadrature error estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from . import bands
from .errors import AccuracyError, AsymptoticEntryError
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
    """Integrand in the regularized variable w, s = y + w^2.

    which is "zeta", "upsilon0", or, with F the zeta integrand and
    L = d log F/du at fixed w (u = c-1), "dzeta" = F L or
    "d2zeta" = F (L^2 + dL/du).  The u-derivatives are cancellation-free:
    d(xi-c)/du = expm1((r-1) log1p(w^2/y)) and d(xi+c)/du is that plus 2.
    """
    r = profile.r
    u, c = ent.u, ent.c
    y = u ** (1.0 / r)
    q = y**r  # equals u to rounding; keeps xi-c internally consistent
    y1 = y / (r * u)  # dy/du
    y2 = y1 * (1.0 / r - 1.0) / u
    r1, ic = r - 1.0, 1.0 / c

    def f(w):
        s = y + w * w
        sr = s**r
        xi = 1.0 + sr
        xp = r * sr / s
        ximc = q * math.expm1(r * math.log1p(w * w / y))
        xipc = 2.0 + u + sr
        root = math.sqrt(ximc * xipc)
        g = math.sqrt(1.0 + xp * xp)
        if which == "upsilon0":
            return xi * g * 2.0 * w / root
        fz = 2.0 * c * g * 2.0 * w / (xi * root)
        if which == "zeta":
            return fz
        x = w * w / y
        xpp = r1 * xp / s
        dm = math.expm1(r1 * math.log1p(x))  # d(xi-c)/du
        pm, pp = dm / ximc, (dm + 2.0) / xipc  # d/du log(xi-c), log(xi+c)
        a1, b1 = xp * xpp / (g * g), xp / xi
        h = a1 - b1  # d/ds log(g/xi)
        lf = ic + y1 * h - 0.5 * (pm + pp)
        if which == "dzeta":
            return fz * lf
        d = -r1 * y1 / y * (1.0 + dm) * x / (1.0 + x)  # d(dm)/du
        hs = (xpp * xpp + (r - 2.0) * xp * xpp / s) / (g * g) - 2.0 * a1 * a1
        hs += b1 * b1 - xpp / xi  # dh/ds
        lfu = y2 * h + y1 * y1 * hs - ic * ic - 0.5 * (d / ximc + d / xipc - pm * pm - pp * pp)
        return fz * (lf * lf + lfu)

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


def _certified(what: str, val: float, err: float) -> tuple[float, float]:
    """(val, err) if err is within the 1e-9 relative ceiling, else raise."""
    if not err <= _ERR_CEILING * abs(val):
        raise AccuracyError(
            f"{what} quadrature achieved {err:.3e} (relative "
            f"{err / abs(val):.3e}), above the 1e-9 ceiling",
            achieved=err / abs(val),
        )
    return val, err


def _excursion_value(profile: SurfaceProfile, psi: float, which: str) -> tuple[float, float]:
    """(value, abs error estimate) of zeta or upsilon0 at one entry angle."""
    ent = entry_data(profile, psi)
    if ent.klass is TrajectoryClass.BOUNCING:
        f, y = _bouncing_integrand(profile, ent, which)
        hi = math.sqrt(profile.eps0 - y)
        val, err = quad(f, 0.0, hi, epsabs=0.0, epsrel=_EPSREL, limit=200)
    else:
        f = _crossing_integrand(profile, ent, which)
        peak = min(ent.u ** (1.0 / profile.r), 0.5 * profile.eps0)
        val, err = quad(
            f, 0.0, profile.eps0, points=[peak], epsabs=0.0, epsrel=_EPSREL, limit=200
        )
    return _certified(which, val, err)


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
    zeta_second: float
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


def _bouncing_derivs(profile: SurfaceProfile, ent: EntryData) -> TransitionDerivs:
    """Leibniz-rule derivative integrals for a bouncing entry.

    zeta(u) = int_0^W F dw has the moving limit W = sqrt(eps0 - y), so with
    B = F(W) dW/du, dzeta/du = int F L dw + B and d2zeta/du2 =
    int F (L^2 + dL/du) dw + (F L)(W) dW/du + dB/du, the integrands being
    those of _bouncing_integrand.  B and dB/du are closed form, since
    s = eps0 at w = W; du/dpsi = -a sin(psi) turns these into zeta', zeta''.
    """
    r, a, u, c, psi = profile.r, profile.boundary_radius, ent.u, ent.c, ent.psi
    f1, y = _bouncing_integrand(profile, ent, "dzeta")
    f2, _ = _bouncing_integrand(profile, ent, "d2zeta")
    hi = math.sqrt(profile.eps0 - y)
    # split where the integrands turn over, as _crossing_derivs does
    kw = dict(points=[min(math.sqrt(y), 0.5 * hi)], epsabs=0.0, epsrel=_EPSREL, limit=200)
    i1, e1 = quad(f1, 0.0, hi, **kw)
    i2, e2 = quad(f2, 0.0, hi, **kw)
    y1 = y / (r * u)  # dy/du and d2y/du2, as in _bouncing_integrand
    y2 = y1 * (1.0 / r - 1.0) / u
    root = math.sqrt((a - c) * (a + c))  # sqrt(xi^2 - c^2) at s = eps0
    g0 = math.sqrt(1.0 + (r * profile.eps0 ** (r - 1.0)) ** 2)
    b = -2.0 * c * g0 * y1 / (a * root)
    db = -2.0 * g0 / a * (y1 / root + c * y2 / root + c * c * y1 / root**3)
    z1 = i1 + b
    z2 = i2 - f1(hi) * y1 / (2.0 * hi) + db
    k = a * math.sin(psi)  # -du/dpsi
    return TransitionDerivs(
        zeta_prime=-k * z1,
        zeta_prime_err=k * e1,
        zeta_second=k * k * z2 - a * math.cos(psi) * z1,
        zeta_second_err=k * k * e2 + a * math.cos(psi) * e1,
    )


def zeta_derivs(profile: SurfaceProfile, psi: float) -> TransitionDerivs:
    """zeta' and zeta'' at any non-asymptotic psi, from exact integrals.

    Raises AccuracyError if either error estimate exceeds 1e-9 relative.
    """
    ent = entry_data(profile, psi)
    if ent.klass is TrajectoryClass.CROSSING:
        d = _crossing_derivs(profile, ent)
    else:
        d = _bouncing_derivs(profile, ent)
    _certified("zeta'", d.zeta_prime, d.zeta_prime_err)
    _certified("zeta''", d.zeta_second, d.zeta_second_err)
    return d


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
