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
    ds = 2w dw cancels the (s-y)^(-1/2) -- leaving a smooth integrand in w.
  * crossing: xi^2-c^2 >= 1-c^2 > 0, but the integrand has a spike of
    height ~ (1-c)^(-1/2) and width (1-c)^(1/r) at s=0.

Cancellation note: everything difficult lives in xi(s)^2 - c^2 with both
quantities near 1.  It is always evaluated factored as (xi-c)(xi+c), with
xi-c = s^r + (1-c) for crossing and xi-c = y^r * expm1(r*log1p(w^2/y)) for
bouncing, both exact to a few ulp however deep the band.

zeta' and zeta'' are exact integrals on both sides, differentiated under the
integral sign (for bouncing entries by Leibniz's rule, as the turning point
moves the upper limit).

One engine integrates all of them, for one entry or a batch.  Each side has
one integrand, a numpy expression that yields, in one pass over shared
nodes, whichever of upsilon0, zeta and the two derivative integrands the
caller asks for.  Each row is split at its own scale (the spike width, or
sqrt(y) in w) into two Gauss-Legendre panels, the outer one graded in a log
variable, so the accuracy holds uniformly up to the asymptotic angle.  An
embedded lower-order rule gives every (row, integrand) an error estimate:
one above the 1e-9 relative ceiling is redone at twice the nodes, and one
still above it raises AccuracyError, so no degraded number is returned.  A
value depends only on its entry angle and its integrand, never on what else
was integrated with it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# unused here; kept because perfbench/tracing.py wraps transition.quad by name
from scipy.integrate import quad  # noqa: F401

from . import bands
from .errors import AccuracyError, AsymptoticEntryError
from .surface import SurfaceProfile, TrajectoryClass

_GL_NODES = 64  # first level: a 32-node answer rule on each of two panels
_ERR_CEILING = 1e-9  # certified relative accuracy of every returned value
_BLOCK_ROWS = 176  # rows per pass, so memory does not grow with the batch
_LABELS = {"upsilon0": "Upsilon0", "zeta": "zeta", "dzeta": "zeta'", "d2zeta": "zeta''"}


@dataclass(frozen=True)
class EntryData:
    """Entry angle resolved into Clairaut data, cancellation-free (see
    entry_scales)."""

    psi: float
    c: float
    u: float
    klass: TrajectoryClass


def entry_scales(profile: SurfaceProfile, psi: np.ndarray):
    """(u, bouncing mask) for an array of entry angles, u = | |c|-1 |.

    u is computed from the exact angle difference psi - psi0 via the product
    formula for cos(psi) - cos(psi0), then corrected by the one-ulp residual
    of the angle inversion, so it stays smooth in psi all the way into the
    deepest bands.
    """
    a = profile.boundary_radius
    psi0 = profile.asymptotic_angle()
    resid = a * math.cos(psi0) - 1.0  # O(ulp) rounding of the inversion
    d = psi - psi0
    prod = 2.0 * a * np.sin(0.5 * (psi + psi0)) * np.abs(np.sin(0.5 * d))
    cm1 = np.where(d < 0.0, prod, -prod) + resid  # c - 1
    return np.abs(cm1), cm1 > 0.0


def entry_data(profile: SurfaceProfile, psi: float) -> EntryData:
    """entry_scales of one angle, checked to be a non-asymptotic entry."""
    if not 0.0 < psi < 0.5 * math.pi:
        raise ValueError(f"entry angle must lie in (0, pi/2), got {psi}")
    if psi == profile.asymptotic_angle():
        raise AsymptoticEntryError("entry angle equals the asymptotic angle")
    (u,), (bounce,) = entry_scales(profile, np.array([psi]))
    if u == 0.0:
        raise AsymptoticEntryError("entry is exactly asymptotic (c = 1)")
    u = float(u)
    if bounce:
        return EntryData(psi=psi, c=1.0 + u, u=u, klass=TrajectoryClass.BOUNCING)
    return EntryData(psi=psi, c=1.0 - u, u=u, klass=TrajectoryClass.CROSSING)


def _bouncing(profile: SurfaceProfile, u: np.ndarray):
    """(f, a, b) for bouncing rows, u a column of gaps c - 1: the integrands
    in w, s = y + w^2, on [0, b = sqrt(eps0 - y)], split at
    a = min(sqrt(y), b/2), where they turn over.

    f(w, which) maps each name in which to its integrand on w: "upsilon0",
    "zeta" (F below) and, with L = d log F/du at fixed w, "dzeta" = F L and
    "d2zeta" = F (L^2 + dL/du).  The u-derivatives are cancellation-free:
    d(xi-c)/du = expm1((r-1) log1p(w^2/y)) and d(xi+c)/du is that plus 2.
    """
    r, eps0 = profile.r, profile.eps0
    y = u ** (1.0 / r)
    q = y**r  # equals u to rounding; keeps xi-c internally consistent
    c, r1 = 1.0 + u, r - 1.0
    ic = 1.0 / c
    y1 = y / (r * u)  # dy/du
    y2 = y1 * (1.0 / r - 1.0) / u

    def f(w, which):
        ww = w * w
        s = y + ww
        sr = s**r
        xi = 1.0 + sr
        xp = r * sr / s
        g = np.sqrt(xp * xp + 1.0)
        x = ww / y
        ximc = q * np.expm1(r * np.log1p(x))
        xipc = 2.0 + u + sr
        root = np.sqrt(ximc * xipc)
        out = {}
        if "upsilon0" in which:
            out["upsilon0"] = xi * g * 2.0 * w / root
        if {"zeta", "dzeta", "d2zeta"}.isdisjoint(which):
            return out
        out["zeta"] = fz = 2.0 * c * g * 2.0 * w / (xi * root)
        if {"dzeta", "d2zeta"}.isdisjoint(which):
            return out
        xpp = r1 * xp / s
        dm = np.expm1(r1 * np.log1p(x))  # d(xi-c)/du
        pm, pp = dm / ximc, (dm + 2.0) / xipc  # d/du log(xi-c), log(xi+c)
        a1, b1 = xp * xpp / (g * g), xp / xi
        h = a1 - b1  # d/ds log(g/xi)
        lf = ic + y1 * h - 0.5 * (pm + pp)
        out["dzeta"] = fz * lf
        d = -r1 * y1 / y * (1.0 + dm) * x / (1.0 + x)  # d(dm)/du
        hs = (xpp * xpp + (r - 2.0) * xp * xpp / s) / (g * g) - 2.0 * a1 * a1
        hs += b1 * b1 - xpp / xi  # dh/ds
        lfu = y2 * h + y1 * y1 * hs - ic * ic - 0.5 * (d / ximc + d / xipc - pm * pm - pp * pp)
        out["d2zeta"] = fz * (lf * lf + lfu)
        return out

    b = np.sqrt(eps0 - y)
    return f, np.minimum(np.sqrt(y), 0.5 * b), b


def _crossing(profile: SurfaceProfile, u: np.ndarray):
    """(f, a, b) for crossing rows, u a column of gaps 1 - c: the integrands
    in s on [0, b = eps0], split at the spike width a = min(u^(1/r), b/2).

    f(s, which) maps each name in which to its integrand on s: "upsilon0",
    "zeta", and the derivative integrands of _crossing_derivs, "dzeta" and
    "d2zeta".
    """
    r, eps0 = profile.r, profile.eps0
    c, a = 1.0 - u, profile.boundary_radius
    amc = (a - c) * (a + c)  # a^2 - c^2, no cancellation: a-1 >> |c-1|

    def f(s, which):
        sr = s**r
        xi = 1.0 + sr
        xp = r * sr / s
        g = np.sqrt(xp * xp + 1.0)
        dd = (sr + u) * (2.0 - u + sr)  # (xi-c)(xi+c)
        root = np.sqrt(dd)
        out = {}
        if "upsilon0" in which:
            out["upsilon0"] = xi * g / root
        if "zeta" in which:
            out["zeta"] = 2.0 * c * g / (xi * root)
        if "dzeta" in which:
            out["dzeta"] = xi * g * dd**-1.5
        if "d2zeta" in which:
            out["d2zeta"] = xi * g * (3.0 * amc - dd) * dd**-2.5
        return out

    return f, np.minimum(u ** (1.0 / r), 0.5 * eps0), eps0


@functools.lru_cache(maxsize=8)
def _embedded_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (nodes, weights) of an n-node Gauss-Legendre rule and its
    3n/4-node estimate rule, shared by every caller.

    The nodes on [0, 1] of the two rules are concatenated; the weights are
    repeated once more for the second panel, so one multiply weights both.
    """
    parts = [np.polynomial.legendre.leggauss(k) for k in (n, 3 * n // 4)]
    x = 0.5 * (np.concatenate([p[0] for p in parts]) + 1.0)
    wt = np.tile(0.5 * np.concatenate([p[1] for p in parts]), 2)
    x.flags.writeable = False
    wt.flags.writeable = False
    return x, wt


def _graded_panels(f, a: np.ndarray, b, n: int, which) -> np.ndarray:
    """(values, absolute error estimates) of int_0^b f per row and integrand,
    shape (2, len(which), rows), for 0 < a < b.

    The inner panel [0, a] is plain Gauss-Legendre.  The outer panel [a, b]
    is Gauss-Legendre in t for z = a*exp(t): beyond the row's own scale a
    the integrands decay like a power of z, which is smooth in t however
    small a is.  f is evaluated in one pass on the nodes of both panels and
    both rules; each panel's estimate is the difference of its n-node and
    3n/4-node values.
    """
    x, wt = _embedded_rule(n)
    m = x.size
    span = np.log(b / a)
    z = np.concatenate([a * x, np.exp(span * x) * a], axis=1)
    vals = f(z, which)
    out = np.empty((2, len(which), z.shape[0]))
    for k, key in enumerate(which):
        g = vals[key]
        g[:, m:] *= z[:, m:]  # dz = z dt on the outer panel
        g *= wt
        sums = np.add.reduceat(g, [0, n, m, m + n], axis=1)
        inner = sums[:, :2] * a
        outer = sums[:, 2:] * span
        out[0, k] = inner[:, 0] + outer[:, 0]
        out[1, k] = np.abs(inner[:, 0] - inner[:, 1]) + np.abs(outer[:, 0] - outer[:, 1])
    return out


def _blocked(side, profile: SurfaceProfile, u: np.ndarray, which, n: int) -> np.ndarray:
    """_graded_panels of one side's rows u at n nodes per panel, taken
    _BLOCK_ROWS rows at a time."""
    out = np.empty((2, len(which), u.size))
    for i in range(0, u.size, _BLOCK_ROWS):
        f, a, b = side(profile, u[i : i + _BLOCK_ROWS, None])
        out[:, :, i : i + _BLOCK_ROWS] = _graded_panels(f, a, b, n, which)
    return out


def _integrate(side, profile: SurfaceProfile, u: np.ndarray, which, nodes: int):
    """_blocked at nodes // 2 nodes per panel, then each (row, integrand)
    above the ceiling redone at nodes; AccuracyError if one still is."""
    res = _blocked(side, profile, u, which, nodes // 2)
    redo = ~(res[1] / np.abs(res[0]) <= _ERR_CEILING)  # a NaN estimate is redone too
    rows = redo.any(axis=0)
    if rows.any():
        fine = _blocked(side, profile, u[rows], which, nodes)
        res[:, :, rows] = np.where(redo[:, rows], fine, res[:, :, rows])
        rel = res[1] / np.abs(res[0])
        for k, key in enumerate(which):
            worst = float(np.max(rel[k, redo[k]], initial=0.0))
            if not worst <= _ERR_CEILING:
                raise AccuracyError(
                    f"{_LABELS[key]} integral: relative error estimate {worst:.3e} "
                    f"at {nodes} nodes per panel, above the 1e-9 ceiling",
                    achieved=worst,
                )
    return res


def excursion_integrals(
    profile: SurfaceProfile, psi, which=("upsilon0",), nodes: int = _GL_NODES
) -> np.ndarray:
    """(values, absolute error estimates) of the integrals named in which at
    each entry angle, shape (2, len(which)) + psi.shape.

    The names are "upsilon0", "zeta", and the side's derivative integrands
    "dzeta" and "d2zeta" (see _bouncing_derivs and _crossing_derivs).  An
    exactly asymptotic angle (u = 0) gets inf with the estimate 0.
    """
    psi = np.asarray(psi, dtype=float)
    u, bounce = entry_scales(profile, psi)
    res = np.zeros((2, len(which)) + psi.shape)
    res[0] = np.inf
    finite = u > 0.0
    for rows, side in ((bounce & finite, _bouncing), (~bounce & finite, _crossing)):
        res[:, :, rows] = _integrate(side, profile, u[rows], which, nodes)
    return res


def _row(profile: SurfaceProfile, psi: float, which):
    """(entry_data, [(value, error estimate) per name in which]) at psi."""
    ent = entry_data(profile, psi)
    side = _bouncing if ent.klass is TrajectoryClass.BOUNCING else _crossing
    vals, errs = _integrate(side, profile, np.array([ent.u]), which, _GL_NODES)[:, :, 0]
    return ent, [(float(v), float(e)) for v, e in zip(vals, errs)]


def zeta(profile: SurfaceProfile, psi: float) -> float:
    """Total angular advance of one excursion entering at angle psi.

    Diverges (through the band structure) as psi approaches the asymptotic
    angle from either side, and vanishes linearly in c as psi -> pi/2.
    """
    return _row(profile, psi, ("zeta",))[1][0][0]


def upsilon0(profile: SurfaceProfile, psi: float) -> float:
    """Half transit time of one excursion entering at angle psi."""
    return _row(profile, psi, ("upsilon0",))[1][0][0]


@dataclass(frozen=True)
class TransitionDerivs:
    zeta_prime: float
    zeta_prime_err: float
    zeta_second: float
    zeta_second_err: float


def _crossing_derivs(profile: SurfaceProfile, ent: EntryData, i1, i2) -> TransitionDerivs:
    """zeta' and zeta'' of a crossing entry from its (integral, estimate)
    pairs i1 and i2 of the "dzeta" and "d2zeta" integrands.

    With a = 1+eps0^r and A(s) = sqrt(1+xi'^2)/xi:

        zeta'(psi)  = -2a sin(psi) int_0^eps0 A xi^2 [xi^2-c^2]^(-3/2) ds
        zeta''(psi) =  2a cos(psi) int_0^eps0 A xi^2 [3(a^2-c^2)
                         - (xi^2-c^2)] [xi^2-c^2]^(-5/2) ds

    (differentiating under the integral; dc/dpsi = -a sin psi and
    3a^2 sin^2 psi + a^2 cos^2 psi - xi^2 = 3(a^2-c^2) - (xi^2-c^2)).  Both
    factors are positive for psi in (0, pi/2), and scale the estimates too.
    """
    k1 = 2.0 * profile.boundary_radius * math.sin(ent.psi)
    k2 = 2.0 * profile.boundary_radius * math.cos(ent.psi)
    return TransitionDerivs(
        zeta_prime=-k1 * i1[0],
        zeta_prime_err=k1 * i1[1],
        zeta_second=k2 * i2[0],
        zeta_second_err=k2 * i2[1],
    )


def _bouncing_derivs(profile: SurfaceProfile, ent: EntryData, i1, i2) -> TransitionDerivs:
    """zeta' and zeta'' of a bouncing entry by Leibniz's rule, from its
    (integral, estimate) pairs i1 and i2 of the "dzeta" and "d2zeta"
    integrands.

    zeta(u) = int_0^W F dw has the moving limit W = sqrt(eps0 - y), so with
    B = F(W) dW/du, dzeta/du = int F L dw + B and d2zeta/du2 =
    int F (L^2 + dL/du) dw + (F L)(W) dW/du + dB/du, the integrands being
    those of _bouncing.  B and dB/du are closed form, since s = eps0 at
    w = W; du/dpsi = -a sin(psi) turns these into zeta', zeta''.
    """
    r, a, u, c, psi = profile.r, profile.boundary_radius, ent.u, ent.c, ent.psi
    f, _, top = _bouncing(profile, np.array([[u]]))
    fl_top = float(f(top, ("dzeta",))["dzeta"][0, 0])  # (F L)(W)
    y = u ** (1.0 / r)
    y1 = y / (r * u)  # dy/du and d2y/du2, as in _bouncing
    y2 = y1 * (1.0 / r - 1.0) / u
    root = math.sqrt((a - c) * (a + c))  # sqrt(xi^2 - c^2) at s = eps0
    g0 = math.sqrt(1.0 + (r * profile.eps0 ** (r - 1.0)) ** 2)
    b = -2.0 * c * g0 * y1 / (a * root)
    db = -2.0 * g0 / a * (y1 / root + c * y2 / root + c * c * y1 / root**3)
    z1 = i1[0] + b
    z2 = i2[0] - fl_top * y1 / (2.0 * float(top[0, 0])) + db
    k = a * math.sin(psi)  # -du/dpsi
    return TransitionDerivs(
        zeta_prime=-k * z1,
        zeta_prime_err=k * i1[1],
        zeta_second=k * k * z2 - a * math.cos(psi) * z1,
        zeta_second_err=k * k * i2[1] + a * math.cos(psi) * i1[1],
    )


def _derivs(profile: SurfaceProfile, ent: EntryData, i1, i2) -> TransitionDerivs:
    """zeta' and zeta'' from the derivative integrals; raises AccuracyError
    if either error estimate exceeds 1e-9 relative."""
    if ent.klass is TrajectoryClass.CROSSING:
        d = _crossing_derivs(profile, ent, i1, i2)
    else:
        d = _bouncing_derivs(profile, ent, i1, i2)
    _certified("zeta'", d.zeta_prime, d.zeta_prime_err)
    _certified("zeta''", d.zeta_second, d.zeta_second_err)
    return d


def _certified(what: str, val: float, err: float) -> None:
    """Raise AccuracyError unless err is within the 1e-9 relative ceiling."""
    if not err <= _ERR_CEILING * abs(val):
        raise AccuracyError(
            f"{what} achieved {err:.3e} (relative "
            f"{err / abs(val):.3e}), above the 1e-9 ceiling",
            achieved=err / abs(val),
        )


def zeta_derivs(profile: SurfaceProfile, psi: float) -> TransitionDerivs:
    """zeta' and zeta'' at any non-asymptotic psi, from exact integrals.

    Raises AccuracyError if either error estimate exceeds 1e-9 relative.
    """
    ent, (i1, i2) = _row(profile, psi, ("dzeta", "d2zeta"))
    return _derivs(profile, ent, i1, i2)


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
    """The transition data at psi, all its integrals from one engine pass."""
    which = ("zeta", "upsilon0") + (("dzeta", "d2zeta") if with_derivs else ())
    ent, ints = _row(profile, psi, which)
    (z, ze), (up, ue) = ints[:2]
    zp = zpe = zs = zse = None
    if with_derivs:
        d = _derivs(profile, ent, *ints[2:])
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
