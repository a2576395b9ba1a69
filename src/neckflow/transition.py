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

One engine integrates all of them, for one entry or a batch, and asymptotics
runs its model integrals on it too, one row per scale.  Each side has one
integrand, a numpy expression that yields, in one pass over shared nodes,
whichever of upsilon0, zeta and the two derivative integrands the caller
asks for.  Each row is split at its own scale (the spike width, or sqrt(y)
in w) into two Gauss-Legendre panels, the outer one graded in a log
variable, so the accuracy holds uniformly up to the asymptotic angle.  An
embedded lower-order rule gives every (row, integrand) an error estimate:
one above the 1e-9 relative ceiling is redone at twice the nodes, and one
still above it raises AccuracyError, so no degraded number is returned.

A row is keyed by its exact gap u = | |c|-1 | and its side.  Rows become
values in one pass: one engine pass per side, one bouncing boundary
evaluation for all rows, and zeta', zeta'' from these per row in floats.
Angles become gaps in one array check first (entry_data, evaluate,
zeta_derivs, zeta and upsilon0 are the one-row case); a band table takes
its gaps from its bands.  A value depends only on its row's key and its
integrand, never on what else was integrated with it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import bands
from .errors import AccuracyError, AsymptoticEntryError
from .surface import SurfaceProfile, TrajectoryClass


def quad(*args, **kwargs):
    """scipy.integrate.quad, imported on the first call.  Nothing here calls
    it; perfbench/tracing.py wraps transition.quad by name."""
    from scipy.integrate import quad

    return quad(*args, **kwargs)


_GL_NODES = 64  # first level: a 32-node answer rule on each of two panels
_ERR_CEILING = 1e-9  # certified relative accuracy of every returned value
# the bound a bouncing row's upper limit must meet on the relative rounding
# error of eps0 - y (see _bouncing): the ceiling, held apart from the
# integration estimates
_LIMIT_ROUNDING = _ERR_CEILING
_EPS = float(np.finfo(float).eps)
_BLOCK_ROWS = 176  # rows per pass, so memory does not grow with the batch
_LABELS = {"upsilon0": "Upsilon0", "zeta": "zeta", "dzeta": "zeta'", "d2zeta": "zeta''"}
# asymptotics' model integrals and residence-law offset, on the same engine,
# keyed by their scale and by eps0
_LABELS.update(model="model", offset="Upsilon0 finite part")
_ROW_KEYS = {"model": "scale", "offset": "eps0"}
_KLASS = {True: TrajectoryClass.BOUNCING, False: TrajectoryClass.CROSSING}
_DERIVS = ("dzeta", "d2zeta")  # which ends with these to get zeta' and zeta''
_TABLE_KEYS = "n side psi_mid c upsilon0 zeta zeta_prime zeta_second err_est".split()


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


def _checked_scales(profile: SurfaceProfile, psi: np.ndarray):
    """(u, bouncing mask, c) of an array of entry angles, each checked to
    lie in (0, pi/2) and not to be asymptotic; the error names the first bad
    angle."""
    u, bounce = entry_scales(profile, psi)
    ok = (psi > 0.0) & (psi < 0.5 * math.pi) & (psi != profile.asymptotic_angle()) & (u > 0.0)
    if np.count_nonzero(ok) < ok.size:
        k = int(np.argmin(ok))
        at = _row_name(k, "psi", psi)
        if not 0.0 < psi[k] < 0.5 * math.pi:
            raise ValueError(f"entry angle must lie in (0, pi/2), got {at}")
        raise AsymptoticEntryError(f"entry angle {at} is asymptotic (c = 1)")
    return u, bounce, np.where(bounce, 1.0 + u, 1.0 - u)


def _row_name(k: int, key: str, values, names=None) -> str:
    """key=value of row k, followed by names[k] in brackets if names is given."""
    return f"{key}={float(values[k])!r}" + (f" ({names[k]})" if names else "")


def _certify(whats, rel: np.ndarray, key: str, values, names=None) -> None:
    """Raise AccuracyError if a relative error estimate rel[i, k] of
    quantity whats[i] at row k is above the 1e-9 ceiling, naming the worst
    (a NaN counts as worst) and its row (see _row_name)."""
    if np.count_nonzero(rel <= _ERR_CEILING) < rel.size:
        i, k = np.unravel_index(np.argmax(np.where(np.isnan(rel), np.inf, rel)), rel.shape)
        worst = float(rel[i, k])
        at = _row_name(k, key, values, names)
        msg = f"{whats[i]} at {at}: relative error estimate {worst:.3e}, above the 1e-9 ceiling"
        raise AccuracyError(msg, achieved=worst)


def entry_data(profile: SurfaceProfile, psi: float) -> EntryData:
    """_checked_scales of one angle, as Clairaut data."""
    (u,), (bounce,), (c,) = _checked_scales(profile, np.array([psi]))
    return EntryData(psi=psi, c=float(c), u=float(u), klass=_KLASS[bool(bounce)])


def _turning(r: float, u):
    """(y, dy/du, d2y/du2) of the turning radius y = u^(1/r) of gaps u."""
    y = u ** (1.0 / r)
    y1 = y / (r * u)
    return y, y1, y1 * (1.0 / r - 1.0) / u


def _bouncing(profile: SurfaceProfile, u: np.ndarray):
    """(f, a, b) for bouncing rows, u a column of gaps c - 1: the integrands
    in w, s = y + w^2, on [0, b = sqrt(eps0 - y)], split at
    a = min(sqrt(y), b/2), where they turn over.

    f(w, which) maps each name in which to its integrand on w: "upsilon0",
    "zeta" (F below) and, with L = d log F/du at fixed w, "dzeta" = F L and
    "d2zeta" = F (L^2 + dL/du).  The u-derivatives are cancellation-free:
    d(xi-c)/du = expm1((r-1) log1p(w^2/y)) and d(xi+c)/du is that plus 2.
    b is not: near grazing eps0 - y cancels, and a row whose bound on its
    relative rounding error is above the 1e-9 ceiling raises AccuracyError.
    """
    r, eps0 = profile.r, profile.eps0
    y, y1, y2 = _turning(r, u)
    q = y**r  # equals u to rounding; keeps xi-c internally consistent
    c, r1 = 1.0 + u, r - 1.0
    ic = 1.0 / c

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
        if "d2zeta" not in which:
            return out
        d = -r1 * y1 / y * (1.0 + dm) * x / (1.0 + x)  # d(dm)/du
        hs = (xpp * xpp + (r - 2.0) * xp * xpp / s) / (g * g) - 2.0 * a1 * a1
        hs += b1 * b1 - xpp / xi  # dh/ds
        lfu = y2 * h + y1 * y1 * hs - ic * ic - 0.5 * (d / ximc + d / xipc - pm * pm - pp * pp)
        out["d2zeta"] = fz * (lf * lf + lfu)
        return out

    # near grazing (psi -> 0, y -> eps0) eps0 - y keeps little more than the
    # rounding of y, which bounds its relative error by eps*eps0/(eps0 - y)
    room = eps0 - y
    if not room.min() * _LIMIT_ROUNDING >= _EPS * eps0:  # a NaN fails too
        k = int(np.argmin(room))
        lost = _EPS * eps0 / room[k, 0] if room[k, 0] > 0.0 else math.inf
        raise AccuracyError(
            f"bouncing row u={float(u[k, 0])!r} grazes the neck boundary: eps0 - y = "
            f"{float(room[k, 0]):.3e} has a relative rounding error up to {lost:.3e}, "
            "above the 1e-9 ceiling",
            achieved=lost,
        )
    b = np.sqrt(room)
    return f, np.minimum(np.sqrt(y), 0.5 * b), b


def _crossing(profile: SurfaceProfile, u: np.ndarray):
    """(f, a, b) for crossing rows, u a column of gaps 1 - c: the integrands
    in s on [0, b = eps0], split at the spike width a = min(u^(1/r), b/2).

    f(s, which) maps each name in which to its integrand on s: "upsilon0",
    "zeta", and the derivative integrands of _crossing_chain, "dzeta" and
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


def _residence_offset(profile: SurfaceProfile, rows: np.ndarray):
    """(f, a, b) for rows (a column, each eps0) of the finite part of
    Upsilon0 at u = 0: the integrand "offset" in s on [0, b = eps0],

        xi sqrt(1+xi'^2) / sqrt(xi^2-1) - (2 s^r)^(-1/2),

    split at a = eps0/4.  With q = s^r, xi^2 - 1 = q (2 + q), so it is
    (2q)^(-1/2) (X - 1) with X = xi sqrt(1+xi'^2) sqrt(2/(2+q)), and X - 1 is
    expm1 of a sum of log1p terms: cancellation-free, and regular at s = 0,
    where it vanishes like s^(r/2).
    """
    r = profile.r

    def f(s, _):
        q = s**r
        xp = r * q / s
        lx = np.log1p(q) + 0.5 * (np.log1p(xp * xp) - np.log1p(0.5 * q))  # log X
        return {"offset": np.expm1(lx) / np.sqrt(2.0 * q)}

    return f, 0.25 * rows, rows


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
    above the ceiling redone at nodes; AccuracyError, naming the worst row's
    u (a model row's scale, an offset row's eps0), if one still is.  The row
    maker side(profile, column of u) gives _graded_panels' (f, a, b)."""
    res = _blocked(side, profile, u, which, nodes // 2)
    redo = ~(res[1] / np.abs(res[0]) <= _ERR_CEILING)  # a NaN estimate is redone too
    rows = redo.any(axis=0)
    if rows.any():
        fine = _blocked(side, profile, u[rows], which, nodes)
        res[:, :, rows] = np.where(redo[:, rows], fine, res[:, :, rows])
        whats = [f"{_LABELS[key]} integral with {nodes} nodes per panel" for key in which]
        _certify(whats, res[1] / np.abs(res[0]), _ROW_KEYS.get(which[0], "u"), u)
    return res


def _sides(profile: SurfaceProfile, u, masks, which, nodes: int):
    """(side, rows, _integrate's result) for the bouncing rows masks[0] and
    then the crossing rows masks[1] of u, one pass per side that has rows."""
    for side, rows in zip((_bouncing, _crossing), masks):
        if np.count_nonzero(rows):
            yield side, rows, _integrate(side, profile, u[rows], which, nodes)


def excursion_integrals(
    profile: SurfaceProfile, psi, which=("upsilon0",), nodes: int = _GL_NODES
) -> np.ndarray:
    """(values, absolute error estimates) of the integrals named in which at
    each entry angle, shape (2, len(which)) + psi.shape.

    The names are "upsilon0", "zeta", and the side's derivative integrands
    "dzeta" and "d2zeta" (see _bouncing_chain and _crossing_chain).  An
    exactly asymptotic angle (u = 0) gets inf and a grazing one (psi = 0,
    never inside the neck) 0, each with the estimate 0.
    """
    psi = np.asarray(psi, dtype=float)
    u, bounce = entry_scales(profile, psi)
    res = np.zeros((2, len(which)) + psi.shape)
    res[0] = np.where(psi == 0.0, 0.0, np.inf)
    inside = (u > 0.0) & (psi != 0.0)
    for _, rows, part in _sides(profile, u, (bounce & inside, ~bounce & inside), which, nodes):
        res[:, :, rows] = part
    return res


def _crossing_chain(profile: SurfaceProfile, psi, u, ints):
    """(zeta', zeta'', their estimates) of each crossing row, from ints,
    [[values], [estimates]] of their "dzeta" and "d2zeta" integrands.

    With a = 1+eps0^r and A(s) = sqrt(1+xi'^2)/xi:

        zeta'(psi)  = -2a sin(psi) int_0^eps0 A xi^2 [xi^2-c^2]^(-3/2) ds
        zeta''(psi) =  2a cos(psi) int_0^eps0 A xi^2 [3(a^2-c^2)
                         - (xi^2-c^2)] [xi^2-c^2]^(-5/2) ds

    (differentiating under the integral; dc/dpsi = -a sin psi and
    3a^2 sin^2 psi + a^2 cos^2 psi - xi^2 = 3(a^2-c^2) - (xi^2-c^2)).  Both
    factors are positive for psi in (0, pi/2), and scale the estimates too.
    """
    a2 = 2.0 * profile.boundary_radius
    for p, i1, i2, e1, e2 in zip(psi.tolist(), *ints[0].tolist(), *ints[1].tolist()):
        k1, k2 = a2 * math.sin(p), a2 * math.cos(p)
        yield -k1 * i1, k2 * i2, k1 * e1, k2 * e2


def _bouncing_chain(profile: SurfaceProfile, psi, u, ints):
    """(zeta', zeta'', their estimates) of each bouncing row by Leibniz's
    rule, from ints, [[values], [estimates]] of their "dzeta" and "d2zeta"
    integrands.

    zeta(u) = int_0^W F dw has the moving limit W = sqrt(eps0 - y), so with
    B = F(W) dW/du, dzeta/du = int F L dw + B and d2zeta/du2 =
    int F (L^2 + dL/du) dw + (F L)(W) dW/du + dB/du, the integrands being
    those of _bouncing.  B and dB/du are closed form, since s = eps0 at
    w = W; (F L)(W) is one evaluation of the integrand for all rows.
    du/dpsi = -a sin(psi) turns these into zeta', zeta''.  Both chains run
    row by row in floats: as numpy calls they made a one-row table ~10%
    slower (2-core x86_64), and tables have few rows per side.
    """
    r, a = profile.r, profile.boundary_radius
    f, _, top = _bouncing(profile, u[:, None])
    fl_top = f(top, ("dzeta",))["dzeta"][:, 0]  # (F L)(W)
    _, y1, y2 = _turning(r, u)
    g0 = math.sqrt(1.0 + (r * profile.eps0 ** (r - 1.0)) ** 2)
    cols = (psi, u, y1, y2, fl_top, top[:, 0], *ints[0], *ints[1])
    for p, u, y1, y2, fl_top, top, i1, i2, e1, e2 in zip(*(col.tolist() for col in cols)):
        c = 1.0 + u
        root = math.sqrt((a - c) * (a + c))  # sqrt(xi^2 - c^2) at s = eps0
        b = -2.0 * c * g0 * y1 / (a * root)
        db = -2.0 * g0 / a * (y1 / root + c * y2 / root + c * c * y1 / root**3)
        z1 = i1 + b
        z2 = i2 - fl_top * y1 / (2.0 * top) + db
        k, kc = a * math.sin(p), a * math.cos(p)  # -du/dpsi and -d2u/dpsi2
        yield -k * z1, k * k * z2 - kc * z1, k * e1, k * k * e2 + kc * e1


def _rows(profile: SurfaceProfile, psi, which):
    """(psi, c, bouncing mask, _gap_rows' result) of the entry angles psi,
    checked by _checked_scales."""
    psi = np.array(psi, dtype=float)
    u, bounce, c = _checked_scales(profile, psi)
    return psi, c, bounce, _gap_rows(profile, psi, u, bounce, which)


def _gap_rows(profile: SurfaceProfile, psi, u, bounce, which, names=None):
    """[values, estimates] per name in which, shape (2, len(which), rows),
    of the rows keyed by their gaps u and bouncing mask, from one _integrate
    pass per side.  If which ends with _DERIVS, each side's chain rule turns
    their slots into zeta' and zeta'' at the angles psi, certified to the
    1e-9 ceiling; an error names the row's psi and names[k]."""
    res = np.empty((2, len(which), psi.size))
    derivs = which[-2:] == _DERIVS
    for side, rows, part in _sides(profile, u, (bounce, ~bounce), which, _GL_NODES):
        if derivs:
            chain = _bouncing_chain if side is _bouncing else _crossing_chain
            zp, zs, zpe, zse = zip(*chain(profile, psi[rows], u[rows], part[:, -2:]))
            part[:, -2:] = [[zp, zs], [zpe, zse]]
        res[:, :, rows] = part
    if derivs:
        _certify(("zeta'", "zeta''"), res[1, -2:] / np.abs(res[0, -2:]), "psi", psi, names)
    return res


def zeta(profile: SurfaceProfile, psi: float) -> float:
    """Total angular advance of one excursion entering at angle psi.

    Diverges (through the band structure) as psi approaches the asymptotic
    angle from either side, and vanishes linearly in c as psi -> pi/2.
    """
    return float(_rows(profile, [psi], ("zeta",))[3][0, 0, 0])


def upsilon0(profile: SurfaceProfile, psi: float) -> float:
    """Half transit time of one excursion entering at angle psi."""
    return float(_rows(profile, [psi], ("upsilon0",))[3][0, 0, 0])


@dataclass(frozen=True)
class TransitionDerivs:
    zeta_prime: float
    zeta_prime_err: float
    zeta_second: float
    zeta_second_err: float


def zeta_derivs_batch(profile: SurfaceProfile, psi) -> list[TransitionDerivs]:
    """zeta_derivs of each entry angle in psi, from one array pass."""
    (zp, zs), (zpe, zse) = _rows(profile, psi, _DERIVS)[3].tolist()
    return [TransitionDerivs(*row) for row in zip(zp, zpe, zs, zse)]


def zeta_derivs(profile: SurfaceProfile, psi: float) -> TransitionDerivs:
    """zeta' and zeta'' at any non-asymptotic psi, from exact integrals.

    Raises AccuracyError if either error estimate exceeds 1e-9 relative.
    """
    return zeta_derivs_batch(profile, [psi])[0]


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


def evaluate_batch(
    profile: SurfaceProfile, psi, with_derivs: bool = True
) -> list[TransitionEval]:
    """evaluate at each entry angle in psi, from one array pass."""
    which = ("zeta", "upsilon0") + (_DERIVS if with_derivs else ())
    psi, c, bounce, res = _rows(profile, psi, which)
    (z, up, *d), (ze, ue, *de) = res.tolist()
    derivs = [d[0], de[0], d[1], de[1]] if with_derivs else []  # as in TransitionDerivs
    cols = zip(psi.tolist(), c.tolist(), map(_KLASS.get, bounce.tolist()), z, up, ze, ue, *derivs)
    return [TransitionEval(*row) for row in cols]


def evaluate(
    profile: SurfaceProfile, psi: float, with_derivs: bool = True
) -> TransitionEval:
    """The transition data at psi, all its integrals from one engine pass."""
    return evaluate_batch(profile, [psi], with_derivs)[0]


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
    _, (c,), (bounce,), res = _rows(profile, [state.psi], ("zeta",))
    dtheta = math.copysign(float(res[0, 0, 0]), c)
    if bounce:
        return GeodesicState(s=-profile.eps0, theta=state.theta + dtheta, psi=-state.psi)
    return GeodesicState(s=profile.eps0, theta=state.theta + dtheta, psi=state.psi)


def df0(profile: SurfaceProfile, psi: float) -> np.ndarray:
    """Differential of the transition map in (theta, psi): [[1, z'], [0, +-1]].

    The lower-right entry is -1 for bouncing (the psi reflection) and +1
    for crossing; |det| = 1 always.
    """
    _, _, (bounce,), res = _rows(profile, [psi], _DERIVS)
    return np.array([[1.0, res[0, 0, 0]], [0.0, -1.0 if bounce else 1.0]])


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
    """Transition-map table at band midpoints: one row per (n, side) from one
    _gap_rows pass, keyed by _TABLE_KEYS (the scaling suite's columns, then
    err_est, the worst relative estimate of zeta, Upsilon0 and zeta'); errors
    name the band.  A row's gap is its band's midpoint (1/n^2 + 1/(n+1)^2)/2;
    psi_mid, band_midpoint's rounded angle, enters only the chain factors."""
    keys = [(int(n), side) for n in n_values for side in sides]
    psi = np.array([bands.band_midpoint(profile, n, side, n0)[1] for n, side in keys])
    u = np.array([0.5 * sum(bands.gap_interval(n)) for n, _ in keys])
    bounce = np.array([side == bands.BOUNCING for _, side in keys], dtype=bool)
    names = [f"band n={n}, {side}" for n, side in keys]
    res = _gap_rows(profile, psi, u, bounce, ("zeta", "upsilon0") + _DERIVS, names)
    err = (res[1, :3] / np.abs(res[0, :3])).max(axis=0)  # zeta, Upsilon0, zeta'
    (z, up, zp, zs), _ = res.tolist()
    c = np.where(bounce, 1.0 + u, 1.0 - u)
    cols = zip(psi.tolist(), c.tolist(), up, z, zp, zs, err.tolist())
    return [dict(zip(_TABLE_KEYS, key + row)) for key, row in zip(keys, cols)]
