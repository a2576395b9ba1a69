"""Independent brute-force references for the test suite.

Everything here is deliberately low-tech: composite midpoint/Simpson rules
on fixed grids, classic RK4, gamma-function closed forms, mpmath integrals
at 40 digits differenced by brute force, and adaptive Gauss-Kronrod
quadrature of scalar integrands.  None of it shares a code path with the
package (which integrates excursions and model integrals on Gauss-Legendre
panels and orbits with DOP853), so agreement between the two is evidence, not tautology.
"""

import math

import mpmath
import numpy as np
from scipy.integrate import quad
from scipy.special import gamma


def midpoint(f, lo, hi, panels):
    """Composite midpoint rule; never evaluates f at the endpoints."""
    h = (hi - lo) / panels
    x = lo + h * (np.arange(panels) + 0.5)
    return h * f(x).sum()


def simpson(f, lo, hi, panels):
    """Composite Simpson on 2*panels+1 equally spaced nodes."""
    x = np.linspace(lo, hi, 2 * panels + 1)
    y = f(x)
    h = (hi - lo) / (2 * panels)
    return (h / 3.0) * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-2:2].sum())


def _profile_terms(r, s):
    xi = 1.0 + np.abs(s) ** r
    d1 = r * np.sign(s) * np.abs(s) ** (r - 1.0)
    return xi, np.sqrt(1.0 + d1 * d1)


def transit_reference(r, eps0, psi, panels=400_000):
    """(|dtheta|, transit_time) for an entry at s=-eps0 with angle psi.

    Works from the Clairaut reduction alone: with c = xi(-eps0)*cos(psi),
      dtheta/ds = c*sqrt(1+xi'^2) / (xi*sqrt(xi^2-c^2)),
      dt/ds     = xi*sqrt(1+xi'^2) / sqrt(xi^2-c^2).
    Bouncing excursions (|c|>1) substitute s = s* + w^2 to flatten the
    turning-point singularity; crossing ones integrate s directly.  The
    midpoint rule keeps the turning point itself off the grid.
    """
    a = 1.0 + eps0**r
    c = a * math.cos(psi)
    if abs(c) >= 1.0:
        if abs(c) == 1.0:
            raise ValueError("asymptotic entry has no finite reference")
        # xi(s)^2 - c^2 vanishes at the turning point, and the rounding of
        # s_star**r is amplified without bound as w -> 0; 80-bit arithmetic
        # pushes that noise floor below the midpoint rule's own error
        ld = np.longdouble
        cl = ld(a) * np.cos(ld(psi))
        s_star_ld = (np.abs(cl) - ld(1)) ** (ld(1) / ld(r))
        s_star = float(s_star_ld)
        lo, hi = 0.0, math.sqrt(eps0 - s_star)

        def _terms_ld(w):
            s = s_star_ld + ld(w) * ld(w)
            xi = ld(1) + s ** ld(r)
            d1 = ld(r) * s ** (ld(r) - 1)
            root = np.sqrt(ld(1) + d1 * d1)
            den = np.sqrt(xi * xi - cl * cl)
            return xi, root, den

        def theta_term(w):
            xi, root, den = _terms_ld(w)
            return (2 * ld(w) * root / (xi * den)).astype(float)

        def time_term(w):
            xi, root, den = _terms_ld(w)
            return (2 * ld(w) * xi * root / den).astype(float)

    else:
        lo, hi = 0.0, eps0

        def theta_term(s):
            xi, root = _profile_terms(r, s)
            return root / (xi * np.sqrt(xi * xi - c * c))

        def time_term(s):
            xi, root = _profile_terms(r, s)
            return xi * root / np.sqrt(xi * xi - c * c)

    # both branches integrate a half-excursion
    return (
        2.0 * abs(c) * midpoint(theta_term, lo, hi, panels),
        2.0 * midpoint(time_term, lo, hi, panels),
    )


def rk4(f, y0, t0, t1, steps):
    """Classic fixed-step RK4 for y' = f(t, y) with array state."""
    y = np.asarray(y0, dtype=float)
    h = (t1 - t0) / steps
    t = t0
    for _ in range(steps):
        k1 = f(t, y)
        k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = f(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    return y


def jacobi_reference(curvature_of_t, j0, jp0, t1, steps=20_000):
    """(j, j') at t1 for j'' + K(t) j = 0 via fixed-step RK4."""

    def f(t, y):
        return np.array([y[1], -curvature_of_t(t) * y[0]])

    return rk4(f, [j0, jp0], 0.0, t1, steps)


def unstable_riccati_reference(r, s, psi, window, seeds=(0.0, 1.0), steps=4000):
    """Seed values at the vector (s, psi) after relaxing over window, by RK4.

    The reversed vector (s, psi + pi) is flowed for window in 2*steps RK4
    steps of the reduced geodesic equations
      s' = sin(psi) / sqrt(1+xi'^2),  psi' = xi' cos(psi) / (xi sqrt(1+xi'^2)),
    keeping every footpoint.  Both seeds of u' = -u^2 - K then run forward
    over those footpoints in reverse, in steps RK4 steps of twice the size,
    so every curvature value a stage needs is a stored footpoint.
    """

    def geodesic(t, y):
        xi, root = _profile_terms(r, y[0])
        d1 = r * np.sign(y[0]) * np.abs(y[0]) ** (r - 1.0)
        return np.array([math.sin(y[1]) / root, d1 * math.cos(y[1]) / (xi * root)])

    h = window / (2 * steps)
    y = np.array([s, psi + math.pi])
    foot = [s]
    for k in range(2 * steps):
        y = rk4(geodesic, y, k * h, (k + 1) * h, 1)
        foot.append(y[0])
    a = np.abs(np.array(foot[::-1]))  # footpoint at riccati time i*h
    xi, root = _profile_terms(r, a)
    K = -r * (r - 1.0) * a ** (r - 2.0) / (xi * root**4)

    def riccati(tau, u):
        return -u * u - K[round(tau / h)]

    return rk4(riccati, np.array(seeds, dtype=float), 0.0, window, steps)


def c1_closed_form(r, alpha):
    """int_0^inf (x^r+1)^(-alpha) dx = Gamma(1/r)Gamma(alpha-1/r)/(r Gamma(alpha))."""
    return gamma(1.0 / r) * gamma(alpha - 1.0 / r) / (r * gamma(alpha))


def c2_closed_form_beta0(r, alpha):
    """int_1^inf (x^r-1)^(-alpha) dx for alpha < 1, via u = x^(-r)."""
    return gamma(alpha - 1.0 / r) * gamma(1.0 - alpha) / (r * gamma(1.0 - 1.0 / r))


def entry_gap_longdouble(r, eps0, psi):
    """||c|-1| for an entry angle, evaluated in extended precision.

    The naive double-precision difference loses all digits near the
    asymptotic angle; 80-bit arithmetic keeps ~19 significant digits, which
    is enough to grade the package's cancellation-free form down to
    u ~ 1e-12.
    """
    a = np.longdouble(1) + np.longdouble(eps0) ** np.longdouble(r)
    c = a * np.cos(np.longdouble(psi))
    return float(np.abs(np.abs(c) - np.longdouble(1)))


def _bouncing_mp(r, eps0, u, weight):
    """int_0^sqrt(eps0 - y) weight(c, xi) 2w sqrt(1+xi'^2) / sqrt(xi^2-c^2) dw
    for a bouncing excursion at gap u = c-1, as an mpmath integral.

    Integrated in w, s = y + w^2 with y = u^(1/r), so the turning-point
    singularity is gone; xi - c = s^r - u is factored as
    y^r expm1(r log1p(w^2/y)), which keeps it exact at any depth.  The
    interval is split at w = sqrt(y), the scale on which the integrand turns
    over, so tanh-sinh quadrature converges to the working precision.
    """
    c = 1 + u
    y = u ** (1 / r)

    def f(w):
        s = y + w * w
        ximc = y**r * mpmath.expm1(r * mpmath.log1p(w * w / y))
        xipc = 2 + u + s**r
        g = mpmath.sqrt(1 + (r * s ** (r - 1)) ** 2)
        return weight(c, 1 + s**r) * 2 * w * g / mpmath.sqrt(ximc * xipc)

    hi = mpmath.sqrt(eps0 - y)
    return mpmath.quad(f, [0, min(mpmath.sqrt(y), hi / 2), hi])


def _bouncing_zeta_mp(r, eps0, u):
    """zeta of a bouncing excursion at gap u = c-1 (see _bouncing_mp)."""
    return _bouncing_mp(r, eps0, u, lambda c, xi: 2 * c / xi)


def _bouncing_upsilon0_mp(r, eps0, u):
    """Upsilon0 of a bouncing excursion at gap u = c-1 (see _bouncing_mp)."""
    return _bouncing_mp(r, eps0, u, lambda c, xi: xi)


def dzeta_du(r, eps0, u, dps=40):
    """(dzeta/du, d2zeta/du2) of a bouncing excursion at gap u = c-1 > 0.

    Central differences of a dps-digit zeta(u) with step h = 1e-7 u: the
    truncation error is ~h^2/u^2 ~ 1e-14 relative for both derivatives,
    while the differencing cancels only ~14 of the dps digits.
    """
    with mpmath.workdps(dps):
        r, eps0, u = mpmath.mpf(r), mpmath.mpf(eps0), mpmath.mpf(u)
        h = u * mpmath.mpf("1e-7")
        lo, mid, hi = (_bouncing_zeta_mp(r, eps0, u + k * h) for k in (-1, 0, 1))
        return float((hi - lo) / (2 * h)), float((hi - 2 * mid + lo) / (h * h))


def _crossing_zeta_mp(r, eps0, u):
    """zeta of a crossing excursion at gap u = 1-c, as an mpmath integral.

    Integrated in s from the waist, where the integrand has a spike of
    width u^(1/r); xi - c = s^r + u carries no cancellation.  The interval
    is cut at that width and at every tenfold multiple of it, so tanh-sinh
    quadrature sees a smooth, slowly varying integrand on each piece.
    """
    c = 1 - u

    def f(s):
        sr = s**r
        g = mpmath.sqrt(1 + (r * s ** (r - 1)) ** 2)
        return 2 * c * g / ((1 + sr) * mpmath.sqrt((sr + u) * (2 - u + sr)))

    cuts = [mpmath.mpf(0)]
    width = u ** (1 / r)
    while width < eps0:
        cuts.append(width)
        width *= 10
    return mpmath.quad(f, cuts + [eps0])


def crossing_dzeta_du(r, eps0, u, dps=40):
    """(dzeta/du, d2zeta/du2) of a crossing excursion at gap u = 1-c > 0.

    Central differences of a dps-digit zeta(u) with step h = 1e-7 u, as in
    dzeta_du.
    """
    with mpmath.workdps(dps):
        r, eps0, u = mpmath.mpf(r), mpmath.mpf(eps0), mpmath.mpf(u)
        h = u * mpmath.mpf("1e-7")
        lo, mid, hi = (_crossing_zeta_mp(r, eps0, u + k * h) for k in (-1, 0, 1))
        return float((hi - lo) / (2 * h)), float((hi - 2 * mid + lo) / (h * h))


def excursion_quad(r, eps0, u, bouncing, which):
    """zeta or upsilon0 (which) at gap u = ||c|-1| by adaptive quadrature.

    Gauss-Kronrod on the same regularized integrands the package integrates
    on Gauss-Legendre panels, written here with scalar math: in w,
    s = y + w^2, for bouncing entries, and in s with the first panel split
    at the spike width u^(1/r) for crossing ones.  Converged to ~1e-11
    relative.
    """
    if bouncing:
        c = 1.0 + u
        y = u ** (1.0 / r)

        def f(w):
            s = y + w * w
            sr = s**r
            root = math.sqrt(y**r * math.expm1(r * math.log1p(w * w / y)) * (2.0 + u + sr))
            g = math.sqrt(1.0 + (r * sr / s) ** 2)
            if which == "zeta":
                return 4.0 * c * g * w / ((1.0 + sr) * root)
            return 2.0 * (1.0 + sr) * g * w / root

        hi = math.sqrt(eps0 - y)
        return quad(f, 0.0, hi, epsabs=0.0, epsrel=1e-11, limit=200)[0]
    c = 1.0 - u

    def f(s):
        sr = s**r
        root = math.sqrt((sr + u) * (2.0 - u + sr))
        g = math.sqrt(1.0 + (r * s ** (r - 1.0)) ** 2)
        if which == "zeta":
            return 2.0 * c * g / ((1.0 + sr) * root)
        return (1.0 + sr) * g / root

    peak = min(u ** (1.0 / r), 0.5 * eps0)
    return quad(f, 0.0, eps0, points=[peak], epsabs=0.0, epsrel=1e-11, limit=200)[0]


def residence_offset_mp(r, eps0, dps=30):
    """L of the two-term residence law Upsilon0 = K u^(-beta) + L + o(1),
    by mpmath at dps digits.

    L = int_0^eps0 [xi g/sqrt(xi^2-1) - (2q)^(-1/2)] ds - eps0^(1-r/2)/((r/2-1) sqrt 2)
    with q = s^r and g = sqrt(1+xi'^2).  The bracket is rationalized:
    (2q xi^2 g^2 - (xi^2-1)) = q (3q + 2q^2 + 2 xi^2 xi'^2) exactly, so it
    reads q (3q + 2q^2 + 2 xi^2 xi'^2) / (R sqrt(2q) (xi g sqrt(2q) + R)),
    R = sqrt(q (2+q)), with no difference left to cancel.  The interval is
    cut at s = 1, where q turns from small to large.
    """
    with mpmath.workdps(dps):
        r, eps0 = mpmath.mpf(r), mpmath.mpf(eps0)

        def f(s):
            q = s**r
            xi, xp = 1 + q, r * s ** (r - 1)
            g, big_r, w = mpmath.sqrt(1 + xp * xp), mpmath.sqrt(q * (2 + q)), mpmath.sqrt(2 * q)
            num = q * (3 * q + 2 * q * q + 2 * xi * xi * xp * xp)
            return num / (big_r * w * (xi * g * w + big_r))

        cuts = [0, eps0] if eps0 <= 1 else [0, 1, eps0]
        tail = eps0 ** (1 - r / 2) / ((r / 2 - 1) * mpmath.sqrt(2))
        return float(mpmath.quad(f, cuts) - tail)
