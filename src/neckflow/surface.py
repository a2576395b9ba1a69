"""Closed-form geometry of a flat-ridge surface-of-revolution neck.

The neck is the rotation surface with profile

    xi(s) = 1 + |s|^r,   |s| <= eps0,   r >= 4,

so the parallel circle at s=0 is a closed geodesic along which the Gaussian
curvature vanishes to order r-2 (the curvature is strictly negative
everywhere else).  Everything in this module is elementary calculus on xi;
no integration happens here.  Each formula is written once:
SurfaceProfile.geometry gives the metric factors xi, xi' and sqrt(1+xi'^2)
that the geodesic equations (dynamics) and the excursion integrands
(transition) both read, _curvature_terms gives xi', xi'' and the
curvature's denominator xi (1+xi'^2)^2 for every curvature quantity, and
clairaut_unchecked gives Clairaut's constant.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import NeckDomainError, NoTurningPointError


class TrajectoryClass(enum.Enum):
    """Excursion type by Clairaut constant: |c|=1, |c|>1, |c|<1."""

    ASYMPTOTIC = "asymptotic"
    BOUNCING = "bouncing"
    CROSSING = "crossing"


@dataclass(frozen=True)
class SurfaceProfile:
    """The neck profile xi(s) = 1 + |s|^r restricted to |s| <= eps0.

    r must be at least 4 (the regime where all scaling laws in this package
    hold); values in (2, 4) are admitted only with allow_low_r=True for
    exploratory runs, and r <= 2 is rejected outright because the profile
    then fails to be C^2 with a degenerate ridge.
    """

    r: float = 4.0
    eps0: float = 1.0
    allow_low_r: bool = False

    def __post_init__(self):
        if not self.r > 2.0:
            raise ValueError(f"profile exponent r must exceed 2, got r={self.r}")
        if self.r < 4.0 and not self.allow_low_r:
            raise ValueError(
                f"r={self.r} is outside the supported regime r >= 4; "
                "pass allow_low_r=True to experiment with 2 < r < 4"
            )
        if not self.eps0 > 0.0:
            raise ValueError(f"neck half-width eps0 must be positive, got {self.eps0}")

    @property
    def boundary_radius(self) -> float:
        """xi at the neck boundary: a = 1 + eps0^r."""
        return 1.0 + self.eps0**self.r

    def _check_domain(self, s):
        if np.any(np.abs(s) > self.eps0):
            raise NeckDomainError(
                f"|s| exceeds the neck half-width eps0={self.eps0}"
            )

    def geometry(self, s, xp=math):
        """(|s|^r, xi, xi', sqrt(1+xi'^2)) at s, without the domain check:
        the one form of the metric that the geodesic equations (dynamics)
        and the excursion integrands (transition) read.

        xi' = r |s|^r / s, the quotient read as 0 / 1 at s = 0.  s is a
        Python float, computed in plain float arithmetic with xp = math, or
        a numpy array with xp = numpy, as dynamics._make_rhs's namespaces.
        """
        ar = abs(s) ** self.r
        d1 = self.r * ar / (s + (s == 0.0))
        return ar, 1.0 + ar, d1, xp.sqrt(1.0 + d1 * d1)

    def _curvature_terms(self, s):
        """(xi, |xi'|, xi'', xi (1+xi'^2)^2) at s, without the domain check:
        the profile's derivatives and the curvature's denominator.

        Powers of |s| are evaluated on the absolute value, so the s=0
        limits (xi'=xi''=0 for r>2) come out of the 0^positive convention
        without a branch.  A float is computed in plain float arithmetic,
        an array in numpy.
        """
        a = abs(s)
        r = self.r
        xi = 1.0 + a**r
        d1 = r * a ** (r - 1.0)
        d2 = r * (r - 1.0) * a ** (r - 2.0)
        return xi, d1, d2, xi * (1.0 + d1 * d1) ** 2

    def profile_eval(self, s):
        """Return (xi, xi', xi'') at s.  Accepts scalars or arrays."""
        self._check_domain(s)
        xi, d1, d2, _ = self._curvature_terms(s)
        return xi, np.sign(s) * d1, d2

    def curvature(self, s):
        """Gaussian curvature K(s) = -xi'' / (xi * (1 + xi'^2)^2).

        K <= 0 everywhere and K = 0 exactly at the ridge s = 0.
        """
        self._check_domain(s)
        return self.curvature_unchecked(s)

    def curvature_unchecked(self, s):
        """K(s) without the domain check, for ODE right-hand sides.

        Solver stages and event roots overshoot |s| = eps0 by a root-finding
        ulp, and the formula extends smoothly there.  A float gives a float
        in plain float arithmetic; arrays work too.
        """
        _, _, d2, den = self._curvature_terms(s)
        return -d2 / den

    def curvature_ratio(self, s):
        """The pinching ratio -K(s)/|s|^(r-2) = r(r-1)/(xi*(1+xi'^2)^2).

        Evaluated in the cancelled form, so it is finite (and maximal) at
        s=0.  Decreasing in |s|; see pinching_bounds for the extremes.
        """
        self._check_domain(s)
        return self.r * (self.r - 1.0) / self._curvature_terms(s)[3]

    def clairaut_constant(self, s, psi):
        """Clairaut's first integral c = xi(s) * cos(psi)."""
        self._check_domain(s)
        return self.clairaut_unchecked(s, psi)

    def clairaut_unchecked(self, s, psi):
        """c without the domain check, for the drift of solver states, which
        overshoot |s| = eps0 as curvature_unchecked's arguments do."""
        return (1.0 + np.abs(s) ** self.r) * np.cos(psi)

    def asymptotic_angle(self) -> float:
        """Entry angle psi0 of asymptotic excursions: arccos(1/(1+eps0^r)).

        An entry vector at s = -eps0 with psi = psi0 has c = 1 up to one
        rounding of cos, i.e. to machine precision.
        """
        return math.acos(1.0 / self.boundary_radius)

    def turning_point(self, c: float) -> float:
        """Turning radius s* = (|c|-1)^(1/r) where xi(s*) = |c|.

        Defined for bouncing constants 1 < |c| <= xi(eps0); the geodesic
        reverses its meridian motion on the parallel circle s = +-s*.
        """
        ac = abs(c)
        if ac <= 1.0:
            raise NoTurningPointError(
                f"|c|={ac} <= 1: crossing/asymptotic orbits never turn"
            )
        if ac > self.boundary_radius:
            raise NeckDomainError(
                f"|c|={ac} exceeds xi(eps0)={self.boundary_radius}: "
                "no such vector enters the neck"
            )
        return (ac - 1.0) ** (1.0 / self.r)

    def pinching_bounds(self) -> tuple[float, float]:
        """(lower, upper) bounds of -K/|s|^(r-2) over the punctured neck.

        Upper bound r(r-1) is the s->0 limit; the lower bound is the ratio
        at the boundary s = +-eps0, where xi*(1+xi'^2)^2 is largest.
        """
        return self.curvature_ratio(self.eps0), self.r * (self.r - 1.0)


def classify(c: float) -> TrajectoryClass:
    """Classify an excursion by its Clairaut constant, testing |c|=1 exactly.

    No tolerance is applied: the asymptotic set has measure zero and all
    near-boundary logic belongs to the band machinery, so a fuzzy match here
    would silently misclassify entire bands.
    """
    ac = abs(c)
    if ac == 1.0:
        return TrajectoryClass.ASYMPTOTIC
    if ac > 1.0:
        return TrajectoryClass.BOUNCING
    return TrajectoryClass.CROSSING
