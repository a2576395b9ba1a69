"""Homogeneity bands: the dyadic-like partition of the Clairaut constant.

Band n (n >= n0) collects excursions with 1/(n+1)^2 < | |c|-1 | < 1/n^2,
split into a bouncing side (|c| > 1) and a crossing side (|c| < 1).  All
scaling laws in this package are indexed by n.  Boundary values | |c|-1 |
= 1/n^2 belong to no band (they form the secondary singular set of the
partition), and neither does anything with n < n0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .surface import SurfaceProfile

BOUNCING = "bouncing"
CROSSING = "crossing"
SIDES = (BOUNCING, CROSSING)

DEFAULT_N0 = 10


@dataclass(frozen=True)
class HomogeneityBand:
    n: int
    side: str

    def __post_init__(self):
        if self.side not in SIDES:
            raise ValueError(f"side must be one of {SIDES}, got {self.side!r}")
        if self.n < 1:
            raise ValueError(f"band index must be positive, got {self.n}")


def band_of(c: float, n0: int = DEFAULT_N0) -> HomogeneityBand | None:
    """Band containing Clairaut constant c, or None.

    None is returned for |c| = 1 (asymptotic), for boundary values where
    1/sqrt(||c|-1|) is an exact integer, and for bands shallower than n0.
    The gap ||c|-1| is rounded here; where the exact gap is known, as for
    an entry angle, band_of_gap is exact however deep the band.
    """
    return band_of_gap(abs(abs(c) - 1.0), BOUNCING if abs(c) > 1.0 else CROSSING, n0)


def band_of_gap(u: float, side: str, n0: int = DEFAULT_N0) -> HomogeneityBand | None:
    """Band of side containing the gap u = ||c|-1|, or None.

    None is returned for u = 0 (asymptotic), for boundary values where
    1/sqrt(u) is an exact integer, and for bands shallower than n0.  The
    band is settled in integers from the exact ratio u = p/q, so it is
    exact however close u lies to a boundary 1/n^2.
    """
    if u == 0.0 or math.isinf(u):
        return None
    p, q = u.as_integer_ratio()
    n = math.isqrt(q // p)  # floor(1/sqrt(u)) exactly: n^2 <= q/p < (n+1)^2
    if n * n * p == q:
        return None  # exactly on a band boundary
    if n < n0:
        return None
    return HomogeneityBand(n, side)


def c_interval(n: int, side: str) -> tuple[float, float]:
    """The open c-interval of band (n, side), ordered c_lo < c_hi."""
    inner = 1.0 / (n + 1.0) ** 2  # |c|-1 at the deep edge
    outer = 1.0 / float(n) ** 2
    if side == BOUNCING:
        return 1.0 + inner, 1.0 + outer
    if side == CROSSING:
        return 1.0 - outer, 1.0 - inner
    raise ValueError(f"side must be one of {SIDES}, got {side!r}")


def check_band(
    profile: SurfaceProfile, n: int, side: str, n0: int = DEFAULT_N0
) -> tuple[float, float]:
    """c_interval(n, side); ValueError if n0 < 1, n < n0, or the band needs a
    c above xi(eps0), naming then the shallowest band the profile reaches."""
    if n0 < 1:
        raise ValueError(f"band floor n0 must be at least 1, got {n0}")
    if n < n0:
        raise ValueError(f"band index {n} is below the configured floor n0={n0}")
    c_lo, c_hi = c_interval(n, side)
    if not _reached(profile, c_hi):
        raise ValueError(
            f"band (n={n}, {side}) lies outside the entry window; the shallowest "
            f"band this profile reaches is n={_shallowest_band(profile)}"
        )
    return c_lo, c_hi


def _reached(profile: SurfaceProfile, c_hi: float) -> bool:
    return c_hi <= profile.boundary_radius


def _shallowest_band(profile: SurfaceProfile) -> int:
    """Smallest n whose bouncing band (the outer one) entry vectors reach."""
    gap = profile.boundary_radius - 1.0
    if gap == 0.0:
        raise ValueError("xi(eps0) rounds to 1: no band lies in the entry window")
    n = max(1, math.ceil(gap**-0.5))
    while not _reached(profile, c_interval(n, BOUNCING)[1]):
        n += 1
    while n > 1 and _reached(profile, c_interval(n - 1, BOUNCING)[1]):
        n -= 1
    return n


def band_boundaries(
    profile: SurfaceProfile, n: int, side: str, n0: int = DEFAULT_N0
) -> tuple[tuple[float, float], tuple[float, float]]:
    """((c_lo, c_hi), (psi_lo, psi_hi)) for band (n, side).

    The entry-angle interval comes from inverting c = a*cos(psi) at the neck
    boundary, a = 1 + eps0^r, so psi_lo = arccos(c_hi/a).  Bouncing bands
    sit below the asymptotic angle, crossing bands above; bands nest toward
    it as n grows.  See check_band for the ValueErrors.
    """
    c_lo, c_hi = check_band(profile, n, side, n0)
    a = profile.boundary_radius
    return (c_lo, c_hi), (math.acos(c_hi / a), math.acos(c_lo / a))


def band_width(
    profile: SurfaceProfile, n: int, side: str, n0: int = DEFAULT_N0
) -> float:
    """Width of the entry-angle interval of band (n, side)."""
    _, (psi_lo, psi_hi) = band_boundaries(profile, n, side, n0)
    return psi_hi - psi_lo


def width_asymptote(profile: SurfaceProfile, n: int) -> float:
    """First-order band width 2*(eps0^2r + 2 eps0^r)^(-1/2) * n^-3.

    The constant is 1/sqrt(a^2-1) from differentiating arccos(c/a) at c=1,
    and the n^-3 is the length of the c-interval.
    """
    e = profile.eps0**profile.r
    return 2.0 / math.sqrt(e * e + 2.0 * e) / float(n) ** 3


def accumulation_distance(
    profile: SurfaceProfile, n: int, side: str, n0: int = DEFAULT_N0
) -> float:
    """Distance from band (n, side)'s nearest entry angle to psi0.

    Decays like (eps0^2r + 2 eps0^r)^(-1/2) * n^-2: the bands pile up on
    the asymptotic angle quadratically in the index.
    """
    _, (psi_lo, psi_hi) = band_boundaries(profile, n, side, n0)
    psi0 = profile.asymptotic_angle()
    return min(abs(psi_lo - psi0), abs(psi_hi - psi0))


def band_midpoint(
    profile: SurfaceProfile, n: int, side: str, n0: int = DEFAULT_N0
) -> tuple[float, float]:
    """(c, psi) at the centre (in c) of band (n, side); see check_band."""
    c_lo, c_hi = check_band(profile, n, side, n0)
    c_mid = 0.5 * (c_lo + c_hi)
    return c_mid, math.acos(c_mid / profile.boundary_radius)
