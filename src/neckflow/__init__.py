"""Geodesic dynamics of a degenerate surface-of-revolution neck.

Quantitative tooling for the flow through the profile xi(s) = 1 + |s|^r:
closed-form geometry, a validated ODE integrator, singular quadrature for
the analytic transition map, homogeneity-band combinatorics, Jacobi/Riccati
linearization, and reproducible scaling/tail/distortion experiments behind
a deterministic CLI.
"""

__version__ = "0.1.0"

from .bands import HomogeneityBand, band_of
from .dynamics import GeodesicState, integrate, neck_transit
from .errors import (
    AccuracyError,
    AsymptoticEntryError,
    IntegrationStallError,
    NeckDomainError,
    NoTurningPointError,
)
from .surface import SurfaceProfile, TrajectoryClass, classify
from .transition import apply_f0, df0, growth_factor, upsilon0, zeta

__all__ = [
    "AccuracyError",
    "AsymptoticEntryError",
    "GeodesicState",
    "HomogeneityBand",
    "IntegrationStallError",
    "NeckDomainError",
    "NoTurningPointError",
    "SurfaceProfile",
    "TrajectoryClass",
    "apply_f0",
    "band_of",
    "classify",
    "df0",
    "growth_factor",
    "integrate",
    "neck_transit",
    "upsilon0",
    "zeta",
    "__version__",
]
