"""Exception types shared across the package."""


class NeckDomainError(ValueError):
    """A point or vector lies outside the neck |s| <= eps0."""


class NoTurningPointError(ValueError):
    """A turning radius was requested for a constant with |c| <= 1."""


class AsymptoticEntryError(ValueError):
    """An excursion quantity was requested for an exactly asymptotic vector."""


class AccuracyError(RuntimeError):
    """A requested numerical accuracy could not be certified.

    Carries the achieved error estimate so callers can decide whether to
    relax the request or abort.
    """

    def __init__(self, message: str, achieved: float | None = None):
        super().__init__(message)
        self.achieved = achieved


class IntegrationStallError(RuntimeError):
    """The ODE stepper stalled; carries the time reached and, in a batch, the row."""

    def __init__(self, message: str, t_reached: float, row: int | None = None):
        super().__init__(message)
        self.t_reached = t_reached
        self.row = row
