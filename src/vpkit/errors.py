"""Exception types shared across the toolkit.

Every guard that refuses to return a number it cannot stand behind raises one
of these, so callers can tell a numerical refusal from a programming error.
"""


class VpkitError(Exception):
    """Base class for all toolkit-specific failures."""


class ConstraintViolation(VpkitError):
    """A configured object violates a structural bound (e.g. potential decay)."""


class TailNotResolved(VpkitError):
    """An integral's tail still carries weight at the truncation boundary."""


class SeriesNotConverged(VpkitError):
    """A series norm was truncated while terms were still significant."""


class StepTooCoarse(VpkitError):
    """Requested time step cannot resolve the kernel's oscillation."""


class MarginNonPositive(VpkitError):
    """A root of the dispersion relation lies in the scanned half-plane."""


class TooFewPeaks(VpkitError):
    """Not enough envelope maxima inside the fit window."""


class UnstableConfiguration(VpkitError):
    """Growth-control bounds were requested for a configuration with no margin."""


class ResolutionExceeded(VpkitError):
    """Filamentation reached the velocity grid; results past here are artifacts.

    fraction carries the edge-band energy fraction that tripped the guard and
    time the time of the state it tripped on."""

    def __init__(self, message, fraction=None, time=None):
        self.fraction = fraction
        self.time = time
        super().__init__(message)


class EchoBeyondRecurrence(VpkitError):
    """Predicted echo time lies past the grid recurrence horizon."""


class ParseError(VpkitError):
    """Config file could not be read as structured key-value text."""

    def __init__(self, line, key, reason):
        self.line = line
        self.key = key
        self.reason = reason
        super().__init__(f"line {line}: {key}: {reason}")

    def __reduce__(self):
        return type(self), (self.line, self.key, self.reason)


class ValidationError(VpkitError):
    """One or more config values violate module preconditions.

    Carries the full list of problems, not just the first one found.
    """

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))

    def __reduce__(self):
        return type(self), (self.problems,)
