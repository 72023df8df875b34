"""Exception types shared across the toolkit, and the checker of rules.

Every guard that refuses to return a number it cannot stand behind raises one
of these, so callers can tell a numerical refusal from a programming error.
Each rule on a value is stated once, beside the object it constrains, as a
(fields, holds, text) triple; broken() reports the rules some values break,
for that object and for the config that sets its values.
"""

import re


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


def broken(rules, values, names=None) -> list:
    """The "name: text" problem of each rule that values break, in rule order.

    A rule is (fields, holds, text): holds(*values of the fields) says
    whether it holds, and a break is reported under the first field's name.
    text is a str.format template of those values ({!r}) and of field names
    ({k_max}), or a function of the values that returns one. values maps
    each field's name (names[field], or the field itself) to its value. A
    rule is skipped where a value it reads is missing or None, or where one
    of its fields already broke a rule here. A value that breaks a rule of
    its own is set to None in values, so no later rule reads it; one that
    breaks a relation to another value stays.
    """
    names = names or {}
    problems, bad = [], set()
    for fields, holds, text in rules:
        args = [values.get(names.get(f, f)) for f in fields]
        if None in args or (bad and not bad.isdisjoint(fields)) or holds(*args):
            continue
        bad.add(fields[0])
        key = names.get(fields[0], fields[0])
        if len(fields) == 1:
            values[key] = None
        template = text(*args) if callable(text) else text
        labels = {f: names.get(f, f) for f in re.findall(r"\{(\w+)\}", template)}
        problems.append(f"{key}: {template.format(*args, **labels)}")
    return problems


def refuse(problems, error=ConstraintViolation) -> None:
    """Raise error with every problem, if there are any."""
    if problems:
        raise error("; ".join(problems))
