"""Exception types shared across the package."""


class DomainError(ValueError):
    """A parameter lies outside the mathematically admissible range."""


class ExtrapolationError(DomainError):
    """A tabulated weight profile was evaluated outside its sampled range."""


class TableFormatError(DomainError):
    """A profile table file is missing or its content cannot be parsed."""


class NoProfileError(DomainError):
    """Asked for power-log asymptotics of a profile that has none."""


class FloatRangeError(DomainError):
    """A computed norm or supremum leaves the positive finite floats."""


class CapacityError(DomainError):
    """A requested witness does not fit inside the chosen cube pair."""


class WitnessTooLargeError(DomainError):
    """A witness would materialise more cells than the hard cap allows."""


class WitnessSelectionError(RuntimeError):
    """No admissible witness family matches the detected failure mode."""


class NotApplicableError(DomainError):
    """A specialised decision rule was invoked outside its hypotheses."""


class ResolutionError(DomainError):
    """Requested analysis depth exceeds the sampling resolution."""


class InsufficientMomentsError(DomainError):
    """The wavelet system has too few vanishing moments for the target space."""
