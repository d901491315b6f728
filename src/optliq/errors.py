"""Exception hierarchy shared across the package.  The w solver has no
failure of its own: it solves every finite parameter set."""


class OptliqError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(OptliqError, ValueError):
    """Invalid model parameter, argument domain violation, or bad configuration."""


class RegimeError(OptliqError, ValueError):
    """A closed-form expression was evaluated outside its regime of validity."""


class NoAsymptoteError(RegimeError):
    """The long-horizon quote limit does not exist for these parameters."""


class DataError(OptliqError, ValueError):
    """Malformed or inconsistent market data input."""


class CalibrationError(OptliqError, RuntimeError):
    """Parameter calibration could not be completed on the given data."""


class UsageError(OptliqError, ValueError):
    """Invalid command-line or config-file usage."""
