"""Exception hierarchy shared across the package.  The w solver refuses
no parameter set for how far w leaves the double range; it refuses, as a
ParameterError, a terminal w(T) = exp(-k q b) whose exponents would reach
2^22 (k b q_max above 2.9e6), a k gamma sigma^2 / 2 beyond the double
range (sigma = 1e200), and rates too fast for the walk to cross a step in
half steps of T 2^-117 (gamma = 1e300, mu = +-1e300, sigma = 1e150), and a
level whose mantissa underflows to 0 in the walk (gamma = 1e30 at q_max =
6), on the point and grid paths alike, naming the level and the rates.
Large finite mu and T are still open: the walk's cost grows linearly in
each (on a 2-core VM, point quotes at q_max = 2 took 0.3 s at mu = 1e4,
3 s at mu = 1e5, and gave no answer within 40 s at mu = 1e6)."""


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
