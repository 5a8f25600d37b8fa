"""Exception types shared across the package, and the integer-count check
that raises one."""

import numbers


class AttDiagError(Exception):
    """Base class for every error raised by this package."""


class ParseError(AttDiagError):
    """Malformed input table (wrong arity, non-numeric field)."""


class ValidationError(AttDiagError):
    """Input violates a documented precondition or invariant."""


class FetchError(AttDiagError):
    """Remote dataset unavailable: not cached (then `not_cached` is true:
    offline mode is on or the download failed), or its cache unusable."""

    def __init__(self, message: str, *, not_cached: bool = False):
        super().__init__(message)
        self.not_cached = not_cached


class IntegrityError(AttDiagError):
    """Cached file does not match its recorded digest."""


class MergeError(AttDiagError):
    """Datasets with incompatible schemas cannot be merged."""


class BinningError(AttDiagError):
    """Covariate value falls outside the stratification grid."""


class RestrictionError(AttDiagError):
    """Sample restriction produced an unusable (empty) dataset."""


class ConvergenceError(AttDiagError):
    """Likelihood maximization diverged (e.g. perfect separation)."""


class NumericalError(AttDiagError):
    """Linear algebra failure: singular or rank-deficient system."""


class TrimmingError(AttDiagError):
    """Score-based trimming retained no units."""


class EstimationError(AttDiagError):
    """Estimator preconditions failed on the given sample."""


class SupportError(AttDiagError):
    """Observed outcome lies outside the declared outcome support."""


class DomainError(AttDiagError, ValueError):
    """Scalar argument outside its mathematical domain."""


class SizeError(AttDiagError):
    """Problem too large for an enumeration-based routine."""


class WitnessError(AttDiagError):
    """Non-identification witness construction failed to calibrate."""


class BootstrapError(AttDiagError):
    """Too many bootstrap replicates failed to estimate."""


class WorkerError(AttDiagError):
    """A worker process could not be forked or died before returning its result."""


class ConfigError(AttDiagError):
    """Run configuration is unusable: the config file is missing, malformed,
    not UTF-8 or has unknown keys or bad values, or a command-line argument
    is (a negative --seed, an --out that cannot be made a directory)."""


class DependencyError(AttDiagError):
    """A required upstream artifact is missing; names the producing command."""


def check_count(name: str, value, minimum: int) -> None:
    """Raise ValidationError unless `value` is an integer >= `minimum`. A
    numpy integer is one; a bool or an integral float is not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value}")
