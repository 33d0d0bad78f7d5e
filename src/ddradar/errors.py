"""Exception hierarchy shared across the toolkit.

Two intermediate bases matter for the CLI exit-code mapping: ValidationError
covers bad numeric configuration (exit 4), PreconditionError covers refused
operations on otherwise-valid inputs (exit 3).
"""


class DDRadarError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(DDRadarError):
    """Numeric or structural validation failed (CLI exit code 4)."""


class PreconditionError(DDRadarError):
    """An operation precondition does not hold (CLI exit code 3)."""


class OverBudget(PreconditionError):
    """An allocation would exceed the documented memory budget."""


class ConfigurationError(ValidationError):
    """Modulus or grid configuration is invalid (composite M, bad periods, ...)."""


class ModulusMismatch(ValidationError):
    """Operands live over different moduli."""


class NotInvertible(ValidationError):
    """Requested modular inverse does not exist."""


class NotPrimitive(ValidationError):
    """Line generator (c, d) is not primitive: gcd(c, d) != 1."""


class IndexOutOfRange(ValidationError):
    """Index outside its declared range."""


class AlphaNotCoprime(ValidationError):
    """Chirp rate alpha shares a factor with MN."""


class NotCoprime(ValidationError):
    """LFM rate A shares a factor with MN."""


class BNotCoprime(ValidationError):
    """GDAFT matrix entry b shares a factor with MN."""


class DetNotOne(ValidationError):
    """2x2 matrix determinant is not 1 mod MN."""


class BadRoot(ValidationError):
    """Zadoff-Chu root/length pair is invalid."""


class EmptyChip(ValidationError):
    """Coded waveform chip must have length >= 1."""


class ZeroSequence(ValidationError):
    """Operation undefined on the all-zero sequence."""


class ZeroSignal(ZeroSequence):
    """Noise addition undefined on a zero-energy signal."""


class BadSNR(ValidationError):
    """Requested SNR is NaN, -inf, or gives a noise variance that is not finite."""


class BadSeed(ValidationError):
    """Noise seed is negative."""


class EnergyOverflow(ValidationError):
    """Signal energy ||y||^2 is not a finite float64, so no SNR can be set against it."""


class GridMismatch(ValidationError):
    """Surface grid does not match what the operation requires."""


class NotCrystallized(PreconditionError):
    """Region translates by the line support overlap; readout would alias."""


class EngineUnsupported(PreconditionError):
    """Fast ambiguity engine requested for a waveform not tied to the modulus (zc-coded)."""
