"""Exception types shared across the package."""


class NuspecError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(NuspecError):
    """Invalid experiment configuration (unknown key, bad value, bad kind)."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class NonFiniteError(NuspecError):
    """A plane-map image or coordinate overflowed / became non-finite."""


class DegeneracyError(NuspecError):
    """A tangent vector or direction collapsed to zero norm."""


class NonConvergenceError(NuspecError):
    """Cyclic Newton refinement exceeded its iteration budget."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class DegenerateOrbitError(NuspecError):
    """A cycle shows no usable hyperbolic splitting, or |det(Df^p - I)| lies
    below the degeneracy threshold; the message names which."""


class PreconditionError(NuspecError):
    """A documented operation precondition was violated by the caller."""


class ResolutionError(NuspecError):
    """A cover net exceeded its center budget; retry with a larger delta."""


class IncompleteMixingError(NuspecError):
    """Some cover pair was never witnessed by the sampling orbit."""

    def __init__(self, message, missing_pairs=()):
        super().__init__(message)
        self.missing_pairs = list(missing_pairs)


class InsufficientHorizonError(NuspecError):
    """A return-time sequence ran out before the required index existed."""

    def __init__(self, message, required_horizon=None):
        super().__init__(message)
        self.required_horizon = required_horizon


class GapInfeasibleError(NuspecError):
    """A prescribed connector-gap total cannot be met by witnessed transitions."""


class InvariantError(NuspecError):
    """A certificate failed one of its own arithmetic invariants (period
    bookkeeping, p <= m + n + K, or the gap total)."""
