"""Error taxonomy shared across the package."""


class IntransError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(IntransError, ValueError):
    """Malformed arguments: length mismatch, bad flags, broken invariants."""


class ParityError(InvalidInputError):
    """A vote margin is zero where odd n guarantees it cannot be."""


class DomainError(InvalidInputError):
    """Parameter outside the mathematical domain of the formula."""


class SizeLimitError(InvalidInputError):
    """Input size beyond the documented exact-computation limit."""


class SamplerStallError(IntransError, RuntimeError):
    """Rejection sampler exhausted its attempt budget."""

    def __init__(self, message, attempts, accepted=0):
        super().__init__(message)
        self.attempts = attempts
        self.accepted = accepted


class NotPositiveDefiniteError(IntransError, RuntimeError):
    """A covariance embedding is not nonnegative definite."""


class SingularCovarianceError(IntransError, RuntimeError):
    """Conditioning step hit a numerically singular covariance block."""

    def __init__(self, rho, detail=""):
        msg = "singular covariance at rho=%r" % (rho,)
        if detail:
            msg += ": " + detail
        super().__init__(msg)
        self.rho = rho


class AcceptanceFloorError(IntransError, RuntimeError):
    """Conditional estimate aborted: acceptance rate below the floor."""

    def __init__(self, observed_rate, floor, probe_trials):
        super().__init__(
            "acceptance rate %.3g below floor %.3g after %d probe trials"
            % (observed_rate, floor, probe_trials)
        )
        self.observed_rate = observed_rate
        self.floor = floor
        self.probe_trials = probe_trials
