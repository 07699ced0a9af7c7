"""Exception types and the process exit codes they map to."""

EXIT_OK = 0
EXIT_CERTIFICATE = 2
EXIT_INPUT = 3
EXIT_NUMERIC = 4


class RiskConvexError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 1


class ContractError(RiskConvexError):
    """A documented precondition was violated by the caller."""

    exit_code = EXIT_INPUT


class ConfigError(RiskConvexError):
    """Malformed input file, dataset row, or configuration key."""

    exit_code = EXIT_INPUT


class FieldEvaluationError(RiskConvexError):
    """An objective returned NaN, +inf, or a value above its declared bound."""

    exit_code = EXIT_NUMERIC

    def __init__(self, message, theta=None):
        super().__init__(message)
        self.theta = theta


class IllConditionedError(RiskConvexError):
    """A matrix that must be inverted is numerically singular."""

    exit_code = EXIT_NUMERIC


class CertificateError(RiskConvexError):
    """Refusal: the convexity certificate required by the operation fails."""

    exit_code = EXIT_CERTIFICATE

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class DegenerateEstimateError(RiskConvexError):
    """A Monte Carlo estimate carries no information: every exponent
    underflowed to -inf, or an exponent is NaN (``sample_index`` names
    the first such sample)."""

    exit_code = EXIT_NUMERIC

    def __init__(self, message, sample_index=None):
        super().__init__(message)
        self.sample_index = sample_index


class EstimateOverflowError(RiskConvexError):
    """An exponent or a moment exceeded the representable floating-point range."""

    exit_code = EXIT_NUMERIC

    def __init__(self, message, sample_index=None):
        super().__init__(message)
        self.sample_index = sample_index


class DivergenceError(RiskConvexError):
    """A simulated trajectory or iteration produced a non-finite value."""

    exit_code = EXIT_NUMERIC

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step
