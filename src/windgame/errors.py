"""Exception hierarchy shared across the pipeline."""


class WindGameError(Exception):
    """Base class for all errors raised by this package."""


class IngestError(WindGameError):
    """Raised when input series cannot be loaded, cleaned or aligned."""


class DistributionError(WindGameError):
    """Raised when an empirical distribution table cannot be built or queried."""


class ErgodicityError(DistributionError):
    """Raised when the sampled state space is disconnected.

    The chain cannot visit every retained state from every start; increase
    ``min_count`` or the bin width so sparse bins fold into their neighbours.
    """


class FitError(WindGameError):
    """Raised when power-curve fitting receives degenerate input."""


class ConfigError(WindGameError):
    """Raised for invalid or inconsistent scenario configuration."""


class StageError(WindGameError):
    """Wraps a failure with the pipeline stage it occurred in."""

    def __init__(self, stage: str, cause: BaseException):
        self.stage = stage
        self.cause = cause
        super().__init__(f"[{stage}] {cause}")
