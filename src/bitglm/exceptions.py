"""Typed errors raised by bitglm.

The distinction between the degenerate errors matters to callers: a
degenerate *likelihood* means the observed bits have probability zero at
the queried parameter (an optimizer can back off), while a degenerate
*threshold* means a design is numerically uninformative (the bit is
deterministic) and no amount of backing off helps.
"""


class BitGlmError(Exception):
    """Base class for all bitglm errors."""


class DomainError(BitGlmError):
    """A parameter vector violates its per-coordinate domain constraint."""


class NumericalError(BitGlmError):
    """A computation left its tail-stability range or failed to converge."""


class DegenerateLikelihood(BitGlmError):
    """An observed bit has probability exactly zero at the given parameter.

    Log-probabilities are formed in log space, so only a Poisson tail can
    read 0; ``fit`` retreats from such a start toward a neutral one first.
    ``index`` identifies the first offending row; ``fit`` reports the first
    row of the first offending group, in the numbering of its input.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index

    @classmethod
    def at_observation(cls, index):
        return cls(f"observation {index} has probability 0 at this parameter", index=index)


class DegenerateThreshold(BitGlmError):
    """A design's censoring probability is numerically 0 or 1.

    ``index`` identifies the first offending design.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class NonIdentifiable(BitGlmError):
    """The censored log-likelihood is monotone in some parameter direction,
    so no finite maximizer exists (e.g. all observed bits are one-sided)."""


class ExperimentFailure(BitGlmError):
    """Too many trials of a Monte Carlo experiment failed to converge."""


class ConfigError(BitGlmError):
    """A CLI config or data file failed to parse or validate.

    ``location`` is a human-readable position such as ``"line 3, column 7"``
    or a key path such as ``"experiment.thresholds.kind"``.
    """

    def __init__(self, message, location=None):
        super().__init__(message)
        self.location = location
