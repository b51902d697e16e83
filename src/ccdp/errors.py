"""Exception types shared across the package.

All of these derive from ValueError so callers that do not care about the
exact failure mode can catch a single base class.  The class *name* is part
of the CLI contract: usage errors are reported as ``<ClassName>: <message>``.
"""


class CcdpError(ValueError):
    """Base class for all validation and domain errors raised here."""


class InvalidM(CcdpError):
    """Number of receivers must be an integer >= 2."""


class InvalidPower(CcdpError):
    """Transmit power must be finite and strictly positive."""


class InvalidGain(CcdpError):
    """State gain must be finite and non-negative."""


class InfeasibleRho(CcdpError):
    """Pairwise correlation outside [-1/(M-1), 1]; no such covariance exists."""


class WrongModel(CcdpError):
    """Bound evaluated outside the parameter regime it is derived for."""


class InvalidSplit(CcdpError):
    """Power-split fraction outside [0, 1], or zero where a layer is required."""


class DomainError(CcdpError):
    """Evaluation would take log2 of a non-positive argument."""


class DegenerateCovariance(CcdpError):
    """Empirical covariance numerically singular; MI functional undefined."""
