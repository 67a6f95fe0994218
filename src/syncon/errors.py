"""Exception types shared across the library.

Every error raised on purpose by this package derives from SynconError so
callers can catch library failures without masking programming mistakes.
"""


class SynconError(Exception):
    """Base class for all errors raised by this package."""


class NonFiniteState(SynconError):
    """A state vector or map output contains NaN or +/-inf."""


class CoverageViolation(SynconError):
    """A state satisfies neither the flow-set nor the jump-set indicator."""


class NoSignChange(SynconError):
    """The locator was asked for a boundary the step never crosses."""


class EmptyJumpSet(SynconError):
    """The jump map returned no candidate post-states."""


class NotInJumpSet(SynconError):
    """A jump was requested from a state outside the jump set."""


class DimensionMismatch(SynconError):
    """Vector or matrix dimensions are inconsistent with the declared plant."""


class ParamBoundViolation(SynconError):
    """Smoothing or backstepping parameters violate their admissible bounds."""


class GainValidation(SynconError):
    """Navigation gains violate an admissibility bound."""


class DomainError(SynconError):
    """A map was evaluated at a state outside the domain it is defined on.

    An error-controlled step (engine.simulate under ``dopri5``) whose stage
    raises one is rejected and retried shorter."""


class NonPositiveDistance(DomainError):
    """Barrier evaluation at a distance that is zero or negative."""


class OutsideFreeSpace(SynconError):
    """A point handed to a navigation function lies inside the obstacle shell."""


class NoRootBracketed(SynconError):
    """Scalar root search found no sign change on the given interval."""


class ParseError(SynconError):
    """A scenario file is not syntactically valid JSON."""


class ValidationError(SynconError):
    """A scenario config violates the schema or a numeric bound.

    Carries the individual violations, one message per offending field.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid scenario config:\n  " + "\n  ".join(self.violations))
