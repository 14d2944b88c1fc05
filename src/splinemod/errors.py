"""Exception hierarchy for splinemod.

Everything raised on purpose derives from SplineError so callers (and the
CLI) can distinguish bad input from genuine bugs.  InternalInconsistency is
the exception: it signals that a cross-check inside the library failed, which
is a defect, not a user error.
"""


class SplineError(Exception):
    """Base class for all errors raised by splinemod."""


class ParseError(SplineError):
    """Malformed graph file; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class InvalidModulus(SplineError):
    pass


class UnknownVertex(SplineError):
    pass


class SelfLoop(SplineError):
    pass


class LengthMismatch(SplineError):
    pass


class NonCoprimeModuli(SplineError):
    pass


class NotADivisor(SplineError):
    pass


class NotAnExtension(SplineError):
    pass


class NotSingleLabel(SplineError):
    pass


class NotConnected(SplineError):
    pass


class NotPowerFamily(SplineError):
    pass


class NotACycle(SplineError):
    pass


class PreconditionViolated(SplineError):
    pass


class HypothesisViolated(SplineError):
    pass


class InfeasibleParameters(SplineError):
    pass


class BudgetExceeded(SplineError):
    """Enumeration would exceed the configured budget.

    The ``required`` attribute reports how large the budget would have to be.
    Past the int-to-text digit limit, the message gives a power of two.
    """

    def __init__(self, required: int, budget: int):
        self.required = required
        self.budget = budget
        try:
            need = str(required)
        except ValueError:
            need = f"2**{required.bit_length() - 1} or more"
        super().__init__(
            f"enumeration needs budget {need}, configured budget is {budget}"
        )


class NotAGroup(SplineError):
    pass


class InternalInconsistency(SplineError):
    """Two independent computations of the same quantity disagreed (a bug)."""
