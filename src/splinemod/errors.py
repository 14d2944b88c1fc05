"""Exception classes for splinemod: one per outcome a caller tells apart.

Everything raised on purpose derives from SplineError, and the CLI maps
each class to its exit code:

- SplineError and ParseError: bad input, exit 2.  Every input check raises
  one of these with a message; none is caught by a finer class.
- NonCoprimeModuli: bad input to ``crt_combine``, which ``recombine``
  catches and reports as a defect.
- NotApplicable: a closed form's hypotheses fail; ``closed_form`` catches
  it and tries the next form.
- BudgetExceeded: the enumeration budget is too small, exit 3.
- InternalInconsistency: the program broke, exit 4.  A cross-check that
  disagrees, an order census that is not a group's and a broken internal
  contract all raise it.
"""


class SplineError(Exception):
    """Base class for all errors raised by splinemod; bad input."""


class ParseError(SplineError):
    """Malformed graph file; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NonCoprimeModuli(SplineError):
    pass


class NotApplicable(SplineError):
    """A closed form's hypotheses fail; another form or the lattice answers."""


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


class InternalInconsistency(SplineError):
    """The program broke: two independent computations of the same
    quantity disagreed, or an internal contract was not kept."""
