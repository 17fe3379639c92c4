"""Exception types shared across the library."""


class InputError(ValueError):
    """Caller-supplied data is invalid (bad node id, missing seed edge, empty input)."""


class ParseError(InputError):
    """A file could not be parsed; carries path and line context when known."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        where = ""
        if path is not None:
            where = f" [{path}" + (f":{line}" if line is not None else "") + "]"
        super().__init__(message + where)
        self.path = path
        self.line = line


class ConstraintError(ValueError):
    """A structural contract was violated (infeasible partition constraints,
    occurrence outside the ball, inconsistent block assignment)."""


class UndefinedConductanceError(ArithmeticError):
    """Motif conductance is 0/0 for the requested split."""


class BudgetExceededError(RuntimeError):
    """A brute-force oracle was asked to exceed its size budget."""


class InternalError(RuntimeError):
    """A library invariant failed: a bug in motifclust, never bad caller input."""


class RefinementError(InternalError):
    """fm_refine ended with a larger cut than it started from."""
