"""Shared exception types.  Each carries the CLI exit code for it and the
label that starts its one stderr line (cli.main); a subclass may override
the label.  ``shown`` bounds an offending value that such a line echoes."""

from __future__ import annotations


class InputError(ValueError):
    """Input from outside the program is malformed or not exact, or an
    output (--output, a closed stdout) cannot be written."""

    exit_code = 1
    label = "parse error"


class PreconditionError(ValueError):
    """A stated hypothesis or cap of the requested operation is violated."""

    exit_code = 2
    label = "precondition violated"


class QuadratureError(RuntimeError):
    """A quadrature did not converge, or a result missed its stated bound;
    carries the achieved error estimate when there is one."""

    exit_code = 3
    label = "numeric failure"

    def __init__(self, message: str, estimate: float | None = None):
        if estimate is not None:
            message = f"{message} (achieved error estimate {estimate:.3e})"
        super().__init__(message)
        self.estimate = estimate


def shown(text: str) -> str:
    """``text`` (a value's repr, or a flag's text) as an error line echoes it:
    past 60 characters, its first 60 and its full length."""
    return text if len(text) <= 60 else f"{text[:60]}... ({len(text)} characters)"
